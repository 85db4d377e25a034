//! The JSON documents the workspace reads and writes.
//!
//! * **Pins.** Every committed record re-emits byte for byte: the eight
//!   `results/*.json` experiment records through
//!   `ExperimentRecord::{from_json, to_json}`, and the tournament record
//!   through `TourneyDoc`. The serve document's bytes are pinned next to
//!   its fixture in `molcache-serve`'s `report` module.
//! * **Fuzz.** The four readers — `json::parse`,
//!   `ExperimentRecord::from_json`, `ServeDoc::from_json` and
//!   `TourneyDoc::from_json` — return `Ok` or `Err` on any text and never
//!   panic: random bytes read as lossy UTF-8, and truncations and byte
//!   mutations of the pinned documents (which put multi-byte characters
//!   next to the parser's ASCII tokens).

use molcache_bench::tourney::TourneyDoc;
use molcache_metrics::json;
use molcache_metrics::record::ExperimentRecord;
use molcache_serve::report::{ServeDoc, TenantRecord};
use molcache_sim::AppStats;
use molcache_telemetry::ShardContention;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The experiment records `repro all --json` writes.
const RECORDS: [&str; 8] = [
    "ablations",
    "fig5a",
    "fig5b",
    "fig6",
    "table1",
    "table2",
    "table4",
    "table5",
];

const TOURNEY: &str = "TOURNEY_2026-08-08.json";

fn results_file(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../results")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn experiment_records_re_emit_byte_for_byte() {
    for id in RECORDS {
        let text = results_file(&format!("{id}.json"));
        let record = ExperimentRecord::from_json(&text).expect(id);
        assert_eq!(record.to_json(), text, "{id}.json");
    }
}

#[test]
fn tourney_record_re_emits_byte_for_byte() {
    let text = results_file(TOURNEY);
    assert_eq!(text.len(), 14_169);
    let doc = TourneyDoc::from_json(&text).expect(TOURNEY);
    // moltourney writes the record with a trailing newline.
    assert_eq!(doc.to_json().unwrap() + "\n", text);
}

/// A small serve document: two tenants on two shards.
fn serve_doc() -> String {
    let stats = AppStats {
        accesses: 50_000,
        hits: 41_234,
        misses: 8_766,
        writebacks: 321,
        total_latency: 3_456_789,
    };
    let doc = ServeDoc {
        tenants: 2,
        threads: 2,
        shards: 2,
        refs_per_tenant: 50_000,
        seed: 42,
        wall_ns: 12_345_678,
        accesses_per_sec: 8_100_000.5,
        imbalance: 1.0625,
        per_tenant: (0..2)
            .map(|t| TenantRecord {
                asid: t + 1,
                benchmark: ["mcf", "art"][usize::from(t)].into(),
                shard: usize::from(t),
                stats,
            })
            .collect(),
        per_shard: (0..2)
            .map(|shard| ShardContention {
                shard,
                acquisitions: 200,
                contended: 3,
                lock_wait_ns: 4_500,
                max_queue_depth: 2,
                accesses: 50_000,
                hits: 41_234,
            })
            .collect(),
    };
    doc.to_json().expect("finite")
}

/// The documents mutations start from.
fn seed_documents() -> &'static [String] {
    static DOCS: OnceLock<Vec<String>> = OnceLock::new();
    DOCS.get_or_init(|| {
        let mut docs: Vec<String> = RECORDS
            .iter()
            .map(|id| results_file(&format!("{id}.json")))
            .collect();
        docs.push(results_file(TOURNEY));
        docs.push(serve_doc());
        docs
    })
}

/// Feeds `text` to every reader; `Err` is fine, a panic is not.
fn read_everywhere(text: &str) -> Result<(), TestCaseError> {
    let outcome = std::panic::catch_unwind(|| {
        let _ = json::parse(text);
        let _ = ExperimentRecord::from_json(text);
        let _ = ServeDoc::from_json(text);
        let _ = TourneyDoc::from_json(text);
    });
    prop_assert!(outcome.is_ok(), "a reader panicked on {:?}", text);
    Ok(())
}

/// Bytes that steer the parser into its branches, plus the lead and
/// continuation bytes of multi-byte characters.
const JSONISH: &[u8] = b"{}[]\":,\\/ \n\t-+.0123456789eEtrufalsn\xc3\xa9\xf0\x9f\x98\x80\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    #[test]
    fn readers_never_panic_on_random_bytes(
        bytes in proptest::collection::vec(0u8..=255, 0..96),
        steer in proptest::collection::vec(0usize..JSONISH.len(), 0..96),
    ) {
        read_everywhere(&String::from_utf8_lossy(&bytes))?;
        let jsonish: Vec<u8> = steer.iter().map(|&i| JSONISH[i]).collect();
        read_everywhere(&String::from_utf8_lossy(&jsonish))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    #[test]
    fn readers_never_panic_on_damaged_documents(
        doc in 0usize..10,
        cut in proptest::num::u64::ANY,
        edits in proptest::collection::vec(
            (proptest::num::u64::ANY, 0u8..=255, 0u8..3),
            1..6,
        ),
    ) {
        let bytes = seed_documents()[doc].as_bytes();

        // A truncation anywhere.
        let at = (cut % (bytes.len() as u64 + 1)) as usize;
        read_everywhere(&String::from_utf8_lossy(&bytes[..at]))?;

        // A few byte edits: overwrite with any byte, insert a character
        // the parser must step over whole, or delete.
        let mut damaged = bytes.to_vec();
        for &(pos, byte, kind) in &edits {
            if damaged.is_empty() {
                break;
            }
            let at = (pos % damaged.len() as u64) as usize;
            match kind {
                0 => damaged[at] = byte,
                1 => {
                    let ch = ['é', '😀', '"', '\\', '\u{fffd}'][usize::from(byte) % 5];
                    let mut buf = [0u8; 4];
                    let enc = ch.encode_utf8(&mut buf).as_bytes();
                    damaged.splice(at..at, enc.iter().copied());
                }
                _ => {
                    damaged.remove(at);
                }
            }
        }
        read_everywhere(&String::from_utf8_lossy(&damaged))?;
    }
}
