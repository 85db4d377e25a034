//! Contract tests of the benchmark: metric names and units, the
//! percentile sample rule, span self-time arithmetic, the serve_churn
//! lifecycle schedule and the result line.

use molcache_metrics::json::{self, Value};
use perfbench::catalog::{self, MetricDef, END_TO_END, PER_LAYER};
use perfbench::digest;
use perfbench::schedule::{lifecycle_schedule, LifecycleOp, MAX_GAP, MAX_RESIZE, MIN_GAP};
use perfbench::spans::{self, Span, Tracer};
use perfbench::speed;
use perfbench::stats::{median, percentile, MIN_BEYOND};
use std::collections::BTreeMap;
use std::time::Instant;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// The metric-name grammar: letters, digits, `_`, `.` and `-`, starting
/// with a letter or digit, at most 64 characters.
fn valid_name(name: &str) -> bool {
    let starts_ok = name
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric());
    starts_ok
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn every_metric_name_and_unit_follows_the_grammar() {
    let detail = catalog::layer_detail();
    let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).chain(&detail).collect();
    for d in &all {
        assert!(valid_name(d.name), "bad metric name {}", d.name);
        assert!(
            valid_unit(d.unit),
            "metric {} has bad unit {:?}",
            d.name,
            d.unit
        );
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
    }
    let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
    for bad in ["", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} must be rejected");
    }
    assert!(!valid_unit(""));
}

#[test]
fn benchmark_json_lists_the_catalog() {
    let doc = benchmark_json();
    for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed = doc.get(key).and_then(Value::as_array).expect(key);
        assert_eq!(listed.len(), defs.len(), "{key} count");
        for (entry, def) in listed.iter().zip(defs) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
            assert_eq!(
                entry.get("unit").and_then(Value::as_str),
                Some(def.unit),
                "{}",
                def.name
            );
            assert_eq!(
                entry.get("better").and_then(Value::as_str),
                Some(def.better),
                "{}",
                def.name
            );
        }
    }
    let bounds: BTreeMap<&str, f64> = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .expect("end_to_end")
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Value::as_str).expect("name");
            (name, e.get("bound").and_then(Value::as_f64).expect("bound"))
        })
        .collect();
    assert!(bounds.values().all(|b| *b > 0.0 && *b <= 0.25));
    let largest = bounds.values().copied().fold(0.0, f64::max);
    assert_eq!(
        bounds.get("setup_s"),
        Some(&largest),
        "set-up time has the largest bound"
    );
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    for w in &workloads {
        assert!(
            ["repro_tables", "serve_churn", "miss_storm"].contains(w),
            "{w}"
        );
    }
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile(&samples, 0.99).expect("1000 samples carry a p99");
    let beyond = samples.iter().filter(|&&s| s > p99).count();
    assert!(beyond >= MIN_BEYOND, "{beyond} samples beyond p99");
    assert_eq!(percentile(&samples[..999], 0.99), None);

    assert_eq!(percentile(&samples[..19], 0.5), None);
    let p50 = percentile(&samples[..20], 0.5).expect("20 samples carry a p50");
    assert_eq!(
        samples[..20].iter().filter(|&&s| s > p50).count(),
        MIN_BEYOND
    );
    assert_eq!(percentile(&[], 0.5), None);

    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

fn span(name: &'static str, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name,
        parent,
        start_ns,
        end_ns,
        items: 0,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = [
        span("pass", None, 0, 100),
        // Two parallel workers overlapping on 20..30.
        span("worker", Some(0), 10, 30),
        span("worker", Some(0), 20, 50),
        // A child running past its parent's end counts only inside it.
        span("export", Some(0), 90, 120),
        // A grandchild is subtracted from its own parent only.
        span("batch", Some(1), 12, 18),
        span("lone", None, 5, 9),
    ];
    assert_eq!(
        spans::self_times(&spans),
        vec![100 - 40 - 10, 20 - 6, 30, 30, 6, 4]
    );

    let totals = spans::totals(&spans);
    let worker = totals["worker"];
    assert_eq!((worker.count, worker.total_ns, worker.self_ns), (2, 50, 44));
    assert_eq!(totals["pass"].self_ns, 50);
    // Per-item cost divides self time, not duration, by the items.
    let mut counted = spans.to_vec();
    counted[1].items = 7;
    counted[2].items = 4;
    let worker = spans::totals(&counted)["worker"];
    assert_eq!(worker.ns_per_item(), 44.0 / 11.0);
}

#[test]
fn tracer_off_records_nothing_and_adopt_reparents() {
    let mut off = Tracer::off();
    let id = off.open("x", None);
    off.close(id, 1);
    assert_eq!(id, None);
    assert!(off.spans().is_empty());

    let mut main = Tracer::on(Instant::now());
    let root = main.open("pass", None);
    let mut worker = main.child();
    let w = worker.open("worker", None);
    let b = worker.scope("batch", w, 256, || 7);
    worker.close(w, 256);
    main.adopt(worker, root);
    main.close(root, 0);
    assert_eq!(b, 7);
    let parents: Vec<Option<u32>> = main.spans().iter().map(|s| s.parent).collect();
    assert_eq!(parents, vec![None, Some(0), Some(1)]);
    assert!(main.spans().iter().all(|s| s.end_ns >= s.start_ns));
    let totals = spans::totals(main.spans());
    assert_eq!(totals["batch"].items, 256);
    assert_eq!(
        totals["pass"].ns_per_item(),
        0.0,
        "no items, no per-item cost"
    );
}

#[test]
fn serve_churn_schedule_is_a_pure_function_of_seed_and_shard() {
    let turns = 2048;
    for seed in [1, 2, 0xDEAD_BEEF] {
        for shard in 0..2 {
            let a = lifecycle_schedule(seed, shard, 4, turns);
            assert_eq!(a, lifecycle_schedule(seed, shard, 4, turns));
            assert!(!a.is_empty());
            let mut last = 0;
            for op in &a {
                let gap = op.turn - last;
                assert!((MIN_GAP..MAX_GAP).contains(&gap), "gap {gap}");
                assert!(op.turn < turns && op.slot < 4);
                if let LifecycleOp::Resize(n) = op.op {
                    assert!((1..=MAX_RESIZE).contains(&n));
                }
                last = op.turn;
            }
        }
        assert_ne!(
            lifecycle_schedule(seed, 0, 4, turns),
            lifecycle_schedule(seed, 1, 4, turns)
        );
    }
    assert_ne!(
        lifecycle_schedule(1, 0, 4, turns),
        lifecycle_schedule(2, 0, 4, turns)
    );
    // A worker thread computes the same schedule as the main thread.
    let here = lifecycle_schedule(9, 1, 4, turns);
    let there = std::thread::spawn(move || lifecycle_schedule(9, 1, 4, turns))
        .join()
        .expect("schedule thread");
    assert_eq!(here, there);
}

#[test]
fn result_line_is_the_contract_json() {
    let values: BTreeMap<&str, f64> = [("setup_s", 0.25), ("run_s", 1.5)].into_iter().collect();
    let line = catalog::result_line(true, 12, 0, END_TO_END, &values);
    let doc = json::parse(&line).expect("result line parses");
    let keys: Vec<&str> = match &doc {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result line is an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert!(line.contains("\"attempted\": 12,") && line.contains("\"failed\": 0,"));
    let metrics = doc.get("metrics").expect("metrics");
    for d in END_TO_END {
        let m = metrics.get(d.name).expect(d.name);
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(d.unit));
    }
    assert_eq!(
        metrics
            .get("run_s")
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64),
        Some(1.5)
    );
}

#[test]
fn times_scale_to_the_reference_speed() {
    assert_eq!(speed::at_reference(2.0, speed::NOMINAL_S), 2.0);
    // A host on which the kernel runs twice as slow halves every time.
    let halved = speed::at_reference(2.0, 2.0 * speed::NOMINAL_S);
    assert!((halved - 1.0).abs() < 1e-12, "{halved}");
    for threads in [1, 2] {
        assert!(speed::Reference::new(threads).time_s() > 0.0);
    }
}

#[test]
fn digest_file_round_trips() {
    let text = "# header\nother a 00000000000000ff\n";
    let digests = vec![("k1".to_string(), 0x1234), ("k2".to_string(), u64::MAX)];
    let written = digest::replace(text, "w", &digests);
    let parsed = digest::parse(&written, "w");
    assert_eq!(parsed.len(), 2);
    assert_eq!(parsed["k1"], 0x1234);
    assert_eq!(parsed["k2"], u64::MAX);
    assert_eq!(digest::parse(&written, "other")["a"], 0xff);
    assert!(written.starts_with("# header\n"));
    assert_ne!(digest::fnv1a("a"), digest::fnv1a("b"));
}
