//! The division-free generator kernels draw exactly the streams of the
//! `%`- and `ln`-per-draw kernels they replaced.
//!
//! Each property keeps the old kernel here as its reference and compares
//! at least 100 K draws over small regions, so every stream wraps many
//! times (the preset streams wrap far too rarely for the pinned trace
//! digests to reach it: art's 8 MB stride needs 131,072 stride draws).
//! `cargo test -p molcache-trace --test generator_equivalence` runs them.

use molcache_trace::dist::{Sample, Zipf};
use molcache_trace::gen::{
    BoxedSource, LoopSource, ReplaySource, StrideSource, TraceSource, WorkingSetSource,
};
use molcache_trace::interleave::Workload;
use molcache_trace::presets::{Benchmark, ComponentSpec};
use molcache_trace::rng::Rng;
use molcache_trace::{AccessKind, Address, Asid, MemAccess};
use proptest::prelude::*;

/// The store draw every generator makes after its address.
fn kind(write_frac: f64, rng: &mut Rng) -> AccessKind {
    if write_frac > 0.0 && rng.gen_bool(write_frac) {
        AccessKind::Write
    } else {
        AccessKind::Read
    }
}

/// Compares `draws` accesses of `source` with those of `reference`,
/// failing at the first difference.
fn same_stream(
    mut source: impl TraceSource,
    mut reference: impl FnMut() -> MemAccess,
    draws: usize,
) -> Result<(), TestCaseError> {
    for i in 0..draws {
        let (got, want) = (source.next_access(), reference());
        prop_assert_eq!(got, Some(want), "draw {}", i);
    }
    Ok(())
}

/// A store fraction of 0 (no store draw) or one that draws.
fn write_frac(pick: u64) -> f64 {
    [0.0, 0.05, 0.3][pick as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `StrideSource` against `(cursor + stride) % region`, with the
    /// stride below, equal to and above the region.
    #[test]
    fn stride_matches_modulo_kernel(
        region in 1u64..2_048,
        below in 1u64..2_048,
        above in 1u64..8_192,
        frac in 0u64..3,
        seed in proptest::num::u64::ANY,
    ) {
        let base = Address::new(seed >> 8);
        let frac = write_frac(frac);
        let strides = [below.min(region.saturating_sub(1)).max(1), region, region + above];
        for stride in strides {
            let asid = Asid::new(1);
            let source = StrideSource::new(asid, base, region, stride, frac, seed);
            let (mut cursor, mut rng) = (0u64, Rng::seeded(seed));
            let reference = || {
                let addr = base.byte_add(cursor);
                cursor = (cursor + stride) % region;
                MemAccess::new(asid, addr, kind(frac, &mut rng))
            };
            same_stream(source, reference, 4_096)?;
        }
    }

    /// `LoopSource` against `(cursor + 1) % lines`.
    #[test]
    fn loop_matches_modulo_kernel(
        lines in 1u64..48,
        touches in 1u32..9,
        frac in 0u64..3,
        seed in proptest::num::u64::ANY,
    ) {
        let (asid, base) = (Asid::new(2), Address::new(seed >> 8));
        let frac = write_frac(frac);
        let source = LoopSource::new(asid, base, lines * 64, touches, frac, seed);
        let (mut cursor, mut touch, mut rng) = (0u64, 0u32, Rng::seeded(seed));
        let reference = || {
            let addr = base.byte_add(cursor * 64 + (touch as u64 * 8) % 64);
            touch += 1;
            if touch >= touches {
                touch = 0;
                cursor = (cursor + 1) % lines;
            }
            MemAccess::new(asid, addr, kind(frac, &mut rng))
        };
        same_stream(source, reference, 4_096)?;
    }

    /// `WorkingSetSource` against the kernel that reduced every line
    /// `% lines` and took `ln(1 - run_p)` per run, on hot sets below and
    /// above the 128-line permutation block, with runs on and off.
    #[test]
    fn working_set_matches_modulo_kernel(
        small in 1u64..128,
        large in 129u64..1_200,
        run in 0u64..4,
        zipf_tenths in 0u64..14,
        frac in 0u64..3,
        seed in proptest::num::u64::ANY,
    ) {
        let run_p = [1.0, 0.9, 0.5, 0.2][run as usize];
        let zipf_s = zipf_tenths as f64 / 10.0;
        let frac = write_frac(frac);
        for lines in [small, large] {
            let (asid, base) = (Asid::new(3), Address::new(seed >> 8));
            let source = WorkingSetSource::new(asid, base, lines * 64, zipf_s, run_p, frac, seed);
            let zipf = Zipf::new(lines as usize, zipf_s);
            let rank_to_line = |rank: u64| {
                const MUL: u64 = 0x9E37_79B9_7F4A_7C15;
                if lines <= 128 {
                    return rank.wrapping_mul(MUL) % lines;
                }
                let block = (rank / 128).wrapping_mul(MUL) % (lines / 128);
                (block * 128 + rank % 128) % lines
            };
            let (mut remaining, mut run_line, mut rng) = (0u64, 0u64, Rng::seeded(seed));
            let reference = || {
                if remaining == 0 {
                    run_line = rank_to_line(zipf.sample(&mut rng));
                    remaining = if run_p >= 1.0 {
                        1
                    } else {
                        let u = rng.gen_f64();
                        let v = ((1.0 - u).ln() / (1.0 - run_p).ln()).ceil();
                        v.max(1.0) as u64
                    };
                }
                let line = run_line % lines;
                run_line = run_line.wrapping_add(1);
                remaining -= 1;
                let addr = base.byte_add(line * 64 + (rng.gen_range(64) & !7));
                MemAccess::new(asid, addr, kind(frac, &mut rng))
            };
            same_stream(source, reference, 4_096)?;
        }
    }

    /// `RoundRobin` and `Quantum` against the `(next + 1) % apps`
    /// interleavers, over finite streams so that exhausted sources are
    /// skipped too.
    #[test]
    fn interleavers_match_modulo_kernel(
        lengths in proptest::collection::vec(0usize..2_400, 1..8),
        quantum in 1u64..6,
    ) {
        let sources = || -> Vec<BoxedSource> {
            lengths
                .iter()
                .enumerate()
                .map(|(i, &n)| {
                    let asid = Asid::new(i as u16 + 1);
                    let accesses = (0..n as u64)
                        .map(|k| MemAccess::read(asid, Address::new(k * 64)))
                        .collect();
                    Box::new(ReplaySource::new(asid, accesses)) as BoxedSource
                })
                .collect()
        };
        let total: usize = lengths.iter().sum();

        let mut reference = sources();
        let apps = reference.len();
        let mut next = 0;
        let mut round_robin = Vec::with_capacity(total);
        'rr: loop {
            for _ in 0..apps {
                let idx = next;
                next = (next + 1) % apps;
                if let Some(access) = reference[idx].next_access() {
                    round_robin.push(access);
                    continue 'rr;
                }
            }
            break;
        }
        let built = Workload::new(sources()).expect("distinct ASIDs");
        prop_assert_eq!(built.round_robin().collect::<Vec<_>>(), round_robin);

        let mut reference = sources();
        let (mut next, mut remaining) = (0, quantum);
        let mut bursts = Vec::with_capacity(total);
        'q: loop {
            for _ in 0..apps {
                if remaining == 0 {
                    next = (next + 1) % apps;
                    remaining = quantum;
                }
                if let Some(access) = reference[next].next_access() {
                    remaining -= 1;
                    bursts.push(access);
                    continue 'q;
                }
                remaining = 0;
            }
            break;
        }
        let built = Workload::new(sources()).expect("distinct ASIDs");
        prop_assert_eq!(built.quantum(quantum).collect::<Vec<_>>(), bursts);
    }
}

/// Each preset's shared popularity table is the table a fresh
/// `Zipf::new` builds from the preset's parameters, and every source of
/// the preset samples that one table.
#[test]
fn preset_tables_equal_fresh_tables() {
    for b in Benchmark::ALL {
        let tables = b.popularity_tables();
        let components = b.spec().components;
        assert_eq!(tables.len(), components.len(), "{b}");
        for ((component, _), table) in components.iter().zip(tables) {
            let fresh = match *component {
                ComponentSpec::WorkingSet { bytes, zipf_s, .. } => {
                    Some(Zipf::new((bytes / 64).min(1 << 20) as usize, zipf_s))
                }
                _ => None,
            };
            assert_eq!(table, &fresh, "{b}");
        }
        assert!(std::ptr::eq(tables, b.popularity_tables()), "{b}");
    }
}
