//! Property-based tests (proptest) on the core invariants.

use molecular_caches::core::{
    InitialAllocation, MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger,
};
use molecular_caches::sim::{CacheConfig, CacheModel, Request, SetAssocCache};
use molecular_caches::trace::rng::Rng;
use molecular_caches::trace::{AccessKind, Address, Asid};
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

fn arbitrary_trace(max_line: u64, len: usize) -> impl Strategy<Value = Vec<(u16, u64, bool)>> {
    proptest::collection::vec((1u16..4, 0u64..max_line, proptest::bool::ANY), 1..len)
}

/// A trivially-correct reference model of a set-associative,
/// write-back, write-allocate LRU cache.
struct RefLru {
    sets: Vec<VecDeque<(u64, bool)>>, // per set, (line, dirty) in LRU order
    assoc: usize,
    line_size: u64,
}

impl RefLru {
    fn new(cfg: &CacheConfig) -> Self {
        RefLru {
            sets: vec![VecDeque::new(); cfg.num_sets() as usize],
            assoc: cfg.assoc() as usize,
            line_size: cfg.line_size(),
        }
    }

    /// Returns (hit, writeback).
    fn access(&mut self, addr: Address, write: bool) -> (bool, bool) {
        let line = addr.raw() / self.line_size;
        let set = (line % self.sets.len() as u64) as usize;
        let q = &mut self.sets[set];
        if let Some(pos) = q.iter().position(|&(l, _)| l == line) {
            let (_, dirty) = q.remove(pos).expect("position is in range");
            q.push_back((line, dirty || write));
            (true, false)
        } else {
            let writeback = q.len() == self.assoc && q.pop_front().is_some_and(|(_, d)| d);
            q.push_back((line, write));
            (false, writeback)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The production set-associative cache agrees hit-for-hit and
    /// writeback-for-writeback with the naive reference LRU on arbitrary
    /// traces, at every associativity the experiments use (1, 2, 4 and 8
    /// ways) and 1 to 64 sets.
    #[test]
    fn set_assoc_matches_reference_lru(
        ways_log2 in 0u32..4,
        sets_log2 in 0u32..7,
        trace in arbitrary_trace(1 << 16, 400),
    ) {
        let (ways, sets) = (1u64 << ways_log2, 1u64 << sets_log2);
        let cfg = CacheConfig::new(sets * ways * 64, ways as u32, 64).unwrap();
        let mut cache = SetAssocCache::new(cfg);
        let mut reference = RefLru::new(&cfg);
        for (asid, line, is_write) in trace {
            // A footprint of three times the capacity mixes hits,
            // conflict misses and dirty evictions.
            let line = line % (3 * sets * ways);
            let addr = Address::new(line * 64);
            let req = Request {
                asid: Asid::new(asid),
                addr,
                kind: if is_write { AccessKind::Write } else { AccessKind::Read },
            };
            let out = cache.access(req);
            let (hit, writeback) = reference.access(addr, is_write);
            prop_assert_eq!(out.hit, hit, "hit divergence at line {}", line);
            prop_assert_eq!(out.writeback, writeback, "writeback divergence at line {}", line);
        }
    }

    /// Accesses = hits + misses, globally and per app, for any model.
    #[test]
    fn stats_are_conserved(trace in arbitrary_trace(4096, 300)) {
        let cfg = CacheConfig::new(32 * 1024, 2, 64).unwrap();
        let mut cache = SetAssocCache::new(cfg);
        for (asid, line, is_write) in &trace {
            cache.access(Request {
                asid: Asid::new(*asid),
                addr: Address::new(line * 64),
                kind: if *is_write { AccessKind::Write } else { AccessKind::Read },
            });
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.global.accesses, trace.len() as u64);
        prop_assert_eq!(stats.global.hits + stats.global.misses, stats.global.accesses);
        let per_app_sum: u64 = stats.per_app.values().map(|s| s.accesses).sum();
        prop_assert_eq!(per_app_sum, stats.global.accesses);
    }

    /// Molecular-cache structural invariants hold under arbitrary traffic:
    /// allocated + free == total, regions are ASID-disjoint, and a region
    /// read-back after a write returns a hit (no lost lines while the
    /// region is stable).
    #[test]
    fn molecular_invariants(trace in arbitrary_trace(2048, 300)) {
        let config = MolecularConfig::builder()
            .molecule_size(1024)
            .tile_molecules(8)
            .tiles_per_cluster(2)
            .clusters(2)
            .initial_allocation(InitialAllocation::Molecules(2))
            .trigger(ResizeTrigger::Constant { period: 64 })
            .policy(RegionPolicy::Randy)
            .build()
            .unwrap();
        let mut cache = MolecularCache::new(config);
        for (asid, line, is_write) in &trace {
            // Separate the apps' address spaces as real systems would.
            let addr = Address::new(((*asid as u64) << 36) + line * 64);
            cache.access(Request {
                asid: Asid::new(*asid),
                addr,
                kind: if *is_write { AccessKind::Write } else { AccessKind::Read },
            });
            let allocated: usize = cache.snapshots().iter().map(|s| s.molecules).sum();
            prop_assert!(allocated + cache.free_molecules() <= cache.config().total_molecules());
        }
        // Stats conservation for the molecular model too.
        let stats = cache.stats();
        prop_assert_eq!(stats.global.hits + stats.global.misses, stats.global.accesses);
    }

    /// The deterministic RNG produces identical streams for equal seeds
    /// and (overwhelmingly) different streams for different seeds.
    #[test]
    fn rng_determinism(seed in proptest::num::u64::ANY) {
        let mut a = Rng::seeded(seed);
        let mut b = Rng::seeded(seed);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        prop_assert_eq!(va, vb);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// din-format round trips preserve arbitrary access sequences.
    #[test]
    fn din_roundtrip(trace in proptest::collection::vec(
        (0u64..1 << 40, proptest::bool::ANY), 1..200)) {
        use molecular_caches::trace::din::{read_din, write_din};
        use molecular_caches::trace::MemAccess;
        let original: Vec<MemAccess> = trace
            .iter()
            .map(|(addr, w)| {
                if *w {
                    MemAccess::write(Asid::new(1), Address::new(*addr))
                } else {
                    MemAccess::read(Asid::new(1), Address::new(*addr))
                }
            })
            .collect();
        let mut bytes = Vec::new();
        write_din(&original, &mut bytes).unwrap();
        let parsed = read_din(std::io::Cursor::new(&bytes), Asid::new(1)).unwrap();
        prop_assert_eq!(parsed, original);
    }

    /// The molecular cache never stores the same line in two molecules of
    /// one region, for arbitrary traffic with block fills enabled.
    #[test]
    fn no_duplicate_lines_property(trace in proptest::collection::vec(
        (1u16..3, 0u64..512, proptest::bool::ANY), 1..400)) {
        let config = MolecularConfig::builder()
            .molecule_size(1024)
            .tile_molecules(4)
            .tiles_per_cluster(2)
            .clusters(1)
            .initial_allocation(InitialAllocation::Molecules(2))
            .app_line_factor(Asid::new(1), 2)
            .trigger(ResizeTrigger::Constant { period: 50 })
            .build()
            .unwrap();
        let mut cache = MolecularCache::new(config);
        for (asid, line, is_write) in &trace {
            let addr = Address::new(((*asid as u64) << 36) + line * 64);
            cache.access(Request {
                asid: Asid::new(*asid),
                addr,
                kind: if *is_write { AccessKind::Write } else { AccessKind::Read },
            });
        }
        prop_assert_eq!(cache.find_duplicate_line(), None);
    }

    /// `access_batch` is bit-identical to a loop of single `access` calls
    /// for arbitrary traffic and arbitrary batch boundaries: same hit/miss
    /// sequence totals, same latency, same stats, same region state.
    #[test]
    fn access_batch_matches_single_access_loop(
        trace in arbitrary_trace(512, 300),
        chunk in 1usize..48,
    ) {
        let build = || {
            let config = MolecularConfig::builder()
                .molecule_size(1024)
                .tile_molecules(8)
                .tiles_per_cluster(2)
                .clusters(2)
                .initial_allocation(InitialAllocation::Molecules(2))
                .trigger(ResizeTrigger::Constant { period: 64 })
                .policy(RegionPolicy::Randy)
                .seed(11)
                .build()
                .unwrap();
            MolecularCache::new(config)
        };
        let reqs: Vec<Request> = trace
            .iter()
            .map(|(asid, line, is_write)| Request {
                asid: Asid::new(*asid),
                addr: Address::new(((*asid as u64) << 36) + line * 64),
                kind: if *is_write { AccessKind::Write } else { AccessKind::Read },
            })
            .collect();

        let mut serial = build();
        let mut hits = 0u64;
        let mut latency = 0u64;
        for req in &reqs {
            let out = serial.access(*req);
            hits += u64::from(out.hit);
            latency += u64::from(out.latency);
        }

        let mut batched = build();
        let mut batch_hits = 0u64;
        let mut batch_latency = 0u64;
        for slice in reqs.chunks(chunk) {
            let out = batched.access_batch(slice);
            batch_hits += out.hits;
            batch_latency += out.total_latency;
        }

        prop_assert_eq!(hits, batch_hits);
        prop_assert_eq!(latency, batch_latency);
        prop_assert_eq!(serial.stats(), batched.stats());
        prop_assert_eq!(serial.snapshots(), batched.snapshots());
        prop_assert_eq!(serial.activity(), batched.activity());
    }
}

/// Interleaving granularity should not change totals, only interference:
/// the same two applications at quantum 1 vs quantum 10 000 see the same
/// access counts, and coarser quanta give the small application at least
/// as good a miss rate (its bursts keep its lines resident).
#[test]
fn quantum_interleaving_changes_interference_not_totals() {
    use molecular_caches::sim::cmp::run_accesses;
    use molecular_caches::trace::interleave::Workload;
    use molecular_caches::trace::presets::Benchmark;

    let run = |quantum: u64| {
        let sources = vec![
            Benchmark::Twolf.source(Asid::new(1), 3),
            Benchmark::Crc.source(Asid::new(2), 3),
        ];
        let workload = Workload::new(sources).unwrap();
        let mut cache = SetAssocCache::new(CacheConfig::new(256 << 10, 4, 64).unwrap());
        if quantum == 1 {
            run_accesses(workload.round_robin(), &mut cache, 400_000)
        } else {
            run_accesses(workload.quantum(quantum), &mut cache, 400_000)
        }
    };
    let fine = run(1);
    let coarse = run(10_000);
    assert_eq!(fine.accesses(), coarse.accesses());
    let twolf_fine = fine.app_miss_rate(Asid::new(1));
    let twolf_coarse = coarse.app_miss_rate(Asid::new(1));
    assert!(
        twolf_coarse <= twolf_fine + 0.02,
        "coarse quanta must not hurt the small app: fine {twolf_fine:.3} coarse {twolf_coarse:.3}"
    );
}

/// Deterministic full-stack check outside proptest: same seed, same
/// experiment, bit-identical results.
#[test]
fn molecular_run_is_deterministic() {
    let run = || {
        let config = MolecularConfig::builder()
            .molecule_size(8 * 1024)
            .tile_molecules(16)
            .tiles_per_cluster(2)
            .clusters(1)
            .seed(99)
            .build()
            .unwrap();
        let mut cache = MolecularCache::new(config);
        let mut hits = HashMap::new();
        let mut src = molecular_caches::trace::presets::Benchmark::Gzip.source(Asid::new(1), 123);
        use molecular_caches::trace::gen::TraceSource;
        for _ in 0..50_000 {
            let acc = src.next_access().unwrap();
            let out = cache.access(Request::from(acc));
            *hits.entry(out.hit).or_insert(0u64) += 1;
        }
        (
            hits,
            cache.stats().global.misses,
            cache.activity().ways_probed,
            cache.snapshots().len(),
        )
    };
    assert_eq!(run(), run());
}
