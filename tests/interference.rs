//! Cross-crate integration: the paper's core phenomenon.
//!
//! Inter-application interference exists on a shared traditional cache
//! (Table 1) and disappears under molecular partitioning (§3.1).

use molecular_caches::core::{MolecularCache, MolecularConfig};
use molecular_caches::sim::cmp::{run_shared, run_source};
use molecular_caches::sim::{CacheConfig, SetAssocCache};
use molecular_caches::trace::presets::Benchmark;
use molecular_caches::trace::Asid;

const REFS: u64 = 400_000;

fn ammp_solo_miss_rate() -> f64 {
    let mut cache = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap());
    let src = Benchmark::Ammp.source(Asid::new(1), 9);
    run_source(src, &mut cache, REFS / 2).app_miss_rate(Asid::new(1))
}

fn spec4_sources() -> Vec<molecular_caches::trace::gen::BoxedSource> {
    Benchmark::SPEC4
        .iter()
        .enumerate()
        .map(|(i, b)| b.source(Asid::new(i as u16 + 1), 9))
        .collect()
}

#[test]
fn shared_cache_inflates_small_apps() {
    let solo = ammp_solo_miss_rate();
    let mut shared = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap());
    let summary = run_shared(spec4_sources(), &mut shared, REFS).unwrap();
    let ammp_shared = summary.app_miss_rate(Asid::new(2)); // ammp is 2nd in SPEC4
    assert!(
        ammp_shared > 3.0 * solo,
        "interference must inflate ammp: solo {solo:.4} shared {ammp_shared:.4}"
    );
}

#[test]
fn cache_hungry_neighbours_barely_affected() {
    // mcf misses heavily regardless of who it runs with (Table 1).
    let mut solo_cache = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap());
    let solo = run_source(
        Benchmark::Mcf.source(Asid::new(1), 9),
        &mut solo_cache,
        REFS / 2,
    )
    .app_miss_rate(Asid::new(1));
    let mut shared = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap());
    let summary = run_shared(spec4_sources(), &mut shared, REFS).unwrap();
    let shared_mr = summary.app_miss_rate(Asid::new(3)); // mcf is 3rd
    assert!(
        (shared_mr - solo).abs() < 0.12,
        "mcf should be shape-stable: solo {solo:.3} shared {shared_mr:.3}"
    );
    assert!(solo > 0.45, "mcf misses heavily even alone: {solo:.3}");
}

#[test]
fn molecular_regions_isolate_address_spaces() {
    // Two apps; the second thrashes. The first app's region must keep
    // servicing its hot set — no inter-application eviction is possible
    // because regions are ASID-exclusive.
    let config = MolecularConfig::builder()
        .molecule_size(8 * 1024)
        .tile_molecules(32)
        .tiles_per_cluster(4)
        .clusters(1)
        .miss_rate_goal(0.10)
        .build()
        .unwrap();
    let mut cache = MolecularCache::new(config);
    let sources = vec![
        Benchmark::Ammp.source(Asid::new(1), 9),
        Benchmark::Mcf.source(Asid::new(2), 9),
    ];
    let summary = run_shared(sources, &mut cache, REFS).unwrap();
    let ammp = summary.app_miss_rate(Asid::new(1));
    // ammp's region equilibrates near its goal instead of being wrecked
    // by mcf (solo-level would be ~0.01; goal-tracking may sit near 0.1).
    assert!(
        ammp < 0.2,
        "molecular isolation failed: ammp miss rate {ammp:.3}"
    );
    // And the regions never share molecules.
    let snaps = cache.snapshots();
    let total: usize = snaps.iter().map(|s| s.molecules).sum();
    assert!(total <= cache.config().total_molecules());
}
