//! Pipeline staging contract over a real workload: for every access the
//! Table 2 mixed workload produces, the stage cycles the access adds to
//! the cache's activity must sum exactly to its reported latency — the
//! breakdown is a decomposition of the measured number, never a second
//! estimate — and the lifetime stage totals must tile the aggregate
//! activity counters.

use molcache_bench::experiments::table2;
use molcache_bench::harness::run_workload_on;
use molcache_core::{MolecularCache, RegionPolicy};
use molcache_sim::{CacheModel, Request};
use molcache_trace::interleave::Workload;
use molcache_trace::presets::Benchmark;

fn mixed12_sources(seed: u64) -> Workload {
    let sources = molcache_trace::presets::workload(&Benchmark::MIXED12, seed)
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    Workload::new(sources).expect("preset workload is valid")
}

#[test]
fn every_mixed12_access_decomposes_into_stage_cycles() {
    const REFS: usize = 60_000;
    let mut cache: MolecularCache =
        table2::molecular_6mb_with_period(RegionPolicy::Randy, 7, 5_000);
    let mut total_latency = 0u64;
    for (i, acc) in mixed12_sources(7).round_robin().take(REFS).enumerate() {
        let before = cache.activity().stages;
        let out = cache.access(Request::from(acc));
        let stages = cache.activity().stages.since(&before);
        assert_eq!(
            stages.total_cycles(),
            u64::from(out.latency),
            "access {i}: stage cycles do not sum to the latency"
        );
        total_latency += u64::from(out.latency);
    }
    assert_eq!(cache.activity().accesses, REFS as u64);

    // Lifetime stage totals tile the aggregate counters.
    let activity = cache.activity();
    let s = &activity.stages;
    assert_eq!(s.total_cycles(), total_latency);
    assert_eq!(
        s.asid_gate.asid_compares + s.ulmo_search.asid_compares,
        activity.asid_compares
    );
    assert_eq!(
        s.home_lookup.tag_probes + s.ulmo_search.tag_probes,
        activity.ways_probed
    );
    assert_eq!(s.fill.frames_touched, activity.line_fills);
    assert_eq!(s.victim.cycles, 0, "victim selection overlaps the miss");
}

#[test]
fn staging_is_identical_across_policies() {
    // The contract is policy-independent: all three replacement policies
    // keep stage cycles equal to total latency.
    for policy in [
        RegionPolicy::Random,
        RegionPolicy::Randy,
        RegionPolicy::LruDirect,
    ] {
        let mut cache: MolecularCache = table2::molecular_6mb_with_period(policy, 11, 5_000);
        let summary = run_workload_on(&Benchmark::MIXED12, &mut cache, 20_000, 11);
        assert_eq!(
            cache.activity().stages.total_cycles(),
            summary.total_latency(),
            "stage cycles diverged from latency under {policy}"
        );
    }
}
