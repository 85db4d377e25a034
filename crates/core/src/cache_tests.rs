//! Tests for the cache driver and the staged pipeline it sequences.

use super::*;
use crate::config::{InitialAllocation, MolecularConfig};
use crate::resize::ResizeTrigger;
use molcache_sim::StageActivity;
use molcache_telemetry::ResizeKind;
use molcache_trace::{AccessKind, Address};

fn small_config() -> MolecularConfig {
    // 1 cluster x 2 tiles x 8 molecules x 1KB (16 frames of 64B).
    MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .trigger(ResizeTrigger::Constant { period: 1_000_000 })
        .build()
        .unwrap()
}

fn read(asid: u16, addr: u64) -> Request {
    Request {
        asid: Asid::new(asid),
        addr: Address::new(addr),
        kind: AccessKind::Read,
    }
}

fn write(asid: u16, addr: u64) -> Request {
    Request {
        asid: Asid::new(asid),
        addr: Address::new(addr),
        kind: AccessKind::Write,
    }
}

/// Services `req`, returning its outcome and the stage totals it added
/// to the cache's activity — the access's stage breakdown.
fn access_staged(c: &mut MolecularCache, req: Request) -> (AccessOutcome, StageActivity) {
    let before = c.activity().stages;
    let out = c.access(req);
    (out, c.activity().stages.since(&before))
}

#[test]
fn first_access_creates_region_with_half_tile() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(1, 0));
    let snap = c.region_snapshot(Asid::new(1)).unwrap();
    assert_eq!(snap.molecules, 4, "half of an 8-molecule tile");
    assert_eq!(c.free_molecules(), 12);
}

#[test]
fn miss_then_hit() {
    let mut c = MolecularCache::new(small_config());
    assert!(!c.access(read(1, 0x100)).hit);
    assert!(c.access(read(1, 0x100)).hit);
    assert!(c.access(read(1, 0x100 + 32)).hit, "same 64B line");
}

#[test]
fn asid_isolation() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(1, 0x1000));
    // A different app accessing the same physical address misses:
    // app 2's region does not include app 1's molecules.
    assert!(!c.access(read(2, 0x1000)).hit);
    // And app 1 still hits: app 2 did not disturb its region.
    assert!(c.access(read(1, 0x1000)).hit);
}

#[test]
fn apps_assigned_round_robin_to_tiles() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(1, 0));
    c.access(read(2, 0));
    let home1 = c.regions[&Asid::new(1)].home_tile();
    let home2 = c.regions[&Asid::new(2)].home_tile();
    assert_ne!(home1, home2);
}

#[test]
fn write_miss_then_eviction_writes_back() {
    let cfg = MolecularConfig::builder()
        .molecule_size(128) // 2 frames per molecule
        .tile_molecules(2)
        .tiles_per_cluster(1)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(1))
        .trigger(ResizeTrigger::Constant { period: 1_000_000 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    // One molecule, 2 frames. Write line 0, then conflict with line 2
    // (same frame 0 of the only molecule).
    assert!(!c.access(write(1, 0)).hit);
    let out = c.access(read(1, 2 * 64));
    assert!(!out.hit);
    assert!(out.writeback, "dirty line 0 must be written back");
}

#[test]
fn region_grows_when_missing() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(1))
        .trigger(ResizeTrigger::Constant { period: 200 })
        .miss_rate_goal(0.05)
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    // Stream far more lines than one molecule holds: miss rate ~100%
    // -> Algorithm 1's >50% branch grows the partition each round.
    for i in 0..2_000u64 {
        c.access(read(1, (i % 256) * 64));
    }
    let snap = c.region_snapshot(Asid::new(1)).unwrap();
    assert!(snap.molecules > 1, "partition must have grown");
    assert!(c.resize_rounds() > 0);
}

#[test]
fn region_shrinks_when_idle_hot() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(8))
        .trigger(ResizeTrigger::Constant { period: 500 })
        .miss_rate_goal(0.20)
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    // Two hot lines, hit rate ~100% -> far below goal -> withdraw.
    for i in 0..5_000u64 {
        c.access(read(1, (i % 2) * 64));
    }
    let snap = c.region_snapshot(Asid::new(1)).unwrap();
    assert!(snap.molecules < 8, "partition must have shrunk");
    assert!(snap.molecules >= 1, "never below one molecule");
}

/// Every miss that fills a victim counts once against that molecule for
/// the current resize window (§3.4's "where to remove?" counter);
/// closing the window clears every counter.
#[test]
fn replacement_misses_count_per_window() {
    let mut c = MolecularCache::new(small_config());
    for i in 0..200u64 {
        c.access(read(1, i * 64));
    }
    let counted: u64 = c.replacement_misses.iter().sum();
    assert_eq!(counted, c.stats().global.misses);
    assert!(counted > 0);
    c.resize_all();
    assert!(c.replacement_misses.iter().all(|&m| m == 0));
}

#[test]
fn freed_molecules_are_reusable_by_other_apps() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(4)
        .tiles_per_cluster(1)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(4))
        .trigger(ResizeTrigger::Constant { period: 200 })
        .miss_rate_goal(0.2)
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    // App 1 grabs all molecules, then goes idle-hot so it shrinks.
    for i in 0..3_000u64 {
        c.access(read(1, (i % 2) * 64));
    }
    assert!(c.free_molecules() > 0, "app 1 must have released some");
    // App 2 can now build a region.
    c.access(read(2, 1 << 20));
    let snap2 = c.region_snapshot(Asid::new(2)).unwrap();
    assert!(snap2.molecules >= 1);
}

#[test]
fn ulmo_searches_remote_tiles() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(2)
        .tiles_per_cluster(2)
        .clusters(1)
        // Want 3 molecules: 2 from home tile + 1 remote.
        .initial_allocation(InitialAllocation::Molecules(2))
        .max_allocation(4)
        .trigger(ResizeTrigger::Constant { period: 100 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    // Thrash so the region grows beyond its home tile.
    for i in 0..1_000u64 {
        c.access(read(1, (i % 64) * 64));
    }
    let region = &c.regions[&Asid::new(1)];
    let remote = c.remote_tiles(region);
    assert!(!remote.is_empty(), "region should span tiles");
    assert!(c.activity().ulmo_searches > 0);
}

#[test]
fn no_duplicate_lines_across_region() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .app_line_factor(Asid::new(1), 4)
        .trigger(ResizeTrigger::Constant { period: 300 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    for i in 0..5_000u64 {
        c.access(read(1, (i % 300) * 64));
        if i % 512 == 0 {
            assert_eq!(c.find_duplicate_line(), None, "at access {i}");
        }
    }
    assert_eq!(c.find_duplicate_line(), None);
}

#[test]
fn bypass_when_no_molecules_available() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(1)
        .tiles_per_cluster(1)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(1))
        .trigger(ResizeTrigger::Constant { period: 1_000_000 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    c.access(read(1, 0)); // app 1 takes the only molecule
    let out = c.access(read(2, 1 << 20)); // app 2 gets nothing
    assert!(!out.hit);
    assert_eq!(out.lines_fetched, 0, "bypass fetches nothing");
    assert!(c.failed_allocations() > 0);
    // App 2's accesses all miss but do not crash or steal.
    assert!(!c.access(read(2, 1 << 20)).hit);
    assert!(c.access(read(1, 0)).hit, "app 1 undisturbed");
}

#[test]
fn line_factor_prefetches_block() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(1)
        .clusters(1)
        .app_line_factor(Asid::new(1), 4)
        .trigger(ResizeTrigger::Constant { period: 1_000_000 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    let out = c.access(read(1, 0));
    assert_eq!(out.lines_fetched, 4);
    // Neighbours in the 4-line block now hit.
    assert!(c.access(read(1, 64)).hit);
    assert!(c.access(read(1, 128)).hit);
    assert!(c.access(read(1, 192)).hit);
    // Next block misses.
    assert!(!c.access(read(1, 256)).hit);
}

#[test]
fn activity_counts_asid_compares() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(1, 0));
    // Home tile has 8 molecules: at least 8 ASID compares happened.
    assert!(c.activity().asid_compares >= 8);
    let probes = c.activity().ways_probed;
    assert!(probes >= 4, "the 4 region molecules are probed");
}

#[test]
fn stats_reset_preserves_contents() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(1, 0));
    c.reset_stats();
    assert_eq!(c.stats().global.accesses, 0);
    assert!(c.access(read(1, 0)).hit, "contents survive reset");
}

#[test]
fn describe_mentions_policy_and_geometry() {
    let c = MolecularCache::new(small_config());
    let d = c.describe();
    assert!(d.contains("Randy"), "{d}");
    assert!(d.contains("molecular"), "{d}");
}

#[test]
fn per_app_adaptive_trigger_resizes_only_that_app() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .trigger(ResizeTrigger::PerAppAdaptive {
            initial_period: 100,
        })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    for i in 0..500u64 {
        c.access(read(1, (i % 128) * 64));
    }
    assert!(c.resize_rounds() > 0);
}

#[test]
fn lfsr_is_deterministic_and_full_period_like() {
    let mut a = Lfsr16::new(0xACE1);
    let mut b = Lfsr16::new(0xACE1);
    let mut seen_distinct = std::collections::HashSet::new();
    for _ in 0..10_000 {
        let v = a.next_u16();
        assert_eq!(v, b.next_u16());
        seen_distinct.insert(v);
    }
    // Maximal-length 16-bit LFSR: 10k steps give 10k distinct states.
    assert_eq!(seen_distinct.len(), 10_000);
    // Zero seed is remapped, not stuck.
    let mut z = Lfsr16::new(0);
    assert_ne!(z.next_u16(), 0);
}

#[test]
fn remote_hit_costs_more_than_home_hit() {
    // Region spans two tiles; a line resident in the remote tile pays
    // the Ulmo penalty on top of the base hit latency.
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(2)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(4)) // spans both tiles
        .trigger(ResizeTrigger::Constant { period: 1_000_000 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    // Touch enough distinct lines that some land in remote molecules,
    // then re-read: hits resolve either in the home tile (base
    // latency = 1 ASID stage + 4 hit cycles) or remotely through Ulmo
    // (base + 8).
    // 64 lines span replacement rows 0..3, so fills land in both the
    // home tile's molecules (rows 0-1) and the remote ones (rows 2-3).
    let mut hit_latencies = std::collections::BTreeSet::new();
    for round in 0..6 {
        for i in 0..64u64 {
            let out = c.access(read(1, i * 64));
            if round > 0 && out.hit {
                hit_latencies.insert(out.latency);
            }
        }
    }
    assert!(
        hit_latencies.contains(&5),
        "expected home-tile hits at latency 5: {hit_latencies:?}"
    );
    assert!(
        hit_latencies.contains(&13),
        "expected Ulmo remote hits at latency 13: {hit_latencies:?}"
    );
    assert!(c.activity().ulmo_searches > 0);
}

#[test]
fn lru_direct_cache_end_to_end() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .policy(crate::config::RegionPolicy::LruDirect)
        .trigger(ResizeTrigger::Constant { period: 500 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    for i in 0..3_000u64 {
        c.access(read(1, (i % 96) * 64));
    }
    assert!(c.stats().global.hits > 0, "LRU-Direct must serve hits");
    assert!(c.describe().contains("LRU-Direct"));
}

#[test]
fn block_fill_marks_only_accessed_line_dirty() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(1)
        .clusters(1)
        .app_line_factor(Asid::new(1), 2)
        .trigger(ResizeTrigger::Constant { period: 1_000_000 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    // Write-miss on line 1 of a 2-line block: line 1 dirty, line 0 clean.
    let out = c.access(write(1, 64));
    assert_eq!(out.lines_fetched, 2);
    assert!(c.access(read(1, 0)).hit, "block partner prefetched");
    // Writebacks counted so far come only from fills/evictions, and a
    // fresh cache has none.
    assert_eq!(c.stats().global.writebacks, 0);
}

#[test]
fn resize_overhead_estimate_tracks_partitions() {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .trigger(ResizeTrigger::Constant { period: 100 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    for i in 0..1_000u64 {
        c.access(read(1 + (i % 2) as u16, (i % 64) * 64));
    }
    // 10 rounds x 2 partitions x 1500 cycles.
    assert_eq!(c.resize_rounds(), 10);
    assert_eq!(
        c.estimated_resize_overhead_cycles(),
        10 * 2 * MolecularCache::RESIZE_CYCLES_PER_APP
    );
}

#[test]
fn release_region_returns_molecules_to_pool() {
    let mut c = MolecularCache::new(small_config());
    c.access(write(1, 0));
    let before_free = c.free_molecules();
    let released = c.release_region(Asid::new(1)).unwrap();
    assert_eq!(released, 4, "half-tile initial allocation returned");
    assert_eq!(c.free_molecules(), before_free + released);
    assert!(c.region_snapshot(Asid::new(1)).is_none());
    assert!(c.activity().writebacks > 0, "dirty line flushed");
    // Releasing again is a no-op.
    assert_eq!(c.release_region(Asid::new(1)), None);
    // A later access rebuilds a fresh region.
    assert!(!c.access(read(1, 0)).hit);
    assert!(c.region_snapshot(Asid::new(1)).is_some());
}

#[test]
fn rehome_moves_lookup_start() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(1, 0));
    let old_home = c.regions[&Asid::new(1)].home_tile();
    let new_tile = if old_home.index() == 0 { 1 } else { 0 };
    assert!(c.rehome_app(Asid::new(1), new_tile));
    // The resident line is now remote: the hit goes through Ulmo.
    let before = c.activity().ulmo_searches;
    assert!(c.access(read(1, 0)).hit);
    assert!(c.activity().ulmo_searches > before);
    // Out-of-cluster / unknown targets are rejected.
    assert!(!c.rehome_app(Asid::new(1), 99));
    assert!(!c.rehome_app(Asid::new(42), 0));
}

#[test]
fn access_batch_is_bit_identical_to_access_loop() {
    // Frequent resizes plus interleaved ASIDs: the batched path must
    // reproduce the serial path exactly, including resize timing.
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(2))
        .trigger(ResizeTrigger::Constant { period: 64 })
        .build()
        .unwrap();
    let reqs: Vec<Request> = (0..3_000u64)
        .map(|i| {
            let asid = 1 + (i % 3) as u16;
            read(asid, ((asid as u64) << 36) + (i % 200) * 64)
        })
        .collect();
    let mut serial = MolecularCache::new(cfg.clone());
    let mut expected = molcache_sim::BatchOutcome::default();
    for req in &reqs {
        expected.note(serial.access(*req));
    }
    let mut batched = MolecularCache::new(cfg);
    let mut got = molcache_sim::BatchOutcome::default();
    // Uneven chunk sizes exercise run boundaries at both edges.
    for chunk in reqs.chunks(777) {
        got.merge(&batched.access_batch(chunk));
    }
    assert_eq!(got, expected);
    assert_eq!(serial.stats(), batched.stats());
    assert_eq!(serial.activity(), batched.activity());
    assert_eq!(serial.snapshots(), batched.snapshots());
    assert_eq!(serial.resize_rounds(), batched.resize_rounds());
}

#[test]
fn telemetry_sink_observes_without_perturbing() {
    use molcache_telemetry::{Recorder, Sink};
    use std::sync::{Arc, Mutex};
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(1))
        .trigger(ResizeTrigger::Constant { period: 200 })
        .miss_rate_goal(0.05)
        .build()
        .unwrap();
    let reqs: Vec<Request> = (0..2_000u64).map(|i| read(1, (i % 256) * 64)).collect();

    let mut plain = MolecularCache::new(cfg.clone());
    for req in &reqs {
        plain.access(*req);
    }

    let recorder: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::new("t")));
    let sink: Arc<Mutex<dyn Sink>> = recorder.clone();
    let mut observed = MolecularCache::new(cfg).with_sink(SinkHandle::shared(sink, 500));
    for req in &reqs {
        observed.access(*req);
    }

    // Observation changes nothing the simulation can see.
    assert_eq!(plain.stats(), observed.stats());
    assert_eq!(plain.activity(), observed.activity());
    assert_eq!(plain.snapshots(), observed.snapshots());

    let rec = recorder.lock().unwrap();
    // 2000 accesses / 500-long epochs = 4 epoch records.
    assert_eq!(rec.epochs().len(), 4);
    let total: u64 = rec.epochs().iter().map(|e| e.activity.accesses).sum();
    assert_eq!(total, 2_000, "epoch activity deltas tile the run");
    assert_eq!(rec.partitions().len(), 4, "one app, one sample per epoch");
    let sampled: u64 = rec.partitions().iter().map(|s| s.accesses).sum();
    assert_eq!(sampled, 2_000);
    assert!(
        rec.partitions().iter().all(|s| s.occupancy <= 1.0),
        "occupancy is a fraction"
    );
    // The thrashing workload grows the partition: resize log non-empty,
    // tagged with the constant trigger, sizes consistent.
    assert!(!rec.resizes().is_empty());
    for r in rec.resizes() {
        assert_eq!(r.trigger, "constant");
        match r.kind {
            ResizeKind::Grow => assert_eq!(r.after, r.inputs.current + r.applied),
            ResizeKind::Shrink => assert_eq!(r.after, r.inputs.current - r.applied),
        }
        assert!(r.applied <= r.requested);
    }
    let grew: usize = rec
        .resizes()
        .iter()
        .filter(|r| r.kind == ResizeKind::Grow)
        .map(|r| r.applied)
        .sum();
    assert!(grew > 0, "cold-start thrash must grow the partition");

    // Per-stage epoch series: each epoch's stage cycles tile the run and
    // agree with the cache-wide stage totals.
    let stage_cycles: u64 = rec
        .epochs()
        .iter()
        .map(|e| e.activity.stages.total_cycles())
        .sum();
    assert_eq!(stage_cycles, observed.activity().stages.total_cycles());
    assert!(stage_cycles > 0);
}

#[test]
fn reset_stats_restarts_epoch_time() {
    use molcache_telemetry::{Recorder, Sink};
    use std::sync::{Arc, Mutex};
    let recorder: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::new("t")));
    let sink: Arc<Mutex<dyn Sink>> = recorder.clone();
    let mut c = MolecularCache::new(small_config()).with_sink(SinkHandle::shared(sink, 100));
    for i in 0..150u64 {
        c.access(read(1, (i % 8) * 64));
    }
    c.reset_stats();
    for i in 0..100u64 {
        c.access(read(1, (i % 8) * 64));
    }
    let rec = recorder.lock().unwrap();
    assert_eq!(rec.epochs().len(), 2);
    assert_eq!(rec.epochs()[0].epoch, 0);
    assert_eq!(rec.epochs()[1].epoch, 0, "epoch index restarts on reset");
    assert_eq!(rec.epochs()[1].activity.accesses, 100);
}

#[test]
fn molecular_cache_is_send() {
    // The parallel experiment engine moves caches across worker
    // threads; a non-Send field would break that at compile time.
    fn assert_send<T: Send>() {}
    assert_send::<MolecularCache>();
}

#[test]
fn snapshots_sorted_by_asid() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(2, 0));
    c.access(read(1, 0));
    let snaps = c.snapshots();
    assert_eq!(snaps.len(), 2);
    assert!(snaps[0].asid < snaps[1].asid);
}

// ---- stage-breakdown contract ------------------------------------------

/// Every access path — home hit, Ulmo remote hit, miss with fill,
/// bypass — must add stage cycles that sum exactly to the reported
/// latency.
#[test]
fn stage_cycles_sum_to_latency_on_every_path() {
    let mut c = MolecularCache::new(small_config());
    for i in 0..2_000u64 {
        let (out, stages) = access_staged(&mut c, read(1, (i % 300) * 64));
        assert_eq!(stages.total_cycles(), u64::from(out.latency), "access {i}");
    }
    // Remote hits via rehoming.
    c.rehome_app(Asid::new(1), 1);
    let (out, stages) = access_staged(&mut c, read(1, 0));
    assert_eq!(stages.total_cycles(), u64::from(out.latency));

    // Bypass path (no region molecules).
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(1)
        .tiles_per_cluster(1)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(1))
        .trigger(ResizeTrigger::Constant { period: 1_000_000 })
        .build()
        .unwrap();
    let mut c = MolecularCache::new(cfg);
    c.access(read(1, 0));
    let (out, stages) = access_staged(&mut c, read(2, 1 << 20));
    assert_eq!(stages.total_cycles(), u64::from(out.latency));
    assert_eq!(stages.fill.frames_touched, 0, "bypass fills nothing");
}

/// The per-stage lifetime totals tile the aggregate activity counters.
#[test]
fn stage_totals_tile_activity_counters() {
    let mut c = MolecularCache::new(small_config());
    let mut total_latency = 0u64;
    for i in 0..3_000u64 {
        let asid = 1 + (i % 2) as u16;
        let out = c.access(read(asid, ((asid as u64) << 30) + (i % 200) * 64));
        total_latency += u64::from(out.latency);
    }
    let a = c.activity();
    let s = a.stages;
    assert_eq!(
        s.asid_gate.asid_compares + s.ulmo_search.asid_compares,
        a.asid_compares,
        "gate + Ulmo compares tile the aggregate"
    );
    assert_eq!(
        s.home_lookup.tag_probes + s.ulmo_search.tag_probes,
        a.ways_probed,
        "home + Ulmo probes tile the aggregate"
    );
    assert_eq!(s.fill.frames_touched, a.line_fills);
    assert_eq!(s.total_cycles(), total_latency);
    // Stages that by construction contribute nothing to these counters.
    assert_eq!(s.victim.cycles, 0);
    assert_eq!(s.asid_gate.tag_probes, 0);
    assert_eq!(s.home_lookup.asid_compares, 0);
}

/// The home-tile stages charge exactly the configured cycle budget.
#[test]
fn stage_cycle_attribution_matches_config() {
    let mut c = MolecularCache::new(small_config());
    let (_, s) = access_staged(&mut c, read(1, 0));
    assert_eq!(s.asid_gate.cycles, u64::from(ASID_STAGE_CYCLES));
    assert_eq!(s.home_lookup.cycles, u64::from(HIT_LATENCY));
    assert_eq!(s.ulmo_search.cycles, 0, "single-tile region: no launch");
    assert_eq!(s.fill.cycles, u64::from(MISS_PENALTY));
    let (_, s) = access_staged(&mut c, read(1, 0));
    assert_eq!(s.fill.cycles, 0, "hits never reach the fill stage");
    assert_eq!(s.fill.frames_touched, 0);
}

// ---- memoization front-end ---------------------------------------------

/// Services `req` like [`access_staged`], after checking that the line
/// index names the molecule the ordered scan finds and that the access
/// charges the scan's lookup stages.
fn access_checked(c: &mut MolecularCache, req: Request) -> (AccessOutcome, StageActivity) {
    c.admit_app(req.asid);
    let line = req.addr.line(LINE_SIZE);
    let (found, scan) = c.reference_lookup(req.asid, line).expect("admitted");
    assert_eq!(c.indexed_molecule(req.asid, line), found, "{req:?}");
    let (out, stages) = access_staged(c, req);
    assert_eq!(out.hit, found.is_some(), "{req:?}");
    let mut want = StageActivity::default();
    want.absorb(&scan);
    assert_eq!(
        (stages.asid_gate, stages.home_lookup, stages.ulmo_search),
        (want.asid_gate, want.home_lookup, want.ulmo_search),
        "{req:?}"
    );
    (out, stages)
}

/// A workload that exercises every memo-relevant path: three apps with
/// overlapping strides and writes (hits, conflict evictions), a tight
/// resize trigger (generation bumps mid-stream), plus explicit grow /
/// re-home / teardown structural events. Every access is checked
/// against the ordered scan.
fn memo_torture(c: &mut MolecularCache) -> Vec<(AccessOutcome, StageActivity)> {
    let mut out = Vec::new();
    for i in 0..6_000u64 {
        let asid = (i % 3 + 1) as u16;
        // Every 4th access re-touches the app's hot line (memo fodder);
        // the rest stream with direct-mapped conflicts (stale entries).
        let addr = if i % 4 == 0 {
            u64::from(asid) * 4096
        } else {
            (i * 37 % 512) * 64 + (i % 7) * 8
        };
        let req = if i % 5 == 0 {
            write(asid, addr)
        } else {
            read(asid, addr)
        };
        out.push(access_checked(c, req));
        match i {
            1_500 => {
                c.set_region_size(Asid::new(1), 6);
            }
            3_000 => {
                c.rehome_app(Asid::new(2), 1);
            }
            4_500 => {
                c.release_region(Asid::new(3));
            }
            _ => {}
        }
    }
    out
}

/// The front-end answers every access of a workload with structural
/// churn exactly as the ordered scan would (checked access by access),
/// its per-epoch hit diagnostic adds up, and that diagnostic stays out of
/// the canonical telemetry export.
#[test]
fn memo_front_is_observationally_free() {
    use molcache_telemetry::{Recorder, Sink};
    use std::sync::{Arc, Mutex};
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(2))
        .trigger(ResizeTrigger::Constant { period: 400 })
        .miss_rate_goal(0.05)
        .build()
        .unwrap();

    let recorder: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::new("memo-eq")));
    let sink: Arc<Mutex<dyn Sink>> = recorder.clone();
    let mut c = MolecularCache::new(cfg).with_sink(SinkHandle::shared(sink, 500));
    memo_torture(&mut c);
    let json = recorder.lock().unwrap().to_json().unwrap();
    let epoch_hits: u64 = recorder
        .lock()
        .unwrap()
        .epochs()
        .iter()
        .map(|e| e.memo_hits)
        .sum();
    assert_eq!(c.find_duplicate_line(), None);
    assert!(
        !json.contains("memo_hits"),
        "index hits leaked into the export"
    );

    // The index must actually have answered hits — otherwise this test
    // proves nothing. The epoch samples carry the (JSON-excluded)
    // per-epoch index-hit diagnostic.
    let stats = c.memo_stats().unwrap();
    assert!(
        stats.hits > 0,
        "the index never hit on a hit-heavy workload"
    );
    assert!(
        stats.generation_bumps > 0,
        "resizes must bump the generation"
    );
    assert!(
        epoch_hits <= stats.hits,
        "epoch index-hit deltas must never exceed the lifetime count"
    );
    assert!(
        epoch_hits > 0,
        "epoch samples must surface index hits when the index is hitting"
    );
}

/// Batched and per-request entry points stay bit-identical with the
/// memo enabled (the memo state advances identically either way).
#[test]
fn memo_front_keeps_batch_bit_identical() {
    let reqs: Vec<Request> = (0..4_000u64)
        .map(|i| {
            let asid = (i % 2 + 1) as u16;
            read(asid, (i * 13 % 300) * 64)
        })
        .collect();
    let mut serial = MolecularCache::new(small_config());
    let mut batched = MolecularCache::new(small_config());
    for req in &reqs {
        serial.access(*req);
    }
    batched.access_batch(&reqs);
    assert_eq!(serial.stats(), batched.stats());
    assert_eq!(serial.activity(), batched.activity());
    assert_eq!(serial.snapshots(), batched.snapshots());
}

#[test]
fn memo_structural_events_invalidate_entries() {
    // Structural events that flush lines drop them from the index; the
    // others leave it exact and still answering lookups.
    let mut c = MolecularCache::new(small_config());
    let line_of = |addr: u64| Address::new(addr).line(LINE_SIZE);
    let exact = |c: &MolecularCache| c.line_index_entries() == c.reference_line_index();

    c.access(read(1, 0x100));
    let mol = c
        .indexed_molecule(Asid::new(1), line_of(0x100))
        .expect("a fill indexes its line");

    // Re-homing moves no line: the entry stays, and the next access is
    // an Ulmo hit on the old home tile that the index answers.
    assert!(c.rehome_app(Asid::new(1), 1));
    assert_eq!(c.indexed_molecule(Asid::new(1), line_of(0x100)), Some(mol));
    let hits = c.memo_stats().unwrap().hits;
    let (out, s) = access_staged(&mut c, read(1, 0x100));
    assert!(out.hit && s.ulmo_search.cycles > 0, "remote hit");
    assert_eq!(c.memo_stats().unwrap().hits, hits + 1);

    // Teardown flushes the region: its entries go with it.
    c.release_region(Asid::new(1));
    assert_eq!(c.indexed_molecule(Asid::new(1), line_of(0x100)), None);
    assert!(exact(&c));

    // An in-place flush drops them too.
    c.access(read(2, 0x200));
    assert!(c.indexed_molecule(Asid::new(2), line_of(0x200)).is_some());
    c.flush_region(Asid::new(2));
    assert_eq!(c.indexed_molecule(Asid::new(2), line_of(0x200)), None);

    assert!(exact(&c));
}

#[test]
fn memo_toggle_and_stats_surface() {
    let mut c = MolecularCache::new(small_config());
    c.access(read(1, 0x40));
    c.access(read(1, 0x40));
    c.access(read(1, 0x40));
    let s = c.memo_stats().unwrap();
    assert!(s.hits >= 1, "repeat hits go through the index");
    assert_eq!(s.lookups(), 3, "the index answers every access");

    // Stats reset clears the counters but keeps the index.
    c.reset_stats();
    let s = c.memo_stats().unwrap();
    assert_eq!((s.hits, s.misses, s.stale), (0, 0, 0));
    assert!(c.access(read(1, 0x40)).hit, "the index survived the reset");
    assert_eq!(c.memo_stats().unwrap().hits, 1);
}
