//! Lifecycle ops vs the line-index front-end: every lifecycle-driven
//! grant, shrink, flush and release must leave the index exact — the
//! lines a call flushes leave it, every other line stays — so a serving
//! layer (`molserve`) can never be served a line its tenant no longer
//! holds, including across a revoke + re-admit of the same ASID, where
//! the "same" (asid, line) key suddenly refers to a brand-new region.

use molcache_core::config::{InitialAllocation, LINE_SIZE};
use molcache_core::{MolecularCache, MolecularConfig, ResizeTrigger};
use molcache_sim::{CacheModel, Request};
use molcache_trace::{AccessKind, Address, Asid, LineAddr};

/// Small cache, resize trigger pushed out of the way so only the
/// lifecycle calls under test cause structural changes.
fn cache() -> MolecularCache {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(2))
        .trigger(ResizeTrigger::Constant { period: 1 << 30 })
        .build()
        .unwrap();
    MolecularCache::new(cfg)
}

/// Touches a handful of hot lines for `asid` until they are resident,
/// returning their line addresses.
fn warm(c: &mut MolecularCache, asid: u16) -> Vec<LineAddr> {
    let addrs: Vec<u64> = (0..4).map(|i| i * 64).collect();
    for _ in 0..8 {
        for &a in &addrs {
            c.access(read(asid, a));
        }
    }
    let lines: Vec<LineAddr> = addrs
        .iter()
        .map(|&a| Address::new(a).line(LINE_SIZE))
        .collect();
    assert_eq!(
        indexed(c, asid, &lines),
        lines,
        "warm-up left a hot line unindexed"
    );
    lines
}

fn read(asid: u16, addr: u64) -> Request {
    Request {
        asid: Asid::new(asid),
        addr: Address::new(addr),
        kind: AccessKind::Read,
    }
}

/// The lines of `lines` the index holds for `asid`.
fn indexed(c: &MolecularCache, asid: u16, lines: &[LineAddr]) -> Vec<LineAddr> {
    lines
        .iter()
        .copied()
        .filter(|&l| c.indexed_molecule(Asid::new(asid), l).is_some())
        .collect()
}

fn assert_exact(c: &MolecularCache, what: &str) {
    assert_eq!(
        c.line_index_entries(),
        c.reference_line_index(),
        "index diverged from the tag store after {what}"
    );
}

#[test]
fn admit_of_another_tenant_keeps_indexed_lines() {
    let mut c = cache();
    let lines = warm(&mut c, 1);
    // Admitting a new tenant grants free molecules: no line moves.
    assert!(c.admit_app(Asid::new(2)));
    assert_eq!(indexed(&c, 1, &lines), lines, "admission dropped lines");
    assert_exact(&c, "admit_app");
    for l in &lines {
        assert!(c.access(read(1, l.0 * 64)).hit, "line {} lost", l.0);
    }
}

#[test]
fn lifecycle_resize_drops_only_withdrawn_lines() {
    let mut c = cache();
    warm(&mut c, 1);
    let size = c.region_size(Asid::new(1)).unwrap();
    c.set_region_size(Asid::new(1), size + 4).unwrap();
    assert_exact(&c, "a lifecycle grow");
    // Spread lines over the grown region, then withdraw most of it.
    let lines: Vec<LineAddr> = (0..96).map(LineAddr).collect();
    for l in &lines {
        c.access(read(1, l.0 * 64));
    }
    let before = indexed(&c, 1, &lines);
    c.set_region_size(Asid::new(1), 1).unwrap();
    assert_exact(&c, "a lifecycle shrink");
    let after = indexed(&c, 1, &lines);
    assert!(after.len() < before.len(), "the shrink withdrew no line");
    for l in &lines {
        assert_eq!(
            c.indexed_molecule(Asid::new(1), *l),
            c.resident_molecule_of(Asid::new(1), *l),
            "line {} indexed apart from its residency",
            l.0
        );
    }
}

#[test]
fn flush_region_drops_memoized_hits() {
    let mut c = cache();
    let lines = warm(&mut c, 1);
    c.flush_region(Asid::new(1)).unwrap();
    assert!(
        indexed(&c, 1, &lines).is_empty(),
        "index entries survived an in-place evict (flush_region)"
    );
    assert_exact(&c, "flush_region");
    // And the contents really are gone, not just the index entries.
    assert!(!c.access(read(1, 0)).hit);
}

#[test]
fn revoke_and_readmit_cannot_replay_stale_hits() {
    let mut c = cache();
    let lines = warm(&mut c, 1);

    c.release_region(Asid::new(1)).unwrap();
    assert!(
        indexed(&c, 1, &lines).is_empty(),
        "index entries survived a revoke (release_region)"
    );
    assert_exact(&c, "release_region");

    // Re-admission of the same ASID: the key space repeats, the region
    // is new and empty. The first access must be a genuine miss, never
    // a hit on the pre-revoke region's data.
    c.admit_app(Asid::new(1));
    assert!(
        indexed(&c, 1, &lines).is_empty(),
        "index entries from before the revoke survived re-admission"
    );
    let out = c.access(read(1, 0));
    assert!(!out.hit, "stale hit served across a revoke + re-admit");
}

/// Every lifecycle op bumps the generation, and the front-end's reported
/// bump count (perfbench's `core.memo_generation_bumps`) advances by
/// exactly the change in `structure_generation()` until `reset_stats`
/// restarts it at zero.
#[test]
fn every_lifecycle_op_bumps_the_generation() {
    let mut c = cache();
    warm(&mut c, 1);
    let mut generation = c.structure_generation();
    let mut bumps = c.memo_stats().unwrap().generation_bumps;
    // A fresh cache starts at generation 1 with no bumps counted.
    assert_eq!(bumps, generation - 1);
    let mut expect_bump = |c: &MolecularCache, what: &str| {
        let now = c.structure_generation();
        let stats = c.memo_stats().unwrap();
        assert!(now > generation, "{what} did not bump the generation");
        assert_eq!(
            stats.generation, now,
            "{what}: the front-end reports another generation"
        );
        assert_eq!(
            stats.generation_bumps - bumps,
            now - generation,
            "{what}: bump count drifted from the structure generation"
        );
        generation = now;
        bumps = stats.generation_bumps;
    };

    c.admit_app(Asid::new(2));
    expect_bump(&c, "admit_app");
    c.set_region_size(Asid::new(1), 5).unwrap();
    expect_bump(&c, "set_region_size (grow)");
    c.set_region_size(Asid::new(1), 2).unwrap();
    expect_bump(&c, "set_region_size (shrink)");
    c.flush_region(Asid::new(1)).unwrap();
    expect_bump(&c, "flush_region");
    c.release_region(Asid::new(1)).unwrap();
    expect_bump(&c, "release_region");

    // A statistics reset restarts the count without a structural change.
    c.reset_stats();
    let since = c.structure_generation();
    assert_eq!(since, generation, "reset_stats bumped the generation");
    assert_eq!(c.memo_stats().unwrap().generation_bumps, 0);
    c.admit_app(Asid::new(1));
    assert_eq!(
        c.memo_stats().unwrap().generation_bumps,
        c.structure_generation() - since
    );
    assert!(c.structure_generation() > since);
}
