//! Lifecycle ops vs the memoization front-end: every lifecycle-driven
//! grant, shrink, flush and release must route through the same
//! structural path that bumps the structure generation the memo's
//! entries are stamped with, so a serving layer (`molserve`) can never
//! replay a stale memo hit across an admit / resize / evict / revoke —
//! including across a revoke + re-admit of the same ASID, where the
//! "same" (asid, line) key suddenly refers to a brand-new region.

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

/// Warms a handful of hot lines for `asid` until the memo would replay
/// them, returning the memoized line addresses.
fn warm_memo(c: &mut MolecularCache, asid: u16) -> Vec<LineAddr> {
    let addrs: Vec<u64> = (0..4).map(|i| i * 64).collect();
    for _ in 0..8 {
        for &a in &addrs {
            c.access(Request {
                asid: Asid::new(asid),
                addr: Address::new(a),
                kind: AccessKind::Read,
            });
        }
    }
    let lines: Vec<LineAddr> = addrs
        .iter()
        .map(|&a| Address::new(a).line(LINE_SIZE))
        .collect();
    assert!(
        lines.iter().any(|&l| c.memo_would_hit(Asid::new(asid), l)),
        "warm-up failed to memoize any hot line"
    );
    lines
}

fn memoized(c: &MolecularCache, asid: u16, lines: &[LineAddr]) -> Vec<LineAddr> {
    lines
        .iter()
        .copied()
        .filter(|&l| c.memo_would_hit(Asid::new(asid), l))
        .collect()
}

#[test]
fn admit_of_another_tenant_drops_memoized_hits() {
    let mut c = cache();
    let lines = warm_memo(&mut c, 1);
    assert!(!memoized(&c, 1, &lines).is_empty());
    // Admitting a new tenant grants molecules -> structural change.
    assert!(c.admit_app(Asid::new(2)));
    assert!(
        memoized(&c, 1, &lines).is_empty(),
        "memo entries survived another tenant's admission grant"
    );
}

#[test]
fn lifecycle_resize_drops_memoized_hits_both_directions() {
    let mut c = cache();
    let lines = warm_memo(&mut c, 1);
    let size = c.region_size(Asid::new(1)).unwrap();

    c.set_region_size(Asid::new(1), size + 2).unwrap();
    assert!(
        memoized(&c, 1, &lines).is_empty(),
        "memo entries survived a lifecycle grow"
    );

    let lines = warm_memo(&mut c, 1);
    c.set_region_size(Asid::new(1), size).unwrap();
    assert!(
        memoized(&c, 1, &lines).is_empty(),
        "memo entries survived a lifecycle shrink"
    );
}

#[test]
fn flush_region_drops_memoized_hits() {
    let mut c = cache();
    let lines = warm_memo(&mut c, 1);
    c.flush_region(Asid::new(1)).unwrap();
    assert!(
        memoized(&c, 1, &lines).is_empty(),
        "memo entries survived an in-place evict (flush_region)"
    );
    // And the contents really are gone, not just the memo entries.
    assert!(
        !c.access(Request {
            asid: Asid::new(1),
            addr: Address::new(0),
            kind: AccessKind::Read,
        })
        .hit
    );
}

#[test]
fn revoke_and_readmit_cannot_replay_stale_hits() {
    let mut c = cache();
    let lines = warm_memo(&mut c, 1);

    c.release_region(Asid::new(1)).unwrap();
    assert!(
        memoized(&c, 1, &lines).is_empty(),
        "memo entries survived a revoke (release_region)"
    );

    // Re-admission of the same ASID: the key space repeats, the region
    // is new and empty. The first access must be a genuine miss, never
    // a memo replay of the pre-revoke region.
    c.admit_app(Asid::new(1));
    assert!(
        memoized(&c, 1, &lines).is_empty(),
        "memo entries from before the revoke survived re-admission"
    );
    let out = c.access(Request {
        asid: Asid::new(1),
        addr: Address::new(0),
        kind: AccessKind::Read,
    });
    assert!(!out.hit, "stale hit served across a revoke + re-admit");
}

/// Every lifecycle op bumps the generation, and the memo's reported
/// bump count (perfbench's `core.memo_generation_bumps`) advances by
/// exactly the change in `structure_generation()` until `reset_stats`
/// restarts it at zero.
#[test]
fn every_lifecycle_op_bumps_the_generation() {
    let mut c = cache();
    warm_memo(&mut c, 1);
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
            "{what}: memo reports another generation"
        );
        assert_eq!(
            stats.generation_bumps - bumps,
            now - generation,
            "{what}: memo bump count drifted from the structure generation"
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
