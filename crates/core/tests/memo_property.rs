//! Property tests for the line-index front-end (`pipeline::memo`):
//! arbitrary access/resize/revoke interleavings produce identical
//! per-app statistics with the front-end on vs off. The access-by-access
//! comparison and the index's own oracle live in `line_index_property`.
//!
//! The interleavings also toggle the front-end of the indexed cache off
//! and back on. The tag store keeps the index exact either way, so the
//! lookups after a toggle must agree too.

use molcache_core::config::InitialAllocation;
use molcache_core::{MolecularCache, MolecularConfig, ResizeTrigger};
use molcache_sim::{CacheModel, Request};
use molcache_trace::{AccessKind, Address, Asid};
use proptest::prelude::*;

/// A small cache with an aggressive resize trigger so short op
/// sequences still exercise grows, shrinks and generation churn.
fn torture_config() -> MolecularConfig {
    MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(2))
        .trigger(ResizeTrigger::Constant { period: 64 })
        .miss_rate_goal(0.05)
        .build()
        .unwrap()
}

/// One step of a generated interleaving, decoded from two raw u64 draws.
/// `ToggleMemo` flips the front-end of the indexed cache; the scanning
/// reference ignores it.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { asid: u16, addr: u64, write: bool },
    Release { asid: u16 },
    Rehome { asid: u16, tile: usize },
    MakeShared { tile: usize },
    ToggleMemo,
}

/// Decodes `(selector, payload)` into an op. Accesses dominate and half
/// of them re-touch a few hot lines per app, so lookups often hit
/// between the structural ops sprinkled in (the constant resize trigger
/// adds more). Toggles are frequent enough that index entries written
/// under the scan are regularly read after an off/on pair.
fn decode(selector: u64, payload: u64) -> Op {
    let asid = (payload % 3 + 1) as u16;
    match selector % 64 {
        56..=60 => Op::ToggleMemo,
        61 => Op::Release { asid },
        62 => Op::Rehome {
            asid,
            tile: (payload >> 8) as usize % 2,
        },
        63 => Op::MakeShared {
            tile: (payload >> 8) as usize % 2,
        },
        _ => Op::Access {
            asid,
            // A handful of hot lines per app plus a streaming tail.
            addr: if payload.is_multiple_of(2) {
                u64::from(asid) * 4096 + (payload >> 4) % 4 * 64
            } else {
                (payload >> 4) % 256 * 64
            },
            write: payload.is_multiple_of(5),
        },
    }
}

fn apply(c: &mut MolecularCache, op: Op) {
    match op {
        Op::Access { asid, addr, write } => {
            c.access(Request {
                asid: Asid::new(asid),
                addr: Address::new(addr),
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            });
        }
        Op::Release { asid } => {
            c.release_region(Asid::new(asid));
        }
        Op::Rehome { asid, tile } => {
            c.rehome_app(Asid::new(asid), tile);
        }
        Op::MakeShared { tile } => {
            c.make_shared(tile, 1);
        }
        Op::ToggleMemo => c.set_memo_front(!c.memo_front_enabled()),
    }
}

/// Applies `op` to the indexed cache and, unless it is a toggle, to the
/// scanning reference.
fn apply_pair(on: &mut MolecularCache, off: &mut MolecularCache, op: Op) {
    apply(on, op);
    if !matches!(op, Op::ToggleMemo) {
        apply(off, op);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of accesses, resizes (via the constant trigger)
    /// and revocations yields bit-identical per-app stats, activity and
    /// region state with the front-end on vs off.
    #[test]
    fn memo_is_stat_invisible_under_arbitrary_interleavings(
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..400),
    ) {
        let mut on = MolecularCache::new(torture_config());
        let mut off = MolecularCache::new(torture_config());
        on.set_memo_front(true);
        off.set_memo_front(false);
        for &(sel, payload) in &ops {
            apply_pair(&mut on, &mut off, decode(sel, payload));
        }
        prop_assert_eq!(on.stats(), off.stats());
        prop_assert_eq!(on.activity(), off.activity());
        prop_assert_eq!(on.snapshots(), off.snapshots());
        prop_assert_eq!(on.free_molecules(), off.free_molecules());
        prop_assert_eq!(on.find_duplicate_line(), None);
    }

    /// Per-app breakdown of the same property: every application's
    /// hit/miss counters agree between the two runs.
    #[test]
    fn memo_keeps_every_apps_counters_identical(
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..250),
    ) {
        let mut on = MolecularCache::new(torture_config());
        let mut off = MolecularCache::new(torture_config());
        on.set_memo_front(true);
        off.set_memo_front(false);
        for &(sel, payload) in &ops {
            apply_pair(&mut on, &mut off, decode(sel, payload));
        }
        for asid in 1u16..=3 {
            let a = on.stats().app(Asid::new(asid));
            let b = off.stats().app(Asid::new(asid));
            prop_assert_eq!(a, b, "per-app stats diverged for ASID {}", asid);
        }
    }
}
