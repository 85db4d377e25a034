//! The line index's oracle. Under arbitrary access / grow / shrink /
//! release / re-home / shared-grant / flush / admit interleavings, with
//! line factors 1, 2 and 4:
//!
//! 1. after every op the index equals a rebuild from the tag store —
//!    every valid frame of every owned, non-shared molecule exactly once
//!    under its owner, and nothing else — and every molecule's kept
//!    valid-frame count equals a recount of its frames;
//! 2. every access's outcome and activity delta (stage traces included)
//!    equal those of a twin that takes the ordered gate-and-probe scan
//!    and the member-walking fill (`set_memo_front(false)`).
//!
//! Shared grants are drawn only in some cases: a shared molecule on a
//! lookup tile sends a region to the ordered scan, so the cases without
//! them keep the index answering lookups for the whole run.

use molcache_core::config::InitialAllocation;
use molcache_core::{MolecularCache, MolecularConfig, ResizeTrigger};
use molcache_sim::{AccessOutcome, Activity, CacheModel, Request};
use molcache_trace::{AccessKind, Address, Asid};
use proptest::prelude::*;

/// Two 8-molecule tiles of 1 KB molecules (16 frames), small grants and
/// an aggressive resize trigger, so regions spread over both tiles and
/// lookups reach Ulmo. Applications 1 and 2 fetch `line_factor`-line
/// blocks; application 3 single lines.
fn config(line_factor: u32) -> MolecularConfig {
    MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(2))
        .trigger(ResizeTrigger::Constant { period: 64 })
        .miss_rate_goal(0.05)
        .app_line_factor(Asid::new(1), line_factor)
        .app_line_factor(Asid::new(2), line_factor)
        .build()
        .unwrap()
}

/// One step of a generated interleaving, decoded from two raw u64 draws.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { asid: u16, addr: u64, write: bool },
    Grow { asid: u16, by: usize },
    Shrink { asid: u16, by: usize },
    Release { asid: u16 },
    Rehome { asid: u16, tile: usize },
    MakeShared { tile: usize },
    Flush { asid: u16 },
    Admit { asid: u16 },
}

/// Decodes `(selector, payload)` into an op: accesses dominate, the
/// structural ops of the search-list suite are sprinkled in, and a
/// shared grant only when `shared` allows it (an access otherwise).
fn decode(selector: u64, payload: u64, shared: bool) -> Op {
    let asid = (payload % 3 + 1) as u16;
    let tile = (payload >> 8) as usize % 2;
    let by = (payload >> 8) as usize % 4 + 1;
    match selector % 20 {
        12 => Op::Grow { asid, by },
        13 => Op::Shrink { asid, by },
        14 => Op::Release { asid },
        15 => Op::Rehome { asid, tile },
        16 if shared => Op::MakeShared { tile },
        17 => Op::Flush { asid },
        18 => Op::Admit { asid },
        _ => Op::Access {
            asid,
            // A handful of hot lines per app plus a streaming tail that
            // overlaps the other apps' lines.
            addr: if payload.is_multiple_of(4) {
                u64::from(asid) * 4096 + (payload >> 4) % 4 * 64
            } else {
                (payload >> 4) % 256 * 64
            },
            write: payload.is_multiple_of(5),
        },
    }
}

/// Services one request, returning its outcome and the activity it
/// added.
fn access(c: &mut MolecularCache, asid: u16, addr: u64, write: bool) -> (AccessOutcome, Activity) {
    let before = c.activity();
    let out = c.access(Request {
        asid: Asid::new(asid),
        addr: Address::new(addr),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    });
    (out, c.activity().since(&before))
}

/// Applies a structural op.
fn apply(c: &mut MolecularCache, op: Op) {
    match op {
        Op::Access { .. } => unreachable!("accesses are compared, not applied"),
        Op::Grow { asid, by } => {
            if let Some(size) = c.region_size(Asid::new(asid)) {
                c.set_region_size(Asid::new(asid), size + by);
            }
        }
        Op::Shrink { asid, by } => {
            if let Some(size) = c.region_size(Asid::new(asid)) {
                c.set_region_size(Asid::new(asid), size.saturating_sub(by));
            }
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
        Op::Flush { asid } => {
            c.flush_region(Asid::new(asid));
        }
        Op::Admit { asid } => {
            c.admit_app(Asid::new(asid));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_a_rebuild_and_the_scan_after_every_op(
        factor in 0u32..3,
        shared in proptest::bool::ANY,
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..300),
    ) {
        let line_factor = 1 << factor;
        let mut indexed = MolecularCache::new(config(line_factor));
        let mut scan = MolecularCache::new(config(line_factor));
        scan.set_memo_front(false);
        for (step, &(sel, payload)) in ops.iter().enumerate() {
            match decode(sel, payload, shared) {
                Op::Access { asid, addr, write } => {
                    let got = access(&mut indexed, asid, addr, write);
                    let want = access(&mut scan, asid, addr, write);
                    prop_assert_eq!(
                        got, want,
                        "step {}: access (asid {}, {:#x}) diverged from the scan",
                        step, asid, addr
                    );
                }
                op => {
                    apply(&mut indexed, op);
                    apply(&mut scan, op);
                }
            }
            prop_assert_eq!(
                indexed.line_index_entries(),
                indexed.reference_line_index(),
                "step {}: index diverged from the tag store",
                step
            );
            prop_assert_eq!(
                indexed.find_miscounted_molecule(),
                None,
                "step {}: a valid-frame count diverged from a recount",
                step
            );
        }
        prop_assert_eq!(indexed.stats(), scan.stats());
        prop_assert_eq!(indexed.snapshots(), scan.snapshots());
        prop_assert_eq!(indexed.find_duplicate_line(), None);
        let memo = indexed.memo_stats().unwrap();
        prop_assert_eq!(scan.memo_stats().unwrap().lookups(), 0);
        if !shared {
            prop_assert!(memo.lookups() > 0, "the index answered no lookup");
        }
    }
}
