//! The line index's oracle. Under arbitrary access / grow / shrink /
//! release / re-home / flush / admit interleavings, with line factors 1,
//! 2 and 4 and one access in sixteen from [`Asid::NONE`]:
//!
//! 1. every access agrees with the ordered gate-and-probe scan
//!    (`MolecularCache::reference_lookup`) taken just before it: the
//!    molecule the index names is the one the scan finds, the access hits
//!    exactly when the scan finds one, and it charges the scan's ASID-gate,
//!    home-lookup and Ulmo stage totals and Ulmo launch;
//! 2. after every op the index equals a rebuild from the tag store —
//!    every valid frame of every owned molecule exactly once under its
//!    owner, and nothing else — every molecule's kept valid-frame count
//!    equals a recount of its frames, no line is resident twice in one
//!    region, and every member holds each block of its region wholly or
//!    not at all.
//!
//! Four tiles per cluster let a region span several remote tiles, so a
//! hit on the second remote tile charges only the slots up to it, never
//! every slot.

use molcache_core::config::{InitialAllocation, LINE_SIZE};
use molcache_core::{MolecularCache, MolecularConfig, ResizeTrigger};
use molcache_sim::{CacheModel, Request, StageActivity};
use molcache_trace::{AccessKind, Address, Asid};
use proptest::prelude::*;

/// Tiles per cluster: re-homes draw over all of them.
const TILES: usize = 4;

/// Four 8-molecule tiles of 1 KB molecules (16 frames), small grants
/// and an aggressive resize trigger, so regions spread over several
/// tiles and lookups reach Ulmo. Applications 1 and 2 fetch
/// `line_factor`-line blocks; application 3 and [`Asid::NONE`] single
/// lines.
fn config(line_factor: u32) -> MolecularConfig {
    MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(TILES)
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
    Flush { asid: u16 },
    Admit { asid: u16 },
}

/// Decodes `(selector, payload)` into an op: accesses dominate, with the
/// structural ops of the search-list suite sprinkled in.
fn decode(selector: u64, payload: u64) -> Op {
    let asid = (payload % 3 + 1) as u16;
    let tile = (payload >> 8) as usize % TILES;
    let by = (payload >> 8) as usize % 4 + 1;
    match selector % 20 {
        12 => Op::Grow { asid, by },
        13 => Op::Shrink { asid, by },
        14 => Op::Release { asid },
        15 => Op::Rehome { asid, tile },
        17 => Op::Flush { asid },
        18 => Op::Admit { asid },
        _ => Op::Access {
            asid: if (payload >> 12).is_multiple_of(16) {
                0
            } else {
                asid
            },
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

/// Applies a structural op.
fn apply(c: &mut MolecularCache, op: Op) {
    match op {
        Op::Access { .. } => unreachable!("accesses are checked, not applied"),
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
        Op::Flush { asid } => {
            c.flush_region(Asid::new(asid));
        }
        Op::Admit { asid } => {
            c.admit_app(Asid::new(asid));
        }
    }
}

/// Services one request and checks it against the ordered scan taken
/// just before it. The region is admitted first, which is what the
/// access itself would do, so the scan has a region to walk.
fn access_checked(
    c: &mut MolecularCache,
    step: usize,
    asid: u16,
    addr: u64,
    write: bool,
) -> Result<(), TestCaseError> {
    let asid = Asid::new(asid);
    c.admit_app(asid);
    let line = Address::new(addr).line(LINE_SIZE);
    let (found, scan) = c.reference_lookup(asid, line).expect("admitted");
    prop_assert_eq!(
        c.indexed_molecule(asid, line),
        found,
        "step {}: the index names another molecule than the scan ({}, {:#x})",
        step,
        asid,
        addr
    );
    let before = c.activity();
    let out = c.access(Request {
        asid,
        addr: Address::new(addr),
        kind: if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        },
    });
    let delta = c.activity().since(&before);
    prop_assert_eq!(out.hit, found.is_some(), "step {}: hit flag", step);
    let mut want = StageActivity::default();
    want.absorb(&scan);
    let stages = delta.stages;
    prop_assert_eq!(
        (stages.asid_gate, stages.home_lookup, stages.ulmo_search),
        (want.asid_gate, want.home_lookup, want.ulmo_search),
        "step {}: lookup charges diverged from the scan ({}, {:#x})",
        step,
        asid,
        addr
    );
    prop_assert_eq!(
        delta.ulmo_searches,
        u64::from(scan.ulmo_search.cycles > 0),
        "step {}: Ulmo launches",
        step
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_matches_a_rebuild_and_the_scan_after_every_op(
        factor in 0u32..3,
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..300),
    ) {
        let mut c = MolecularCache::new(config(1 << factor));
        let mut accesses = 0;
        for (step, &(sel, payload)) in ops.iter().enumerate() {
            match decode(sel, payload) {
                Op::Access { asid, addr, write } => {
                    access_checked(&mut c, step, asid, addr, write)?;
                    accesses += 1;
                }
                op => apply(&mut c, op),
            }
            prop_assert_eq!(
                c.line_index_entries(),
                c.reference_line_index(),
                "step {}: index diverged from the tag store",
                step
            );
            prop_assert_eq!(
                c.find_miscounted_molecule(),
                None,
                "step {}: a valid-frame count diverged from a recount",
                step
            );
            prop_assert_eq!(c.find_duplicate_line(), None, "step {}", step);
            prop_assert_eq!(c.find_partial_block(), None, "step {}", step);
        }
        let memo = c.memo_stats().unwrap();
        prop_assert_eq!(memo.lookups(), accesses, "the index answers every access");
    }
}
