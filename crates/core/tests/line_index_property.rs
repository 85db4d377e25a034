//! The line index's oracle. Under arbitrary access / grow / shrink /
//! release / re-home / flush / admit / statistics-reset interleavings,
//! with line factors 1, 2 and 4 and one access in sixteen from
//! [`Asid::NONE`]:
//!
//! 1. every access agrees with the ordered gate-and-probe scan
//!    (`MolecularCache::reference_lookup`) taken just before it: the
//!    molecule the index names is the one the scan finds, the access hits
//!    exactly when the scan finds one, and it charges the scan's ASID-gate,
//!    home-lookup and Ulmo stage totals and Ulmo launch;
//! 2. after every op the cache's `activity()` equals the total of an
//!    independent accountant ([`Accountant`]), folded access by access
//!    from the scan's breakdown and the access's outcome, and op by op
//!    from the flush counts lifecycle calls return. The cache derives its
//!    stage totals from a few counters; the accountant shares no code
//!    with that derivation;
//! 3. after every op the index equals a rebuild from the tag store —
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
use molcache_sim::{
    AccessOutcome, Activity, CacheModel, Request, StageActivity, StageBreakdown, StageTrace,
};
use molcache_trace::{AccessKind, Address, Asid};
use proptest::prelude::*;

/// Tiles per cluster: re-homes draw over all of them.
const TILES: usize = 4;

/// Cycles a miss waits for memory (Table 3): what the fill stage adds to
/// a miss's latency.
const MISS_PENALTY: u32 = 200;

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
    Reset,
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
        16 => Op::Reset,
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

/// Applies a structural op and returns the dirty frames it reports
/// flushing: a lifecycle flush's count, 0 for the ops that flush nothing,
/// and `None` for shrink and release, which report only molecules.
fn apply(c: &mut MolecularCache, op: Op) -> Option<u64> {
    match op {
        Op::Access { .. } => unreachable!("accesses are checked, not applied"),
        Op::Grow { asid, by } => {
            if let Some(size) = c.region_size(Asid::new(asid)) {
                c.set_region_size(Asid::new(asid), size + by);
            }
            Some(0)
        }
        Op::Shrink { asid, by } => {
            if let Some(size) = c.region_size(Asid::new(asid)) {
                c.set_region_size(Asid::new(asid), size.saturating_sub(by));
            }
            None
        }
        Op::Release { asid } => {
            c.release_region(Asid::new(asid));
            None
        }
        Op::Rehome { asid, tile } => {
            c.rehome_app(Asid::new(asid), tile);
            Some(0)
        }
        Op::Flush { asid } => Some(c.flush_region(Asid::new(asid)).unwrap_or(0)),
        Op::Admit { asid } => {
            c.admit_app(Asid::new(asid));
            Some(0)
        }
        Op::Reset => {
            c.reset_stats();
            Some(0)
        }
    }
}

/// The activity the cache must report, folded one op at a time from what
/// each op reports on its own: an access's scan breakdown and outcome, a
/// flush's returned count.
#[derive(Debug, Default)]
struct Accountant {
    total: Activity,
}

impl Accountant {
    /// Books one access: the scan's lookup stages, the miss penalty and
    /// the lines fetched on a miss, and `writebacks`. The aggregate
    /// compares and probes are the sums of the stage counts. Returns the
    /// sum of the stage cycles.
    fn access(&mut self, scan: &StageBreakdown, out: AccessOutcome, writebacks: u64) -> u32 {
        let mut stages = *scan;
        if !out.hit {
            stages.fill.cycles = MISS_PENALTY;
            stages.fill.frames_touched = out.lines_fetched;
        }
        let traces = [
            stages.asid_gate,
            stages.home_lookup,
            stages.ulmo_search,
            stages.victim,
            stages.fill,
        ];
        let sum = |count: fn(&StageTrace) -> u32| traces.iter().map(count).sum::<u32>();
        let t = &mut self.total;
        t.accesses += 1;
        t.asid_compares += u64::from(sum(|t| t.asid_compares));
        t.ways_probed += u64::from(sum(|t| t.tag_probes));
        t.ulmo_searches += u64::from(stages.ulmo_search.cycles > 0);
        t.line_fills += u64::from(out.lines_fetched);
        t.writebacks += writebacks;
        t.stages.absorb(&stages);
        sum(|t| t.cycles)
    }
}

/// Services one request, checks it against the ordered scan taken just
/// before it and books it in `acct`. The region is admitted first, which
/// is what the access itself would do, so the scan has a region to walk.
///
/// Writebacks are the one count no op reports exactly: an outcome only
/// says whether the fill wrote any back, and a resize the access
/// triggers may flush more. The accountant takes the cache's count after
/// checking it against the outcome: at least one exactly when the
/// outcome says so, and at most the lines fetched, unless a resize round
/// ran.
fn access_checked(
    c: &mut MolecularCache,
    acct: &mut Accountant,
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
    let rounds = c.resize_rounds();
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
    let writebacks = delta.writebacks;
    prop_assert!(writebacks >= u64::from(out.writeback), "step {}", step);
    if c.resize_rounds() == rounds {
        prop_assert_eq!(writebacks > 0, out.writeback, "step {}", step);
        prop_assert!(writebacks <= u64::from(out.lines_fetched), "step {}", step);
    }
    let cycles = acct.access(&scan, out, writebacks);
    prop_assert_eq!(cycles, out.latency, "step {}: stage cycles", step);
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
        let mut acct = Accountant::default();
        let mut accesses = 0;
        for (step, &(sel, payload)) in ops.iter().enumerate() {
            match decode(sel, payload) {
                Op::Access { asid, addr, write } => {
                    access_checked(&mut c, &mut acct, step, asid, addr, write)?;
                    accesses += 1;
                }
                Op::Reset => {
                    apply(&mut c, Op::Reset);
                    acct = Accountant::default();
                    accesses = 0;
                }
                op => {
                    let before = c.activity();
                    let reported = apply(&mut c, op);
                    let flushed = c.activity().since(&before).writebacks;
                    acct.total.writebacks += reported.unwrap_or(flushed);
                }
            }
            prop_assert_eq!(
                c.activity(),
                acct.total,
                "step {}: activity diverged from the accountant",
                step
            );
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
