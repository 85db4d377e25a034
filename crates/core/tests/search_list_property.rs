//! Property tests for the cached Ulmo search lists and ASID-gate masks
//! (`search_list`): under arbitrary access/grow/shrink/release/re-home/
//! shared-bit/flush/admit interleavings, a current generation stamp
//! always implies agreement with the membership-derived reference list
//! and with a fresh gate scan of every cached tile, and no stale list
//! survives a structural-generation bump as current.

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

/// One step of a generated interleaving, decoded from two raw u64
/// draws. Compared with the memo suite this mix adds explicit
/// grow/shrink ops so search lists churn through every structural
/// path, not just the trigger-driven resizes, and the lifecycle flush
/// and admit calls.
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

/// Decodes `(selector, payload)` into an op. Accesses dominate (so
/// cross-tile searches actually launch); structural ops are sprinkled
/// in.
fn decode(selector: u64, payload: u64) -> Op {
    let asid = (payload % 3 + 1) as u16;
    match selector % 18 {
        11 => Op::Grow {
            asid,
            by: (payload >> 8) as usize % 4 + 1,
        },
        12 => Op::Shrink {
            asid,
            by: (payload >> 8) as usize % 4 + 1,
        },
        13 => Op::Release { asid },
        14 => Op::Rehome {
            asid,
            tile: (payload >> 8) as usize % 2,
        },
        15 => Op::MakeShared {
            tile: (payload >> 8) as usize % 2,
        },
        16 => Op::Flush { asid },
        17 => Op::Admit { asid },
        _ => Op::Access {
            asid,
            // A handful of hot lines per app plus a streaming tail.
            addr: if payload.is_multiple_of(4) {
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The search-list and gate-mask invalidation contract, checked
    /// after every op:
    ///
    /// 1. A current stamp is trustworthy — whenever a region's cached
    ///    stamp equals the live structural generation, the cached tile
    ///    list equals the list derived directly from membership, and
    ///    every cached gate mask equals a fresh gate scan of its tile
    ///    for the region's ASID (shared molecules included).
    /// 2. No stale list survives a generation bump as current — after
    ///    any op that advances the generation, no stamp written before
    ///    the op can equal the new generation (stamps only move by
    ///    rebuilds, which re-derive from membership and satisfy 1).
    #[test]
    fn no_stale_search_list_reads_as_current(
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..300),
    ) {
        let mut c = MolecularCache::new(torture_config());
        let mut generation = c.structure_generation();

        for &(sel, payload) in &ops {
            // Stamps observed before the op, to detect a stale stamp
            // getting promoted by a bump instead of a rebuild.
            let before: Vec<(u16, u64)> = (1u16..=3)
                .filter_map(|a| {
                    c.cached_search_list(Asid::new(a)).map(|(s, _)| (a, s))
                })
                .collect();

            let op = decode(sel, payload);
            apply(&mut c, op);

            let now = c.structure_generation();
            prop_assert!(now >= generation, "generation went backwards");
            if now != generation {
                for &(asid, stamp) in &before {
                    prop_assert!(
                        stamp != now,
                        "pre-bump stamp for ASID {} reads as current",
                        asid
                    );
                }
                generation = now;
            }

            for asid in 1u16..=3 {
                let Some((stamp, cached)) = c.cached_search_list(Asid::new(asid))
                else {
                    continue;
                };
                if stamp == now {
                    let reference = c
                        .reference_search_list(Asid::new(asid))
                        .expect("region exists");
                    prop_assert_eq!(
                        &cached, &reference,
                        "current-stamped list diverged from membership for ASID {}",
                        asid
                    );
                }
                let (stamp, gates) = c.cached_gates(Asid::new(asid)).expect("region exists");
                if stamp == now {
                    for (tile, mask) in &gates {
                        prop_assert_eq!(
                            mask,
                            &c.reference_gate(Asid::new(asid), *tile),
                            "current-stamped gate mask of tile {:?} is stale for ASID {}",
                            tile,
                            asid
                        );
                    }
                }
            }
        }
        prop_assert_eq!(c.find_duplicate_line(), None);
    }
}
