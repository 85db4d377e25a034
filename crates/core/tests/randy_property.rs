//! Property tests for Randy replacement (§3.3): the victim row is a pure
//! function of the address, and victims never leave the requesting region.
//! LRU-Direct's per-molecule last-hit clocks pick the victims a
//! per-region map of them would, across grants, shrinks, releases and
//! re-grants of the same molecules.

use molcache_core::config::{InitialAllocation, RegionPolicy, LINE_SIZE};
use molcache_core::ids::{MoleculeId, TileId};
use molcache_core::region::Region;
use molcache_core::{MolecularCache, MolecularConfig, ResizeTrigger};
use molcache_sim::{CacheModel, Request};
use molcache_trace::{AccessKind, Address, Asid};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// LRU-Direct's clocks for molecules that were never hit.
const NEVER_HIT: [u64; 256] = [0; 256];

fn region_with(policy: RegionPolicy, row_max: usize, molecules: u32) -> Region {
    let mut region = Region::new(Asid::new(1), TileId(0), policy, 1, 0.25, row_max);
    for i in 0..molecules {
        region.add_molecule(MoleculeId(i));
    }
    assert_eq!(region.size(), row_sum(&region));
    region
}

/// The molecule count summed over the replacement rows; the region's
/// kept count must equal it.
fn row_sum(region: &Region) -> usize {
    (0..region.num_rows()).map(|i| region.row(i).len()).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Randy always indexes the row `(addr / molecule_size) mod row_max`
    /// (mod the rows actually built while the region is still growing),
    /// and the chosen molecule belongs to the requesting region.
    #[test]
    fn randy_victim_row_is_address_mod_rows(
        (row_max, molecules) in (1u64..9, 1u32..40),
        addr in proptest::num::u64::ANY,
        draw in proptest::num::u64::ANY,
        size_shift in 10u32..16,
    ) {
        let molecule_size = 1u64 << size_shift; // 1KB..32KB molecules
        let mut region = region_with(RegionPolicy::Randy, row_max as usize, molecules);
        prop_assert_eq!(region.num_rows(), (row_max as usize).min(molecules as usize));

        let victim = region
            .select_victim(Address::new(addr), molecule_size, draw, &[])
            .expect("non-empty region always yields a victim");

        // Victim belongs to the requesting region.
        prop_assert!(region.molecules().any(|m| m == victim));
        prop_assert!(victim.0 < molecules);

        // And to exactly the row Randy's address hash names.
        let row = ((addr / molecule_size) % region.num_rows() as u64) as usize;
        prop_assert!(region.row(row).contains(&victim));
    }

    /// Two misses on the same address always index the same row, no
    /// matter what the replacement draw does — Randy's row choice is
    /// deterministic in the address alone.
    #[test]
    fn randy_row_choice_ignores_the_draw(
        addr in proptest::num::u64::ANY,
        (draw_a, draw_b) in (proptest::num::u64::ANY, proptest::num::u64::ANY),
    ) {
        const MOLECULE_SIZE: u64 = 8 * 1024;
        let mut region = region_with(RegionPolicy::Randy, 4, 16);
        let row = ((addr / MOLECULE_SIZE) % region.num_rows() as u64) as usize;
        let a = region.select_victim(Address::new(addr), MOLECULE_SIZE, draw_a, &[]).unwrap();
        let b = region.select_victim(Address::new(addr), MOLECULE_SIZE, draw_b, &[]).unwrap();
        prop_assert!(region.row(row).contains(&a));
        prop_assert!(region.row(row).contains(&b));
    }

    /// LRU-Direct uses the same address-to-row mapping as Randy and also
    /// never picks a molecule outside the region.
    #[test]
    fn lru_direct_victims_stay_in_region(
        (row_max, molecules) in (1u64..9, 1u32..40),
        addr in proptest::num::u64::ANY,
    ) {
        const MOLECULE_SIZE: u64 = 8 * 1024;
        let mut region = region_with(RegionPolicy::LruDirect, row_max as usize, molecules);
        let victim = region
            .select_victim(Address::new(addr), MOLECULE_SIZE, 0, &NEVER_HIT)
            .expect("non-empty region always yields a victim");
        let row = ((addr / MOLECULE_SIZE) % region.num_rows() as u64) as usize;
        prop_assert!(region.row(row).contains(&victim));
    }

    /// The kept molecule count equals the row sum after every add,
    /// coldest-removal and drain, under every policy.
    #[test]
    fn size_tracks_the_rows_under_any_resize_sequence(
        (row_max, policy) in (1usize..9, 0u8..3),
        ops in proptest::collection::vec(proptest::num::u64::ANY, 1..200),
    ) {
        let policy = [RegionPolicy::Random, RegionPolicy::Randy, RegionPolicy::LruDirect]
            [policy as usize];
        let mut region = Region::new(Asid::new(1), TileId(0), policy, 1, 0.25, row_max);
        for (step, &op) in ops.iter().enumerate() {
            match op % 16 {
                0 => {
                    region.drain_molecules();
                }
                1..=6 => {
                    region.remove_coldest(|m| u64::from(m.0).wrapping_mul(op) % 13);
                }
                _ => region.add_molecule(MoleculeId(step as u32)),
            }
            if op % 5 == 0 {
                // Heat a row, so Randy's "where to add" ranks rows.
                region.select_victim(Address::new(op), 8192, op >> 7, &NEVER_HIT);
            }
            prop_assert_eq!(region.size(), row_sum(&region), "step {}", step);
        }
    }
}

/// One 16-molecule cluster of 1 KB molecules under LRU-Direct with two
/// replacement rows, and no resize of its own: the test grants, shrinks,
/// releases and re-admits, so three applications keep recycling the same
/// molecules.
fn lru_direct_cache() -> MolecularCache {
    let cfg = MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .policy(RegionPolicy::LruDirect)
        .row_max(2)
        .initial_allocation(InitialAllocation::Molecules(2))
        .trigger(ResizeTrigger::Constant { period: 1 << 40 })
        .build()
        .unwrap();
    MolecularCache::new(cfg)
}

/// The victim LRU-Direct picks for a miss on `addr` in `region` when its
/// last-hit clocks are `clocks`, a molecule without an entry reading 0:
/// the first least recently hit molecule of the addressed row.
fn reference_victim(
    region: &Region,
    addr: u64,
    molecule_size: u64,
    clocks: &BTreeMap<MoleculeId, u64>,
) -> Option<MoleculeId> {
    if region.num_rows() == 0 {
        return None;
    }
    let row = ((addr / molecule_size) % region.num_rows() as u64) as usize;
    region
        .row(row)
        .iter()
        .copied()
        .min_by_key(|m| clocks.get(m).copied().unwrap_or(0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every miss's victim equals the one a per-region
    /// `BTreeMap<MoleculeId, u64>` of last-hit clocks names. The map
    /// books each hit, and drops a molecule's entry when it leaves the
    /// region, so a molecule granted again reads 0, as it did when
    /// regions kept the map.
    #[test]
    fn lru_direct_victims_match_a_per_region_map(
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..400),
    ) {
        let mut c = lru_direct_cache();
        let molecule_size = c.config().molecule_size();
        let mut clocks: BTreeMap<Asid, BTreeMap<MoleculeId, u64>> = BTreeMap::new();
        let mut misses = 0;
        for (step, &(sel, payload)) in ops.iter().enumerate() {
            let asid = Asid::new((payload % 3 + 1) as u16);
            let by = (payload >> 8) as usize % 4 + 1;
            match sel % 16 {
                0 => {
                    if let Some(size) = c.region_size(asid) {
                        c.set_region_size(asid, size + by);
                    }
                }
                1 => {
                    if let Some(size) = c.region_size(asid) {
                        c.set_region_size(asid, size.saturating_sub(by));
                    }
                }
                2 => {
                    c.release_region(asid);
                }
                _ => {
                    c.admit_app(asid);
                    // A few lines per row and application, so rows fill,
                    // hit and evict.
                    let addr = (payload >> 12) % 64 * 512 + u64::from(asid.raw()) * 64;
                    let line = Address::new(addr).line(LINE_SIZE);
                    let held = c.indexed_molecule(asid, line);
                    let map = clocks.entry(asid).or_default();
                    let want = reference_victim(c.region(asid).unwrap(), addr, molecule_size, map);
                    let kind = if payload.is_multiple_of(5) { AccessKind::Write } else { AccessKind::Read };
                    let out = c.access(Request { asid, addr: Address::new(addr), kind });
                    prop_assert_eq!(out.hit, held.is_some(), "step {}", step);
                    match held {
                        Some(mol) => {
                            map.insert(mol, c.activity().accesses);
                        }
                        None => {
                            misses += 1;
                            prop_assert_eq!(
                                c.indexed_molecule(asid, line),
                                want,
                                "step {}: victim of {} at {:#x}",
                                step,
                                asid,
                                addr
                            );
                        }
                    }
                }
            }
            // Molecules that left a region leave its map, as a shrink's
            // `remove_coldest` and a release's drain removed them.
            for (asid, map) in &mut clocks {
                match c.region(*asid) {
                    Some(region) => map.retain(|m, _| region.molecules().any(|r| r == *m)),
                    None => map.clear(),
                }
            }
        }
        prop_assert!(misses > 0);
    }
}
