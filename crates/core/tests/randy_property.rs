//! Property tests for Randy replacement (§3.3): the victim row is a pure
//! function of the address, and victims never leave the requesting region.

use molcache_core::config::RegionPolicy;
use molcache_core::ids::{MoleculeId, TileId};
use molcache_core::region::Region;
use molcache_trace::{Address, Asid};
use proptest::prelude::*;

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
            .select_victim(Address::new(addr), molecule_size, draw)
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
        let a = region.select_victim(Address::new(addr), MOLECULE_SIZE, draw_a).unwrap();
        let b = region.select_victim(Address::new(addr), MOLECULE_SIZE, draw_b).unwrap();
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
            .select_victim(Address::new(addr), MOLECULE_SIZE, 0)
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
                region.select_victim(Address::new(op), 8192, op >> 7);
            }
            prop_assert_eq!(region.size(), row_sum(&region), "step {}", step);
        }
    }
}
