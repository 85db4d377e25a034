//! Stage 4 — victim selection (§3.3).
//!
//! On a miss the replacement view of the region picks the molecule to
//! fill into. The Random / Randy / LRU-Direct policies live behind the
//! [`VictimPolicy`] trait; [`Region::select_victim`] dispatches through
//! it. The raw random draw comes from the generator the cache models in
//! hardware, the cheap, correlated [`Lfsr16`].
//!
//! Selection is pure bookkeeping that overlaps the miss handling, so the
//! stage contributes zero cycles to the access latency and leaves its
//! [`StageTrace`](molcache_sim::StageTrace) empty; it exists as a stage
//! because it sits between lookup and fill in the hardware pipeline and
//! because its draw order is part of the bit-identical contract: one
//! draw per miss, consumed even when the region turns out to be empty.

use crate::cache::MolecularCache;
use crate::config::RegionPolicy;
use crate::ids::MoleculeId;
use crate::region::Region;
use molcache_trace::{Address, Asid};

/// A 16-bit Galois LFSR (taps 16, 14, 13, 11 — maximal length), the
/// kind of generator a cache controller implements in a handful of
/// flip-flops. Its draws are cheap but correlated: consecutive values
/// differ by one shift, which is precisely the low-entropy behaviour the
/// paper blames for Random replacement's load imbalance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lfsr16 {
    state: u16,
}

impl Lfsr16 {
    /// Creates an LFSR from a seed (zero is mapped to a non-zero state).
    pub fn new(seed: u16) -> Self {
        Lfsr16 {
            state: if seed == 0 { 0xACE1 } else { seed },
        }
    }

    /// Advances one step and returns the 16-bit state.
    pub fn next_u16(&mut self) -> u16 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb == 1 {
            self.state ^= 0xB400; // taps 16,14,13,11
        }
        self.state
    }
}

/// A replacement policy over a region's replacement view (Figure 4's 2-D
/// sparse matrix of rows with non-uniform molecule counts).
///
/// `draw` is one raw random value from the [`Lfsr16`]; policies that do
/// not need it (LRU-Direct) ignore it, but the driver consumes a draw
/// per miss regardless so that switching policies never perturbs the
/// RNG stream of unrelated decisions.
pub trait VictimPolicy {
    /// The policy's display name.
    fn name(&self) -> &'static str;

    /// Picks the victim molecule, updating the view's replacement
    /// bookkeeping (row miss counters). Returns `None` when the region
    /// has no molecules.
    fn select(
        &self,
        region: &mut Region,
        addr: Address,
        molecule_size: u64,
        draw: u64,
    ) -> Option<MoleculeId>;
}

/// Random replacement: the draw selects uniformly over the whole region
/// (a single replacement row).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandomVictim;

impl VictimPolicy for RandomVictim {
    fn name(&self) -> &'static str {
        "Random"
    }

    fn select(
        &self,
        region: &mut Region,
        _addr: Address,
        _molecule_size: u64,
        draw: u64,
    ) -> Option<MoleculeId> {
        if region.rows.is_empty() {
            return None;
        }
        let all = &region.rows[0];
        Some(all[(draw % all.len() as u64) as usize])
    }
}

/// Randy: the address deterministically picks the row, the draw only
/// picks within the row — which is why Randy "reduces the reliance on
/// random numbers" (§3.3).
#[derive(Debug, Clone, Copy, Default)]
pub struct RandyVictim;

impl VictimPolicy for RandyVictim {
    fn name(&self) -> &'static str {
        "Randy"
    }

    fn select(
        &self,
        region: &mut Region,
        addr: Address,
        molecule_size: u64,
        draw: u64,
    ) -> Option<MoleculeId> {
        if region.rows.is_empty() {
            return None;
        }
        let row_max = region.rows.len() as u64;
        let row = ((addr.raw() / molecule_size) % row_max) as usize;
        region.row_misses[row] += 1;
        let candidates = &region.rows[row];
        Some(candidates[(draw % candidates.len() as u64) as usize])
    }
}

/// LRU-Direct: Randy's direct row mapping with true LRU within the row
/// (the draw is ignored).
#[derive(Debug, Clone, Copy, Default)]
pub struct LruDirectVictim;

impl VictimPolicy for LruDirectVictim {
    fn name(&self) -> &'static str {
        "LRU-Direct"
    }

    fn select(
        &self,
        region: &mut Region,
        addr: Address,
        molecule_size: u64,
        _draw: u64,
    ) -> Option<MoleculeId> {
        if region.rows.is_empty() {
            return None;
        }
        let row_max = region.rows.len() as u64;
        let row = ((addr.raw() / molecule_size) % row_max) as usize;
        region.row_misses[row] += 1;
        let candidates = &region.rows[row];
        candidates
            .iter()
            .copied()
            .min_by_key(|id| region.recency.get(id).copied().unwrap_or(0))
    }
}

/// The [`VictimPolicy`] implementation for a configured policy.
pub fn policy_of(policy: RegionPolicy) -> &'static dyn VictimPolicy {
    match policy {
        RegionPolicy::Random => &RandomVictim,
        RegionPolicy::Randy => &RandyVictim,
        RegionPolicy::LruDirect => &LruDirectVictim,
    }
}

impl MolecularCache {
    /// Runs the victim-selection stage for a miss by `asid` on `addr`.
    ///
    /// One LFSR draw is consumed *before* the region is consulted (the
    /// hardware generator free-runs whether or not the region turns out
    /// to be empty). Returns `None` when the region owns no molecules:
    /// the request then bypasses the cache.
    pub(crate) fn victim_select(&mut self, asid: Asid, addr: Address) -> Option<MoleculeId> {
        let draw = self.lfsr.next_u16() as u64;
        let molecule_size = self.cfg.molecule_size();
        let region = self.regions.get_mut(&asid).expect("region");
        region.select_victim(addr, molecule_size, draw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TileId;

    fn region(policy: RegionPolicy) -> Region {
        Region::new(Asid::new(1), TileId(0), policy, 1, 0.1, 4)
    }

    #[test]
    fn policy_of_matches_names() {
        assert_eq!(policy_of(RegionPolicy::Random).name(), "Random");
        assert_eq!(policy_of(RegionPolicy::Randy).name(), "Randy");
        assert_eq!(policy_of(RegionPolicy::LruDirect).name(), "LRU-Direct");
    }

    #[test]
    fn policies_agree_with_region_dispatch() {
        for policy in [
            RegionPolicy::Random,
            RegionPolicy::Randy,
            RegionPolicy::LruDirect,
        ] {
            let mut via_region = region(policy);
            let mut via_trait = region(policy);
            for i in 0..4 {
                via_region.add_molecule(MoleculeId(i));
                via_trait.add_molecule(MoleculeId(i));
            }
            for i in 0..32u64 {
                let addr = Address::new(i * 4096);
                let a = via_region.select_victim(addr, 8192, i * 7);
                let b = policy_of(policy).select(&mut via_trait, addr, 8192, i * 7);
                assert_eq!(a, b, "{policy:?} draw {i}");
            }
        }
    }

    #[test]
    fn empty_region_yields_no_victim() {
        for policy in [
            RegionPolicy::Random,
            RegionPolicy::Randy,
            RegionPolicy::LruDirect,
        ] {
            let mut r = region(policy);
            assert_eq!(
                policy_of(policy).select(&mut r, Address::new(0), 8192, 3),
                None
            );
        }
    }
}
