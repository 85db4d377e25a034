//! Cached Ulmo search lists, ASID-gate masks and probe counts.
//!
//! Ulmo's cross-tile search (§3.2) needs the set of remote tiles that
//! hold molecules of the requesting region. The set only changes when
//! region *membership* or the home tile changes, both structural events
//! that bump the cache's generation counter, so each region caches its
//! lookup state stamped with that generation:
//!
//! * each [`Region`] carries its remote search tiles in ascending tile
//!   order, in a `Vec` that a rebuild clears but never drops (so steady
//!   state allocates nothing), stamped with the structural generation it
//!   was built under;
//! * [`MolecularCache::note_structural_change`] bumps the generation, so
//!   a stale stamp is detected lazily on the region's next access and
//!   the state rebuilt once, not per access;
//! * [`MolecularCache::reference_search_list`] derives the list from
//!   membership directly, the oracle the `search_list_property` suite
//!   checks every current-stamped list against after every operation.
//!
//! The same stamp guards the region's **gate masks**. The §3.1 ASID
//! gate's match set on a tile changes only when a molecule's ASID lane
//! or shared bit is written, and every path that writes one (grant,
//! shrink, release, flush, `make_shared`) bumps the generation in the
//! same call, as does a re-home. So a rebuild runs
//! [`TagStore::gate_scan`] once over every tile a lookup visits — the
//! home tile, then each search tile in list order — and keeps the masks,
//! the running sums of their counts (the tag probes a lookup that stops
//! at each slot charges, which the line-index front-end replays), and
//! whether any of those tiles holds a shared molecule (which sends the
//! region's lookups to the ordered scan).
//!
//! Ascending-sorted insertion reproduces the reference derivation's
//! `sort_unstable` + `dedup` order exactly, so the search visits remote
//! tiles in the same order and every statistic is bit-identical.
//!
//! [`TagStore::gate_scan`]: crate::tags::TagStore::gate_scan

use crate::cache::MolecularCache;
use crate::ids::TileId;
use crate::region::Region;
use crate::tags::{GateMask, TagStore};
use crate::tile::Topology;
use molcache_trace::Asid;

impl Region {
    /// The cached Ulmo search list (remote tiles, ascending). Valid only
    /// while [`search_generation`](Self::search_generation) matches the
    /// cache's live structural generation.
    #[inline]
    pub(crate) fn search_tiles(&self) -> &[TileId] {
        &self.search_tiles
    }

    /// The structural generation the cached state was built under
    /// (0 = never built, so never current).
    #[inline]
    pub(crate) fn search_generation(&self) -> u64 {
        self.search_generation
    }

    /// Rebuilds the cached search list from the current membership:
    /// every member molecule's tile except the home tile, deduplicated
    /// ascending, stamped with `generation`.
    pub(crate) fn rebuild_search_list(&mut self, generation: u64, topo: Topology) {
        self.search_tiles.clear();
        let home = self.home_tile();
        for row in &self.rows {
            for &id in row {
                let t = topo.tile_of(id);
                if t == home {
                    continue;
                }
                if let Err(pos) = self.search_tiles.binary_search(&t) {
                    self.search_tiles.insert(pos, t);
                }
            }
        }
        self.search_generation = generation;
    }

    /// Rebuilds the search list, then gates every lookup tile for the
    /// region's ASID: the masks, their running probe counts and the
    /// shared-molecule check that decides whether the index may answer.
    pub(crate) fn rebuild_lookup_cache(
        &mut self,
        generation: u64,
        topo: Topology,
        tags: &TagStore,
    ) {
        self.rebuild_search_list(generation, topo);
        let slots = 1 + self.search_tiles.len();
        if self.gates.len() < slots {
            self.gates.resize_with(slots, GateMask::default);
        }
        self.probes_through.clear();
        let (count, mut probes, mut shared) = (topo.tile_molecules(), 0, false);
        for slot in 0..slots {
            let base = topo.tile_base(self.lookup_tile(slot));
            tags.gate_scan(base, count, self.asid(), &mut self.gates[slot]);
            probes += self.gates[slot].count();
            self.probes_through.push(probes);
            shared |= tags.count_shared(base, count) > 0;
        }
        self.indexable = self.asid() != Asid::NONE && !shared;
    }

    /// Lookup slots: the home tile, then every search tile.
    #[inline]
    pub(crate) fn lookup_slots(&self) -> usize {
        self.probes_through.len()
    }

    /// The tile of lookup slot `slot`: 0 is the home tile, `1 + i` the
    /// `i`-th search tile — the order one access visits them in.
    #[inline]
    pub(crate) fn lookup_tile(&self, slot: usize) -> TileId {
        match slot {
            0 => self.home_tile(),
            s => self.search_tiles()[s - 1],
        }
    }

    /// The lookup slot of `tile`, a tile holding a member molecule.
    #[inline]
    pub(crate) fn slot_of(&self, tile: TileId) -> usize {
        if tile == self.home_tile() {
            return 0;
        }
        1 + self
            .search_tiles
            .binary_search(&tile)
            .expect("a member's tile is a lookup tile")
    }

    /// The gate mask of lookup slot `slot`.
    #[inline]
    pub(crate) fn gate(&self, slot: usize) -> &GateMask {
        debug_assert!(slot < self.lookup_slots(), "gate of a stale slot");
        &self.gates[slot]
    }

    /// The tag probes of lookup slots `0..=slot`.
    #[inline]
    pub(crate) fn probes_through(&self, slot: usize) -> u32 {
        self.probes_through[slot]
    }

    /// Whether the line index may answer this region's lookups (see
    /// [`rebuild_lookup_cache`](Self::rebuild_lookup_cache)).
    #[inline]
    pub(crate) fn indexable(&self) -> bool {
        self.indexable
    }
}

impl MolecularCache {
    /// Brings `asid`'s cached search list, gate masks and probe counts
    /// up to the live structural generation before an access looks the
    /// line up. Returns the home tile and whether the line index may
    /// answer the lookup.
    ///
    /// The state then stays current for the rest of the access: lookups
    /// are structurally read-only.
    pub(crate) fn refresh_lookup_cache(&mut self, asid: Asid) -> (TileId, bool) {
        let generation = self.structure_generation;
        let topo = self.topo;
        let region = self.regions.get_mut(&asid).expect("region");
        if region.search_generation() != generation {
            region.rebuild_lookup_cache(generation, topo, &self.tags);
        }
        (region.home_tile(), region.indexable())
    }

    /// The live structural-topology generation (diagnostics; bumped on
    /// every grant/shrink/release/re-home/shared-bit/flush event).
    pub fn structure_generation(&self) -> u64 {
        self.structure_generation
    }

    /// The cached search list of `asid`'s region as (generation stamp,
    /// tiles), if the region exists (diagnostics: the property suite
    /// asserts a current stamp implies agreement with
    /// [`reference_search_list`](Self::reference_search_list) and that no
    /// stale stamp survives a structural change as current).
    pub fn cached_search_list(&self, asid: Asid) -> Option<(u64, Vec<TileId>)> {
        self.regions
            .get(&asid)
            .map(|r| (r.search_generation(), r.search_tiles().to_vec()))
    }

    /// The search list derived directly from membership (the reference
    /// the cache must agree with whenever its stamp is current).
    pub fn reference_search_list(&self, asid: Asid) -> Option<Vec<TileId>> {
        self.regions.get(&asid).map(|r| self.remote_tiles(r))
    }

    /// The cached gate masks of `asid`'s region as (generation stamp,
    /// (tile, mask) per lookup slot, home tile first), if the region
    /// exists (diagnostics: the property suite asserts that under a
    /// current stamp each mask equals
    /// [`reference_gate`](Self::reference_gate) of its tile).
    pub fn cached_gates(&self, asid: Asid) -> Option<(u64, Vec<(TileId, GateMask)>)> {
        self.regions.get(&asid).map(|r| {
            let masks = (0..r.lookup_slots())
                .map(|slot| (r.lookup_tile(slot), r.gate(slot).clone()))
                .collect();
            (r.search_generation(), masks)
        })
    }

    /// A fresh ASID-gate scan of `tile` for `asid` (the reference every
    /// current cached mask must equal).
    pub fn reference_gate(&self, asid: Asid, tile: TileId) -> GateMask {
        let mut mask = GateMask::default();
        let (base, count) = (self.topo.tile_base(tile), self.topo.tile_molecules());
        self.tags.gate_scan(base, count, asid, &mut mask);
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RegionPolicy;
    use crate::ids::MoleculeId;

    #[test]
    fn insert_keeps_sorted_unique() {
        // Two molecules on every tile of a 32-tile cluster, added in
        // descending tile order: the list comes out ascending,
        // deduplicated and without the home tile.
        let topo = Topology::new(4, 32);
        let mut r = Region::new(Asid::new(1), TileId(5), RegionPolicy::Random, 1, 0.1, 4);
        for k in 0..2 {
            for t in (0..32u32).rev() {
                r.add_molecule(MoleculeId(t * 4 + k));
            }
        }
        r.rebuild_search_list(7, topo);
        let want: Vec<TileId> = (0..32).filter(|&t| t != 5).map(TileId).collect();
        assert_eq!(r.search_tiles(), want.as_slice());
        assert_eq!(r.search_generation(), 7);
        // A rebuild after a re-home replaces the list in place.
        r.set_home_tile(TileId(0));
        r.rebuild_search_list(8, topo);
        assert_eq!(r.search_tiles().first(), Some(&TileId(1)));
        assert_eq!(r.search_tiles().len(), 31);
    }
}
