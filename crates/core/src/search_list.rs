//! Cached Ulmo search lists and ASID-gate masks.
//!
//! Ulmo's cross-tile search (§3.2) needs the set of remote tiles that
//! hold molecules of the requesting region. The set only changes when
//! region *membership* or the home tile changes, both structural events
//! that bump the cache's generation counter, so this module applies the
//! memo front-end's generation-stamp recipe to the search list:
//!
//! * each [`Region`] carries its remote search tiles in ascending tile
//!   order, in a `Vec` that a rebuild clears but never drops (so steady
//!   state allocates nothing), stamped with the structural generation it
//!   was built under;
//! * [`MolecularCache::note_structural_change`] bumps the generation, so
//!   a stale stamp is detected lazily on the region's next access and
//!   the list rebuilt once, not per miss;
//! * [`MolecularCache::reference_search_list`] derives the list from
//!   membership directly, the oracle the `search_list_property` suite
//!   checks every current-stamped list against after every operation.
//!
//! The same stamp guards the region's **gate masks**. The §3.1 ASID
//! gate's match set on a tile changes only when a molecule's ASID lane
//! or shared bit is written, and every path that writes one (grant,
//! shrink, release, flush, `make_shared`) bumps the generation in the
//! same call, as does a re-home. So the region keeps one
//! [`GateMask`] per tile its lookups visit — the home tile, then each
//! search tile in list order — filled by [`TagStore::gate_scan`] the
//! first time the gate stage uses it after a bump, and the rebuild
//! that renews the list drops them.
//!
//! Ascending-sorted insertion reproduces the reference derivation's
//! `sort_unstable` + `dedup` order exactly, so the search visits remote
//! tiles in the same order and every statistic is bit-identical.
//!
//! [`TagStore::gate_scan`]: crate::tags::TagStore::gate_scan

use crate::cache::MolecularCache;
use crate::ids::TileId;
use crate::region::Region;
use crate::tags::GateMask;
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

    /// The structural generation the cached list was built under
    /// (0 = never built, so never current).
    #[inline]
    pub(crate) fn search_generation(&self) -> u64 {
        self.search_generation
    }

    /// Rebuilds the cached search list from the current membership:
    /// every member molecule's tile except the home tile, deduplicated
    /// ascending, stamped with `generation`. Drops every gate mask.
    pub(crate) fn rebuild_search_list(&mut self, generation: u64, topo: Topology) {
        self.search_tiles.clear();
        self.gates_filled = 0;
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

    /// The tile of lookup slot `slot`: 0 is the home tile, `1 + i` the
    /// `i`-th search tile — the order one access visits them in.
    #[inline]
    pub(crate) fn lookup_tile(&self, slot: usize) -> TileId {
        match slot {
            0 => self.home_tile(),
            s => self.search_tiles()[s - 1],
        }
    }

    /// The gate mask of lookup slot `slot`, once the gate stage has
    /// filled it under the current stamp.
    #[inline]
    pub(crate) fn gate(&self, slot: usize) -> &GateMask {
        debug_assert!(slot < self.gates_filled, "gate read before it was filled");
        &self.gates[slot]
    }

    /// The mask of lookup slot `slot` for the gate stage to fill, or
    /// `None` when it is already current. An access visits its slots in
    /// order, so the current masks are always a prefix.
    #[inline]
    pub(crate) fn gate_to_fill(&mut self, slot: usize) -> Option<&mut GateMask> {
        if slot < self.gates_filled {
            return None;
        }
        debug_assert_eq!(slot, self.gates_filled, "lookup slots are gated in order");
        if self.gates.len() == slot {
            self.gates.push(GateMask::default());
        }
        self.gates_filled += 1;
        Some(&mut self.gates[slot])
    }
}

impl MolecularCache {
    /// Brings `asid`'s cached search list and gate masks up to the live
    /// structural generation before an access runs the gate: a stale
    /// stamp rebuilds the list and drops the masks. Returns the home
    /// tile.
    ///
    /// The list and masks then stay current for the rest of the access:
    /// gating and probing are structurally read-only.
    pub(crate) fn refresh_lookup_cache(&mut self, asid: Asid) -> TileId {
        let generation = self.structure_generation;
        let topo = self.topo;
        let region = self.regions.get_mut(&asid).expect("region");
        if region.search_generation() != generation {
            region.rebuild_search_list(generation, topo);
        }
        region.home_tile()
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
    /// (tile, mask) per filled lookup slot, home tile first), if the
    /// region exists (diagnostics: the property suite asserts that under
    /// a current stamp each mask equals
    /// [`reference_gate`](Self::reference_gate) of its tile).
    pub fn cached_gates(&self, asid: Asid) -> Option<(u64, Vec<(TileId, GateMask)>)> {
        self.regions.get(&asid).map(|r| {
            let masks = (0..r.gates_filled)
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
