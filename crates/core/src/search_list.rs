//! Cached Ulmo search lists and per-slot probe counts.
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
//! The same membership walk counts the region's members on every lookup
//! slot — the home tile, then each search tile in list order — and keeps
//! the running sums of those counts: the tag probes a lookup that stops
//! at each slot charges, which stage 0 ([`crate::pipeline::memo`])
//! replays. A molecule passes the §3.1 ASID gate exactly when its ASID
//! is the requestor's, and only the region's members carry it, so a
//! tile's gate passes exactly the members on that tile. An
//! [`Asid::NONE`] region's gate passes nothing (a free molecule carries
//! the same ASID), so its counts are all 0.
//!
//! Ascending-sorted insertion reproduces the reference derivation's
//! `sort_unstable` + `dedup` order exactly, so the search visits remote
//! tiles in the same order and every statistic is bit-identical.

use crate::cache::MolecularCache;
use crate::ids::TileId;
use crate::region::Region;
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

    /// Rebuilds the cached lookup state from the current membership in
    /// one walk: the search list (every member molecule's tile except the
    /// home tile, deduplicated ascending) and the probe counts of every
    /// lookup slot, stamped with `generation`.
    pub(crate) fn rebuild_lookup_cache(&mut self, generation: u64, topo: Topology) {
        self.search_tiles.clear();
        self.probes_through.clear();
        // Per-slot member counts first; the prefix sums replace them below.
        self.probes_through.push(0);
        let gated = u32::from(self.asid() != Asid::NONE);
        let home = self.home_tile();
        for row in &self.rows {
            for &id in row {
                let t = topo.tile_of(id);
                let slot = if t == home {
                    0
                } else {
                    match self.search_tiles.binary_search(&t) {
                        Ok(pos) => pos + 1,
                        Err(pos) => {
                            self.search_tiles.insert(pos, t);
                            self.probes_through.insert(pos + 1, 0);
                            pos + 1
                        }
                    }
                };
                self.probes_through[slot] += gated;
            }
        }
        let mut probes = 0;
        for count in &mut self.probes_through {
            probes += *count;
            *count = probes;
        }
        self.search_generation = generation;
    }

    /// Brings the cached search list and probe counts up to the live
    /// structural `generation` before an access looks a line up. The
    /// state then stays current for the rest of the access: lookups are
    /// structurally read-only.
    #[inline]
    pub(crate) fn refresh_lookup_cache(&mut self, generation: u64, topo: Topology) {
        if self.search_generation != generation {
            self.rebuild_lookup_cache(generation, topo);
        }
    }

    /// The lookup slot of `tile`, a tile holding a member molecule: 0 is
    /// the home tile, `1 + i` the `i`-th search tile — the order one
    /// access visits them in.
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

    /// The tag probes of lookup slots `0..=slot`.
    #[inline]
    pub(crate) fn probes_through(&self, slot: usize) -> u32 {
        self.probes_through[slot]
    }
}

impl MolecularCache {
    /// The live structural-topology generation (diagnostics; bumped on
    /// every grant/shrink/release/re-home/flush event).
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

    /// The cached probe counts of `asid`'s region as (generation stamp,
    /// (tile, tag probes through it) per lookup slot, home tile first),
    /// if the region exists (diagnostics: the property suite asserts
    /// that under a current stamp the counts are the running sums of
    /// [`reference_gate_count`](Self::reference_gate_count) over the
    /// slots' tiles).
    pub fn cached_probe_counts(&self, asid: Asid) -> Option<(u64, Vec<(TileId, u32)>)> {
        self.regions.get(&asid).map(|r| {
            let tiles = std::iter::once(r.home_tile()).chain(r.search_tiles().iter().copied());
            let slots = tiles.zip(r.probes_through.iter().copied()).collect();
            (r.search_generation(), slots)
        })
    }

    /// The molecules of `tile` that pass the ASID gate for `asid`,
    /// counted afresh with [`TagStore::matches`](crate::tags::TagStore::matches)
    /// (the reference each cached per-slot count must equal).
    pub fn reference_gate_count(&self, asid: Asid, tile: TileId) -> u32 {
        self.topo
            .tile_molecule_ids(tile)
            .filter(|&m| self.tags.matches(m, asid))
            .count() as u32
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
        r.rebuild_lookup_cache(7, topo);
        let want: Vec<TileId> = (0..32).filter(|&t| t != 5).map(TileId).collect();
        assert_eq!(r.search_tiles(), want.as_slice());
        assert_eq!(r.search_generation(), 7);
        // A rebuild after a re-home replaces the list in place.
        r.set_home_tile(TileId(0));
        r.rebuild_lookup_cache(8, topo);
        assert_eq!(r.search_tiles().first(), Some(&TileId(1)));
        assert_eq!(r.search_tiles().len(), 31);
    }
}
