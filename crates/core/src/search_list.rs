//! Cached Ulmo search lists and ASID-gate masks.
//!
//! Ulmo's cross-tile search (§3.2) needs the set of remote tiles that
//! hold molecules of the requesting region. The seed derived it on every
//! launched search — collect the tile of every member molecule into a
//! fresh `Vec`, sort, dedup — which made each home-tile miss allocate
//! and sort. The set only changes when region *membership* or the home
//! tile changes, both of which are structural events that already bump
//! the cache's generation counter, so this module applies the memo
//! front-end's generation-stamp recipe to the search list itself:
//!
//! * each [`Region`] carries a [`TileList`] — a small inline array (no
//!   heap for clusters of up to 16 tiles, the paper-scale case) of its
//!   remote search tiles in ascending tile order, stamped with the
//!   structural generation it was built under;
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
use molcache_trace::Asid;

/// Remote tiles kept inline before spilling to the heap: covers every
/// cluster of up to [`INLINE_TILES`]` + 1` tiles without an allocation.
pub(crate) const INLINE_TILES: usize = 15;

/// A sorted, deduplicated set of tiles with inline storage — the cached
/// form of Ulmo's search list.
///
/// Stored inline up to [`INLINE_TILES`] entries; a larger cluster spills
/// the whole list to a `Vec` once and stays there (the spill is kept
/// across [`clear`](Self::clear), so even spilled steady state does not
/// re-allocate).
#[derive(Debug, Clone)]
pub(crate) struct TileList {
    inline: [TileId; INLINE_TILES],
    /// Valid entries of `inline`; unused once spilled.
    len: usize,
    /// Overflow storage; non-empty means the whole list lives here.
    spill: Vec<TileId>,
    spilled: bool,
}

impl Default for TileList {
    fn default() -> Self {
        TileList {
            inline: [TileId(0); INLINE_TILES],
            len: 0,
            spill: Vec::new(),
            spilled: false,
        }
    }
}

impl TileList {
    /// Empties the list (spill capacity is retained).
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
        self.spilled = false;
    }

    /// The tiles, ascending.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[TileId] {
        if self.spilled {
            &self.spill
        } else {
            &self.inline[..self.len]
        }
    }

    /// Inserts `t` at its sorted position unless already present.
    pub(crate) fn insert(&mut self, t: TileId) {
        if self.spilled {
            if let Err(pos) = self.spill.binary_search(&t) {
                self.spill.insert(pos, t);
            }
            return;
        }
        let slice = &self.inline[..self.len];
        let Err(pos) = slice.binary_search(&t) else {
            return;
        };
        if self.len == INLINE_TILES {
            self.spill.extend_from_slice(slice);
            self.spill.insert(pos, t);
            self.spilled = true;
            return;
        }
        self.inline.copy_within(pos..self.len, pos + 1);
        self.inline[pos] = t;
        self.len += 1;
    }
}

impl Region {
    /// The cached Ulmo search list (remote tiles, ascending). Valid only
    /// while [`search_generation`](Self::search_generation) matches the
    /// cache's live structural generation.
    #[inline]
    pub(crate) fn search_tiles(&self) -> &[TileId] {
        self.search_tiles.as_slice()
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
    pub(crate) fn rebuild_search_list(
        &mut self,
        generation: u64,
        tile_of: impl Fn(crate::ids::MoleculeId) -> TileId,
    ) {
        self.search_tiles.clear();
        self.gates_filled = 0;
        let home = self.home_tile();
        for row in &self.rows {
            for &id in row {
                let t = tile_of(id);
                if t != home {
                    self.search_tiles.insert(t);
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
        // Disjoint field borrows: membership is read from the region
        // while the list inside the same region is rewritten.
        let molecules = &self.molecules;
        let region = self.regions.get_mut(&asid).expect("region");
        if region.search_generation() != generation {
            region.rebuild_search_list(generation, |id| molecules[id.index()].tile());
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
        let tile = &self.tiles[tile.index()];
        let mut mask = GateMask::default();
        self.tags
            .gate_scan(tile.molecule_base(), tile.capacity(), asid, &mut mask);
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_keeps_sorted_unique() {
        let mut l = TileList::default();
        for t in [5u32, 1, 5, 3, 1, 9, 3] {
            l.insert(TileId(t));
        }
        let got: Vec<u32> = l.as_slice().iter().map(|t| t.0).collect();
        assert_eq!(got, vec![1, 3, 5, 9]);
    }

    #[test]
    fn spills_past_inline_capacity_and_stays_sorted() {
        let mut l = TileList::default();
        // Descending insertion of twice the inline capacity.
        for t in (0..(INLINE_TILES as u32 * 2)).rev() {
            l.insert(TileId(t));
        }
        let got: Vec<u32> = l.as_slice().iter().map(|t| t.0).collect();
        let want: Vec<u32> = (0..INLINE_TILES as u32 * 2).collect();
        assert_eq!(got, want);
        // Duplicates still dedup after the spill.
        l.insert(TileId(7));
        assert_eq!(l.as_slice().len(), INLINE_TILES * 2);
        // Clear keeps it usable.
        l.clear();
        assert!(l.as_slice().is_empty());
        l.insert(TileId(2));
        assert_eq!(l.as_slice(), &[TileId(2)]);
    }
}
