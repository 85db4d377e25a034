//! Stage 3 — Ulmo's cross-tile search.
//!
//! When the home tile misses, Ulmo walks the remote tiles of the cluster
//! that hold molecules of the requesting region, gating and probing each
//! in turn until a tile hits or the list is exhausted. The stage is
//! launched only when the region actually spans tiles; an unlaunched
//! search leaves its [`StageTrace`] all-zero, so the stage cycles of the
//! access still sum exactly to its latency.
//!
//! The walk runs on the reference path and for regions with a shared
//! molecule on a lookup tile. Otherwise the line-index front-end
//! ([`memo`](crate::pipeline::memo)) names the hit molecule, and with it
//! the tile the walk would stop at, and charges the penalty, compares
//! and probes of every tile the walk would have visited.

use crate::cache::MolecularCache;
use crate::ids::{MoleculeId, TileId};
use crate::region::Region;
use molcache_sim::StageTrace;
use molcache_trace::{Asid, LineAddr};

impl MolecularCache {
    /// Remote tiles of the cluster holding molecules of this region
    /// (Ulmo's search list), excluding the home tile — derived fresh
    /// from membership. The reference implementation the cached lists
    /// of [`crate::search_list`] must agree with; the hot path uses the
    /// cache, diagnostics and rebuild-equivalence tests use this.
    pub(crate) fn remote_tiles(&self, region: &Region) -> Vec<TileId> {
        let home = region.home_tile();
        let mut tiles: Vec<TileId> = region
            .molecules()
            .map(|id| self.topo.tile_of(id))
            .filter(|t| *t != home)
            .collect();
        tiles.sort_unstable();
        tiles.dedup();
        tiles
    }

    /// Runs the Ulmo stage for `asid` after a home-tile miss.
    ///
    /// If the region spans remote tiles the search launches: the Ulmo
    /// penalty is charged to `trace.cycles`, `ulmo_searches` is counted,
    /// and each remote tile is ASID-gated and tag-probed (compares and
    /// probes land in `trace`) until one hits. Returns the hit molecule,
    /// or `None` on a cache-wide miss or when no search was launched
    /// (distinguishable by `trace.cycles`).
    ///
    /// The search list is the region's cached list
    /// (`crate::search_list`), which
    /// [`refresh_lookup_cache`](Self::refresh_lookup_cache) brought up
    /// to date at the start of the access — one membership walk per
    /// structural change instead of one allocation + sort per miss.
    pub(crate) fn ulmo_search(
        &mut self,
        asid: Asid,
        line: LineAddr,
        is_write: bool,
        trace: &mut StageTrace,
    ) -> Option<MoleculeId> {
        let tiles = self.regions[&asid].search_tiles().len();
        if tiles == 0 {
            return None;
        }
        self.activity.ulmo_searches += 1;
        trace.cycles += crate::config::ULMO_PENALTY;
        // Lookup slot `1 + i` is search tile `i`; the list cannot change
        // mid-search (gating and probing are structurally read-only).
        for slot in 1..=tiles {
            self.asid_gate(trace);
            if let Some(hit_mol) = self.probe_gated(asid, slot, line, is_write, trace) {
                return Some(hit_mol);
            }
        }
        None
    }
}
