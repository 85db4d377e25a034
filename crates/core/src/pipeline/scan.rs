//! Stages 1–3 as the paper describes them, kept as a read-only oracle.
//!
//! 1. The ASID gate (§3.1): every molecule of the addressed tile compares
//!    the requestor's ASID against its configured ASID in parallel, and
//!    only matching molecules proceed to the tag probe. Non-matching
//!    molecules never spend tag/data-array energy, which is the mechanism
//!    behind the paper's dynamic-power savings.
//! 2. The home lookup: the gated molecules of the home tile probe their
//!    tag arrays in parallel for the requested line.
//! 3. Ulmo's cross-tile search (§3.2–§3.3): when the home tile misses,
//!    Ulmo walks the remote tiles of the cluster that hold molecules of
//!    the region, gating and probing each in turn until a tile hits or
//!    the list is exhausted. The search is launched, and its penalty
//!    paid, only when the region spans tiles.
//!
//! The access path does not run this scan. Stage 0
//! ([`memo`](crate::pipeline::memo)) finds the line with one probe of the
//! exact line index and charges what the scan would, from the per-slot
//! probe counts of `crate::search_list`.
//! [`MolecularCache::reference_lookup`] runs the scan without touching
//! the cache, so tests can compare every access against it.

use crate::cache::MolecularCache;
use crate::config::{ASID_STAGE_CYCLES, HIT_LATENCY, ULMO_PENALTY};
use crate::ids::{MoleculeId, TileId};
use crate::region::Region;
use molcache_sim::StageBreakdown;
use molcache_trace::{Asid, LineAddr};

impl MolecularCache {
    /// Remote tiles of the cluster holding molecules of this region
    /// (Ulmo's search list), excluding the home tile — derived fresh
    /// from membership. The reference the cached lists of
    /// `crate::search_list` must agree with.
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

    /// The ordered gate-and-probe scan of stages 1–3 for `line` of
    /// `asid`: the molecule it finds, if any, and the stage breakdown it
    /// charges (the victim and fill slots stay empty). `None` if `asid`
    /// has no region. Read-only: a write hit marks nothing dirty.
    ///
    /// The scan visits the home tile, then each remote tile in ascending
    /// order. On each tile it charges one ASID compare per molecule and
    /// one tag probe per molecule that [`TagStore::matches`] passes (the
    /// hardware probes the gated molecules in parallel), and it stops at
    /// the first tile where a gated molecule's [`TagStore::lookup`] finds
    /// the line.
    ///
    /// [`TagStore::matches`]: crate::tags::TagStore::matches
    /// [`TagStore::lookup`]: crate::tags::TagStore::lookup
    pub fn reference_lookup(
        &self,
        asid: Asid,
        line: LineAddr,
    ) -> Option<(Option<MoleculeId>, StageBreakdown)> {
        let region = self.regions.get(&asid)?;
        let compares = self.topo.tile_molecules() as u32;
        // One tile's gate and probe: the gated molecules, and the first
        // of them holding the line.
        let gate_and_probe = |tile: TileId| {
            let mut gated = 0;
            let mut found = None;
            for m in self.topo.tile_molecule_ids(tile) {
                if self.tags.matches(m, asid) {
                    gated += 1;
                    if found.is_none() && self.tags.lookup(m, line) {
                        found = Some(m);
                    }
                }
            }
            (gated, found)
        };
        let mut stages = StageBreakdown::default();
        stages.asid_gate.cycles = ASID_STAGE_CYCLES;
        stages.asid_gate.asid_compares = compares;
        stages.home_lookup.cycles = HIT_LATENCY;
        let (probes, mut found) = gate_and_probe(region.home_tile());
        stages.home_lookup.tag_probes = probes;
        let remote = self.remote_tiles(region);
        if found.is_none() && !remote.is_empty() {
            let ulmo = &mut stages.ulmo_search;
            ulmo.cycles = ULMO_PENALTY;
            for tile in remote {
                let (probes, hit) = gate_and_probe(tile);
                ulmo.asid_compares += compares;
                ulmo.tag_probes += probes;
                if hit.is_some() {
                    found = hit;
                    break;
                }
            }
        }
        Some((found, stages))
    }
}
