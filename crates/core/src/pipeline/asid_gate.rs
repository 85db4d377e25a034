//! Stage 1 — the ASID-compare gate (§3.1).
//!
//! Every molecule of the addressed tile compares the requestor's ASID
//! against its configured ASID in parallel (shared molecules pass the
//! gate unconditionally). Only matching molecules proceed to the tag
//! probe of [`home_lookup`](crate::pipeline::home_lookup) — non-matching
//! molecules never spend tag/data-array energy, which is the mechanism
//! behind the paper's dynamic-power savings.
//!
//! The hardware compares on every access, so every access is charged
//! the tile's compares. The match set itself changes only on a
//! structural change, so the host computes it once per structural
//! generation: the rebuild of a region's lookup state
//! (`crate::search_list`) gates every tile its lookups visit, and the
//! stage reads the cached masks. On the line-index front-end
//! ([`memo`](crate::pipeline::memo)) the stage runs only as a charge.

use crate::cache::MolecularCache;
use molcache_sim::StageTrace;

impl MolecularCache {
    /// Runs the ASID gate over one lookup tile: charges one ASID compare
    /// per molecule of the tile to `trace`. The tag-probe stage reads the
    /// tile's gate mask from the region's lookup state, which
    /// [`refresh_lookup_cache`](Self::refresh_lookup_cache) made current.
    pub(crate) fn asid_gate(&self, trace: &mut StageTrace) {
        trace.asid_compares += self.topo.tile_molecules() as u32;
    }
}
