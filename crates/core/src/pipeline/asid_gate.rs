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
//! generation: each region caches the mask of every tile its lookups
//! visit (`crate::search_list`), and the gate rescans a tile only the
//! first time it is used after a bump.

use crate::cache::MolecularCache;
use molcache_sim::StageTrace;
use molcache_trace::Asid;

impl MolecularCache {
    /// Runs the ASID gate for `asid` over the tile of its region's
    /// lookup slot `slot` (0 = home tile, `1 + i` = the `i`-th search
    /// tile).
    ///
    /// Charges one ASID compare per molecule of the tile to `trace` and
    /// makes sure the region's cached [`GateMask`] for the slot is
    /// current for the tag-probe stage, which reads the tile's frame row
    /// for the line four gated molecules at a time. The region's stamp
    /// must be current
    /// ([`refresh_lookup_cache`](Self::refresh_lookup_cache)).
    ///
    /// [`GateMask`]: crate::tags::GateMask
    pub(crate) fn asid_gate(&mut self, asid: Asid, slot: usize, trace: &mut StageTrace) {
        let topo = self.topo;
        let capacity = topo.tile_molecules();
        trace.asid_compares += capacity as u32;
        let region = self.regions.get_mut(&asid).expect("region");
        // The tile's gate state is a dense lane range of the packed
        // ASID words (molecule ids are tile-contiguous), so the
        // hardware's parallel compare is modeled by the SWAR kernel:
        // four molecules per word, matches out as a bitmask.
        let base = topo.tile_base(region.lookup_tile(slot));
        if let Some(mask) = region.gate_to_fill(slot) {
            self.tags.gate_scan(base, capacity, asid, mask);
        }
    }
}
