//! Stage 1 — the ASID-compare gate (§3.1).
//!
//! Every molecule of the addressed tile compares the requestor's ASID
//! against its configured ASID in parallel (shared molecules pass the
//! gate unconditionally). Only matching molecules proceed to the tag
//! probe of [`home_lookup`](crate::pipeline::home_lookup) — non-matching
//! molecules never spend tag/data-array energy, which is the mechanism
//! behind the paper's dynamic-power savings.

use crate::cache::MolecularCache;
use crate::ids::TileId;
use molcache_sim::StageTrace;
use molcache_trace::Asid;

impl MolecularCache {
    /// Runs the ASID gate over `tile`'s molecules for `asid`.
    ///
    /// Charges one ASID compare per molecule of the tile to `trace` and
    /// leaves the match bitmask in the reusable `gate` scratch
    /// [`GateMask`](crate::tags::GateMask) (cleared and refilled) for
    /// the tag-probe stage, which reads the tile's frame row for the
    /// line four gated molecules at a time.
    pub(crate) fn asid_gate(&mut self, tile: TileId, asid: Asid, trace: &mut StageTrace) {
        let tile = &self.tiles[tile.index()];
        let capacity = tile.capacity();
        trace.asid_compares += capacity as u32;
        // The tile's gate state is a dense lane range of the packed
        // ASID words (molecule ids are tile-contiguous), so the
        // hardware's parallel compare is modeled by the SWAR kernel:
        // four molecules per word, matches out as a bitmask.
        self.tags
            .gate_scan(tile.molecule_base(), capacity, asid, &mut self.gate);
    }
}
