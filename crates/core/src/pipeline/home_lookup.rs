//! Stage 2 — the tag probe over the gated molecules.
//!
//! The molecules that passed the [`asid_gate`](crate::pipeline::asid_gate)
//! probe their tag arrays in parallel for the requested line. In the home
//! tile this *is* the home-lookup stage; Ulmo's cross-tile search
//! ([`ulmo_search`](crate::pipeline::ulmo_search)) reuses the same
//! machinery once per remote tile, charging its probes to its own trace.

use crate::cache::MolecularCache;
use crate::ids::MoleculeId;
use molcache_sim::StageTrace;
use molcache_trace::LineAddr;

impl MolecularCache {
    /// Probes the gated molecules (the bitmask left in `gate` by the
    /// ASID gate) for `line`, charging one tag probe per gated molecule
    /// to `trace`. On a hit the molecule's line state is updated (touch
    /// or mark-dirty) and its id returned.
    ///
    /// All gated molecules burn probe energy in the hardware's parallel
    /// lookup whether or not one hits, so the probe count is charged up
    /// front from the mask's popcount; the probe itself
    /// ([`TagStore::probe_gated`]) can then stop at the first gated
    /// molecule, in ascending id order, that holds the line.
    ///
    /// [`TagStore::probe_gated`]: crate::tags::TagStore::probe_gated
    pub(crate) fn probe_gated(
        &mut self,
        line: LineAddr,
        is_write: bool,
        trace: &mut StageTrace,
    ) -> Option<MoleculeId> {
        trace.tag_probes += self.gate.count();
        let hit = self.tags.probe_gated(&self.gate, line, is_write)?;
        self.molecules[hit.index()].record_hit();
        Some(hit)
    }
}
