//! Stage 2 — the tag probe over the gated molecules.
//!
//! The molecules that passed the [`asid_gate`](crate::pipeline::asid_gate)
//! probe their tag arrays in parallel for the requested line. In the home
//! tile this *is* the home-lookup stage; Ulmo's cross-tile search
//! ([`ulmo_search`](crate::pipeline::ulmo_search)) reuses the same
//! machinery once per remote tile, charging its probes to its own trace.
//!
//! The scan runs on the reference path and for regions with a shared
//! molecule on a lookup tile; otherwise the line-index front-end
//! ([`memo`](crate::pipeline::memo)) finds the line and charges the
//! probes this stage would have made from the same gate-mask counts.

use crate::cache::MolecularCache;
use crate::ids::MoleculeId;
use molcache_sim::StageTrace;
use molcache_trace::{Asid, LineAddr};

impl MolecularCache {
    /// Probes the molecules gated for `asid` in its region's lookup
    /// slot `slot` (the cached mask the ASID gate made current) for
    /// `line`, charging one tag probe per gated molecule to `trace`. On
    /// a hit the molecule's line state is updated (touch or mark-dirty)
    /// and its id returned.
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
        asid: Asid,
        slot: usize,
        line: LineAddr,
        is_write: bool,
        trace: &mut StageTrace,
    ) -> Option<MoleculeId> {
        let gate = self.regions[&asid].gate(slot);
        trace.tag_probes += gate.count();
        self.tags.probe_gated(gate, line, is_write)
    }
}
