//! Stage 5 — the block fill (§3.2).
//!
//! A miss fetches the `line_factor`-line block containing the requested
//! line and lands it in consecutive frames of the single victim molecule
//! (consecutive lines map to consecutive frames, so an enlarged line
//! size never straddles molecules or replacement rows). Stale copies of
//! the block's lines elsewhere in the region are invalidated so a block
//! fill never duplicates a line — one line-index probe per line, or a
//! walk over every member on the reference path — and every dirty
//! eviction or invalidation is counted as a writeback. That
//! no-duplicate protocol is also what lets the line index name a single
//! molecule per (owner, line).
//!
//! The stage owns the fill/writeback counters: `Activity::line_fills`
//! and `Activity::writebacks` are incremented here (and by the
//! non-pipeline writeback sources — region shrink and teardown flushes —
//! which the energy model also prices as fill-stage traffic).

use crate::cache::MolecularCache;
use crate::ids::MoleculeId;
use molcache_sim::StageTrace;
use molcache_trace::{Asid, LineAddr};

impl MolecularCache {
    /// Fills the `line_factor`-line block containing `line` into the
    /// victim molecule. Each line landed counts one frame touched on
    /// `trace`. Returns whether any writeback occurred.
    ///
    /// Before each other line of the block lands, the region's copy of
    /// it elsewhere is invalidated, so a block fill never duplicates a
    /// line. The protocol keeps a line in at most one member, so with
    /// `indexed` one line-index probe names that member; otherwise (the
    /// reference path) every member is probed in membership order. The
    /// requested line itself needs neither: by the time this stage runs
    /// no member holds it, since the lookup gated and probed every tile
    /// holding a member (or the index found none) and no structural
    /// change can intervene within one access. With the default
    /// `line_factor == 1` the stage touches no other molecule.
    pub(crate) fn fill_block(
        &mut self,
        region_asid: Asid,
        victim: MoleculeId,
        line: LineAddr,
        is_write: bool,
        indexed: bool,
        trace: &mut StageTrace,
    ) -> bool {
        // Disjoint field borrows: membership is read straight from the
        // region while tags/activity mutate — no collected id list.
        let region = &self.regions[&region_asid];
        let tags = &mut self.tags;
        let activity = &mut self.activity;
        let k = region.line_factor() as u64;
        let block_start = LineAddr(line.0 - line.0 % k);
        let mut writeback = false;
        for j in 0..k {
            let l = LineAddr(block_start.0 + j);
            if l != line {
                // Invalidate the region's other copy of `l`, if any: the
                // index names it; the reference path probes every member.
                let holder = if indexed {
                    tags.indexed(region_asid, l)
                } else {
                    None
                };
                let members = (!indexed).then(|| region.molecules()).into_iter().flatten();
                for id in holder.into_iter().chain(members).filter(|&id| id != victim) {
                    if let Some(dirty) = tags.invalidate(id, l) {
                        writeback |= dirty;
                        if dirty {
                            activity.writebacks += 1;
                        }
                    }
                }
            }
            let dirty_fill = is_write && l == line;
            let evicted_dirty = tags.fill(victim, l, dirty_fill);
            if evicted_dirty {
                activity.writebacks += 1;
            }
            writeback |= evicted_dirty;
            activity.line_fills += 1;
            trace.frames_touched += 1;
        }
        writeback
    }
}
