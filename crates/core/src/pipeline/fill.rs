//! Stage 5 — the block fill (§3.2).
//!
//! A miss fetches the `line_factor`-line block containing the requested
//! line and lands it in consecutive frames of the single victim molecule
//! (consecutive lines map to consecutive frames, so an enlarged line
//! size never straddles molecules or replacement rows). Every dirty
//! eviction is counted as a writeback.
//!
//! Blocks are aligned and the line factor divides the frame count, so a
//! fill always overwrites whole blocks, and every other write that
//! removes a line (a whole-molecule flush) removes whole blocks too.
//! Each member therefore holds every block of its region wholly or not
//! at all (`find_partial_block` checks it). When the lookup misses the
//! requested line, no member holds any line of its block, so a fill can
//! never duplicate a line within a region. That no-duplicate property is
//! also what lets the line index name a single molecule per (owner,
//! line).
//!
//! The stage owns the fill/writeback counters: `Activity::line_fills`
//! and `Activity::writebacks` are incremented here (and by the
//! non-pipeline writeback sources — region shrink and teardown flushes —
//! which the energy model also prices as fill-stage traffic).

use crate::cache::MolecularCache;
use crate::ids::MoleculeId;
use molcache_sim::StageTrace;
use molcache_trace::LineAddr;

impl MolecularCache {
    /// Fills the `line_factor`-line block containing `line` into the
    /// victim molecule, `line` itself dirty when `is_write`. Each line
    /// landed counts one frame touched on `trace`. Returns whether any
    /// eviction wrote back a dirty line.
    pub(crate) fn fill_block(
        &mut self,
        victim: MoleculeId,
        line: LineAddr,
        line_factor: u32,
        is_write: bool,
        trace: &mut StageTrace,
    ) -> bool {
        let k = u64::from(line_factor);
        let block_start = line.0 - line.0 % k;
        let mut writeback = false;
        for l in (block_start..block_start + k).map(LineAddr) {
            let evicted_dirty = self.tags.fill(victim, l, is_write && l == line);
            self.activity.writebacks += u64::from(evicted_dirty);
            writeback |= evicted_dirty;
            self.activity.line_fills += 1;
            trace.frames_touched += 1;
        }
        writeback
    }
}
