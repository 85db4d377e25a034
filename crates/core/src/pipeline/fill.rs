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
//! The stage owns the line-fill and writeback counters: each line landed
//! is a line fill and a frame the fill stage touches, and each dirty
//! eviction a writeback (the non-pipeline writeback sources — region
//! shrink and teardown flushes — add to the same counter, and the
//! energy model prices them as fill-stage traffic too).

use crate::ids::MoleculeId;
use crate::pipeline::Counters;
use crate::tags::TagStore;
use molcache_trace::LineAddr;

/// Fills the `line_factor`-line block containing `line` into the victim
/// molecule, `line` itself dirty when `is_write`, counting each line
/// landed and each dirty eviction in `counters`. Returns whether any
/// eviction wrote back a dirty line.
#[inline]
pub(crate) fn fill_block(
    tags: &mut TagStore,
    counters: &mut Counters,
    victim: MoleculeId,
    line: LineAddr,
    line_factor: u32,
    is_write: bool,
) -> bool {
    let k = u64::from(line_factor);
    let block_start = line.0 - line.0 % k;
    let mut writebacks = 0;
    for l in (block_start..block_start + k).map(LineAddr) {
        writebacks += u64::from(tags.fill(victim, l, is_write && l == line));
    }
    counters.line_fills += k;
    counters.writebacks += writebacks;
    writebacks > 0
}
