//! Stage 0 — the exact line-index front-end.
//!
//! The paper's access path pays an ASID gate over the whole home tile,
//! a tag probe per gated molecule and, on a home miss, Ulmo's gate and
//! probe of every remote tile the region spans (§3.1–§3.3). The
//! simulator has to report what that scan costs, but it does not have to
//! perform it to learn where a line is: the fill stage's no-duplicate
//! protocol keeps a line in at most one member molecule of a region, so
//! an exact (owner ASID, line) → molecule directory names the molecule
//! the ordered scan would stop at. This is the exact form of way
//! memoization (Ishihara & Fallah); a bounded memo of recent hits is its
//! lossy form.
//!
//! The directory is a `LineIndex` that the [`TagStore`] keeps current
//! wherever a frame word or a molecule's owner changes (fill, single-line
//! invalidation, whole-molecule flush and reconfiguration, shared-bit
//! writes), so no structural event has to invalidate it: it holds every
//! valid frame of every owned, non-shared molecule, under its owner, and
//! nothing else. It grows with the lines resident in those molecules,
//! not with the cache's capacity.
//!
//! **The bit-identity contract.** An indexed access must charge exactly
//! what the ordered scan charges. The index names the hit molecule, its
//! tile names the lookup slot the scan would have stopped at (the home
//! tile, then Ulmo's search tiles in list order), and a miss runs every
//! slot. Per slot up to and including that one the access is charged the
//! tile's ASID compares and the gate-mask count of tag probes; a visited
//! remote slot launches Ulmo (its penalty and one `ulmo_searches`). The
//! per-slot counts come from the region's gate masks, which are cached
//! per structural generation (`crate::search_list`). The answer equals
//! the scan's only while no lookup tile holds a shared molecule: a
//! shared molecule passes every ASID's gate and its copy of a line can
//! shadow a member's, so such regions — and requests from
//! [`Asid::NONE`], which own nothing — take the ordered scan.
//!
//! With the front-end switched off ([`MolecularCache::set_memo_front`])
//! every access takes the ordered scan and the fill stage walks every
//! region member; that reference path is what the equivalence suites
//! (`memo_property`, `line_index_property`) compare against, access by
//! access. The front-end's counters are reported out-of-band
//! ([`MemoStats`], `molstat --memo`, perfbench's `core.memo_*` metrics)
//! and never enter the canonical telemetry export.
//!
//! [`TagStore`]: crate::tags::TagStore

use crate::cache::MolecularCache;
use crate::config::ULMO_PENALTY;
use crate::ids::MoleculeId;
use molcache_sim::StageBreakdown;
use molcache_trace::{Asid, LineAddr};

/// Slots of a fresh [`LineIndex`]. It doubles whenever it would pass
/// half full, so a short-lived cache that touches few lines keeps a
/// small table however large its capacity.
const INITIAL_SLOTS: usize = 1024;

/// Lifetime counters of the line-index front-end, for `molstat --memo`
/// and perfbench's `core.memo_*` metrics.
///
/// Produced by `MolecularCache::memo_stats`. These counters are
/// diagnostics only: they are deliberately kept out of the canonical
/// telemetry JSON export, which must stay byte-identical with the
/// front-end on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Whether the front-end is currently enabled (runtime toggle).
    pub enabled: bool,
    /// Index lookups resolved to the region member holding the line.
    pub hits: u64,
    /// Index lookups resolved absent (the access misses).
    pub misses: u64,
    /// Always 0: the index is exact, so no lookup ever finds an entry
    /// that no longer holds its line. Kept so that readers of the
    /// bounded memo's counters still compile.
    pub stale: u64,
    /// Structural changes since the last statistics reset. They no
    /// longer touch the index; they rebuild the regions' cached search
    /// lists and gate masks.
    pub generation_bumps: u64,
    /// The cache's current structure generation.
    pub generation: u64,
    /// Current capacity of the index.
    pub slots: usize,
}

impl MemoStats {
    /// Total front-end lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.stale
    }

    /// Fraction of lookups that found the line (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// An empty slot.
const EMPTY: u32 = u32::MAX;

/// The exact (owner ASID, line) → frame directory: an open-addressing
/// table with linear probing, a power-of-two capacity kept at most half
/// full, and backward-shift deletion (no tombstones, so probe sequences
/// never lengthen with churn).
///
/// A slot holds only the cache-global number of the frame that holds the
/// line (`molecule * frames_per_molecule + frame`), four bytes: the key
/// is not stored, because the tag store already holds it — the frame's
/// tag gives the line and its molecule's ASID lane the owner. Every
/// operation that compares or rehashes keys therefore takes the tag
/// store's decoding as a closure, and an entry must leave the index
/// before its frame word or ASID lane changes. The index costs at most
/// eight bytes per resident line, as much as the frame words themselves.
#[derive(Debug, Clone)]
pub(crate) struct LineIndex {
    slots: Vec<u32>,
    /// `64 - log2(capacity)`: a key's home slot is the top bits of its
    /// multiplicative hash.
    shift: u32,
    len: usize,
}

impl LineIndex {
    /// An empty index of [`INITIAL_SLOTS`] slots.
    pub(crate) fn new() -> Self {
        LineIndex {
            slots: vec![EMPTY; INITIAL_SLOTS],
            shift: 64 - INITIAL_SLOTS.trailing_zeros(),
            len: 0,
        }
    }

    /// Current number of slots.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The home slot of a key: Fibonacci hashing of the line with the
    /// ASID folded into its top bits, so consecutive and power-of-two
    /// strided lines scatter over the whole table.
    #[inline]
    fn home(&self, (asid, line): (u16, u64)) -> usize {
        ((line ^ (u64::from(asid) << 48)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift)
            as usize
    }

    /// The slot on `key`'s probe run whose frame `holds` accepts, if
    /// any. `holds` sees every frame of the run until one is accepted.
    #[inline]
    pub(crate) fn find(
        &self,
        key: (u16, u64),
        mut holds: impl FnMut(u32) -> bool,
    ) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        loop {
            let frame = self.slots[i];
            if frame == EMPTY {
                return None;
            }
            if holds(frame) {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// The frame in `slot`.
    #[inline]
    pub(crate) fn frame_at(&self, slot: usize) -> u32 {
        self.slots[slot]
    }

    /// Indexes `frame` under `key`, which must not be indexed yet.
    /// `key_of` decodes the key of any indexed frame, for a growth
    /// rehash.
    pub(crate) fn insert(
        &mut self,
        key: (u16, u64),
        frame: u32,
        key_of: impl Fn(u32) -> (u16, u64),
    ) {
        debug_assert!(frame != EMPTY);
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow(key_of);
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(key);
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = frame;
        self.len += 1;
    }

    /// Empties `slot`. Later entries of its probe run shift back over
    /// the hole, so every remaining key stays reachable from its home
    /// slot; `key_of` decodes their keys.
    pub(crate) fn remove_at(&mut self, slot: usize, key_of: impl Fn(u32) -> (u16, u64)) {
        let mask = self.slots.len() - 1;
        let (mut hole, mut j) = (slot, slot);
        loop {
            j = (j + 1) & mask;
            let frame = self.slots[j];
            if frame == EMPTY {
                break;
            }
            // The entry may fill the hole iff the hole lies on its probe
            // path, i.e. cyclically in [home, j).
            let home = self.home(key_of(frame));
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = frame;
                hole = j;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
    }

    /// Doubles the capacity and re-inserts every entry.
    fn grow(&mut self, key_of: impl Fn(u32) -> (u16, u64)) {
        let doubled = vec![EMPTY; self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for frame in old.into_iter().filter(|&f| f != EMPTY) {
            let mut i = self.home(key_of(frame));
            while self.slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = frame;
        }
    }

    /// Every indexed frame, in slot order (diagnostics).
    pub(crate) fn frames(&self) -> impl Iterator<Item = u32> + '_ {
        self.slots.iter().copied().filter(|&f| f != EMPTY)
    }
}

/// The front-end's runtime toggle and lifetime counters.
#[derive(Debug, Clone)]
pub(crate) struct MemoFront {
    /// Whether the access path consults the index.
    pub(crate) enabled: bool,
    hits: u64,
    misses: u64,
    /// The structure generation at the last counter reset, from which
    /// [`MemoStats::generation_bumps`] is derived.
    generation_base: u64,
}

impl MemoFront {
    /// An enabled front-end for a cache at structure generation
    /// `generation`.
    pub(crate) fn new(generation: u64) -> Self {
        MemoFront {
            enabled: true,
            hits: 0,
            misses: 0,
            generation_base: generation,
        }
    }

    /// Clears the lifetime counters and restarts the bump count at
    /// `generation`.
    pub(crate) fn reset_counters(&mut self, generation: u64) {
        self.hits = 0;
        self.misses = 0;
        self.generation_base = generation;
    }

    /// Index hits since the last statistics reset (feeds the per-epoch
    /// delta in [`EpochActivity::memo_hits`](molcache_telemetry::EpochActivity)).
    #[inline]
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }
}

impl MolecularCache {
    /// Enables or disables the line-index front-end at runtime.
    ///
    /// Off, every access takes the ordered gate-and-probe scan and the
    /// fill stage walks every region member — the reference path the
    /// equivalence suites compare the index against. The toggle is not a
    /// structural event: the tag store keeps the index current either
    /// way.
    pub fn set_memo_front(&mut self, enabled: bool) {
        self.memo.enabled = enabled;
    }

    /// Whether the line-index front-end is enabled.
    pub fn memo_front_enabled(&self) -> bool {
        self.memo.enabled
    }

    /// The front-end's lifetime counters. Always `Some`; the return type
    /// stays an `Option` for callers outside this workspace that unwrap
    /// it.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        let generation = self.structure_generation;
        Some(MemoStats {
            enabled: self.memo.enabled,
            hits: self.memo.hits,
            misses: self.memo.misses,
            stale: 0,
            generation_bumps: generation - self.memo.generation_base,
            generation,
            slots: self.tags.index_capacity(),
        })
    }

    /// The molecule the index names for (`asid`, `line`), if any
    /// (diagnostics; perturbs nothing).
    pub fn indexed_molecule(&self, asid: Asid, line: LineAddr) -> Option<MoleculeId> {
        self.tags.indexed(asid, line)
    }

    /// Every index entry as (owner, line, molecule), sorted
    /// (diagnostics: the `line_index_property` suite compares it with
    /// [`reference_line_index`](Self::reference_line_index) after every
    /// operation).
    pub fn line_index_entries(&self) -> Vec<(Asid, LineAddr, MoleculeId)> {
        let mut entries: Vec<_> = self.tags.index_entries().collect();
        entries.sort_unstable();
        entries
    }

    /// The index rebuilt from the tag store, sorted: every valid frame of
    /// every owned, non-shared molecule under its owner. A line held by
    /// two molecules of one owner appears twice, which no index can
    /// match.
    pub fn reference_line_index(&self) -> Vec<(Asid, LineAddr, MoleculeId)> {
        let mut entries = Vec::new();
        for m in (0..self.cfg.total_molecules()).map(|i| MoleculeId(i as u32)) {
            let asid = self.tags.asid_of(m);
            if asid != Asid::NONE && !self.tags.is_shared(m) {
                entries.extend(self.tags.resident_lines(m).map(|line| (asid, line, m)));
            }
        }
        entries.sort_unstable();
        entries
    }

    /// Stage 0: finds `line` for `asid` with one index probe and charges
    /// `stages` exactly what the ordered scan of stages 1–3 would — see
    /// the module docs. On a hit marks the frame dirty when `is_write`
    /// and returns the molecule.
    ///
    /// The region's lookup cache must be current and its region
    /// indexable ([`refresh_lookup_cache`](Self::refresh_lookup_cache)).
    pub(crate) fn index_lookup(
        &mut self,
        asid: Asid,
        line: LineAddr,
        is_write: bool,
        stages: &mut StageBreakdown,
    ) -> Option<MoleculeId> {
        let found = self.tags.indexed(asid, line);
        let region = &self.regions[&asid];
        // The last lookup slot the scan visits: the hit's tile, or every
        // slot on a miss.
        let last = match found {
            Some(mol) => {
                self.memo.hits += 1;
                region.slot_of(self.topo.tile_of(mol))
            }
            None => {
                self.memo.misses += 1;
                region.search_tiles().len()
            }
        };
        let compares = self.topo.tile_molecules() as u32;
        let home_probes = region.probes_through(0);
        stages.asid_gate.asid_compares += compares;
        stages.home_lookup.tag_probes += home_probes;
        if last > 0 {
            let ulmo = &mut stages.ulmo_search;
            ulmo.cycles += ULMO_PENALTY;
            ulmo.asid_compares += last as u32 * compares;
            ulmo.tag_probes += region.probes_through(last) - home_probes;
            self.activity.ulmo_searches += 1;
        }
        if let Some(mol) = found {
            if is_write {
                self.tags.mark_dirty(mol, line);
            }
        }
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys for frames `0..n`: frame `g` holds line `g * 64 + g % 4` of
    /// owner `g % 4 + 1`.
    fn key_of(g: u32) -> (u16, u64) {
        ((g % 4 + 1) as u16, u64::from(g) * 64 + u64::from(g % 4))
    }

    fn lookup(index: &LineIndex, key: (u16, u64)) -> Option<u32> {
        index
            .find(key, |g| key_of(g) == key)
            .map(|s| index.frame_at(s))
    }

    #[test]
    fn empty_table_misses() {
        let index = LineIndex::new();
        assert_eq!(lookup(&index, (1, 5)), None);
        assert_eq!(index.frames().count(), 0);
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut index = LineIndex::new();
        index.insert(key_of(7), 7, key_of);
        assert_eq!(lookup(&index, key_of(7)), Some(7));
        // Same line, different ASID: distinct key.
        let (asid, line) = key_of(7);
        assert_eq!(lookup(&index, (asid + 1, line)), None);
        assert_eq!(index.len, 1);
    }

    #[test]
    fn remove_keeps_every_other_key_reachable() {
        // 1,600 keys grow the table from 1,024 slots into long probe
        // runs; every removal, in an order unrelated to insertion, must
        // leave the remaining keys findable, which a wrong backward
        // shift breaks.
        let n = 1600u32;
        let mut index = LineIndex::new();
        for g in 0..n {
            index.insert(key_of(g), g, key_of);
        }
        assert_eq!(index.len, n as usize);
        assert!(index.capacity() >= 2 * n as usize, "kept at most half full");
        let order: Vec<u32> = (0..n).map(|i| i * 7919 % n).collect();
        for (k, &g) in order.iter().enumerate() {
            let slot = index.find(key_of(g), |f| f == g).expect("indexed");
            index.remove_at(slot, key_of);
            assert_eq!(lookup(&index, key_of(g)), None, "removed key {g} found");
            if k % 97 == 0 {
                for &h in &order[k + 1..] {
                    assert_eq!(lookup(&index, key_of(h)), Some(h), "key {h} lost");
                }
            }
        }
        assert_eq!((index.len, index.frames().count()), (0, 0));
    }

    #[test]
    fn stats_hit_rate() {
        let s = MemoStats {
            hits: 3,
            misses: 1,
            ..MemoStats::default()
        };
        assert_eq!(s.lookups(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(MemoStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn slot_spread_covers_the_table() {
        // Power-of-two strides must not alias onto a handful of home
        // slots, or linear probing degrades into a scan.
        let index = LineIndex::new();
        let mut used = std::collections::HashSet::new();
        for i in 0..INITIAL_SLOTS as u64 {
            used.insert(index.home((1, i * 64)));
        }
        assert!(
            used.len() > INITIAL_SLOTS / 2,
            "stride aliasing: {}",
            used.len()
        );
    }
}
