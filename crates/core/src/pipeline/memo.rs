//! Stage 0 — the way/molecule memoization front-end (`memo-front`).
//!
//! The paper's access path pays an ASID gate over the whole home tile
//! plus a tag probe per gated molecule on *every* reference. Way
//! memoization observes that the common case re-touches a line whose
//! location is already known: a small direct-mapped array keyed by
//! (ASID, line) remembers the molecule that serviced the last hit, and
//! a memo hit jumps straight to that molecule's frame — one flat-array
//! probe instead of gate + scan.
//!
//! The structure is the classic lookup-cache shape: a fixed 509-slot
//! (largest prime below 512) direct-mapped array plus a **generation
//! counter**. Every structural mutation of the cache — region creation,
//! grow, shrink, teardown, re-homing, shared-bit changes — bumps the
//! generation, which implicitly invalidates every entry without touching
//! the array. Entries whose *line* merely got evicted or moved are
//! caught per-access by re-probing the memoized molecule's frame before
//! trusting it.
//!
//! **The bit-identity contract.** A memo hit must be observationally
//! indistinguishable from the full pipeline servicing the same request,
//! so only *home-tile hits in non-shared (region member) molecules* are
//! memoized. Within one generation that makes replay exact:
//!
//! * the home tile, the gate-match set and its size are all constant
//!   (anything that changes them bumps the generation), so the replayed
//!   [`StageTrace`](molcache_sim::StageTrace) counters — tile-capacity
//!   ASID compares, one tag probe per gated molecule — equal what the
//!   gate and probe stages would have recorded;
//! * the memoized member molecule is provably still the *first* gated
//!   molecule holding the line: a fill of the same line into another
//!   member invalidates this copy (the fill stage's no-duplicate
//!   protocol), and no shared molecule can acquire the line while the
//!   region is non-empty — so hit attribution, replacement recency and
//!   the dirty bit land exactly where the full scan would put them;
//! * latency is the constant hit path (`asid_stage_cycles +
//!   hit_latency`), identical to any home hit.
//!
//! Hit/miss/latency/energy statistics and telemetry JSON are therefore
//! byte-identical with the front-end on or off; the equivalence suites
//! and `memo_property` proptests enforce it. The memo's own counters are
//! reported out-of-band ([`MemoStats`], `molstat --memo`, molbench) and
//! never enter the canonical telemetry export.

use crate::cache::MolecularCache;
#[cfg(feature = "memo-front")]
use crate::ids::MoleculeId;
use molcache_trace::{Asid, LineAddr};

/// Number of slots in the memo array: the largest prime below 512, so
/// the modulo spreads strided line addresses across all slots instead
/// of aliasing on power-of-two strides.
pub const MEMO_SLOTS: usize = 509;

/// Lifetime counters of the memoization front-end, for `molstat --memo`
/// and molbench's memo-hit-rate report.
///
/// Produced by `MolecularCache::memo_stats` when the crate is built with
/// the `memo-front` feature (`None` otherwise). These counters are
/// diagnostics only: they are deliberately kept out of the canonical
/// telemetry JSON export, which must stay byte-identical with the
/// front-end on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Whether the front-end is currently enabled (runtime toggle).
    pub enabled: bool,
    /// Accesses served entirely from the memo (gate + lookup + Ulmo
    /// stages bypassed).
    pub hits: u64,
    /// Lookups that found no usable entry (empty slot, key mismatch, or
    /// a stale generation).
    pub misses: u64,
    /// Lookups whose entry was current but whose line was no longer
    /// resident in the memoized molecule (evicted or invalidated since).
    pub stale: u64,
    /// Generation bumps (structural invalidations) so far.
    pub generation_bumps: u64,
    /// Current generation counter value.
    pub generation: u64,
    /// Capacity of the direct-mapped array.
    pub slots: usize,
}

impl MemoStats {
    /// Total front-end lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses + self.stale
    }

    /// Fraction of lookups served from the memo (0.0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// One slot of the memo array.
///
/// `generation == 0` marks a never-written slot: the table's counter
/// starts at 1 and only grows, so no live entry can carry 0.
#[cfg(feature = "memo-front")]
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    asid: u16,
    line: u64,
    molecule: MoleculeId,
    /// Size of the home tile's gate-match set when the entry was
    /// written — constant within a generation, replayed as the
    /// home-lookup stage's `tag_probes`.
    gate_count: u32,
    generation: u64,
}

#[cfg(feature = "memo-front")]
impl MemoEntry {
    const EMPTY: MemoEntry = MemoEntry {
        asid: 0,
        line: 0,
        molecule: MoleculeId(0),
        gate_count: 0,
        generation: 0,
    };
}

/// The direct-mapped memoization array a `memo-front` cache carries.
#[cfg(feature = "memo-front")]
#[derive(Debug, Clone)]
pub(crate) struct MemoTable {
    slots: Vec<MemoEntry>,
    /// Current generation; entries from older generations are dead.
    generation: u64,
    /// Runtime toggle (the feature compiles the machinery in; this
    /// decides whether the access path consults it).
    pub(crate) enabled: bool,
    hits: u64,
    misses: u64,
    stale: u64,
    generation_bumps: u64,
}

#[cfg(feature = "memo-front")]
impl Default for MemoTable {
    fn default() -> Self {
        MemoTable {
            slots: vec![MemoEntry::EMPTY; MEMO_SLOTS],
            generation: 1,
            enabled: true,
            hits: 0,
            misses: 0,
            stale: 0,
            generation_bumps: 0,
        }
    }
}

#[cfg(feature = "memo-front")]
impl MemoTable {
    /// The slot an (ASID, line) key maps to. The prime modulo does the
    /// scattering; folding the ASID in keeps co-resident applications
    /// streaming over the same lines from thrashing one slot.
    #[inline]
    fn slot_of(asid: Asid, line: LineAddr) -> usize {
        (line
            .0
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(asid.raw()))
            % MEMO_SLOTS as u64) as usize
    }

    /// Looks the key up; returns the memoized molecule and gate count on
    /// a current-generation key match. Counts a miss otherwise.
    #[inline]
    pub(crate) fn lookup(&mut self, asid: Asid, line: LineAddr) -> Option<(MoleculeId, u32)> {
        let e = &self.slots[Self::slot_of(asid, line)];
        if e.generation == self.generation && e.line == line.0 && e.asid == asid.raw() {
            Some((e.molecule, e.gate_count))
        } else {
            self.misses += 1;
            None
        }
    }

    /// Books a verified memo hit.
    #[inline]
    pub(crate) fn note_hit(&mut self) {
        self.hits += 1;
    }

    /// Books a stale entry (line no longer resident) and clears it so
    /// the slot stops re-verifying a dead location.
    #[inline]
    pub(crate) fn note_stale(&mut self, asid: Asid, line: LineAddr) {
        self.stale += 1;
        self.slots[Self::slot_of(asid, line)] = MemoEntry::EMPTY;
    }

    /// Writes an entry for a home-tile member hit.
    #[inline]
    pub(crate) fn insert(
        &mut self,
        asid: Asid,
        line: LineAddr,
        molecule: MoleculeId,
        gate_count: u32,
    ) {
        self.slots[Self::slot_of(asid, line)] = MemoEntry {
            asid: asid.raw(),
            line: line.0,
            molecule,
            gate_count,
            generation: self.generation,
        };
    }

    /// Invalidates every entry by advancing the generation (structural
    /// change: any grant/shrink/release/re-home/shared-bit flip).
    #[inline]
    pub(crate) fn bump_generation(&mut self) {
        self.generation += 1;
        self.generation_bumps += 1;
    }

    /// Clears the lifetime counters (entries and generation survive, as
    /// cache contents survive a statistics reset).
    pub(crate) fn reset_counters(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.stale = 0;
        self.generation_bumps = 0;
    }

    /// Lifetime memo hits since the last statistics reset (feeds the
    /// per-epoch delta in [`EpochActivity::memo_hits`](molcache_telemetry::EpochActivity)).
    #[inline]
    pub(crate) fn hits(&self) -> u64 {
        self.hits
    }

    /// The current counters as a [`MemoStats`].
    pub(crate) fn stats(&self) -> MemoStats {
        MemoStats {
            enabled: self.enabled,
            hits: self.hits,
            misses: self.misses,
            stale: self.stale,
            generation_bumps: self.generation_bumps,
            generation: self.generation,
            slots: MEMO_SLOTS,
        }
    }
}

impl MolecularCache {
    /// Enables or disables the memoization front-end at runtime.
    ///
    /// The toggle exists so one binary can compare memo-on and memo-off
    /// runs (the equivalence suites and `molbench --no-memo` do); it
    /// flushes the table on any change, and is a no-op without the
    /// `memo-front` feature.
    pub fn set_memo_front(&mut self, enabled: bool) {
        #[cfg(feature = "memo-front")]
        {
            if self.memo.enabled != enabled {
                self.memo.bump_generation();
                self.memo.enabled = enabled;
            }
        }
        #[cfg(not(feature = "memo-front"))]
        let _ = enabled;
    }

    /// Whether the memoization front-end is compiled in *and* enabled.
    pub fn memo_front_enabled(&self) -> bool {
        #[cfg(feature = "memo-front")]
        {
            self.memo.enabled
        }
        #[cfg(not(feature = "memo-front"))]
        false
    }

    /// The front-end's lifetime counters, when the `memo-front` feature
    /// is compiled in; `None` otherwise (callers render a `-`).
    pub fn memo_stats(&self) -> Option<MemoStats> {
        #[cfg(feature = "memo-front")]
        {
            Some(self.memo.stats())
        }
        #[cfg(not(feature = "memo-front"))]
        None
    }

    /// Whether a memo lookup for (`asid`, `line`) would find a
    /// current-generation entry (diagnostics: the `memo_property` suite
    /// asserts no entry survives a generation bump). Does not verify
    /// residency and perturbs nothing.
    pub fn memo_would_hit(&self, asid: Asid, line: LineAddr) -> bool {
        #[cfg(feature = "memo-front")]
        {
            let e = &self.memo.slots[MemoTable::slot_of(asid, line)];
            e.generation == self.memo.generation && e.line == line.0 && e.asid == asid.raw()
        }
        #[cfg(not(feature = "memo-front"))]
        {
            let _ = (asid, line);
            false
        }
    }

    /// Memoizes a home-tile hit for the next access to the same line.
    ///
    /// Shared-molecule hits are not memoized: a shared molecule's copy
    /// can be shadowed by a later member fill of the same line without
    /// this copy being invalidated, which would break first-match
    /// replay. Member copies cannot (the fill stage invalidates
    /// duplicates region-wide), so member hits replay exactly.
    #[cfg(feature = "memo-front")]
    #[inline]
    pub(crate) fn memo_note_home_hit(&mut self, asid: Asid, line: LineAddr, hit_mol: MoleculeId) {
        if self.memo.enabled && !self.tags.is_shared(hit_mol) {
            let gate_count = self.regions[&asid].gate(0).count();
            self.memo.insert(asid, line, hit_mol, gate_count);
        }
    }
}

#[cfg(all(test, feature = "memo-front"))]
mod tests {
    use super::*;

    #[test]
    fn empty_table_misses() {
        let mut t = MemoTable::default();
        assert_eq!(t.lookup(Asid::new(1), LineAddr(5)), None);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut t = MemoTable::default();
        t.insert(Asid::new(1), LineAddr(5), MoleculeId(7), 3);
        assert_eq!(
            t.lookup(Asid::new(1), LineAddr(5)),
            Some((MoleculeId(7), 3))
        );
        // Same line, different ASID: distinct key.
        assert_eq!(t.lookup(Asid::new(2), LineAddr(5)), None);
    }

    #[test]
    fn generation_bump_kills_every_entry() {
        let mut t = MemoTable::default();
        for i in 0..1000u64 {
            t.insert(Asid::new(1), LineAddr(i), MoleculeId(0), 1);
        }
        t.bump_generation();
        for i in 0..1000u64 {
            assert_eq!(t.lookup(Asid::new(1), LineAddr(i)), None, "line {i}");
        }
        assert_eq!(t.stats().generation_bumps, 1);
    }

    #[test]
    fn stale_note_clears_the_slot() {
        let mut t = MemoTable::default();
        t.insert(Asid::new(1), LineAddr(5), MoleculeId(7), 3);
        t.note_stale(Asid::new(1), LineAddr(5));
        assert_eq!(t.lookup(Asid::new(1), LineAddr(5)), None);
        let s = t.stats();
        assert_eq!((s.stale, s.misses), (1, 1));
    }

    #[test]
    fn stats_hit_rate() {
        let mut t = MemoTable::default();
        t.insert(Asid::new(1), LineAddr(0), MoleculeId(0), 1);
        assert!(t.lookup(Asid::new(1), LineAddr(0)).is_some());
        t.note_hit();
        assert_eq!(t.lookup(Asid::new(1), LineAddr(1)), None);
        let s = t.stats();
        assert_eq!(s.lookups(), 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        let empty = MemoStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn slot_spread_covers_the_table() {
        // Power-of-two strides must not alias onto a handful of slots.
        let mut used = std::collections::HashSet::new();
        for i in 0..MEMO_SLOTS as u64 {
            used.insert(MemoTable::slot_of(Asid::new(1), LineAddr(i * 64)));
        }
        assert!(
            used.len() > MEMO_SLOTS / 2,
            "stride aliasing: {}",
            used.len()
        );
    }
}
