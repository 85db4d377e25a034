//! Flat tag storage for the whole cache.
//!
//! All tag state lives in cache-global contiguous arrays:
//!
//! * `words` — one packed `u64` per line frame: bit 63 = valid,
//!   bit 62 = dirty, bits 0–61 = tag (`line / frames_per_molecule`);
//! * `asids` — each molecule's configured ASID, the register the §3.1
//!   ASID gate compares ([`Asid::NONE`] when free);
//! * `valid` — the number of valid frames of each molecule, so that
//!   [`TagStore::occupancy`] is one read and [`TagStore::invalidate_all`]
//!   stops at a molecule's last valid frame (at once for an empty one);
//! * `index` — the exact line index: (owner ASID, line) → the frame
//!   holding the line, for every valid frame of every owned molecule.
//!   Every method that writes a frame word or a molecule's ASID keeps it
//!   current ([`TagStore::fill`], [`TagStore::invalidate_all`] and
//!   [`TagStore::configure`], which flushes under the old owner before
//!   writing the new one). It chains the cache's frames through a fixed
//!   bucket array, one bucket and one link per frame (eight bytes per
//!   frame), so its upkeep on a fill or a flush is a push or an unlink
//!   and never reads another entry's key. The access path's stage 0
//!   probes it once instead of scanning ([`crate::pipeline::memo`]).
//!
//! The paper's shared bit (§3.1), which lets a molecule bypass the ASID
//! compare, is not modelled: its evaluation never sets it, so a
//! molecule passes a gate exactly when its ASID is the requestor's.
//!
//! The frame words are stored **frame-major within each tile**: frame
//! `f` of molecule `m` (tile `t`, tile base `b`, `T` molecules per tile)
//! sits at `(t * frames_per_molecule + f) * T + (m - b)`. A line maps to
//! the same frame in every molecule, so the frames the hardware compares
//! across a tile for one lookup form a single contiguous row. A
//! molecule's own frames are strided `T` words apart; the per-molecule
//! walks ([`TagStore::invalidate_all`], [`TagStore::resident_lines`]) run
//! only on structural changes and in diagnostics, never per access. The
//! store holds the cache's [`Topology`], whose
//! [`tile_of`](Topology::tile_of) gives a molecule's tile base; the only
//! other per-molecule state is the cache's replacement-miss counter.
//!
//! The packing steals the top two bits of the tag word, so tags must fit
//! 62 bits: with the minimum 64-byte lines that caps the modeled
//! physical address space at 2^68 bytes per molecule frame count — far
//! beyond any trace the harness replays (debug builds assert it).

use crate::ids::MoleculeId;
use crate::pipeline::memo::LineIndex;
use crate::tile::Topology;
use molcache_trace::{Asid, LineAddr};

/// Bit 63 of a packed frame word: the frame holds valid data.
const VALID: u64 = 1 << 63;
/// Bit 62 of a packed frame word: the frame was written since fill.
const DIRTY: u64 = 1 << 62;
/// Bits 0–61 of a packed frame word: the stored tag.
const TAG_MASK: u64 = (1 << 62) - 1;

/// The word index of frame `frame` of molecule `m` in the frame-major
/// layout (see the module docs).
#[inline]
fn word_of(topo: Topology, frame_shift: u32, m: usize, frame: usize) -> usize {
    let base = topo.tile_base(topo.tile_of(MoleculeId(m as u32)));
    (base << frame_shift) + frame * topo.tile_molecules() + (m - base)
}

/// The cache-global flat tag/state arrays (see the module docs).
///
/// ```
/// use molcache_core::tags::TagStore;
/// use molcache_core::ids::MoleculeId;
/// use molcache_core::tile::Topology;
/// use molcache_trace::{Asid, LineAddr};
///
/// // Two one-molecule tiles of 8KB / 64B each.
/// let mut t = TagStore::new(2, 128, Topology::new(1, 1));
/// let m = MoleculeId(0);
/// t.configure(m, Asid::new(1));
/// assert!(t.matches(m, Asid::new(1)) && !t.matches(m, Asid::new(2)));
/// t.fill(m, LineAddr(5), false);
/// assert!(t.lookup(m, LineAddr(5)));
/// ```
#[derive(Debug, Clone)]
pub struct TagStore {
    /// Line frames per molecule (uniform across the cache).
    frames_per_molecule: usize,
    /// `log2(frames_per_molecule)`.
    frame_shift: u32,
    /// The cache's geometry: which tile a molecule's frames sit in.
    topo: Topology,
    /// Packed frame words, frame-major within each tile: frame `f` of
    /// molecule `m` of tile `t` at
    /// `(t * frames_per_molecule + f) * tile_molecules + m % tile_molecules`.
    words: Vec<u64>,
    /// Configured ASID per molecule ([`Asid::NONE`] when free).
    asids: Vec<Asid>,
    /// Valid frames per molecule.
    valid: Vec<u32>,
    /// (owner ASID, line) → the frame holding the line, for every valid
    /// frame of every owned molecule: the exact directory the access
    /// path's stage 0 probes instead of scanning.
    index: LineIndex,
}

impl TagStore {
    /// Creates the flat store for `molecules` molecules of
    /// `frames_per_molecule` line frames each, grouped into the tiles of
    /// `topo`, all invalid and unassigned.
    ///
    /// # Panics
    ///
    /// Panics unless `frames_per_molecule` is a power of two (every
    /// config the builder accepts has power-of-two molecule and line
    /// sizes), if the cache holds 2^32 - 1 frames or more, or if
    /// `topo`'s tiles are empty or `molecules` is not a whole number of
    /// them.
    pub fn new(molecules: usize, frames_per_molecule: usize, topo: Topology) -> Self {
        assert!(
            frames_per_molecule.is_power_of_two(),
            "a molecule needs at least one frame, and a power of two of them"
        );
        assert!(
            molecules * frames_per_molecule < u32::MAX as usize,
            "the line index numbers frames in 32 bits"
        );
        assert!(
            topo.tile_molecules() > 0 && molecules.is_multiple_of(topo.tile_molecules()),
            "molecules must form whole tiles"
        );
        TagStore {
            frames_per_molecule,
            frame_shift: frames_per_molecule.trailing_zeros(),
            topo,
            words: vec![0; molecules * frames_per_molecule],
            asids: vec![Asid::NONE; molecules],
            valid: vec![0; molecules],
            index: LineIndex::new(molecules * frames_per_molecule),
        }
    }

    /// The molecule holding `line` of owner `asid`, by one probe of the
    /// line index: only owned molecules' lines are indexed.
    #[inline]
    pub(crate) fn indexed(&self, asid: Asid, line: LineAddr) -> Option<MoleculeId> {
        let (tag, frame) = self.tag_frame(line);
        let holds = |g: u32| {
            let (m, f) = self.split(g);
            f == frame
                && self.asids[m] == asid
                && self.words[word_of(self.topo, self.frame_shift, m, f)] & !DIRTY == VALID | tag
        };
        let g = self.index.find((asid.raw(), line.0), holds)?;
        Some(MoleculeId(g >> self.frame_shift))
    }

    /// Every line-index entry as (owner, line, molecule), bucket by
    /// bucket (diagnostics).
    pub(crate) fn index_entries(&self) -> impl Iterator<Item = (Asid, LineAddr, MoleculeId)> + '_ {
        self.index.frames().map(move |g| {
            let (m, f) = self.split(g);
            let w = self.words[word_of(self.topo, self.frame_shift, m, f)];
            (self.asids[m], self.line_of(w, f), MoleculeId(m as u32))
        })
    }

    /// Number of line-index buckets.
    pub(crate) fn index_buckets(&self) -> usize {
        self.index.buckets()
    }

    /// The molecule and frame of cache-global frame `g`.
    #[inline]
    fn split(&self, g: u32) -> (usize, usize) {
        let frame = g as usize & (self.frames_per_molecule - 1);
        ((g >> self.frame_shift) as usize, frame)
    }

    /// The cache-global number of frame `frame` of `mol`.
    #[inline]
    fn global_frame(&self, mol: MoleculeId, frame: usize) -> u32 {
        ((mol.index() << self.frame_shift) | frame) as u32
    }

    /// Indexes frame `frame` of `mol`, which now holds `line` of `asid`.
    fn index_insert(&mut self, asid: Asid, line: LineAddr, mol: MoleculeId, frame: usize) {
        debug_assert_eq!(
            self.indexed(asid, line),
            None,
            "{asid} line {} held by two molecules",
            line.0
        );
        let g = self.global_frame(mol, frame);
        self.index.insert((asid.raw(), line.0), g);
    }

    /// Drops frame `frame` of `mol`, which still holds `line` of `asid`,
    /// from the index.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not indexed: an owned molecule's valid
    /// frame always is.
    fn index_remove(&mut self, asid: Asid, line: LineAddr, mol: MoleculeId, frame: usize) {
        let g = self.global_frame(mol, frame);
        self.index.remove((asid.raw(), line.0), g);
    }

    /// The owner under which `mol`'s lines are indexed: its ASID, unless
    /// it is free.
    #[inline]
    fn owner(&self, mol: MoleculeId) -> Option<Asid> {
        let asid = self.asids[mol.index()];
        (asid != Asid::NONE).then_some(asid)
    }

    /// Line frames per molecule.
    pub fn frames_per_molecule(&self) -> usize {
        self.frames_per_molecule
    }

    /// The packed tag bits and the frame of `line` (the same frame in
    /// every molecule: frames are direct-mapped).
    #[inline]
    fn tag_frame(&self, line: LineAddr) -> (u64, usize) {
        let tag = line.0 >> self.frame_shift;
        let frame = line.0 & (self.frames_per_molecule as u64 - 1);
        debug_assert!(tag & !TAG_MASK == 0, "tag overflows the 62 packed bits");
        (tag, frame as usize)
    }

    /// The word index of frame 0 of `mol`; its frame `f` lies
    /// `f * tile_molecules` words further on.
    #[inline]
    fn frame0(&self, mol: MoleculeId) -> usize {
        word_of(self.topo, self.frame_shift, mol.index(), 0)
    }

    /// The word indices of every frame of `mol`, in frame order.
    fn frames_of(&self, mol: MoleculeId) -> impl Iterator<Item = usize> {
        let (start, stride) = (self.frame0(mol), self.topo.tile_molecules());
        (0..self.frames_per_molecule).map(move |f| start + f * stride)
    }

    /// The flat word index and packed tag bits of `line` in `mol`.
    #[inline]
    fn slot(&self, mol: MoleculeId, line: LineAddr) -> (usize, u64) {
        let (tag, frame) = self.tag_frame(line);
        (self.frame0(mol) + frame * self.topo.tile_molecules(), tag)
    }

    /// The configured ASID of a molecule ([`Asid::NONE`] when free).
    pub fn asid_of(&self, mol: MoleculeId) -> Asid {
        self.asids[mol.index()]
    }

    /// The ASID-match stage for one molecule (Figure 3): a configured
    /// molecule passes its owner's requests; a free one passes none.
    pub fn matches(&self, mol: MoleculeId, asid: Asid) -> bool {
        let a = self.asids[mol.index()];
        a != Asid::NONE && a == asid
    }

    /// Configures a molecule into a region (or frees it with
    /// [`Asid::NONE`]). Contents are invalidated first, under the old
    /// owner, so the index drops them and the new owner never observes
    /// the previous owner's data. Returns the number of dirty frames
    /// flushed.
    pub fn configure(&mut self, mol: MoleculeId, asid: Asid) -> u64 {
        let flushed = self.invalidate_all(mol);
        self.asids[mol.index()] = asid;
        flushed
    }

    /// Invalidates every frame of a molecule, dropping its lines from
    /// the index; returns the number of dirty frames (the writebacks
    /// this flush generates). An invalid frame's word is always 0, so
    /// the walk stops at the molecule's last valid frame and an empty
    /// molecule returns at once.
    pub fn invalidate_all(&mut self, mol: MoleculeId) -> u64 {
        let owner = self.owner(mol);
        let mut left = self.valid[mol.index()];
        let mut dirty = 0;
        for (f, i) in self.frames_of(mol).enumerate() {
            if left == 0 {
                break;
            }
            let w = self.words[i];
            if w & VALID != 0 {
                left -= 1;
                dirty += (w >> 62) & 1;
                if let Some(asid) = owner {
                    self.index_remove(asid, self.line_of(w, f), mol, f);
                }
                self.words[i] = 0;
            }
        }
        self.valid[mol.index()] = 0;
        dirty
    }

    /// The line a valid frame word `w` at frame `frame` holds.
    #[inline]
    fn line_of(&self, w: u64, frame: usize) -> LineAddr {
        LineAddr(((w & TAG_MASK) << self.frame_shift) | frame as u64)
    }

    /// Direct-mapped lookup (the tag probe of one molecule). Returns
    /// whether the line is resident; mutates nothing.
    pub fn lookup(&self, mol: MoleculeId, line: LineAddr) -> bool {
        let (idx, tag) = self.slot(mol, line);
        let w = self.words[idx];
        w & VALID != 0 && w & TAG_MASK == tag
    }

    /// Marks a resident line of `mol` dirty (a write hit found through
    /// the index).
    ///
    /// # Panics
    ///
    /// Panics if `mol` does not hold `line`: the index named the wrong
    /// molecule.
    #[inline]
    pub(crate) fn mark_dirty(&mut self, mol: MoleculeId, line: LineAddr) {
        let (idx, tag) = self.slot(mol, line);
        let w = &mut self.words[idx];
        assert!(
            *w & !DIRTY == VALID | tag,
            "index names a molecule that does not hold the line"
        );
        *w |= DIRTY;
    }

    /// Fills `line` into its direct-mapped frame of `mol`, evicting
    /// whatever was there; an owned molecule's evicted line leaves the
    /// index and the new one enters it. Returns `true` if the eviction
    /// wrote back a dirty line.
    pub fn fill(&mut self, mol: MoleculeId, line: LineAddr, dirty: bool) -> bool {
        let (idx, tag) = self.slot(mol, line);
        let w = self.words[idx];
        let same = w & VALID != 0 && w & TAG_MASK == tag;
        let evicted_dirty = w & (VALID | DIRTY) == VALID | DIRTY && !same;
        // The evicted line leaves the index while its word still holds
        // it; the new line enters once the word holds the new tag.
        let owner = if same { None } else { self.owner(mol) };
        let frame = self.tag_frame(line).1;
        if let (Some(asid), true) = (owner, w & VALID != 0) {
            self.index_remove(asid, self.line_of(w, frame), mol, frame);
        }
        self.valid[mol.index()] += u32::from(w & VALID == 0);
        self.words[idx] = VALID | if dirty { DIRTY } else { 0 } | tag;
        if let Some(asid) = owner {
            self.index_insert(asid, line, mol, frame);
        }
        evicted_dirty
    }

    /// Number of valid frames of `mol`: one read of the count that
    /// [`fill`](Self::fill) and [`invalidate_all`](Self::invalidate_all)
    /// keep.
    pub fn occupancy(&self, mol: MoleculeId) -> usize {
        self.valid[mol.index()] as usize
    }

    /// The line addresses currently resident in `mol` (diagnostics /
    /// invariant checking): frame `i` holding tag `t` stores line
    /// `t * frames + i`. One strided pass over the molecule's frames;
    /// reconstruction happens only for valid frames.
    pub fn resident_lines(&self, mol: MoleculeId) -> impl Iterator<Item = LineAddr> + '_ {
        self.frames_of(mol).enumerate().filter_map(move |(f, i)| {
            let w = self.words[i];
            (w & VALID != 0).then(|| self.line_of(w, f))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiles of `n` molecules, one tile per cluster.
    fn tiles(n: usize) -> Topology {
        Topology::new(n, 1)
    }

    fn store(frames: usize) -> (TagStore, MoleculeId) {
        (TagStore::new(4, frames, tiles(4)), MoleculeId(0))
    }

    #[test]
    fn direct_mapped_fill_and_lookup() {
        let (mut t, m) = store(128);
        let line = LineAddr(5);
        assert!(!t.lookup(m, line));
        t.fill(m, line, false);
        assert!(t.lookup(m, line));
        // Same frame, different tag: conflict.
        let conflict = LineAddr(5 + 128);
        assert!(!t.lookup(m, conflict));
        t.fill(m, conflict, false);
        assert!(t.lookup(m, conflict));
        assert!(!t.lookup(m, line), "direct-mapped conflict must evict");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_frames_are_rejected() {
        TagStore::new(3, 12, tiles(3));
    }

    #[test]
    fn fill_reports_dirty_eviction() {
        let (mut t, m) = store(64);
        t.fill(m, LineAddr(0), true);
        assert!(t.fill(m, LineAddr(64), false), "dirty conflict writes back");
        assert!(!t.fill(m, LineAddr(128), false), "clean conflict does not");
    }

    #[test]
    fn refill_same_line_is_not_writeback() {
        let (mut t, m) = store(64);
        t.fill(m, LineAddr(3), true);
        assert!(!t.fill(m, LineAddr(3), false), "same tag overwrite, no WB");
    }

    #[test]
    fn asid_matching() {
        let (mut t, m) = store(16);
        assert!(!t.matches(m, Asid::new(1)), "unconfigured never matches");
        assert!(!t.matches(m, Asid::NONE), "a free molecule passes no gate");
        t.configure(m, Asid::new(1));
        assert!(t.matches(m, Asid::new(1)));
        assert!(!t.matches(m, Asid::new(2)));
    }

    #[test]
    fn configure_preserves_lane_neighbours() {
        // Configuring one molecule must not disturb its neighbours'
        // ASIDs.
        let mut t = TagStore::new(4, 8, tiles(4));
        for i in 0..4u32 {
            t.configure(MoleculeId(i), Asid::new(100 + i as u16));
        }
        t.configure(MoleculeId(2), Asid::new(7));
        for (i, want) in [(0u32, 100u16), (1, 101), (2, 7), (3, 103)] {
            assert_eq!(t.asid_of(MoleculeId(i)), Asid::new(want), "molecule {i}");
        }
    }

    #[test]
    fn index_follows_every_frame_and_owner_write() {
        let mut t = TagStore::new(4, 16, tiles(4));
        let (a, b) = (MoleculeId(0), MoleculeId(1));
        let (one, two) = (Asid::new(1), Asid::new(2));
        let entries = |t: &TagStore| {
            for m in (0..4).map(MoleculeId) {
                assert_eq!(t.occupancy(m), t.resident_lines(m).count(), "{m:?}");
            }
            let mut e: Vec<_> = t.index_entries().collect();
            e.sort_unstable();
            e
        };
        t.configure(a, one);
        t.configure(b, two);
        t.fill(a, LineAddr(3), true);
        t.fill(b, LineAddr(3), false);
        assert_eq!(t.indexed(one, LineAddr(3)), Some(a));
        assert_eq!(t.indexed(two, LineAddr(3)), Some(b));
        // A conflict fill evicts frame 3's line from the index.
        t.fill(a, LineAddr(3 + 16), false);
        assert_eq!(t.indexed(one, LineAddr(3)), None);
        assert_eq!(t.indexed(one, LineAddr(19)), Some(a));
        t.fill(a, LineAddr(5), false);
        assert_eq!(
            entries(&t),
            vec![
                (one, LineAddr(5), a),
                (one, LineAddr(19), a),
                (two, LineAddr(3), b)
            ]
        );
        // Reconfiguring flushes under the old owner; a free molecule's
        // fills are not indexed.
        assert_eq!(t.configure(a, two), 0);
        assert_eq!(t.configure(b, Asid::NONE), 0);
        t.fill(b, LineAddr(7), false);
        assert_eq!(entries(&t), vec![]);
        t.fill(a, LineAddr(8), true);
        assert_eq!(t.invalidate_all(a), 1);
        assert_eq!(entries(&t), vec![]);
    }

    #[test]
    fn configure_invalidates_and_counts_dirty() {
        let (mut t, m) = store(16);
        t.configure(m, Asid::new(1));
        t.fill(m, LineAddr(0), true);
        t.fill(m, LineAddr(1), false);
        let flushed = t.configure(m, Asid::new(2));
        assert_eq!(flushed, 1);
        assert_eq!(t.occupancy(m), 0);
        assert!(!t.lookup(m, LineAddr(0)));
    }

    #[test]
    fn probe_touches_and_marks_dirty() {
        // A write hit found through the index marks its frame dirty.
        let (mut t, m) = store(16);
        t.configure(m, Asid::new(1));
        t.fill(m, LineAddr(2), false);
        assert!(t.lookup(m, LineAddr(2)));
        assert!(!t.lookup(m, LineAddr(3)));
        t.mark_dirty(m, LineAddr(2));
        // The dirty line now writes back on conflict.
        assert!(t.fill(m, LineAddr(2 + 16), false));
    }

    #[test]
    fn probe_miss_mutates_nothing() {
        let (mut t, m) = store(16);
        t.fill(m, LineAddr(2), false);
        let words = t.words.clone();
        assert!(!t.lookup(m, LineAddr(2 + 16)), "conflict tag misses");
        assert_eq!(t.words, words, "a lookup writes no frame");
        assert!(t.lookup(m, LineAddr(2)), "resident line untouched");
        assert!(!t.fill(m, LineAddr(2 + 32), false), "still clean: no WB");
    }

    #[test]
    #[should_panic(expected = "does not hold the line")]
    fn marking_an_absent_line_dirty_panics() {
        let (mut t, m) = store(16);
        t.fill(m, LineAddr(2), false);
        t.mark_dirty(m, LineAddr(2 + 16));
    }

    #[test]
    fn resident_lines_reconstruct_addresses() {
        let (mut t, m) = store(16);
        t.fill(m, LineAddr(5), false);
        t.fill(m, LineAddr(16 + 2), true); // frame 2, tag 1
        let mut lines: Vec<u64> = t.resident_lines(m).map(|l| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![5, 18]);
    }

    #[test]
    fn molecules_are_isolated_slices() {
        let mut t = TagStore::new(3, 8, tiles(3));
        t.fill(MoleculeId(1), LineAddr(7), true);
        assert!(!t.lookup(MoleculeId(0), LineAddr(7)));
        assert!(!t.lookup(MoleculeId(2), LineAddr(7)));
        assert_eq!(t.occupancy(MoleculeId(0)), 0);
        assert_eq!(t.occupancy(MoleculeId(1)), 1);
        assert_eq!(t.invalidate_all(MoleculeId(2)), 0);
        assert!(
            t.lookup(MoleculeId(1), LineAddr(7)),
            "neighbour flush keeps slice"
        );
    }

    #[test]
    fn invalidate_all_counts_only_valid_dirty_frames() {
        let (mut t, m) = store(8);
        t.fill(m, LineAddr(0), true); // valid+dirty
        t.fill(m, LineAddr(1), false); // valid+clean
        t.fill(m, LineAddr(2), true); // valid+dirty
        assert_eq!(t.invalidate_all(m), 2);
        assert_eq!(t.invalidate_all(m), 0, "second flush finds nothing");
    }

    #[test]
    fn large_tags_round_trip() {
        let (mut t, m) = store(16);
        // A tag near the top of the 62-bit packed field survives the
        // round trip (valid/dirty bits do not corrupt it).
        let line = LineAddr(((1u64 << 60) - 1) * 16 + 3);
        t.fill(m, line, true);
        assert!(t.lookup(m, line));
        let lines: Vec<u64> = t.resident_lines(m).map(|l| l.0).collect();
        assert_eq!(lines, vec![line.0]);
        assert_eq!(t.invalidate_all(m), 1, "the dirty bit survives too");
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn zero_frames_panics() {
        TagStore::new(4, 0, tiles(4));
    }

    #[test]
    #[should_panic(expected = "whole tiles")]
    fn partial_tile_panics() {
        TagStore::new(6, 4, tiles(4));
    }
}
