//! Flat bit-packed tag storage for the whole cache.
//!
//! All tag and gate state lives in cache-global contiguous arrays:
//!
//! * `words` — one packed `u64` per line frame: bit 63 = valid,
//!   bit 62 = dirty, bits 0–61 = tag (`line / frames_per_molecule`);
//! * `asid_lanes` / `shared_lanes` — the per-molecule ASID-gate state
//!   (§3.1), packed four 16-bit ASID lanes per `u64` word, with the
//!   shared bit stored as the top bit of the corresponding lane;
//! * `valid` — the number of valid frames of each molecule, so that
//!   [`TagStore::occupancy`] is one read and [`TagStore::invalidate_all`]
//!   stops at a molecule's last valid frame (at once for an empty one);
//! * `index` — the exact line index: (owner ASID, line) → the frame
//!   holding the line, for every valid frame of every owned, non-shared
//!   molecule. Every method that writes a frame word, an ASID lane or a
//!   shared bit keeps it current ([`TagStore::fill`],
//!   [`TagStore::invalidate`], [`TagStore::invalidate_all`],
//!   [`TagStore::configure`], which flushes under the old owner before
//!   writing the new one, and [`TagStore::set_shared`]). It chains the
//!   cache's frames through a fixed bucket array, one bucket and one
//!   link per frame (eight bytes per frame), so its upkeep on a fill or
//!   an invalidation is a push or an unlink and never reads another
//!   entry's key. The access path's stage 0 probes it once instead of
//!   scanning ([`crate::pipeline::memo`]).
//!
//! Molecule ids are assigned tile-contiguously at construction, so a
//! tile's gate state occupies a dense lane range and the §3.1 ASID gate
//! is a SWAR kernel ([`TagStore::gate_scan`]): each `u64` word compares
//! four molecules' ASIDs against the requestor branchlessly (exact
//! per-lane zero detection — no cross-lane borrows) and the matches come
//! out as a bitmask ([`GateMask`]). The whole gate of a 32-molecule tile
//! is eight word operations. A tile's match set for one ASID changes
//! only when an ASID lane or a shared bit is written, which is always a
//! structural change of the cache, so the access path does not run the
//! kernel per access: each region caches the mask of every tile its
//! lookups visit and rescans a tile once per structural generation.
//!
//! The frame words are stored **frame-major within each tile**: frame
//! `f` of molecule `m` (tile `t`, tile base `b`, `T` molecules per tile)
//! sits at `(t * frames_per_molecule + f) * T + (m - b)`. A line maps to
//! the same frame in every molecule, so the frames one lookup compares
//! across a tile form a single contiguous row, laid out in the same
//! order as the gate's lanes. The tag probe ([`TagStore::probe_gated`])
//! computes that row once and tests four molecules per gate word — the
//! host analogue of the hardware's parallel compare across the gated
//! molecules. It serves the reference path and regions with a shared
//! molecule on a lookup tile; the index serves the rest. A molecule's
//! own frames are strided `T` words apart; the per-molecule walks
//! ([`TagStore::invalidate_all`], [`TagStore::resident_lines`]) run only
//! on structural changes and in diagnostics, never per access, so the
//! stride costs nothing on the access path.
//! The store holds the cache's [`Topology`], whose
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

/// 16-bit ASID lanes per packed gate word.
const LANES: usize = 4;
/// log2([`LANES`]), for `molecule <-> (word, lane)` arithmetic.
const LANE_SHIFT: usize = 2;
/// The top bit of every lane — where per-lane results (and the shared
/// bit) live.
const LANE_HI: u64 = 0x8000_8000_8000_8000;
/// The low 15 bits of every lane.
const LANE_LO: u64 = 0x7FFF_7FFF_7FFF_7FFF;
/// Broadcasts a 16-bit value into all four lanes when multiplied.
const LANE_BCAST: u64 = 0x0001_0001_0001_0001;

/// Exact per-lane zero detection: the top bit of each 16-bit lane of the
/// result is set iff that lane of `y` is zero.
///
/// `(y & LANE_LO) + LANE_LO` sets a lane's top bit iff its low 15 bits
/// are non-zero, and — unlike the classic `(y - 1) & !y` trick — cannot
/// carry into the next lane (each lane sum is at most `0xFFFE`), so the
/// answer is exact for *every* lane, not just the lowest zero.
#[inline]
fn zero_lanes(y: u64) -> u64 {
    !(((y & LANE_LO).wrapping_add(LANE_LO)) | y) & LANE_HI
}

/// The raw 16-bit ASID lane of molecule `i` in the packed `lanes`.
#[inline]
fn lane(lanes: &[u64], i: usize) -> u16 {
    (lanes[i >> LANE_SHIFT] >> ((i & (LANES - 1)) * 16)) as u16
}

/// The word index of frame `frame` of molecule `m` in the frame-major
/// layout (see the module docs).
#[inline]
fn word_of(topo: Topology, frame_shift: u32, m: usize, frame: usize) -> usize {
    let base = topo.tile_base(topo.tile_of(MoleculeId(m as u32)));
    (base << frame_shift) + frame * topo.tile_molecules() + (m - base)
}

/// The ASID gate's match bitmask over one tile's molecules: one bit per
/// molecule (at its lane's top-bit position), produced by
/// [`TagStore::gate_scan`] and consumed by the tag-probe stage
/// ([`TagStore::probe_gated`]).
///
/// Each region keeps one mask per tile its lookups visit, valid for one
/// structural generation. `gate_scan` clears and refills a mask in
/// place, so a rescan after a structural change reuses the storage and
/// the gate stays allocation-free in steady state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateMask {
    /// First molecule of the scanned range.
    base: usize,
    /// One match word per covered gate word, from gate word
    /// `base / LANES` on; a set bit at lane `l` of word `w` means
    /// molecule `(base / LANES + w) * LANES + l` matched.
    words: Vec<u64>,
    /// Total matches (popcount of `words`).
    count: u32,
}

impl GateMask {
    /// Number of matching molecules.
    #[inline]
    pub fn count(&self) -> u32 {
        self.count
    }

    /// The matching molecule ids in ascending (= tile) order.
    pub fn iter(&self) -> impl Iterator<Item = MoleculeId> + '_ {
        let base = self.base >> LANE_SHIFT;
        self.words.iter().enumerate().flat_map(move |(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(MoleculeId(
                    (((base + wi) << LANE_SHIFT) + (bit >> 4)) as u32,
                ))
            })
        })
    }
}

/// The packed-word range `[w0, w1]` covering molecules
/// `[base, base + count)`, with the head/tail lane masks that cut the
/// first and last word down to the in-range lanes (a tile's base need
/// not be lane-aligned, and its capacity need not be a lane multiple).
#[inline]
fn lane_range(base: usize, count: usize) -> (usize, usize, u64, u64) {
    debug_assert!(count > 0);
    let last = base + count - 1;
    let head = LANE_HI << ((base & (LANES - 1)) * 16);
    let tail = LANE_HI >> ((LANES - 1 - (last & (LANES - 1))) * 16);
    (base >> LANE_SHIFT, last >> LANE_SHIFT, head, tail)
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
    /// Configured ASIDs, four 16-bit lanes per word
    /// ([`Asid::NONE`] = 0 when free).
    asid_lanes: Vec<u64>,
    /// Shared bits (§3.1: bypasses the ASID compare), one per molecule
    /// at its lane's top-bit position — already in [`GateMask`] form, so
    /// the gate ORs it straight into the match word.
    shared_lanes: Vec<u64>,
    /// Valid frames per molecule.
    valid: Vec<u32>,
    /// (owner ASID, line) → the frame holding the line, for every valid
    /// frame of every owned, non-shared molecule: the exact directory
    /// the access path's stage 0 probes instead of scanning.
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
            // Out-of-range lanes of the last word stay NONE/unshared
            // forever and can never match a gate scan.
            asid_lanes: vec![0; molecules.div_ceil(LANES)],
            shared_lanes: vec![0; molecules.div_ceil(LANES)],
            valid: vec![0; molecules],
            index: LineIndex::new(molecules * frames_per_molecule),
        }
    }

    /// The molecule holding `line` of owner `asid`, by one probe of the
    /// line index: only owned, non-shared molecules' lines are indexed.
    #[inline]
    pub(crate) fn indexed(&self, asid: Asid, line: LineAddr) -> Option<MoleculeId> {
        let (tag, frame) = self.tag_frame(line);
        let holds = |g: u32| {
            let (m, f) = self.split(g);
            f == frame
                && self.asid_raw(m) == asid.raw()
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
            (
                Asid::new(self.asid_raw(m)),
                self.line_of(w, f),
                MoleculeId(m as u32),
            )
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
    /// it is free or shared (a shared molecule serves every ASID, so its
    /// lines have no owner).
    #[inline]
    fn owner(&self, mol: MoleculeId) -> Option<Asid> {
        let asid = self.asid_of(mol);
        (asid != Asid::NONE && !self.is_shared(mol)).then_some(asid)
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

    /// The raw 16-bit ASID lane of molecule `i`.
    #[inline]
    fn asid_raw(&self, i: usize) -> u16 {
        lane(&self.asid_lanes, i)
    }

    /// The configured ASID of a molecule ([`Asid::NONE`] when free).
    pub fn asid_of(&self, mol: MoleculeId) -> Asid {
        Asid::new(self.asid_raw(mol.index()))
    }

    /// Whether a molecule's shared bit is set.
    pub fn is_shared(&self, mol: MoleculeId) -> bool {
        let i = mol.index();
        self.shared_lanes[i >> LANE_SHIFT] >> ((i & (LANES - 1)) * 16 + 15) & 1 != 0
    }

    /// Sets or clears a molecule's shared bit. An owned molecule's
    /// resident lines leave the index when it becomes shared and return
    /// when it stops being shared.
    pub fn set_shared(&mut self, mol: MoleculeId, shared: bool) {
        let before = self.owner(mol);
        let i = mol.index();
        let bit = 1u64 << ((i & (LANES - 1)) * 16 + 15);
        let w = &mut self.shared_lanes[i >> LANE_SHIFT];
        *w = if shared { *w | bit } else { *w & !bit };
        let after = self.owner(mol);
        if before != after {
            let lines: Vec<LineAddr> = self.resident_lines(mol).collect();
            for line in lines {
                let frame = self.tag_frame(line).1;
                if let Some(asid) = before {
                    self.index_remove(asid, line, mol, frame);
                }
                if let Some(asid) = after {
                    self.index_insert(asid, line, mol, frame);
                }
            }
        }
    }

    /// The ASID-match stage for one molecule (Figure 3: the shared bit
    /// forces a match).
    pub fn matches(&self, mol: MoleculeId, asid: Asid) -> bool {
        let a = self.asid_raw(mol.index());
        self.is_shared(mol) || (a != Asid::NONE.raw() && a == asid.raw())
    }

    /// The §3.1 ASID gate over one tile's contiguous molecule slice:
    /// fills `out` with the match bitmask of the molecules in
    /// `[base, base + count)` that match `asid` (shared bit or ASID
    /// equality).
    ///
    /// SWAR kernel: each packed word xors four ASID lanes against the
    /// broadcast requestor, detects equal (= zero) lanes exactly, masks
    /// equality off entirely for [`Asid::NONE`] requests (a free
    /// molecule must never match one), ORs in the shared bits, and trims
    /// the head/tail words to the in-range lanes.
    pub fn gate_scan(&self, base: usize, count: usize, asid: Asid, out: &mut GateMask) {
        out.words.clear();
        out.base = base;
        out.count = 0;
        if count == 0 {
            return;
        }
        let (w0, w1, head, tail) = lane_range(base, count);
        let bcast = u64::from(asid.raw()).wrapping_mul(LANE_BCAST);
        // All-or-nothing lane mask: NONE requests take no equality path.
        let asid_ok = if asid == Asid::NONE { 0 } else { !0u64 };
        let mut count = 0;
        for w in w0..=w1 {
            let eq = zero_lanes(self.asid_lanes[w] ^ bcast);
            let mut m = (eq & asid_ok) | self.shared_lanes[w];
            if w == w0 {
                m &= head;
            }
            if w == w1 {
                m &= tail;
            }
            out.words.push(m);
            count += m.count_ones();
        }
        out.count = count;
    }

    /// Number of shared molecules in `[base, base + count)` (the victim
    /// stage's shared-fallback pool; same SWAR word walk as the gate).
    pub fn count_shared(&self, base: usize, count: usize) -> usize {
        if count == 0 {
            return 0;
        }
        let (w0, w1, head, tail) = lane_range(base, count);
        let mut n = 0u32;
        for w in w0..=w1 {
            let mut m = self.shared_lanes[w];
            if w == w0 {
                m &= head;
            }
            if w == w1 {
                m &= tail;
            }
            n += m.count_ones();
        }
        n as usize
    }

    /// The `k`-th (ascending id order) shared molecule in
    /// `[base, base + count)`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `k + 1` molecules of the range are shared.
    pub fn nth_shared(&self, base: usize, count: usize, k: usize) -> MoleculeId {
        assert!(count > 0, "empty range holds no shared molecule");
        let (w0, w1, head, tail) = lane_range(base, count);
        let mut k = k as u32;
        for w in w0..=w1 {
            let mut m = self.shared_lanes[w];
            if w == w0 {
                m &= head;
            }
            if w == w1 {
                m &= tail;
            }
            let ones = m.count_ones();
            if k < ones {
                // Drop the k lowest set bits, then read the next one.
                for _ in 0..k {
                    m &= m - 1;
                }
                let bit = m.trailing_zeros() as usize;
                return MoleculeId(((w << LANE_SHIFT) + (bit >> 4)) as u32);
            }
            k -= ones;
        }
        panic!("range holds fewer shared molecules than requested");
    }

    /// Configures a molecule into a region (or frees it with
    /// [`Asid::NONE`]). Contents are invalidated first, under the old
    /// owner, so the index drops them and the new owner never observes
    /// the previous owner's data. Returns the number of dirty frames
    /// flushed.
    pub fn configure(&mut self, mol: MoleculeId, asid: Asid) -> u64 {
        let flushed = self.invalidate_all(mol);
        self.write_asid_lane(mol, asid);
        flushed
    }

    /// Writes a molecule's ASID lane, leaving its frames and the index
    /// alone.
    fn write_asid_lane(&mut self, mol: MoleculeId, asid: Asid) {
        let i = mol.index();
        let sh = (i & (LANES - 1)) * 16;
        let w = &mut self.asid_lanes[i >> LANE_SHIFT];
        *w = (*w & !(0xFFFFu64 << sh)) | (u64::from(asid.raw()) << sh);
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

    /// Direct-mapped lookup. Returns whether the line is resident.
    pub fn lookup(&self, mol: MoleculeId, line: LineAddr) -> bool {
        let (idx, tag) = self.slot(mol, line);
        let w = self.words[idx];
        w & VALID != 0 && w & TAG_MASK == tag
    }

    /// The tag probe of one molecule: on a resident line returns `true`,
    /// marking the frame dirty when `is_write` (write hit). A miss
    /// mutates nothing. It is the reference
    /// [`probe_gated`](Self::probe_gated) is tested against.
    #[inline]
    pub fn probe(&mut self, mol: MoleculeId, line: LineAddr, is_write: bool) -> bool {
        let (idx, tag) = self.slot(mol, line);
        let w = self.words[idx];
        if w & VALID != 0 && w & TAG_MASK == tag {
            if is_write {
                self.words[idx] = w | DIRTY;
            }
            true
        } else {
            false
        }
    }

    /// The tag probe over every molecule `gate` passed: returns the
    /// first gated molecule, in ascending id order, holding `line`, and
    /// marks that frame dirty when `is_write` (write hit). A miss
    /// mutates nothing. Gives the same answer and leaves the same words
    /// as calling [`probe`](Self::probe) on each gated molecule in
    /// ascending order until one hits. The order matters: a shared
    /// molecule's copy of a line can coexist with a member's copy.
    ///
    /// `gate` must come from a [`gate_scan`](Self::gate_scan) of one
    /// whole tile. The tile's frames for `line` form one contiguous row
    /// in gate-lane order, so each non-zero gate word tests its four
    /// molecules' frames together, puts the results at the lane-top
    /// bits, masks them with the gate word and takes the lowest hit.
    /// A gate word that overlaps the tile boundary (a tile base or
    /// capacity that is not a multiple of four) tests its gated lanes
    /// one by one instead.
    pub fn probe_gated(
        &mut self,
        gate: &GateMask,
        line: LineAddr,
        is_write: bool,
    ) -> Option<MoleculeId> {
        let (tag, frame) = self.tag_frame(line);
        let want = VALID | tag;
        let base = gate.base;
        let tile_molecules = self.topo.tile_molecules();
        let end = base + tile_molecules;
        debug_assert!(
            base.is_multiple_of(tile_molecules),
            "the gate must cover one whole tile"
        );
        // Word index of frame `frame` of the tile's first molecule: the
        // start of the row; molecule `m`'s frame is at `row + m - base`.
        let row = base * self.frames_per_molecule + frame * tile_molecules;
        // First molecule of the current gate word.
        let mut first = base & !(LANES - 1);
        for &g in &gate.words {
            if g != 0 {
                let hits = if first >= base && first + LANES <= end {
                    let r = &self.words[row + first - base..][..LANES];
                    let lane = |l: usize| u64::from(r[l] & !DIRTY == want) << (l * 16 + 15);
                    (lane(0) | lane(1) | lane(2) | lane(3)) & g
                } else {
                    // The word overlaps the tile boundary: its lanes
                    // outside the tile are never gated, and their frames
                    // are not in this row, so test the gated lanes alone.
                    let mut hits = 0;
                    let mut rest = g;
                    while rest != 0 {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        if self.words[row + first + (bit >> 4) - base] & !DIRTY == want {
                            hits |= 1 << bit;
                        }
                    }
                    hits
                };
                if hits != 0 {
                    let m = first + (hits.trailing_zeros() as usize >> 4);
                    if is_write {
                        self.words[row + m - base] |= DIRTY;
                    }
                    return Some(MoleculeId(m as u32));
                }
            }
            first += LANES;
        }
        None
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

    /// Invalidates one line of `mol` if resident, dropping it from the
    /// index; returns `Some(dirty)` if it was resident.
    pub fn invalidate(&mut self, mol: MoleculeId, line: LineAddr) -> Option<bool> {
        let (idx, tag) = self.slot(mol, line);
        let w = self.words[idx];
        if w & VALID != 0 && w & TAG_MASK == tag {
            if let Some(asid) = self.owner(mol) {
                self.index_remove(asid, line, mol, self.tag_frame(line).1);
            }
            self.words[idx] = 0;
            self.valid[mol.index()] -= 1;
            Some(w & DIRTY != 0)
        } else {
            None
        }
    }

    /// Number of valid frames of `mol`: one read of the count that
    /// [`fill`](Self::fill), [`invalidate`](Self::invalidate) and
    /// [`invalidate_all`](Self::invalidate_all) keep.
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
    use molcache_trace::rng::Rng;

    /// Tiles of `n` molecules, one tile per cluster.
    fn tiles(n: usize) -> Topology {
        Topology::new(n, 1)
    }

    fn store(frames: usize) -> (TagStore, MoleculeId) {
        (TagStore::new(4, frames, tiles(4)), MoleculeId(0))
    }

    /// The pre-SWAR scalar gate: one `matches` per molecule, ids pushed
    /// in tile order. The SWAR kernel must agree with this on every
    /// input.
    fn gate_scan_ref(t: &TagStore, base: usize, count: usize, asid: Asid) -> Vec<MoleculeId> {
        (base..base + count)
            .map(|i| MoleculeId(i as u32))
            .filter(|&m| t.matches(m, asid))
            .collect()
    }

    fn gate_scan_swar(t: &TagStore, base: usize, count: usize, asid: Asid) -> Vec<MoleculeId> {
        let mut mask = GateMask::default();
        t.gate_scan(base, count, asid, &mut mask);
        let ids: Vec<MoleculeId> = mask.iter().collect();
        assert_eq!(ids.len(), mask.count() as usize, "count must match bits");
        ids
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
        t.configure(m, Asid::new(1));
        assert!(t.matches(m, Asid::new(1)));
        assert!(!t.matches(m, Asid::new(2)));
        t.set_shared(m, true);
        assert!(t.matches(m, Asid::new(2)), "shared bit bypasses ASID");
    }

    #[test]
    fn configure_preserves_lane_neighbours() {
        // All four molecules share one packed word: configuring one lane
        // must not disturb the others.
        let mut t = TagStore::new(4, 8, tiles(4));
        for i in 0..4u32 {
            t.configure(MoleculeId(i), Asid::new(100 + i as u16));
        }
        t.configure(MoleculeId(2), Asid::new(7));
        for (i, want) in [(0u32, 100u16), (1, 101), (2, 7), (3, 103)] {
            assert_eq!(t.asid_of(MoleculeId(i)), Asid::new(want), "lane {i}");
        }
        t.set_shared(MoleculeId(1), true);
        t.set_shared(MoleculeId(1), false);
        assert!(!t.is_shared(MoleculeId(0)) && !t.is_shared(MoleculeId(1)));
    }

    #[test]
    fn gate_scan_preserves_tile_order_and_isolation() {
        let mut t = TagStore::new(4, 16, tiles(4));
        t.configure(MoleculeId(0), Asid::new(2));
        t.configure(MoleculeId(1), Asid::new(1));
        t.configure(MoleculeId(3), Asid::new(1));
        t.set_shared(MoleculeId(2), true);
        let out = gate_scan_swar(&t, 0, 4, Asid::new(1));
        assert_eq!(out, vec![MoleculeId(1), MoleculeId(2), MoleculeId(3)]);
        // A free molecule (ASID none) never matches a none request.
        t.configure(MoleculeId(0), Asid::NONE);
        t.set_shared(MoleculeId(2), false);
        let out = gate_scan_swar(&t, 0, 4, Asid::NONE);
        assert!(out.is_empty(), "ASID 0 must not match free molecules");
    }

    #[test]
    fn gate_scan_matches_scalar_reference_exhaustively() {
        // 23 molecules: deliberately not a lane multiple. Mix owners,
        // free molecules and shared bits across lane boundaries, then
        // compare SWAR and scalar gates for every (base, count, asid)
        // over a set of interesting ASIDs.
        let mut t = TagStore::new(23, 4, tiles(23));
        for i in 0..23u32 {
            let asid = match i % 5 {
                0 => Asid::NONE,
                1 => Asid::new(1),
                2 => Asid::new(2),
                3 => Asid::new(0x7FFF),
                _ => Asid::new(0xFFFF),
            };
            t.configure(MoleculeId(i), asid);
            if i % 7 == 3 {
                t.set_shared(MoleculeId(i), true);
            }
        }
        let asids = [
            Asid::NONE,
            Asid::new(1),
            Asid::new(2),
            Asid::new(3),
            Asid::new(0x7FFF),
            Asid::new(0x8000),
            Asid::new(0xFFFF),
        ];
        for base in 0..23 {
            for count in 1..=(23 - base) {
                for asid in asids {
                    assert_eq!(
                        gate_scan_swar(&t, base, count, asid),
                        gate_scan_ref(&t, base, count, asid),
                        "base {base} count {count} asid {}",
                        asid.raw(),
                    );
                }
            }
        }
    }

    #[test]
    fn gate_scan_ragged_tail_and_misaligned_base() {
        // Base 5 (lane 1 of word 1), count 6 (ends mid-word): the head
        // and tail masks must clip the out-of-range lanes even when they
        // would match.
        let mut t = TagStore::new(16, 4, tiles(16));
        for i in 0..16u32 {
            t.configure(MoleculeId(i), Asid::new(9));
        }
        let out = gate_scan_swar(&t, 5, 6, Asid::new(9));
        assert_eq!(out, (5..11).map(MoleculeId).collect::<Vec<_>>());
        // Single-molecule range inside one word.
        assert_eq!(gate_scan_swar(&t, 6, 1, Asid::new(9)), vec![MoleculeId(6)]);
        assert_eq!(gate_scan_swar(&t, 6, 1, Asid::new(8)), vec![]);
    }

    #[test]
    fn gate_scan_empty_range_is_empty() {
        let t = TagStore::new(8, 4, tiles(8));
        let mut mask = GateMask::default();
        t.gate_scan(3, 0, Asid::new(1), &mut mask);
        assert_eq!(mask.count(), 0);
        assert_eq!(mask.iter().count(), 0);
    }

    #[test]
    fn probe_gated_matches_per_molecule_reference_exhaustively() {
        // Tile sizes 1-8 and 12, three tiles each: most tile bases fall
        // off a 4-lane boundary and most tiles end mid-word, so gate words
        // straddle tiles. Owners, shared bits and resident lines are
        // random, lines drawn from a small pool so several molecules of a
        // tile — of one owner too — hold the same line. Every (tile, ASID,
        // line, read/write) probe must return the molecule the reference
        // returns — the first gated molecule, in ascending order, whose
        // `probe` hits — and leave the frame words exactly as the
        // reference leaves them.
        //
        // The cache never puts one line in two molecules of an owner, and
        // the index refuses that state, so the lines are filled while the
        // molecules are free and the owners' ASID lanes written afterwards,
        // bypassing `configure`'s flush and the index.
        const FRAMES: usize = 4;
        const LINES: u64 = 16;
        const TILES: usize = 3;
        let asids = [Asid::NONE, Asid::new(1), Asid::new(2), Asid::new(3)];
        let mut rng = Rng::seeded(0x7a65);
        let (mut hits, mut misses) = (0, 0);
        for tile in (1..=8).chain([12]) {
            let molecules = TILES * tile;
            for _round in 0..8 {
                let mut fast = TagStore::new(molecules, FRAMES, tiles(tile));
                let mut owners = Vec::with_capacity(molecules);
                for m in 0..molecules as u32 {
                    owners.push(asids[rng.gen_index(3)]);
                    fast.set_shared(MoleculeId(m), rng.gen_bool(0.25));
                }
                for _ in 0..molecules * FRAMES {
                    let m = MoleculeId(rng.gen_index(molecules) as u32);
                    fast.fill(m, LineAddr(rng.gen_range(LINES)), rng.gen_bool(0.5));
                }
                for (m, &asid) in owners.iter().enumerate() {
                    fast.write_asid_lane(MoleculeId(m as u32), asid);
                }
                assert_eq!(
                    fast.index_entries().count(),
                    0,
                    "free molecules index nothing"
                );
                let mut slow = fast.clone();
                let mut gate = GateMask::default();
                for t in 0..TILES {
                    for asid in asids {
                        fast.gate_scan(t * tile, tile, asid, &mut gate);
                        for line in (0..LINES).map(LineAddr) {
                            for is_write in [false, true] {
                                let got = fast.probe_gated(&gate, line, is_write);
                                let want = gate.iter().find(|&m| slow.probe(m, line, is_write));
                                let case = format!(
                                    "tile size {tile}, tile {t}, asid {}, line {}, write {is_write}",
                                    asid.raw(),
                                    line.0
                                );
                                assert_eq!(got, want, "{case}");
                                assert_eq!(fast.words, slow.words, "{case}");
                                if got.is_some() {
                                    hits += 1;
                                } else {
                                    misses += 1;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(hits > 1000 && misses > 1000, "{hits} hits, {misses} misses");
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
        assert_eq!(t.invalidate(a, LineAddr(19)), Some(false));
        assert_eq!(t.indexed(one, LineAddr(19)), None);
        // A shared molecule's lines have no owner; clearing the bit
        // restores them.
        t.fill(a, LineAddr(5), false);
        t.set_shared(a, true);
        assert_eq!(entries(&t), vec![(two, LineAddr(3), b)]);
        t.fill(a, LineAddr(6), false);
        t.set_shared(a, false);
        assert_eq!(
            entries(&t),
            vec![
                (one, LineAddr(5), a),
                (one, LineAddr(6), a),
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
    fn zero_lanes_is_exact_per_lane() {
        // The classic haszero trick misreports lanes above a zero lane;
        // this formulation must not. Lane layout: [0, 1, 0, 0x8000].
        let y: u64 = 0x8000_0000_0001_0000;
        let z = zero_lanes(y);
        assert_eq!(z, 0x0000_8000_0000_8000, "exact zero lanes only");
        assert_eq!(zero_lanes(0), LANE_HI);
        assert_eq!(zero_lanes(u64::MAX), 0);
    }

    #[test]
    fn shared_count_and_select() {
        let mut t = TagStore::new(13, 4, tiles(13));
        for i in [1u32, 4, 5, 9, 12] {
            t.set_shared(MoleculeId(i), true);
        }
        assert_eq!(t.count_shared(0, 13), 5);
        assert_eq!(t.count_shared(2, 4), 2, "range [2,6): shared 4, 5");
        assert_eq!(t.count_shared(6, 3), 0);
        assert_eq!(t.nth_shared(0, 13, 0), MoleculeId(1));
        assert_eq!(t.nth_shared(0, 13, 3), MoleculeId(9));
        assert_eq!(t.nth_shared(0, 13, 4), MoleculeId(12));
        assert_eq!(t.nth_shared(2, 4, 1), MoleculeId(5));
    }

    #[test]
    #[should_panic(expected = "fewer shared molecules")]
    fn nth_shared_out_of_range_panics() {
        let mut t = TagStore::new(8, 4, tiles(8));
        t.set_shared(MoleculeId(2), true);
        t.nth_shared(0, 8, 1);
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
        let (mut t, m) = store(16);
        t.fill(m, LineAddr(2), false);
        assert!(t.probe(m, LineAddr(2), false));
        assert!(!t.probe(m, LineAddr(3), false));
        assert!(t.probe(m, LineAddr(2), true));
        // The dirty line now writes back on conflict.
        assert!(t.fill(m, LineAddr(2 + 16), false));
    }

    #[test]
    fn probe_miss_mutates_nothing() {
        let (mut t, m) = store(16);
        t.fill(m, LineAddr(2), false);
        assert!(!t.probe(m, LineAddr(2 + 16), true), "conflict tag misses");
        assert!(t.lookup(m, LineAddr(2)), "resident line untouched");
        assert!(!t.fill(m, LineAddr(2 + 32), false), "still clean: no WB");
    }

    #[test]
    fn invalidate_single_line() {
        let (mut t, m) = store(16);
        t.fill(m, LineAddr(4), true);
        assert_eq!(t.invalidate(m, LineAddr(4)), Some(true));
        assert_eq!(t.invalidate(m, LineAddr(4)), None);
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
        assert_eq!(t.invalidate(m, line), Some(true));
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
