//! Stage 0 — the exact line-index front-end.
//!
//! The paper's access path pays an ASID gate over the whole home tile,
//! a tag probe per gated molecule and, on a home miss, Ulmo's gate and
//! probe of every remote tile the region spans (§3.1–§3.3; see
//! [`scan`](crate::pipeline::scan)). The simulator has to report what
//! that scan costs, but it does not have to perform it to learn where a
//! line is: a region holds each line in at most one member molecule
//! (see [`fill`](crate::pipeline::fill)), so an exact (owner ASID,
//! line) → molecule directory names the molecule the ordered scan would
//! stop at. This is the exact form of way memoization (Ishihara &
//! Fallah); a bounded memo of recent hits is its lossy form.
//!
//! The directory is a `LineIndex` that the [`TagStore`] keeps current
//! wherever a frame word or a molecule's owner changes (fill,
//! whole-molecule flush and reconfiguration), so no structural event has
//! to invalidate it: it holds every valid frame of every owned molecule,
//! under its owner, and nothing else. It is sized once, by the cache's
//! frames: a bucket of chain heads per frame and a chain link per frame,
//! so a miss's upkeep (unlink the evicted frame, push the filled one) is
//! a few word writes and never a rehash.
//!
//! **The bit-identity contract.** An indexed access must charge exactly
//! what the ordered scan charges. The index names the hit molecule, its
//! tile names the lookup slot the scan would have stopped at (the home
//! tile, then Ulmo's search tiles in list order), and a miss runs every
//! slot. Per slot up to and including that one the access is charged the
//! tile's ASID compares and the tag probes of the molecules its gate
//! passes; a visited remote slot launches Ulmo (its penalty and one
//! `ulmo_searches`). A tile's gate passes exactly the region's members on
//! it, so the probe counts are per-slot member counts, summed per
//! structural generation (`crate::search_list`). An [`Asid::NONE`] region
//! owns nothing the index or a gate can see: its counts are 0 and its
//! lookups always miss, as the scan's do. The tests compare every access
//! with [`MolecularCache::reference_lookup`], the ordered scan kept as a
//! read-only oracle.
//!
//! The front-end's counters are reported out-of-band ([`MemoStats`],
//! `molstat --memo`, perfbench's `core.memo_*` metrics) and never enter
//! the canonical telemetry export.
//!
//! [`TagStore`]: crate::tags::TagStore

use crate::cache::MolecularCache;
use crate::config::ULMO_PENALTY;
use crate::ids::MoleculeId;
use molcache_sim::StageBreakdown;
use molcache_trace::{Asid, LineAddr};

/// Lifetime counters of the line-index front-end, for `molstat --memo`
/// and perfbench's `core.memo_*` metrics.
///
/// Produced by `MolecularCache::memo_stats`. These counters are
/// diagnostics only: they are deliberately kept out of the canonical
/// telemetry JSON export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Index lookups resolved to the region member holding the line.
    pub hits: u64,
    /// Index lookups resolved absent (the access misses).
    pub misses: u64,
    /// Always 0: the index is exact, so no lookup ever finds an entry
    /// that no longer holds its line. Kept so that readers of the
    /// bounded memo's counters still compile.
    pub stale: u64,
    /// Structural changes since the last statistics reset. They do not
    /// touch the index; they rebuild the regions' cached search lists
    /// and probe counts.
    pub generation_bumps: u64,
    /// The cache's current structure generation.
    pub generation: u64,
    /// Buckets of the index: one per cache frame, rounded up to a power
    /// of two.
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

/// The exact (owner ASID, line) → frame directory: a fixed array of
/// chain heads, one bucket per cache frame rounded up to a power of two,
/// and one `next` link per cache-global frame
/// (`molecule << frame_shift | frame`). Chains are singly linked, and a
/// link or head stores `frame + 1`, so 0 ends a chain and both arrays
/// start as zeroed pages that stay unresident until used.
///
/// The key is not stored, because the tag store already holds it: the
/// frame's tag gives the line and its molecule's ASID lane the owner.
/// The lookup takes the tag store's check as a closure, and the upkeep
/// never reads another entry's key: an insert pushes the frame at its
/// bucket's head, and a removal walks the bucket's chain comparing frame
/// numbers and unlinks it. An entry must leave the index before
/// its frame word or ASID lane changes, because its bucket is a hash of
/// that key. The table never grows or rehashes; it costs eight bytes per
/// cache frame, whether or not the frame holds a line.
#[derive(Debug, Clone)]
pub(crate) struct LineIndex {
    /// `heads[b]`: `frame + 1` of the first frame of bucket `b`'s chain.
    heads: Vec<u32>,
    /// `next[g]`: `frame + 1` of the frame after `g` on its chain.
    next: Vec<u32>,
    /// `64 - log2(buckets)`: a key's bucket is the top bits of its
    /// multiplicative hash.
    shift: u32,
}

impl LineIndex {
    /// An empty index over `frames` cache-global frames, with one bucket
    /// per frame rounded up to a power of two (at least two).
    pub(crate) fn new(frames: usize) -> Self {
        let buckets = frames.next_power_of_two().max(2);
        LineIndex {
            heads: vec![0; buckets],
            next: vec![0; frames],
            shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// Number of buckets.
    pub(crate) fn buckets(&self) -> usize {
        self.heads.len()
    }

    /// The bucket of a key: Fibonacci hashing of the line with the ASID
    /// folded into its top bits, so consecutive and power-of-two strided
    /// lines scatter over the whole table.
    #[inline]
    fn bucket(&self, (asid, line): (u16, u64)) -> usize {
        ((line ^ (u64::from(asid) << 48)).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift)
            as usize
    }

    /// The first frame on `key`'s chain that `holds` accepts, if any.
    /// `holds` sees every frame of the chain until one is accepted.
    #[inline]
    pub(crate) fn find(&self, key: (u16, u64), mut holds: impl FnMut(u32) -> bool) -> Option<u32> {
        let mut link = self.heads[self.bucket(key)];
        while link != 0 {
            let frame = link - 1;
            if holds(frame) {
                return Some(frame);
            }
            link = self.next[frame as usize];
        }
        None
    }

    /// Indexes `frame` under `key`; the frame must not be indexed.
    #[inline]
    pub(crate) fn insert(&mut self, key: (u16, u64), frame: u32) {
        let b = self.bucket(key);
        self.next[frame as usize] = self.heads[b];
        self.heads[b] = frame + 1;
    }

    /// Unlinks `frame`, indexed under `key`, from its bucket's chain.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is not on the chain.
    #[inline]
    pub(crate) fn remove(&mut self, key: (u16, u64), frame: u32) {
        let b = self.bucket(key);
        let after = self.next[frame as usize];
        let mut link = &mut self.heads[b];
        while *link != frame + 1 {
            assert!(*link != 0, "frame {frame} is not indexed under its key");
            let prev = *link as usize - 1;
            link = &mut self.next[prev];
        }
        *link = after;
    }

    /// Every indexed frame, bucket by bucket (diagnostics).
    pub(crate) fn frames(&self) -> impl Iterator<Item = u32> + '_ {
        self.heads.iter().flat_map(move |&head| {
            let mut link = head;
            std::iter::from_fn(move || {
                let frame = link.checked_sub(1)?;
                link = self.next[frame as usize];
                Some(frame)
            })
        })
    }
}

/// The front-end's lifetime counters.
#[derive(Debug, Clone)]
pub(crate) struct MemoFront {
    hits: u64,
    misses: u64,
    /// The structure generation at the last counter reset, from which
    /// [`MemoStats::generation_bumps`] is derived.
    generation_base: u64,
}

impl MemoFront {
    /// Zeroed counters for a cache at structure generation `generation`.
    pub(crate) fn new(generation: u64) -> Self {
        MemoFront {
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
    /// The front-end's lifetime counters. Always `Some`; the return type
    /// stays an `Option` for callers outside this workspace that unwrap
    /// it.
    pub fn memo_stats(&self) -> Option<MemoStats> {
        let generation = self.structure_generation;
        Some(MemoStats {
            hits: self.memo.hits,
            misses: self.memo.misses,
            stale: 0,
            generation_bumps: generation - self.memo.generation_base,
            generation,
            slots: self.tags.index_buckets(),
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
    /// every owned molecule under its owner. A line held by two molecules
    /// of one owner appears twice, which no index can match.
    pub fn reference_line_index(&self) -> Vec<(Asid, LineAddr, MoleculeId)> {
        let mut entries = Vec::new();
        for m in (0..self.cfg.total_molecules()).map(|i| MoleculeId(i as u32)) {
            let asid = self.tags.asid_of(m);
            if asid != Asid::NONE {
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
    /// The region's lookup cache must be current
    /// ([`refresh_lookup_cache`](Self::refresh_lookup_cache)).
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
        index.find(key, |g| key_of(g) == key)
    }

    #[test]
    fn empty_table_misses() {
        let index = LineIndex::new(16);
        assert_eq!(lookup(&index, (1, 5)), None);
        assert_eq!(index.frames().count(), 0);
        assert_eq!(index.buckets(), 16);
        assert_eq!(LineIndex::new(1).buckets(), 2, "at least two buckets");
        assert_eq!(LineIndex::new(1000).buckets(), 1024, "rounded up");
    }

    #[test]
    fn insert_then_lookup_round_trips() {
        let mut index = LineIndex::new(16);
        index.insert(key_of(7), 7);
        assert_eq!(lookup(&index, key_of(7)), Some(7));
        // Same line, different ASID: distinct key.
        let (asid, line) = key_of(7);
        assert_eq!(lookup(&index, (asid + 1, line)), None);
        assert_eq!(index.frames().collect::<Vec<_>>(), vec![7]);
        index.remove(key_of(7), 7);
        assert_eq!(lookup(&index, key_of(7)), None);
        assert_eq!(index.frames().count(), 0);
    }

    #[test]
    fn remove_keeps_every_other_key_reachable() {
        // 64 frames, but every key is filed under one of four buckets of
        // the table (its frame's bucket `g % 4`), so each chain is 16
        // frames long. Removals in an order unrelated to insertion unlink
        // heads, middles and tails; each must leave the removed key
        // unfindable and every other key findable, which a lost
        // predecessor link or a dropped chain breaks.
        let n = 64u32;
        let mut index = LineIndex::new(n as usize);
        let bucket_key = |g: u32| (0, u64::from(g % 4));
        let find = |index: &LineIndex, g: u32| index.find(bucket_key(g), |f| f == g);
        for g in 0..n {
            index.insert(bucket_key(g), g);
        }
        let chain = |index: &LineIndex, b: u32| {
            let mut frames = Vec::new();
            index.find(bucket_key(b), |f| {
                frames.push(f);
                false
            });
            frames
        };
        // Pushed at the head: each chain lists its frames newest first.
        assert_eq!(
            chain(&index, 1),
            (0..16).rev().map(|i| i * 4 + 1).collect::<Vec<_>>()
        );
        let (mut heads, mut tails, mut middles) = (0, 0, 0);
        let order: Vec<u32> = (0..n).map(|i| i * 37 % n).collect();
        for (k, &g) in order.iter().enumerate() {
            let before = chain(&index, g);
            match before.iter().position(|&f| f == g) {
                Some(0) => heads += 1,
                Some(p) if p + 1 == before.len() => tails += 1,
                Some(_) => middles += 1,
                None => panic!("key {g} lost before its removal"),
            }
            index.remove(bucket_key(g), g);
            let want: Vec<u32> = before.into_iter().filter(|&f| f != g).collect();
            assert_eq!(chain(&index, g), want, "removing {g}");
            assert_eq!(find(&index, g), None, "removed key {g} found");
            for &h in &order[k + 1..] {
                assert_eq!(find(&index, h), Some(h), "key {h} lost");
            }
        }
        assert!(
            heads > 0 && middles > 0 && tails > 0,
            "{heads} {middles} {tails}"
        );
        assert_eq!(index.frames().count(), 0);
        // A fresh insert after every removal starts a clean chain.
        index.insert(key_of(3), 3);
        assert_eq!(lookup(&index, key_of(3)), Some(3));
    }

    #[test]
    #[should_panic(expected = "not indexed")]
    fn removing_an_unindexed_frame_panics() {
        let mut index = LineIndex::new(8);
        index.insert(key_of(1), 1);
        index.remove(key_of(2), 2);
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
        // Power-of-two strides must not alias onto a handful of buckets,
        // or the chains degrade into a scan: for every stride from one
        // line to 64 K lines, 1,024 keys of one owner land in more than
        // two fifths of 1,024 buckets, and no chain is longer than four.
        let index = LineIndex::new(1024);
        for stride in (0..17).map(|s| 1u64 << s) {
            let mut load = vec![0u32; index.buckets()];
            for i in 0..1024u64 {
                load[index.bucket((1, i * stride))] += 1;
            }
            let used = load.iter().filter(|&&n| n > 0).count();
            let longest = load.iter().copied().max().unwrap();
            assert!(
                used * 5 > index.buckets() * 2 && longest <= 4,
                "stride {stride}: {used} buckets, longest chain {longest}"
            );
        }
    }
}
