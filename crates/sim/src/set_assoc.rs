//! The classic set-associative cache (the "Dinero" role).

use crate::config::CacheConfig;
use crate::model::{AccessOutcome, Activity, CacheModel, Request};
use crate::stats::CacheStats;

/// Bit 63 of a frame word: the frame holds a line.
const VALID: u64 = 1 << 63;
/// Bit 62 of a frame word: the line was written since its fill.
const DIRTY: u64 = 1 << 62;

/// A set-associative, write-back / write-allocate LRU cache.
///
/// Supports any power-of-two geometry. This is the baseline model for
/// every traditional-cache configuration in the paper (direct mapped
/// through 8-way, 1–8 MB).
///
/// Each frame is one word, packed as the molecular cache's tag store
/// packs its frames: bit 63 valid, bit 62 dirty, bits 0–61 the tag
/// ([`CacheConfig::new`] admits only geometries whose tags fit). Each
/// set keeps its ways in recency order, most recent first, with the
/// empty frames after the valid ones. A hit moves its word to the front;
/// a miss takes the last way — an empty frame while the set has one,
/// else the least recently used line — and fills at the front.
///
/// ```
/// use molcache_sim::{CacheConfig, SetAssocCache, Request, CacheModel};
/// use molcache_trace::{Address, Asid, AccessKind};
///
/// let mut c = SetAssocCache::new(CacheConfig::new(64 * 1024, 4, 64)?);
/// let req = Request { asid: Asid::new(1), addr: Address::new(0x1000), kind: AccessKind::Read };
/// assert!(!c.access(req).hit);   // cold miss
/// assert!(c.access(req).hit);    // now resident
/// # Ok::<(), molcache_sim::SimError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// `log2(line_size)`: an address's line is `addr >> line_shift`.
    line_shift: u32,
    /// `log2(num_sets)`: a line's tag is `line >> set_shift`.
    set_shift: u32,
    /// `num_sets - 1`: a line's set is `line & set_mask`.
    set_mask: u64,
    /// One word per frame, set by set, each set most recent first.
    frames: Vec<u64>,
    stats: CacheStats,
    activity: Activity,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// [`CacheConfig::new`] accepts only power-of-two line sizes and set
    /// counts, so the set index and tag are a shift and a mask of the
    /// address, computed here once instead of three divisions per
    /// access.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        debug_assert!(cfg.line_size().is_power_of_two() && sets.is_power_of_two());
        SetAssocCache {
            cfg,
            line_shift: cfg.line_size().trailing_zeros(),
            set_shift: sets.trailing_zeros(),
            set_mask: sets - 1,
            frames: vec![0; cfg.num_lines() as usize],
            stats: CacheStats::new(),
            activity: Activity::default(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Number of valid lines currently resident (test/diagnostic helper).
    pub fn resident_lines(&self) -> usize {
        self.frames.iter().filter(|&&w| w & VALID != 0).count()
    }

    fn index_and_tag(&self, addr: molcache_trace::Address) -> (usize, u64) {
        let line = addr.raw() >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_shift)
    }
}

impl CacheModel for SetAssocCache {
    fn access(&mut self, req: Request) -> AccessOutcome {
        const MISS_LATENCY: u32 = CacheConfig::HIT_LATENCY + CacheConfig::MISS_PENALTY;
        let (set, tag) = self.index_and_tag(req.addr);
        let assoc = self.cfg.assoc() as usize;
        self.activity.accesses += 1;
        // A traditional cache probes all ways of the indexed set in
        // parallel, every access.
        self.activity.ways_probed += assoc as u64;
        let dirty = if req.kind.is_write() { DIRTY } else { 0 };

        let ways = &mut self.frames[set * assoc..(set + 1) * assoc];
        if let Some(way) = ways.iter().position(|&w| w & !DIRTY == VALID | tag) {
            let word = ways[way] | dirty;
            ways.copy_within(..way, 1);
            ways[0] = word;
            self.stats
                .record(req.asid, true, false, CacheConfig::HIT_LATENCY);
            return AccessOutcome::hit(CacheConfig::HIT_LATENCY);
        }

        // Miss: the last way is an empty frame or the LRU line.
        let writeback = ways[assoc - 1] & (VALID | DIRTY) == VALID | DIRTY;
        ways.copy_within(..assoc - 1, 1);
        ways[0] = VALID | dirty | tag;
        self.activity.line_fills += 1;
        if writeback {
            self.activity.writebacks += 1;
        }
        self.stats.record(req.asid, false, writeback, MISS_LATENCY);
        AccessOutcome::miss(MISS_LATENCY, writeback)
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn activity(&self) -> Activity {
        self.activity
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
        self.activity = Activity::default();
    }

    fn describe(&self) -> String {
        format!("{} LRU", self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molcache_trace::{AccessKind, Address, Asid};
    use proptest::prelude::*;

    /// The stamp-and-clock LRU the frame words replaced, kept as the
    /// reference: every fill or hit stamps its frame with the next tick
    /// of one cache-wide clock, and a miss takes the set's smallest stamp
    /// (a never-filled frame's 0 first).
    struct StampLru {
        cfg: CacheConfig,
        /// `(tag, stamp, dirty)` per frame, set by set.
        lines: Vec<(u64, u64, bool)>,
        clock: u64,
        stats: CacheStats,
        activity: Activity,
    }

    impl StampLru {
        fn new(cfg: CacheConfig) -> Self {
            StampLru {
                cfg,
                lines: vec![(0, 0, false); cfg.num_lines() as usize],
                clock: 0,
                stats: CacheStats::new(),
                activity: Activity::default(),
            }
        }

        fn access(&mut self, req: Request) -> AccessOutcome {
            const MISS_LATENCY: u32 = CacheConfig::HIT_LATENCY + CacheConfig::MISS_PENALTY;
            let line = req.addr.raw() / self.cfg.line_size();
            let (set, tag) = (
                (line % self.cfg.num_sets()) as usize,
                line / self.cfg.num_sets(),
            );
            let assoc = self.cfg.assoc() as usize;
            self.activity.accesses += 1;
            self.activity.ways_probed += assoc as u64;
            self.clock += 1;
            let write = req.kind.is_write();
            let slots = &mut self.lines[set * assoc..(set + 1) * assoc];
            if let Some(slot) = slots.iter_mut().find(|l| l.1 != 0 && l.0 == tag) {
                slot.1 = self.clock;
                slot.2 |= write;
                self.stats
                    .record(req.asid, true, false, CacheConfig::HIT_LATENCY);
                return AccessOutcome::hit(CacheConfig::HIT_LATENCY);
            }
            let slot = slots.iter_mut().min_by_key(|l| l.1).expect("one way");
            let writeback = slot.1 != 0 && slot.2;
            *slot = (tag, self.clock, write);
            self.activity.line_fills += 1;
            if writeback {
                self.activity.writebacks += 1;
            }
            self.stats.record(req.asid, false, writeback, MISS_LATENCY);
            AccessOutcome::miss(MISS_LATENCY, writeback)
        }

        fn resident_lines(&self) -> usize {
            self.lines.iter().filter(|l| l.1 != 0).count()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The recency-ordered frame words and the stamp-and-clock model
        /// agree on every outcome and on the final counters and contents,
        /// over random geometries of 1–64 sets and 1–16 ways that
        /// `CacheConfig::new` builds (it builds only power-of-two ways).
        #[test]
        fn lru_oracle_property(
            assoc_log in 0u32..5,
            line_log in 2u32..8,
            pick in 0usize..64,
            trace in proptest::collection::vec(
                (0u64..256, 0u64..4, 1u16..4, proptest::bool::ANY),
                1..3_000,
            ),
        ) {
            let assoc = 1u32 << assoc_log;
            let line = 1u64 << line_log;
            let geometries: Vec<CacheConfig> = (0..24)
                .filter_map(|k| CacheConfig::new(1 << k, assoc, line).ok())
                .filter(|c| c.num_sets() <= 64)
                .collect();
            prop_assert!(!geometries.is_empty(), "{assoc} ways of {line} B");
            let cfg = geometries[pick % geometries.len()];
            let mut words = SetAssocCache::new(cfg);
            let mut stamps = StampLru::new(cfg);
            // Few distinct lines per set, so sets fill, hit and evict; the
            // top two address bits set on some lines reach the tag's top.
            let span = cfg.num_sets() * u64::from(assoc) * 2;
            for (i, &(line_no, top, asid, write)) in trace.iter().enumerate() {
                let addr = ((line_no % span) * line + line_no % line) | (top << 62);
                let req = Request {
                    asid: Asid::new(asid),
                    addr: Address::new(addr),
                    kind: if write { AccessKind::Write } else { AccessKind::Read },
                };
                prop_assert_eq!(words.access(req), stamps.access(req), "access {} of {}", i, cfg);
            }
            prop_assert_eq!(words.stats(), &stamps.stats);
            prop_assert_eq!(words.activity(), stamps.activity);
            prop_assert_eq!(words.resident_lines(), stamps.resident_lines());
        }
    }

    fn read(addr: u64) -> Request {
        Request {
            asid: Asid::new(1),
            addr: Address::new(addr),
            kind: AccessKind::Read,
        }
    }

    fn write(addr: u64) -> Request {
        Request {
            asid: Asid::new(1),
            addr: Address::new(addr),
            kind: AccessKind::Write,
        }
    }

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B.
        SetAssocCache::new(CacheConfig::new(512, 2, 64).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(read(0)).hit);
        assert!(c.access(read(0)).hit);
        assert!(c.access(read(63)).hit, "same line, different offset");
        assert!(!c.access(read(64)).hit, "next line misses");
    }

    #[test]
    fn conflict_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets); assoc 2.
        assert!(!c.access(read(0)).hit);
        assert!(!c.access(read(4 * 64)).hit);
        assert!(!c.access(read(8 * 64)).hit); // evicts line 0 (LRU)
        assert!(!c.access(read(0)).hit, "line 0 was evicted");
        assert!(c.access(read(8 * 64)).hit, "line 8 still resident");
    }

    #[test]
    fn lru_order_respected() {
        let mut c = tiny();
        c.access(read(0));
        c.access(read(4 * 64));
        c.access(read(0)); // 0 is MRU; 4*64 is LRU
        c.access(read(8 * 64)); // evicts 4*64
        assert!(c.access(read(0)).hit);
        assert!(!c.access(read(4 * 64)).hit);
    }

    #[test]
    fn writeback_on_dirty_eviction() {
        let mut c = tiny();
        assert!(!c.access(write(0)).hit);
        c.access(read(4 * 64));
        let out = c.access(read(8 * 64)); // evicts dirty line 0
        assert!(out.writeback);
        assert_eq!(c.stats().global.writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(read(0));
        c.access(read(4 * 64));
        let out = c.access(read(8 * 64));
        assert!(!out.writeback);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(read(0));
        c.access(write(0)); // hit, marks dirty
        c.access(read(4 * 64));
        let out = c.access(read(8 * 64)); // evicts line 0, now dirty
        assert!(out.writeback);
    }

    #[test]
    fn stats_track_per_app() {
        let mut c = tiny();
        let r1 = Request {
            asid: Asid::new(1),
            addr: Address::new(0),
            kind: AccessKind::Read,
        };
        let r2 = Request {
            asid: Asid::new(2),
            addr: Address::new(1 << 30),
            kind: AccessKind::Read,
        };
        c.access(r1);
        c.access(r1);
        c.access(r2);
        assert_eq!(c.stats().app(Asid::new(1)).hits, 1);
        assert_eq!(c.stats().app(Asid::new(2)).misses, 1);
    }

    #[test]
    fn activity_counts_ways() {
        let mut c = tiny();
        c.access(read(0));
        c.access(read(0));
        let a = c.activity();
        assert_eq!(a.accesses, 2);
        assert_eq!(a.ways_probed, 4); // 2 accesses x 2 ways
        assert_eq!(a.line_fills, 1);
    }

    #[test]
    fn reset_stats_clears_counters_not_contents() {
        let mut c = tiny();
        c.access(read(0));
        c.reset_stats();
        assert_eq!(c.stats().global.accesses, 0);
        assert_eq!(c.activity().accesses, 0);
        // Cache contents are preserved.
        assert!(c.access(read(0)).hit);
    }

    #[test]
    fn describe_mentions_geometry_and_policy() {
        let c = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap());
        assert_eq!(c.describe(), "1MB 4way 64B-line LRU");
    }

    #[test]
    fn direct_mapped_conflicts() {
        let mut c = SetAssocCache::new(CacheConfig::new(256, 1, 64).unwrap());
        // 4 sets; lines 0 and 4 collide.
        c.access(read(0));
        assert!(!c.access(read(4 * 64)).hit);
        assert!(!c.access(read(0)).hit, "DM cache must have evicted line 0");
    }

    #[test]
    fn full_working_set_fits() {
        let mut c = tiny();
        for i in 0..8u64 {
            c.access(read(i * 64));
        }
        assert_eq!(c.resident_lines(), 8);
        for i in 0..8u64 {
            assert!(c.access(read(i * 64)).hit, "line {i} should be resident");
        }
    }
}
