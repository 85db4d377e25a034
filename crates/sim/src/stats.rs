//! Hit/miss statistics, global and per application.

use molcache_trace::Asid;
use std::iter::Zip;
use std::slice;

/// Counters for one application (or for the whole cache).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AppStats {
    /// References observed.
    pub accesses: u64,
    /// References that hit.
    pub hits: u64,
    /// References that missed.
    pub misses: u64,
    /// Dirty evictions caused.
    pub writebacks: u64,
    /// Latency accumulated across all references (cycles).
    pub total_latency: u64,
}

impl AppStats {
    /// Miss rate (`0.0` when no accesses were observed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Hit rate (`0.0` when no accesses were observed).
    pub fn hit_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses as f64
        }
    }

    /// Average latency per access in cycles (`0.0` when empty).
    pub fn avg_latency(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.total_latency as f64 / self.accesses as f64
        }
    }

    /// Merges another counter set into this one.
    pub fn merge(&mut self, other: &AppStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.writebacks += other.writebacks;
        self.total_latency += other.total_latency;
    }

    fn subtract(&mut self, earlier: &AppStats) {
        self.accesses -= earlier.accesses;
        self.hits -= earlier.hits;
        self.misses -= earlier.misses;
        self.writebacks -= earlier.writebacks;
        self.total_latency -= earlier.total_latency;
    }

    fn record(&mut self, hit: bool, writeback: bool, latency: u32) {
        self.accesses += 1;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        if writeback {
            self.writebacks += 1;
        }
        self.total_latency += u64::from(latency);
    }
}

/// Per-application values (by default [`AppStats`] counters), iterated
/// in ascending ASID order.
///
/// The access path books every reference here, so a lookup is one index
/// into a dense ASID-to-slot map instead of a tree walk; only an ASID's
/// first access takes the insert path. The values themselves sit in
/// compact slots in ASID order, so iteration and every printed report
/// stay deterministic, and a clone (taken at every epoch close and
/// before every driven run) copies the slots plus a `u16` per ASID up to
/// the highest seen: at most 128 KB, and that only when a tenant holds
/// ASID 65535.
#[derive(Debug, Clone, Default)]
pub struct AppTable<V = AppStats> {
    /// The ASIDs seen, ascending.
    asids: Vec<Asid>,
    /// `stats[i]` belongs to `asids[i]`.
    stats: Vec<V>,
    /// `slot[raw]` is the position of ASID `raw` when `asids` holds it
    /// there. Entries of unseen ASIDs read 0, so a lookup checks the
    /// ASID at the slot before trusting it.
    slot: Vec<u16>,
}

impl<V> AppTable<V> {
    /// The value of `asid`, if it was seen.
    pub fn get(&self, asid: &Asid) -> Option<&V> {
        self.position(*asid).map(|i| &self.stats[i])
    }

    /// Mutable access to the value of `asid`, if it was seen.
    pub fn get_mut(&mut self, asid: &Asid) -> Option<&mut V> {
        self.position(*asid).map(|i| &mut self.stats[i])
    }

    /// Number of applications seen.
    pub fn len(&self) -> usize {
        self.asids.len()
    }

    /// Whether no application was seen.
    pub fn is_empty(&self) -> bool {
        self.asids.is_empty()
    }

    /// `(asid, value)` pairs in ascending ASID order.
    pub fn iter(&self) -> Zip<slice::Iter<'_, Asid>, slice::Iter<'_, V>> {
        self.asids.iter().zip(&self.stats)
    }

    /// The values in ascending ASID order.
    pub fn values(&self) -> slice::Iter<'_, V> {
        self.stats.iter()
    }

    fn position(&self, asid: Asid) -> Option<usize> {
        let i = usize::from(*self.slot.get(usize::from(asid.raw()))?);
        (self.asids.get(i) == Some(&asid)).then_some(i)
    }
}

impl<V: Default> AppTable<V> {
    /// The value of `asid`, inserted as `V::default()` on its first
    /// access.
    pub fn entry(&mut self, asid: Asid) -> &mut V {
        let i = match self.position(asid) {
            Some(i) => i,
            None => self.insert(asid),
        };
        &mut self.stats[i]
    }

    #[cold]
    fn insert(&mut self, asid: Asid) -> usize {
        let at = self.asids.partition_point(|&a| a < asid);
        self.asids.insert(at, asid);
        self.stats.insert(at, V::default());
        let raw = usize::from(asid.raw());
        if self.slot.len() <= raw {
            self.slot.resize(raw + 1, 0);
        }
        for (i, a) in self.asids.iter().enumerate().skip(at) {
            // A u16 ASID space holds at most 65,536 slots, 0..=u16::MAX.
            self.slot[usize::from(a.raw())] = u16::try_from(i).expect("one slot per u16 ASID");
        }
        at
    }
}

impl<V: PartialEq> PartialEq for AppTable<V> {
    /// Equal when both hold the same ASIDs with the same values.
    fn eq(&self, other: &Self) -> bool {
        self.asids == other.asids && self.stats == other.stats
    }
}

impl<V: Eq> Eq for AppTable<V> {}

impl<'a, V> IntoIterator for &'a AppTable<V> {
    type Item = (&'a Asid, &'a V);
    type IntoIter = Zip<slice::Iter<'a, Asid>, slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Cache-wide statistics with per-application breakdown.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Whole-cache counters.
    pub global: AppStats,
    /// Per-application counters, in ascending ASID order.
    pub per_app: AppTable,
}

impl CacheStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        CacheStats::default()
    }

    /// Records one access outcome for `asid` with its service latency.
    pub fn record(&mut self, asid: Asid, hit: bool, writeback: bool, latency: u32) {
        self.global.record(hit, writeback, latency);
        self.per_app.entry(asid).record(hit, writeback, latency);
    }

    /// Returns the stats of one application (zeroes if never seen).
    pub fn app(&self, asid: Asid) -> AppStats {
        self.per_app.get(&asid).copied().unwrap_or_default()
    }

    /// Clears all counters.
    pub fn reset(&mut self) {
        *self = CacheStats::default();
    }

    /// Sums a snapshot taken earlier out of these stats, yielding the
    /// delta accumulated since `earlier`.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        let mut delta = self.clone();
        delta.global.subtract(&earlier.global);
        for (asid, prev) in &earlier.per_app {
            if let Some(i) = delta.per_app.position(*asid) {
                delta.per_app.stats[i].subtract(prev);
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn record_updates_global_and_app() {
        let mut s = CacheStats::new();
        s.record(Asid::new(1), true, false, 10);
        s.record(Asid::new(1), false, true, 110);
        s.record(Asid::new(2), false, false, 110);
        assert_eq!(s.global.accesses, 3);
        assert_eq!(s.global.misses, 2);
        assert_eq!(s.global.writebacks, 1);
        assert_eq!(s.global.total_latency, 230);
        assert_eq!(s.app(Asid::new(1)).hits, 1);
        assert_eq!(s.app(Asid::new(1)).total_latency, 120);
        assert_eq!(s.app(Asid::new(2)).misses, 1);
        assert_eq!(s.app(Asid::new(3)), AppStats::default());
    }

    #[test]
    fn miss_rate_handles_zero() {
        assert_eq!(AppStats::default().miss_rate(), 0.0);
        assert_eq!(AppStats::default().hit_rate(), 0.0);
        assert_eq!(AppStats::default().avg_latency(), 0.0);
        let mut s = AppStats::default();
        s.record(false, false, 100);
        s.record(true, false, 10);
        assert!((s.miss_rate() - 0.5).abs() < 1e-12);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.avg_latency() - 55.0).abs() < 1e-12);
    }

    #[test]
    fn since_computes_delta() {
        let mut s = CacheStats::new();
        s.record(Asid::new(1), false, false, 100);
        let snapshot = s.clone();
        s.record(Asid::new(1), true, false, 10);
        s.record(Asid::new(1), true, false, 10);
        let delta = s.since(&snapshot);
        assert_eq!(delta.global.accesses, 2);
        assert_eq!(delta.global.total_latency, 20);
        assert_eq!(delta.app(Asid::new(1)).hits, 2);
        assert_eq!(delta.app(Asid::new(1)).misses, 0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = AppStats {
            accesses: 1,
            hits: 1,
            misses: 0,
            writebacks: 0,
            total_latency: 10,
        };
        let b = AppStats {
            accesses: 3,
            hits: 1,
            misses: 2,
            writebacks: 1,
            total_latency: 230,
        };
        a.merge(&b);
        assert_eq!(a.accesses, 4);
        assert_eq!(a.misses, 2);
        assert_eq!(a.writebacks, 1);
        assert_eq!(a.total_latency, 240);
    }

    #[test]
    fn reset_clears() {
        let mut s = CacheStats::new();
        s.record(Asid::new(1), true, false, 10);
        s.reset();
        assert_eq!(s, CacheStats::default());
    }

    #[test]
    fn highest_asid_books_and_iterates_in_order() {
        let mut s = CacheStats::new();
        for raw in [65_535, 1, 300, 65_535, 0, 2] {
            s.record(Asid::new(raw), raw % 2 == 0, false, 10);
        }
        let order: Vec<u16> = s.per_app.iter().map(|(a, _)| a.raw()).collect();
        assert_eq!(order, [0, 1, 2, 300, 65_535]);
        assert_eq!(s.app(Asid::new(65_535)).accesses, 2);
        assert_eq!(s.app(Asid::new(65_535)).misses, 2);
        assert_eq!(s.per_app.get(&Asid::new(0)).unwrap().hits, 1);
        assert_eq!(s.per_app.get(&Asid::new(65_534)), None);
        assert_eq!(s.per_app.len(), 5);
        // The slot map spans the highest ASID seen and no more: a u16
        // per ASID, 128 KB for ASID 65535.
        assert_eq!(s.per_app.slot.len(), 65_536);
        let snapshot = s.clone();
        assert_eq!(snapshot, s);
        s.record(Asid::new(65_535), true, true, 5);
        let delta = s.since(&snapshot);
        assert_eq!(delta.app(Asid::new(65_535)).hits, 1);
        assert_eq!(delta.app(Asid::new(65_535)).writebacks, 1);
        assert_eq!(delta.app(Asid::new(1)), AppStats::default());
        assert_eq!(delta.per_app.len(), 5, "a window keeps every ASID seen");
    }

    #[test]
    fn every_u16_asid_gets_its_own_slot() {
        let mut s = CacheStats::new();
        for raw in 0..=u16::MAX {
            s.record(Asid::new(raw), true, false, 1);
        }
        for raw in (0..=u16::MAX).rev() {
            s.record(Asid::new(raw), false, false, 1);
        }
        assert_eq!(s.per_app.len(), 65_536);
        assert!(s.per_app.values().all(|a| a.hits == 1 && a.misses == 1));
        assert!(s.per_app.iter().map(|(a, _)| a.raw()).eq(0..=u16::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The table books, iterates and subtracts exactly as the ordered
        /// map it replaced, over small and high ASIDs alike.
        #[test]
        fn table_matches_an_ordered_map(
            accesses in proptest::collection::vec(
                (0u16..12, proptest::bool::ANY, proptest::bool::ANY, 0u32..300),
                0..200,
            ),
            cut in 0usize..200,
        ) {
            let mut s = CacheStats::new();
            let mut reference: BTreeMap<Asid, AppStats> = BTreeMap::new();
            let mut snapshot = (s.clone(), reference.clone());
            for (i, &(pick, hit, wb, latency)) in accesses.iter().enumerate() {
                if i == cut {
                    snapshot = (s.clone(), reference.clone());
                }
                // Half the picks land in the high ASIDs.
                let asid = Asid::new(if pick < 6 { pick } else { u16::MAX - pick });
                s.record(asid, hit, wb, latency);
                reference.entry(asid).or_default().record(hit, wb, latency);
            }
            let got: Vec<(Asid, AppStats)> = s.per_app.iter().map(|(a, v)| (*a, *v)).collect();
            let want: Vec<(Asid, AppStats)> = reference.iter().map(|(a, v)| (*a, *v)).collect();
            prop_assert_eq!(&got, &want);
            for raw in [0, 5, 6, u16::MAX - 11, u16::MAX - 6, u16::MAX] {
                let asid = Asid::new(raw);
                prop_assert_eq!(s.per_app.get(&asid), reference.get(&asid));
            }
            let delta = s.since(&snapshot.0);
            for (asid, stats) in &reference {
                let mut d = *stats;
                if let Some(prev) = snapshot.1.get(asid) {
                    d.subtract(prev);
                }
                prop_assert_eq!(delta.app(*asid), d);
            }
            prop_assert_eq!(delta.per_app.len(), reference.len());
        }
    }
}
