//! Tenant lifecycle operations: the OS-facing region management calls
//! a multi-tenant server drives (`molcache-serve`'s `admit` / `resize` /
//! `evict` / `revoke` map onto these).
//!
//! Every operation that changes region structure routes through the
//! same paths Algorithm-1 resizing uses — [`grant_molecules`] for growth
//! and [`shrink_region`] for withdrawal — so the structure generation the
//! regions' cached lookup state is stamped with is bumped on exactly the
//! same events regardless of whether a change was goal-driven or
//! lifecycle-driven, and every line a call flushes leaves the line index
//! in the tag store. A serving layer can therefore never be served a
//! line its tenant no longer holds across a lifecycle call (the
//! `lifecycle_memo` integration test pins this down).
//!
//! [`grant_molecules`]: MolecularCache::grant_molecules
//! [`shrink_region`]: MolecularCache::shrink_region

use crate::cache::MolecularCache;
use molcache_trace::Asid;

// The serve layer shards caches across OS threads behind per-shard
// locks, which is only sound if the cache itself can cross threads.
// (`SinkHandle` holds `Arc<Mutex<dyn Sink + Send>>`, everything else is
// plain owned data.) Keep the guarantee pinned at compile time next to
// the API that relies on it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<MolecularCache>();
};

impl MolecularCache {
    /// Admits an application: creates its region (cluster and home-tile
    /// assignment plus the initial molecule grant — "Ground Zero",
    /// §3.4) without waiting for its first access. Returns `false` if
    /// the application already had a region (the call is then a no-op).
    ///
    /// Equivalent to the region creation the first access performs, so
    /// admitting ahead of traffic changes no statistics.
    pub fn admit_app(&mut self, asid: Asid) -> bool {
        if self.regions.contains_key(&asid) {
            return false;
        }
        self.create_region(asid);
        true
    }

    /// Whether `asid` currently owns a region.
    pub fn has_region(&self, asid: Asid) -> bool {
        self.regions.contains_key(&asid)
    }

    /// Current molecule count of `asid`'s region, if it has one.
    pub fn region_size(&self, asid: Asid) -> Option<usize> {
        self.regions.get(&asid).map(|r| r.size())
    }

    /// Evicts an application's cached data in place: every member
    /// molecule is flushed (dirty frames counted as writebacks) but the
    /// region keeps its molecules, home tile and goal. Returns the
    /// number of dirty frames written back, or `None` if the
    /// application has no region.
    ///
    /// This is the lifecycle `evict` — a tenant's data must leave the
    /// cache (security domain change, checkpoint) while its capacity
    /// reservation stays.
    pub fn flush_region(&mut self, asid: Asid) -> Option<u64> {
        if !self.regions.contains_key(&asid) {
            return None;
        }
        // Flushing invalidates every resident line: the cached gate
        // masks and probe counts of every region must be rebuilt.
        self.note_structural_change();
        // Disjoint field borrows: membership is read from the region
        // while molecule counters and tags mutate — no collected id
        // list. Reconfiguring to the same owner is a flush in place.
        let region = &self.regions[&asid];
        let misses = &mut self.replacement_misses;
        let tags = &mut self.tags;
        let mut flushed = 0;
        for id in region.molecules() {
            misses[id.index()] = 0;
            flushed += tags.configure(id, asid);
        }
        self.counters.writebacks += flushed;
        Some(flushed)
    }

    /// Resizes an application's region toward `target` molecules:
    /// growth takes free molecules through the same grant path
    /// Algorithm 1 uses; shrinking withdraws the coldest members
    /// through `shrink_region`. The free pool
    /// may satisfy growth only partially. Returns the region's size
    /// after the call, or `None` if the application has no region.
    ///
    /// A `target` of 0 is clamped to 1 — destroying a region is
    /// [`release_region`](Self::release_region)'s job, and a shrink
    /// that silently released would leave the caller holding a dead
    /// handle.
    pub fn set_region_size(&mut self, asid: Asid, target: usize) -> Option<usize> {
        let current = self.regions.get(&asid)?.size();
        let target = target.max(1);
        if target > current {
            let mut region = self.regions.remove(&asid).expect("checked above");
            let granted = self.grant_molecules(&mut region, target - current);
            region.note_allocation(granted.max(1));
            self.regions.insert(asid, region);
        } else if target < current {
            self.shrink_region(asid, current - target);
        }
        Some(self.regions[&asid].size())
    }

    /// Withdraws up to `n` of the coldest molecules from `asid`'s
    /// region, flushing each and returning it to its tile's free pool.
    /// Returns how many were actually removed (the region never drops
    /// below one molecule). The single shrink path: Algorithm 1's
    /// `Decision::Shrink` and lifecycle-driven `set_region_size` both
    /// land here, so both bump the structure generation identically.
    pub(crate) fn shrink_region(&mut self, asid: Asid, n: usize) -> usize {
        let Some(mut region) = self.regions.remove(&asid) else {
            return 0;
        };
        // Membership is about to change: structural event.
        self.note_structural_change();
        let mut removed = 0;
        for _ in 0..n {
            let Some(id) = region.remove_coldest(|m| self.replacement_misses[m.index()]) else {
                break;
            };
            self.free_molecule(id);
            removed += 1;
        }
        self.regions.insert(asid, region);
        removed
    }
}

#[cfg(test)]
mod tests {
    use crate::config::InitialAllocation;
    use crate::{MolecularCache, MolecularConfig, ResizeTrigger};
    use molcache_sim::{CacheModel, Request};
    use molcache_trace::{AccessKind, Address, Asid};

    fn cache() -> MolecularCache {
        let cfg = MolecularConfig::builder()
            .molecule_size(1024)
            .tile_molecules(8)
            .tiles_per_cluster(2)
            .clusters(1)
            .initial_allocation(InitialAllocation::Molecules(2))
            .trigger(ResizeTrigger::Constant { period: 1 << 30 })
            .build()
            .unwrap();
        MolecularCache::new(cfg)
    }

    fn read(asid: u16, addr: u64) -> Request {
        Request {
            asid: Asid::new(asid),
            addr: Address::new(addr),
            kind: AccessKind::Read,
        }
    }

    fn write(asid: u16, addr: u64) -> Request {
        Request {
            asid: Asid::new(asid),
            addr: Address::new(addr),
            kind: AccessKind::Write,
        }
    }

    #[test]
    fn admit_matches_first_access_region_creation() {
        let mut pre = cache();
        let mut lazy = cache();
        assert!(pre.admit_app(Asid::new(1)));
        assert!(!pre.admit_app(Asid::new(1)), "second admit is a no-op");
        assert!(pre.has_region(Asid::new(1)));
        for c in [&mut pre, &mut lazy] {
            for i in 0..200 {
                c.access(read(1, i * 64));
            }
        }
        assert_eq!(pre.stats(), lazy.stats());
        assert_eq!(pre.snapshots(), lazy.snapshots());
        assert_eq!(pre.free_molecules(), lazy.free_molecules());
    }

    #[test]
    fn flush_region_evicts_but_keeps_allocation() {
        let mut c = cache();
        // 8 distinct lines fit the 2-molecule (32-frame) initial grant.
        for i in 0..8 {
            c.access(write(1, i * 64));
        }
        let size = c.region_size(Asid::new(1)).unwrap();
        let hit_before = c.access(read(1, 0)).hit;
        assert!(hit_before, "line resident before the flush");
        let flushed = c.flush_region(Asid::new(1)).unwrap();
        assert!(flushed > 0, "dirty lines were written back");
        assert_eq!(c.region_size(Asid::new(1)), Some(size), "capacity kept");
        assert!(!c.access(read(1, 0)).hit, "contents gone after the flush");
        assert_eq!(c.flush_region(Asid::new(9)), None, "unknown app");
    }

    #[test]
    fn set_region_size_grows_and_shrinks() {
        let mut c = cache();
        c.admit_app(Asid::new(1));
        assert_eq!(c.region_size(Asid::new(1)), Some(2));
        assert_eq!(c.set_region_size(Asid::new(1), 6), Some(6));
        assert_eq!(c.set_region_size(Asid::new(1), 3), Some(3));
        // Target 0 clamps to 1: shrinking never destroys the region.
        assert_eq!(c.set_region_size(Asid::new(1), 0), Some(1));
        assert!(c.has_region(Asid::new(1)));
        assert_eq!(c.set_region_size(Asid::new(9), 4), None, "unknown app");
    }

    #[test]
    fn growth_is_bounded_by_free_pool() {
        let mut c = cache();
        c.admit_app(Asid::new(1));
        c.admit_app(Asid::new(2));
        let free = c.free_molecules();
        let got = c.set_region_size(Asid::new(1), 1_000).unwrap();
        assert_eq!(got, 2 + free, "partial grant up to the free pool");
        assert_eq!(c.free_molecules(), 0);
    }
}
