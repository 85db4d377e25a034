//! The sharded cache service: shard-per-cluster locking, tenant
//! lifecycle, and the concurrent access path.
//!
//! Locking protocol (two locks, strict order admin → shard):
//!
//! * **Admin lock** — serializes lifecycle transitions (`admit`,
//!   `revoke`). Router slots are only written under it, so tenancy
//!   changes are totally ordered.
//! * **Shard locks** — one mutex per [`MolecularCache`] cluster. All
//!   cache state (tags, line index, regions, statistics) lives under
//!   exactly one of them; accesses for tenants on different shards
//!   never contend.
//!
//! The revocation guarantee: `revoke` deactivates the router slot
//! (bumping the generation) and *then* acquires the victim's shard lock
//! to flush the region. The access path acquires the shard lock first
//! and validates the handle *after*. So an access that wins the lock
//! race before a concurrent revoke completes against the still-resident
//! region — a normal pre-revoke access — and every access that acquires
//! the lock afterwards sees the bumped generation and fails. Once
//! `revoke` returns, the shard lock has been cycled: no access can
//! succeed with the dead handle, and none can be mid-flight.
//!
//! Counters on the access path are relaxed atomics folded into
//! [`ShardContention`] records on demand; they observe the service
//! without perturbing it (contention is detected with a `try_lock`
//! fast path, so the uncontended case never reads a clock).

use crate::error::ServeError;
use crate::router::{TenantHandle, TenantRouter};
use molcache_core::MolecularCache;
use molcache_sim::{AppStats, BatchOutcome, CacheModel, Request};
use molcache_telemetry::ShardContention;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, TryLockError};
use std::time::Instant;

/// Atomic tallies for one shard's lock and traffic.
#[derive(Default)]
struct ShardCounters {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    lock_wait_ns: AtomicU64,
    queue_depth: AtomicU64,
    max_queue_depth: AtomicU64,
    accesses: AtomicU64,
    hits: AtomicU64,
}

struct ClusterShard {
    cache: Mutex<MolecularCache>,
    counters: ShardCounters,
}

/// Shard-lock guard that maintains the live queue-depth gauge.
struct ShardGuard<'a> {
    cache: MutexGuard<'a, MolecularCache>,
    counters: &'a ShardCounters,
}

impl Deref for ShardGuard<'_> {
    type Target = MolecularCache;
    fn deref(&self) -> &MolecularCache {
        &self.cache
    }
}

impl DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut MolecularCache {
        &mut self.cache
    }
}

impl Drop for ShardGuard<'_> {
    fn drop(&mut self) {
        self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Round-robin placement cursor, guarded by the admin lock.
struct AdminState {
    next_shard: usize,
}

/// A multi-tenant cache service: N independently locked molecular-cache
/// clusters plus the router mapping each admitted ASID to one of them.
pub struct CacheService {
    shards: Vec<ClusterShard>,
    router: TenantRouter,
    admin: Mutex<AdminState>,
}

impl CacheService {
    /// Builds a service of `shards` clusters; `make(i)` constructs the
    /// cache for shard `i` (callers vary seeds or geometry per shard).
    ///
    /// # Panics
    /// If `shards` is 0 or exceeds the router's 15-bit shard field.
    pub fn new(shards: usize, mut make: impl FnMut(usize) -> MolecularCache) -> Self {
        assert!(shards > 0, "a service needs at least one shard");
        assert!(shards <= 0x7FFF, "shard index must fit the router slot");
        CacheService {
            shards: (0..shards)
                .map(|i| ClusterShard {
                    cache: Mutex::new(make(i)),
                    counters: ShardCounters::default(),
                })
                .collect(),
            router: TenantRouter::new(),
            admin: Mutex::new(AdminState { next_shard: 0 }),
        }
    }

    /// Number of cluster shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn lock_shard(&self, shard: usize) -> ShardGuard<'_> {
        let s = &self.shards[shard];
        let c = &s.counters;
        c.acquisitions.fetch_add(1, Ordering::Relaxed);
        let depth = c.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        c.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        let cache = match s.cache.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                c.contended.fetch_add(1, Ordering::Relaxed);
                let start = Instant::now();
                let guard = s.cache.lock().expect("shard lock poisoned");
                c.lock_wait_ns
                    .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                guard
            }
            Err(TryLockError::Poisoned(_)) => panic!("shard lock poisoned"),
        };
        ShardGuard { cache, counters: c }
    }

    /// Validates `handle` against the router; must be called while
    /// holding the handle's shard lock for the revocation guarantee to
    /// hold.
    fn check(&self, handle: &TenantHandle) -> Result<(), ServeError> {
        if self.router.validate(handle) {
            Ok(())
        } else {
            Err(ServeError::Revoked(handle.asid))
        }
    }

    /// Admits a tenant onto the next shard in round-robin order and
    /// creates its cache region. With `shards == tenants` this places
    /// every tenant alone on its own cluster.
    pub fn admit(&self, asid: molcache_trace::Asid) -> Result<TenantHandle, ServeError> {
        let mut admin = self.admin.lock().expect("admin lock poisoned");
        let shard = admin.next_shard;
        let handle = self.admit_locked(asid, shard)?;
        admin.next_shard = (admin.next_shard + 1) % self.shards.len();
        Ok(handle)
    }

    /// Admits a tenant onto a specific shard.
    pub fn admit_to(
        &self,
        asid: molcache_trace::Asid,
        shard: usize,
    ) -> Result<TenantHandle, ServeError> {
        if shard >= self.shards.len() {
            return Err(ServeError::UnknownShard {
                shard,
                shards: self.shards.len(),
            });
        }
        let _admin = self.admin.lock().expect("admin lock poisoned");
        self.admit_locked(asid, shard)
    }

    fn admit_locked(
        &self,
        asid: molcache_trace::Asid,
        shard: usize,
    ) -> Result<TenantHandle, ServeError> {
        if self.router.is_active(asid) {
            return Err(ServeError::AlreadyAdmitted(asid));
        }
        let token = self.router.activate(asid, shard);
        self.lock_shard(shard).admit_app(asid);
        Ok(TenantHandle { asid, shard, token })
    }

    /// Revokes a tenancy: invalidates every outstanding handle, then
    /// releases the tenant's region (flushing its dirty lines back).
    /// Returns the number of molecules the region held. After this
    /// returns, no access through any handle for this tenancy can
    /// succeed.
    pub fn revoke(&self, handle: &TenantHandle) -> Result<usize, ServeError> {
        let _admin = self.admin.lock().expect("admin lock poisoned");
        self.check(handle)?;
        self.router.deactivate(handle.asid);
        let mut cache = self.lock_shard(handle.shard);
        Ok(cache.release_region(handle.asid).unwrap_or(0))
    }

    /// Resizes the tenant's region toward `target` molecules (the free
    /// pool may satisfy growth only partially). Returns the resulting
    /// size.
    pub fn resize(&self, handle: &TenantHandle, target: usize) -> Result<usize, ServeError> {
        let mut cache = self.lock_shard(handle.shard);
        self.check(handle)?;
        Ok(cache
            .set_region_size(handle.asid, target)
            .expect("active tenancy implies a region"))
    }

    /// Flushes the tenant's cached data in place, keeping its capacity.
    /// Returns the dirty lines written back.
    pub fn evict(&self, handle: &TenantHandle) -> Result<u64, ServeError> {
        let mut cache = self.lock_shard(handle.shard);
        self.check(handle)?;
        Ok(cache
            .flush_region(handle.asid)
            .expect("active tenancy implies a region"))
    }

    /// Services one request for the tenant.
    pub fn access(
        &self,
        handle: &TenantHandle,
        req: Request,
    ) -> Result<molcache_sim::AccessOutcome, ServeError> {
        if req.asid != handle.asid {
            return Err(ServeError::AsidMismatch {
                handle: handle.asid,
                request: req.asid,
            });
        }
        let mut cache = self.lock_shard(handle.shard);
        self.check(handle)?;
        let out = cache.access(req);
        let c = &self.shards[handle.shard].counters;
        c.accesses.fetch_add(1, Ordering::Relaxed);
        c.hits.fetch_add(u64::from(out.hit), Ordering::Relaxed);
        Ok(out)
    }

    /// Services a batch of requests under one lock acquisition — the
    /// replay fast path. All requests must carry the handle's ASID.
    pub fn access_batch(
        &self,
        handle: &TenantHandle,
        reqs: &[Request],
    ) -> Result<BatchOutcome, ServeError> {
        if let Some(bad) = reqs.iter().find(|r| r.asid != handle.asid) {
            return Err(ServeError::AsidMismatch {
                handle: handle.asid,
                request: bad.asid,
            });
        }
        let mut cache = self.lock_shard(handle.shard);
        self.check(handle)?;
        let out = cache.access_batch(reqs);
        let c = &self.shards[handle.shard].counters;
        c.accesses.fetch_add(out.accesses, Ordering::Relaxed);
        c.hits.fetch_add(out.hits, Ordering::Relaxed);
        Ok(out)
    }

    /// The tenant's end-to-end statistics, as its shard's cache tracked
    /// them.
    pub fn tenant_stats(&self, handle: &TenantHandle) -> Result<AppStats, ServeError> {
        let cache = self.lock_shard(handle.shard);
        self.check(handle)?;
        Ok(cache.stats().app(handle.asid))
    }

    /// Runs `f` against one shard's cache under its lock — the
    /// inspection hook tests and renderers use.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&MolecularCache) -> R) -> R {
        f(&self.lock_shard(shard))
    }

    /// Installs a resize policy on one shard, making the service
    /// heterogeneous: each cluster can run its own goal-seeking scheme.
    /// Tenants already resident on the shard are re-registered with the
    /// new policy (its adaptation state starts fresh), so this is
    /// normally done between admission and traffic.
    pub fn set_shard_policy(
        &self,
        shard: usize,
        policy: Box<dyn molcache_core::ResizePolicy>,
    ) -> Result<(), ServeError> {
        if shard >= self.shards.len() {
            return Err(ServeError::UnknownShard {
                shard,
                shards: self.shards.len(),
            });
        }
        self.lock_shard(shard).set_resize_policy(policy);
        Ok(())
    }

    /// Stable name of the resize policy a shard currently runs.
    pub fn shard_policy_name(&self, shard: usize) -> Result<&'static str, ServeError> {
        if shard >= self.shards.len() {
            return Err(ServeError::UnknownShard {
                shard,
                shards: self.shards.len(),
            });
        }
        Ok(self.lock_shard(shard).resize_policy_name())
    }

    /// Adjusts the tenant's miss-rate goal at runtime (its per-tenant
    /// SLA). The shard's policy sees the new goal from the next resize
    /// window on. The goal must lie in `(0, 1)`.
    pub fn set_tenant_goal(&self, handle: &TenantHandle, goal: f64) -> Result<(), ServeError> {
        let mut cache = self.lock_shard(handle.shard);
        self.check(handle)?;
        if cache.set_region_goal(handle.asid, goal) {
            Ok(())
        } else {
            Err(ServeError::InvalidGoal(handle.asid))
        }
    }

    /// Snapshot of every shard's contention counters.
    pub fn contention(&self) -> Vec<ShardContention> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let c = &s.counters;
                ShardContention {
                    shard: i,
                    acquisitions: c.acquisitions.load(Ordering::Relaxed),
                    contended: c.contended.load(Ordering::Relaxed),
                    lock_wait_ns: c.lock_wait_ns.load(Ordering::Relaxed),
                    max_queue_depth: c.max_queue_depth.load(Ordering::Relaxed),
                    accesses: c.accesses.load(Ordering::Relaxed),
                    hits: c.hits.load(Ordering::Relaxed),
                }
            })
            .collect()
    }

    /// Cross-shard load imbalance of the traffic serviced so far.
    pub fn imbalance(&self) -> f64 {
        molcache_telemetry::imbalance(&self.contention())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molcache_core::{config::InitialAllocation, MolecularConfig, ResizeTrigger};
    use molcache_trace::{AccessKind, Address, Asid};

    fn service(shards: usize) -> CacheService {
        CacheService::new(shards, |_| {
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
        })
    }

    fn read(asid: Asid, addr: u64) -> Request {
        Request {
            asid,
            addr: Address::new(addr),
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn admit_routes_round_robin_and_rejects_duplicates() {
        let svc = service(2);
        let a = svc.admit(Asid::new(1)).unwrap();
        let b = svc.admit(Asid::new(2)).unwrap();
        let c = svc.admit(Asid::new(3)).unwrap();
        assert_eq!((a.shard(), b.shard(), c.shard()), (0, 1, 0));
        assert_eq!(
            svc.admit(Asid::new(1)),
            Err(ServeError::AlreadyAdmitted(Asid::new(1)))
        );
        assert_eq!(
            svc.admit_to(Asid::new(4), 9),
            Err(ServeError::UnknownShard {
                shard: 9,
                shards: 2
            })
        );
    }

    #[test]
    fn lifecycle_calls_fail_cleanly_after_revoke() {
        let svc = service(1);
        let h = svc.admit(Asid::new(1)).unwrap();
        svc.access(&h, read(Asid::new(1), 64)).unwrap();
        let released = svc.revoke(&h).unwrap();
        assert!(released > 0, "region gave back its molecules");

        let dead = Some(ServeError::Revoked(Asid::new(1)));
        assert_eq!(svc.access(&h, read(Asid::new(1), 64)).err(), dead);
        assert_eq!(svc.resize(&h, 4).err(), dead);
        assert_eq!(svc.evict(&h).err(), dead);
        assert_eq!(svc.revoke(&h).err(), dead);
        assert_eq!(svc.tenant_stats(&h).err(), dead);
    }

    #[test]
    fn readmitted_tenant_gets_fresh_handle_old_one_stays_dead() {
        let svc = service(1);
        let old = svc.admit(Asid::new(5)).unwrap();
        svc.revoke(&old).unwrap();
        let new = svc.admit(Asid::new(5)).unwrap();
        assert!(svc.access(&new, read(Asid::new(5), 0)).is_ok());
        assert_eq!(
            svc.access(&old, read(Asid::new(5), 0)).err(),
            Some(ServeError::Revoked(Asid::new(5)))
        );
    }

    #[test]
    fn asid_mismatch_is_rejected_before_touching_the_cache() {
        let svc = service(1);
        let h = svc.admit(Asid::new(1)).unwrap();
        let err = svc.access(&h, read(Asid::new(2), 0)).unwrap_err();
        assert_eq!(
            err,
            ServeError::AsidMismatch {
                handle: Asid::new(1),
                request: Asid::new(2)
            }
        );
        // The foreign ASID gained no region from the attempt.
        assert!(!svc.with_shard(0, |c| c.has_region(Asid::new(2))));
    }

    fn policy(name: &str) -> Box<dyn molcache_core::ResizePolicy> {
        let cfg = MolecularConfig::builder()
            .molecule_size(1024)
            .tile_molecules(8)
            .tiles_per_cluster(2)
            .clusters(1)
            .build()
            .unwrap();
        molcache_core::policy::by_name(name, &cfg).unwrap()
    }

    #[test]
    fn shards_run_independent_policies() {
        let svc = service(2);
        assert_eq!(svc.shard_policy_name(0), Ok("paper-algorithm1"));
        svc.set_shard_policy(1, policy("memshare-pressure"))
            .unwrap();
        assert_eq!(svc.shard_policy_name(0), Ok("paper-algorithm1"));
        assert_eq!(svc.shard_policy_name(1), Ok("memshare-pressure"));
        assert_eq!(
            svc.set_shard_policy(7, policy("per-app-goal")),
            Err(ServeError::UnknownShard {
                shard: 7,
                shards: 2
            })
        );
        assert_eq!(
            svc.shard_policy_name(2),
            Err(ServeError::UnknownShard {
                shard: 2,
                shards: 2
            })
        );
    }

    #[test]
    fn tenant_goals_adjust_at_runtime() {
        let svc = service(1);
        let h = svc.admit(Asid::new(1)).unwrap();
        svc.set_tenant_goal(&h, 0.25).unwrap();
        assert_eq!(
            svc.set_tenant_goal(&h, 1.5),
            Err(ServeError::InvalidGoal(Asid::new(1)))
        );
        svc.revoke(&h).unwrap();
        assert_eq!(
            svc.set_tenant_goal(&h, 0.25),
            Err(ServeError::Revoked(Asid::new(1)))
        );
    }

    #[test]
    fn counters_tally_traffic_per_shard() {
        let svc = service(2);
        let a = svc.admit_to(Asid::new(1), 0).unwrap();
        let b = svc.admit_to(Asid::new(2), 1).unwrap();
        for i in 0..10 {
            svc.access(&a, read(Asid::new(1), i * 64)).unwrap();
        }
        svc.access(&b, read(Asid::new(2), 0)).unwrap();
        let shards = svc.contention();
        assert_eq!(shards[0].accesses, 10);
        assert_eq!(shards[1].accesses, 1);
        assert!(svc.imbalance() > 1.0);
    }
}
