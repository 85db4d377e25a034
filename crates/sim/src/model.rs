//! The common interface every cache under test implements.

use crate::stage::StageActivity;
use crate::stats::CacheStats;
use molcache_trace::{AccessKind, Address, Asid, MemAccess};

/// One request presented to a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Requesting application.
    pub asid: Asid,
    /// Byte address.
    pub addr: Address,
    /// Load or store.
    pub kind: AccessKind,
}

impl From<MemAccess> for Request {
    fn from(acc: MemAccess) -> Self {
        Request {
            asid: acc.asid,
            addr: acc.addr,
            kind: acc.kind,
        }
    }
}

/// What happened when a request was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the request hit.
    pub hit: bool,
    /// Cycles consumed by the request.
    pub latency: u32,
    /// Whether a dirty line was written back.
    pub writeback: bool,
    /// Lines brought in from the next level (0 on a hit; >1 when the
    /// region uses an enlarged line size).
    pub lines_fetched: u32,
}

impl AccessOutcome {
    /// A hit with the given latency.
    pub const fn hit(latency: u32) -> Self {
        AccessOutcome {
            hit: true,
            latency,
            writeback: false,
            lines_fetched: 0,
        }
    }

    /// A miss fetching one line.
    pub const fn miss(latency: u32, writeback: bool) -> Self {
        AccessOutcome {
            hit: false,
            latency,
            writeback,
            lines_fetched: 1,
        }
    }
}

/// Activity-event counters consumed by the power model.
///
/// Traditional caches probe `assoc` ways per access; the molecular cache
/// probes only the ASID-matching molecules of the home tile (plus remote
/// tiles on an Ulmo search). Keeping these as raw event counts lets
/// `molcache-power` attach per-event energies appropriate to each array's
/// geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Activity {
    /// Requests serviced.
    pub accesses: u64,
    /// Way- or molecule-probes performed (tag+data array reads).
    pub ways_probed: u64,
    /// Lines filled from the next level.
    pub line_fills: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// ASID comparisons (molecular cache only).
    pub asid_compares: u64,
    /// Remote-tile searches launched by Ulmo (molecular cache only).
    pub ulmo_searches: u64,
    /// Per-stage decomposition of the counters above (staged caches
    /// only; all-zero for models without a pipeline). For the molecular
    /// cache the stage totals tile the aggregates: gate + Ulmo
    /// `asid_compares` equal [`Activity::asid_compares`], home + Ulmo
    /// `tag_probes` equal [`Activity::ways_probed`], fill
    /// `frames_touched` equal [`Activity::line_fills`], and the stage
    /// cycles sum to the total latency of all serviced accesses. The
    /// molecular cache derives them, and those aggregates, from the few
    /// event counters an access adds to, so no per-access breakdown is
    /// built.
    pub stages: StageActivity,
}

impl Activity {
    /// Merges another activity record into this one.
    pub fn merge(&mut self, other: &Activity) {
        self.accesses += other.accesses;
        self.ways_probed += other.ways_probed;
        self.line_fills += other.line_fills;
        self.writebacks += other.writebacks;
        self.asid_compares += other.asid_compares;
        self.ulmo_searches += other.ulmo_searches;
        self.stages.merge(&other.stages);
    }

    /// The delta since an earlier snapshot of the same counters (epoch
    /// accounting; the inverse of [`merge`](Self::merge)).
    pub fn since(&self, base: &Activity) -> Activity {
        Activity {
            accesses: self.accesses - base.accesses,
            ways_probed: self.ways_probed - base.ways_probed,
            line_fills: self.line_fills - base.line_fills,
            writebacks: self.writebacks - base.writebacks,
            asid_compares: self.asid_compares - base.asid_compares,
            ulmo_searches: self.ulmo_searches - base.ulmo_searches,
            stages: self.stages.since(&base.stages),
        }
    }

    /// Average ways/molecules probed per access.
    pub fn probes_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.ways_probed as f64 / self.accesses as f64
        }
    }
}

/// Aggregate outcome of a batched access sequence.
///
/// Per-request outcomes collapse into event sums — exactly the totals a
/// driver loop over [`AccessOutcome`]s would accumulate, so a batch can
/// replace a loop without changing any measured number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchOutcome {
    /// Requests serviced.
    pub accesses: u64,
    /// Requests that hit.
    pub hits: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Lines brought in from the next level.
    pub lines_fetched: u64,
    /// Cycles consumed across all requests.
    pub total_latency: u64,
}

impl BatchOutcome {
    /// Folds one per-request outcome into the totals.
    pub fn note(&mut self, out: AccessOutcome) {
        self.accesses += 1;
        self.hits += u64::from(out.hit);
        self.writebacks += u64::from(out.writeback);
        self.lines_fetched += u64::from(out.lines_fetched);
        self.total_latency += u64::from(out.latency);
    }

    /// Combines the totals of another batch into this one.
    pub fn merge(&mut self, other: &BatchOutcome) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.writebacks += other.writebacks;
        self.lines_fetched += other.lines_fetched;
        self.total_latency += other.total_latency;
    }

    /// Requests that missed.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }
}

/// A cache that can service a trace.
///
/// Implemented by [`SetAssocCache`](crate::set_assoc::SetAssocCache), the
/// partitioned baselines, and by `molcache_core::MolecularCache`. The
/// experiment harnesses in `molcache-bench` are generic over this trait,
/// so the paper's "same trace through Dinero and through the molecular
/// cache" methodology is a single code path.
pub trait CacheModel {
    /// Services one request.
    fn access(&mut self, req: Request) -> AccessOutcome;

    /// Services a slice of requests in order.
    ///
    /// Semantically identical to calling [`access`](CacheModel::access)
    /// once per request and summing the outcomes; implementations may
    /// override it to amortize per-request dispatch but must keep the
    /// results bit-identical to the loop.
    fn access_batch(&mut self, reqs: &[Request]) -> BatchOutcome {
        let mut out = BatchOutcome::default();
        for req in reqs {
            out.note(self.access(*req));
        }
        out
    }

    /// Accumulated hit/miss statistics.
    fn stats(&self) -> &CacheStats;

    /// Accumulated activity events (for the power model).
    fn activity(&self) -> Activity;

    /// Clears statistics and activity counters (not cache contents).
    fn reset_stats(&mut self);

    /// Human-readable description, e.g. `"8MB 4way 64B-line"`.
    fn describe(&self) -> String;
}

/// Observes every serviced access — the publish point telemetry layers
/// hook into.
///
/// The observed drivers in [`crate::cmp`] call
/// [`on_access`](AccessObserver::on_access) once per request with the
/// request and its outcome, in trace order. Implementations live above
/// this crate (e.g. `molcache-telemetry`'s recorder builds latency
/// histograms from these events); the simulator itself only defines the
/// hook so that observation never disturbs what is measured.
pub trait AccessObserver {
    /// Called after `req` was serviced with outcome `out`.
    fn on_access(&mut self, req: &Request, out: &AccessOutcome);
}

/// Ignores every event; drivers observed by it behave like unobserved
/// ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullObserver;

impl AccessObserver for NullObserver {
    #[inline]
    fn on_access(&mut self, _req: &Request, _out: &AccessOutcome) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_from_memaccess() {
        let acc = MemAccess::write(Asid::new(3), Address::new(0x80));
        let req = Request::from(acc);
        assert_eq!(req.asid, Asid::new(3));
        assert_eq!(req.addr, Address::new(0x80));
        assert!(req.kind.is_write());
    }

    #[test]
    fn outcome_constructors() {
        let h = AccessOutcome::hit(10);
        assert!(h.hit);
        assert_eq!(h.lines_fetched, 0);
        let m = AccessOutcome::miss(210, true);
        assert!(!m.hit);
        assert!(m.writeback);
        assert_eq!(m.lines_fetched, 1);
    }

    #[test]
    fn batch_outcome_note_and_merge() {
        let mut b = BatchOutcome::default();
        b.note(AccessOutcome::hit(5));
        b.note(AccessOutcome::miss(210, true));
        assert_eq!(b.accesses, 2);
        assert_eq!(b.hits, 1);
        assert_eq!(b.misses(), 1);
        assert_eq!(b.writebacks, 1);
        assert_eq!(b.lines_fetched, 1);
        assert_eq!(b.total_latency, 215);
        let mut c = BatchOutcome::default();
        c.note(AccessOutcome::hit(7));
        c.merge(&b);
        assert_eq!(c.accesses, 3);
        assert_eq!(c.total_latency, 222);
    }

    #[test]
    fn activity_merge_and_rates() {
        let mut a = Activity {
            accesses: 10,
            ways_probed: 40,
            ..Activity::default()
        };
        let b = Activity {
            accesses: 10,
            ways_probed: 20,
            line_fills: 5,
            ..Activity::default()
        };
        let before = a;
        a.merge(&b);
        assert_eq!(a.accesses, 20);
        assert_eq!(a.since(&before), b, "since undoes merge");
        assert!((a.probes_per_access() - 3.0).abs() < 1e-12);
        assert_eq!(Activity::default().probes_per_access(), 0.0);
    }
}
