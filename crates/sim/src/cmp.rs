//! The CMP front end: driving shared caches with multiprogrammed traces.
//!
//! This module replaces the role SESC plays in the paper: it runs several
//! applications "concurrently" (interleaving their reference streams) on a
//! shared cache and reports per-application miss rates — the measurement
//! behind Table 1, Figure 5 and Table 2.

use crate::model::{AccessObserver, CacheModel, Request};
use crate::stats::CacheStats;
use molcache_trace::gen::{BoxedSource, TraceSource};
use molcache_trace::interleave::Workload;
use molcache_trace::{Asid, MemAccess};

/// Result of driving a trace through a cache.
///
/// A thin view over the [`CacheStats`] delta of the run window: access,
/// latency and miss totals all live in the per-window [`AppStats`]
/// counters, so there are no parallel copies to keep in sync.
///
/// [`AppStats`]: crate::stats::AppStats
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunSummary {
    /// Global counters for the run window.
    pub global: crate::stats::AppStats,
    /// Per-application counters for the run window.
    pub per_app: std::collections::BTreeMap<Asid, crate::stats::AppStats>,
}

impl RunSummary {
    fn from_stats(stats: &CacheStats) -> Self {
        RunSummary {
            global: stats.global,
            per_app: stats.per_app.clone(),
        }
    }

    /// Accesses driven in this window.
    pub fn accesses(&self) -> u64 {
        self.global.accesses
    }

    /// Total latency accumulated across all accesses (cycles).
    pub fn total_latency(&self) -> u64 {
        self.global.total_latency
    }

    /// Miss rate of one application in this window (0.0 if absent).
    pub fn app_miss_rate(&self, asid: Asid) -> f64 {
        self.per_app
            .get(&asid)
            .map(|s| s.miss_rate())
            .unwrap_or(0.0)
    }

    /// Average latency per access in cycles.
    pub fn avg_latency(&self) -> f64 {
        self.global.avg_latency()
    }
}

/// Requests buffered per [`CacheModel::access_batch`] call by the batched
/// drivers below. Large enough to amortize per-call dispatch, small
/// enough that the buffer stays in L1.
const DRIVE_BATCH: usize = 1024;

/// Pulls accesses from `next` in [`DRIVE_BATCH`]-sized slices and drives
/// them through `cache.access_batch`, measuring only this window.
/// Equivalent to a per-access loop (the batch contract guarantees
/// bit-identical behavior) but with far fewer dispatches.
fn drive_batched<C, F>(cache: &mut C, limit: u64, mut next: F) -> RunSummary
where
    C: CacheModel + ?Sized,
    F: FnMut() -> Option<MemAccess>,
{
    let before = cache.stats().clone();
    let mut driven = 0u64;
    let mut buf: Vec<Request> = Vec::with_capacity(DRIVE_BATCH);
    while driven < limit {
        buf.clear();
        let want = usize::try_from(limit - driven)
            .unwrap_or(usize::MAX)
            .min(DRIVE_BATCH);
        while buf.len() < want {
            match next() {
                Some(acc) => buf.push(Request::from(acc)),
                None => break,
            }
        }
        if buf.is_empty() {
            break;
        }
        cache.access_batch(&buf);
        driven += buf.len() as u64;
    }
    RunSummary::from_stats(&cache.stats().since(&before))
}

/// Per-access variant of [`drive_batched`] that reports every request and
/// outcome to `obs`. The batch contract guarantees the two drivers
/// produce bit-identical caches and summaries, so observation never
/// changes what is measured — it only costs the per-access dispatch the
/// batched path amortizes away.
fn drive_observed<C, F, O>(cache: &mut C, limit: u64, mut next: F, obs: &mut O) -> RunSummary
where
    C: CacheModel + ?Sized,
    F: FnMut() -> Option<MemAccess>,
    O: AccessObserver + ?Sized,
{
    let before = cache.stats().clone();
    let mut driven = 0u64;
    while driven < limit {
        let Some(acc) = next() else { break };
        let req = Request::from(acc);
        let out = cache.access(req);
        obs.on_access(&req, &out);
        driven += 1;
    }
    RunSummary::from_stats(&cache.stats().since(&before))
}

/// Drives up to `limit` accesses from an iterator of [`MemAccess`] through
/// `cache`, measuring only this window (pre-existing stats are excluded).
pub fn run_accesses<I, C>(accesses: I, cache: &mut C, limit: u64) -> RunSummary
where
    I: IntoIterator<Item = MemAccess>,
    C: CacheModel + ?Sized,
{
    let mut it = accesses.into_iter();
    drive_batched(cache, limit, || it.next())
}

/// Drives a materialized request slice through `cache` in
/// `DRIVE_BATCH`-sized slices, measuring only this window. The same
/// requests through [`run_accesses`] produce the same cache and summary.
pub fn run_requests<C>(requests: &[Request], cache: &mut C) -> RunSummary
where
    C: CacheModel + ?Sized,
{
    let before = cache.stats().clone();
    for chunk in requests.chunks(DRIVE_BATCH) {
        cache.access_batch(chunk);
    }
    RunSummary::from_stats(&cache.stats().since(&before))
}

/// Like [`run_accesses`], but reports every access to `obs`.
pub fn run_accesses_observed<I, C, O>(
    accesses: I,
    cache: &mut C,
    limit: u64,
    obs: &mut O,
) -> RunSummary
where
    I: IntoIterator<Item = MemAccess>,
    C: CacheModel + ?Sized,
    O: AccessObserver + ?Sized,
{
    let mut it = accesses.into_iter();
    drive_observed(cache, limit, || it.next(), obs)
}

/// Drives a single application's stream through `cache`.
pub fn run_source<S, C>(mut source: S, cache: &mut C, limit: u64) -> RunSummary
where
    S: TraceSource,
    C: CacheModel + ?Sized,
{
    drive_batched(cache, limit, || source.next_access())
}

/// Like [`run_source`], but reports every access to `obs`.
pub fn run_source_observed<S, C, O>(
    mut source: S,
    cache: &mut C,
    limit: u64,
    obs: &mut O,
) -> RunSummary
where
    S: TraceSource,
    C: CacheModel + ?Sized,
    O: AccessObserver + ?Sized,
{
    drive_observed(cache, limit, || source.next_access(), obs)
}

/// Runs a multiprogrammed workload round-robin on a shared cache — the
/// paper's "run concurrently on a CMP" setup.
///
/// # Errors
///
/// Propagates [`molcache_trace::TraceError`] from workload construction.
pub fn run_shared<C>(
    sources: Vec<BoxedSource>,
    cache: &mut C,
    limit: u64,
) -> Result<RunSummary, molcache_trace::TraceError>
where
    C: CacheModel + ?Sized,
{
    let workload = Workload::new(sources)?;
    Ok(run_accesses(workload.round_robin(), cache, limit))
}

/// Like [`run_shared`], but reports every access to `obs`.
///
/// # Errors
///
/// Propagates [`molcache_trace::TraceError`] from workload construction.
pub fn run_shared_observed<C, O>(
    sources: Vec<BoxedSource>,
    cache: &mut C,
    limit: u64,
    obs: &mut O,
) -> Result<RunSummary, molcache_trace::TraceError>
where
    C: CacheModel + ?Sized,
    O: AccessObserver + ?Sized,
{
    let workload = Workload::new(sources)?;
    Ok(run_accesses_observed(
        workload.round_robin(),
        cache,
        limit,
        obs,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::model::AccessOutcome;
    use crate::set_assoc::SetAssocCache;
    use molcache_trace::gen::StrideSource;
    use molcache_trace::presets::Benchmark;
    use molcache_trace::Address;

    #[test]
    fn run_source_counts_window_only() {
        let cfg = CacheConfig::new(64 * 1024, 4, 64).unwrap();
        let mut cache = SetAssocCache::lru(cfg);
        let src = StrideSource::new(Asid::new(1), Address::new(0), 32 * 1024, 64, 0.0, 1);
        let first = run_source(src, &mut cache, 1_000);
        assert_eq!(first.accesses(), 1_000);
        // Second window over the now-resident set: all hits.
        let src2 = StrideSource::new(Asid::new(1), Address::new(0), 32 * 1024, 64, 0.0, 1);
        let second = run_source(src2, &mut cache, 512);
        assert_eq!(second.global.misses, 0, "stream fits: warm run must hit");
    }

    #[test]
    fn shared_run_attributes_per_app() {
        let cfg = CacheConfig::new(256 * 1024, 4, 64).unwrap();
        let mut cache = SetAssocCache::lru(cfg);
        let a = Benchmark::Ammp.source(Asid::new(1), 3);
        let b = Benchmark::Mcf.source(Asid::new(2), 4);
        let summary = run_shared(vec![a, b], &mut cache, 100_000).unwrap();
        assert_eq!(summary.per_app.len(), 2);
        let mr_ammp = summary.app_miss_rate(Asid::new(1));
        let mr_mcf = summary.app_miss_rate(Asid::new(2));
        assert!(
            mr_mcf > mr_ammp,
            "mcf ({mr_mcf}) must miss more than ammp ({mr_ammp})"
        );
    }

    #[test]
    fn avg_latency_reflects_miss_rate() {
        let cfg = CacheConfig::new(64 * 1024, 4, 64).unwrap();
        let mut cache = SetAssocCache::lru(cfg.with_hit_latency(10).with_miss_penalty(100));
        // Stream fits entirely: after warmup, latency approaches hit cost.
        let src = StrideSource::new(Asid::new(1), Address::new(0), 16 * 1024, 64, 0.0, 1);
        run_source(src, &mut cache, 256); // warm
        let src2 = StrideSource::new(Asid::new(1), Address::new(0), 16 * 1024, 64, 0.0, 1);
        let s = run_source(src2, &mut cache, 1024);
        assert!((s.avg_latency() - 10.0).abs() < 1e-9, "{}", s.avg_latency());
    }

    #[test]
    fn batched_driver_matches_per_access_loop() {
        // 2500 is deliberately not a multiple of DRIVE_BATCH, so the last
        // slice is partial.
        const LIMIT: u64 = 2_500;
        let cfg = CacheConfig::new(64 * 1024, 4, 64).unwrap();
        let mut batched = SetAssocCache::lru(cfg);
        let summary = run_source(Benchmark::Ammp.source(Asid::new(1), 5), &mut batched, LIMIT);
        let mut serial = SetAssocCache::lru(cfg);
        let mut src = Benchmark::Ammp.source(Asid::new(1), 5);
        let mut total_latency = 0u64;
        for _ in 0..LIMIT {
            let acc = src.next_access().unwrap();
            total_latency += u64::from(serial.access(Request::from(acc)).latency);
        }
        assert_eq!(summary.accesses(), LIMIT);
        assert_eq!(summary.total_latency(), total_latency);
        assert_eq!(serial.stats(), batched.stats());
    }

    #[test]
    fn observed_driver_matches_batched_and_sees_every_access() {
        const LIMIT: u64 = 2_500;
        let cfg = CacheConfig::new(64 * 1024, 4, 64).unwrap();

        let mut batched = SetAssocCache::lru(cfg);
        let plain = run_source(Benchmark::Mcf.source(Asid::new(1), 9), &mut batched, LIMIT);

        struct Counting {
            events: u64,
            latency: u64,
        }
        impl AccessObserver for Counting {
            fn on_access(&mut self, _req: &Request, out: &AccessOutcome) {
                self.events += 1;
                self.latency += u64::from(out.latency);
            }
        }
        let mut obs = Counting {
            events: 0,
            latency: 0,
        };
        let mut observed = SetAssocCache::lru(cfg);
        let seen = run_source_observed(
            Benchmark::Mcf.source(Asid::new(1), 9),
            &mut observed,
            LIMIT,
            &mut obs,
        );

        assert_eq!(plain, seen);
        assert_eq!(observed.stats(), batched.stats());
        assert_eq!(obs.events, LIMIT);
        assert_eq!(obs.latency, seen.total_latency());
    }

    #[test]
    fn request_slice_driver_matches_streaming_driver() {
        const LIMIT: usize = 2_500;
        let cfg = CacheConfig::new(64 * 1024, 4, 64).unwrap();
        let mut streamed = SetAssocCache::lru(cfg);
        let expected = run_source(
            Benchmark::Ammp.source(Asid::new(1), 5),
            &mut streamed,
            LIMIT as u64,
        );
        let requests: Vec<Request> = Benchmark::Ammp
            .source(Asid::new(1), 5)
            .collect_n(LIMIT)
            .into_iter()
            .map(Request::from)
            .collect();
        let mut replayed = SetAssocCache::lru(cfg);
        assert_eq!(run_requests(&requests, &mut replayed), expected);
        assert_eq!(replayed.stats(), streamed.stats());
    }

    #[test]
    fn limit_zero_is_empty_summary() {
        let cfg = CacheConfig::new(64 * 1024, 4, 64).unwrap();
        let mut cache = SetAssocCache::lru(cfg);
        let src = StrideSource::new(Asid::new(1), Address::new(0), 1024, 64, 0.0, 1);
        let s = run_source(src, &mut cache, 0);
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.avg_latency(), 0.0);
        assert_eq!(s.app_miss_rate(Asid::new(1)), 0.0);
    }
}
