//! Workload builders for the policy tournament (`moltourney`) and the
//! `miss_storm` workload of the `perfbench` benchmark.
//!
//! The tournament suite is `single:<bm>`, `mixed12`, `miss_storm` and
//! `serve_mt`; `perfbench` builds its `miss_storm` cache and stream with
//! the same functions, so the two measure the same request stream and
//! cache geometry. Every builder is a pure function of `(refs, seed)`:
//! two calls with the same arguments produce bit-identical streams on
//! any host.

use crate::experiments::table2;
use crate::harness::{molecular_cache, workload_requests, Engine};
use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_sim::Request;
use molcache_trace::gen::TraceSource;
use molcache_trace::presets::Benchmark;
use molcache_trace::rng::Rng;
use molcache_trace::tenants::{interleave_chunked, tenant_traces};
use molcache_trace::{AccessKind, Address, Asid};

/// Benchmarks the single-stream workloads cover: one cache-friendly
/// (crc), one streaming (mcf), two mixed-locality (ammp, parser).
pub const SINGLES: [Benchmark; 4] = [
    Benchmark::Ammp,
    Benchmark::Mcf,
    Benchmark::Crc,
    Benchmark::Parser,
];

/// Tenant count of the `serve_mt` workloads. Fixed, not host-derived:
/// workload definitions must be identical across machines for records
/// to be comparable.
pub const SERVE_TENANTS: usize = 4;

/// Chunk size of the `serve_mt` round-robin interleaving — matches the
/// service replay's default.
pub const SERVE_CHUNK: usize = 256;

/// Footprint of the `miss_storm` address stream: 1 GiB of
/// uniform-random lines against a 1 MB cache leaves a ~0.1% residual
/// hit rate, so essentially every access walks the whole miss path —
/// home-tile gate and probe, the Ulmo search across every remote tile
/// of the region, victim selection, block fill.
pub const MISS_STORM_FOOTPRINT: u64 = 1 << 30;

/// One benchmark's stream as a replayable request vector.
pub fn single_requests(bm: Benchmark, n: u64, seed: u64) -> Vec<Request> {
    let mut src = bm.source(Asid::new(1), seed);
    src.collect_n(n as usize)
        .into_iter()
        .map(Request::from)
        .collect()
}

/// The 1 MB single-app cache the microbenches use (one cluster of 4
/// tiles, Randy replacement, 10% miss-rate goal).
pub fn cache_1mb(seed: u64) -> MolecularCache {
    molecular_cache(1 << 20, 1, 4, RegionPolicy::Randy, 0.1, seed)
}

/// The `miss_storm` cache: the single tenant's region grown to span
/// every tile of the cluster, so virtually every access misses the
/// home tile and drives the cross-tile search over all remote tiles.
///
/// `_memo` has no effect: the line index answers every access. The
/// parameter stays so that existing callers compile.
pub fn miss_storm_cache(seed: u64, _memo: bool) -> MolecularCache {
    let mut cache = cache_1mb(seed);
    cache.admit_app(Asid::new(1));
    let total = cache.config().total_molecules();
    let spanned = cache
        .set_region_size(Asid::new(1), total)
        .expect("admitted above");
    assert_eq!(spanned, total, "miss_storm region must span every tile");
    cache
}

/// The `miss_storm` request stream: one tenant, uniform-random reads.
pub fn miss_storm_requests(n: u64, seed: u64) -> Vec<Request> {
    let mut rng = Rng::seeded(seed ^ 0x5702_13A7);
    (0..n)
        .map(|_| Request {
            asid: Asid::new(1),
            addr: Address::new(rng.next_u64() % MISS_STORM_FOOTPRINT),
            kind: AccessKind::Read,
        })
        .collect()
}

/// The `serve_mt` traffic as one serialized stream: [`SERVE_TENANTS`]
/// tenant traces in the chunked round-robin order the sharded service
/// replays them in, flattened for a single cache. `n` is the total
/// across tenants.
pub fn serve_mt_requests(n: u64, seed: u64) -> Vec<Request> {
    let per_tenant = (n / SERVE_TENANTS as u64).max(1);
    let traces = tenant_traces(SERVE_TENANTS, per_tenant, seed);
    interleave_chunked(&traces, SERVE_CHUNK)
        .into_iter()
        .map(Request::from)
        .collect()
}

/// Resize-trigger period of the tournament caches. The paper's 25 K
/// window barely fires at smoke scale (20 K refs/cell), which would
/// score every policy on a cache that never resized; the tournament
/// shortens the window so every cell executes many resize rounds and
/// the policies' decision-making actually differentiates them.
pub const TOURNEY_PERIOD: u64 = 2_500;

/// The 1 MB cache with an explicit resize period — same geometry as
/// [`cache_1mb`] (one cluster of 4 × 32 × 8 KiB-molecule tiles, Randy,
/// 10% goal), used by the tournament.
pub fn cache_1mb_with_period(seed: u64, initial_period: u64) -> MolecularCache {
    let mut builder = MolecularConfig::builder();
    builder
        .molecule_size(8 * 1024)
        .tile_molecules(32)
        .tiles_per_cluster(4)
        .clusters(1)
        .policy(RegionPolicy::Randy)
        .miss_rate_goal(0.1)
        .trigger(ResizeTrigger::GlobalAdaptive { initial_period })
        .seed(seed);
    MolecularCache::new(builder.build().expect("tourney geometry is valid"))
}

/// The workload roster the tournament scores, in suite order.
pub fn tourney_workloads() -> Vec<String> {
    let mut names: Vec<String> = SINGLES
        .iter()
        .map(|bm| format!("single:{}", bm.name().to_ascii_lowercase()))
        .collect();
    names.extend(["mixed12", "miss_storm", "serve_mt"].map(String::from));
    names
}

/// A fresh cache plus its request stream for one named workload.
pub struct BuiltWorkload {
    /// Suite name (`single:ammp`, `mixed12`, ...).
    pub name: String,
    /// The cache, before any policy installation or traffic.
    pub cache: MolecularCache,
    /// The full request stream.
    pub requests: Vec<Request>,
}

/// Builds one named tournament workload, or `None` for an unknown name.
/// `refs` is the total access count; streams and geometries depend only
/// on `(name, refs, seed)`. The caches run the [`TOURNEY_PERIOD`]
/// resize window so policies get many decision rounds per cell.
pub fn build_workload(name: &str, refs: u64, seed: u64) -> Option<BuiltWorkload> {
    let (cache, requests) = match name {
        // moltourney builds each cell on an engine worker already.
        "mixed12" => (
            table2::molecular_6mb_with_period(RegionPolicy::Randy, seed, TOURNEY_PERIOD),
            workload_requests(&Benchmark::MIXED12, refs, seed, &Engine::serial()),
        ),
        "miss_storm" => {
            let mut cache = cache_1mb_with_period(seed, TOURNEY_PERIOD);
            cache.admit_app(Asid::new(1));
            let total = cache.config().total_molecules();
            cache
                .set_region_size(Asid::new(1), total)
                .expect("admitted above");
            (cache, miss_storm_requests(refs, seed))
        }
        "serve_mt" => (
            cache_1mb_with_period(seed, TOURNEY_PERIOD),
            serve_mt_requests(refs, seed),
        ),
        _ => {
            let bm = SINGLES
                .iter()
                .find(|bm| name.strip_prefix("single:") == Some(&bm.name().to_ascii_lowercase()))
                .copied()?;
            (
                cache_1mb_with_period(seed, TOURNEY_PERIOD),
                single_requests(bm, refs, seed),
            )
        }
    };
    Some(BuiltWorkload {
        name: name.to_string(),
        cache,
        requests,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_roster_workload_builds() {
        for name in tourney_workloads() {
            let built = build_workload(&name, 512, 7).expect("roster name builds");
            assert_eq!(built.name, name);
            assert!(!built.requests.is_empty(), "{name} produced requests");
        }
        assert!(build_workload("single:nope", 512, 7).is_none());
        assert!(build_workload("bogus", 512, 7).is_none());
    }

    #[test]
    fn builders_are_deterministic() {
        let a = build_workload("serve_mt", 1_000, 42).unwrap();
        let b = build_workload("serve_mt", 1_000, 42).unwrap();
        assert_eq!(a.requests, b.requests);
        let storm = miss_storm_requests(100, 9);
        assert_eq!(storm, miss_storm_requests(100, 9));
        assert!(storm.iter().all(|r| r.addr.raw() < MISS_STORM_FOOTPRINT));
    }

    #[test]
    fn serve_mt_carries_all_tenants() {
        let reqs = serve_mt_requests(4_000, 3);
        assert_eq!(reqs.len(), 4_000);
        let mut asids: Vec<u16> = reqs.iter().map(|r| r.asid.raw()).collect();
        asids.sort_unstable();
        asids.dedup();
        assert_eq!(asids.len(), SERVE_TENANTS);
    }
}
