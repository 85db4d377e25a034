//! `miss_storm`: uniform-random reads over 1 GiB against a 1 MB cache
//! whose single region spans every tile, driven through the bare
//! `MolecularCache::access_batch` on one thread. Ulmo search, victim
//! selection and fill do almost all the work; the memo front-end
//! almost never hits.

use super::{app_text, energy_meter, CacheSnapshot, Pass, Workload};
use crate::digest::fnv1a;
use crate::spans::{SpanId, Tracer};
use molcache_bench::workloads::{miss_storm_cache, miss_storm_requests};
use molcache_power::EnergyMeter;
use molcache_sim::{BatchOutcome, CacheModel, Request};
use std::time::Instant;

/// Requests per pass.
pub const REFS: u64 = 1 << 18;
/// Requests per `access_batch` call.
pub const CHUNK: usize = 1024;

/// Inputs of the workload.
pub struct MissStorm {
    seed: u64,
    requests: Vec<Request>,
    meter: EnergyMeter,
}

impl Workload for MissStorm {
    const NAME: &'static str = "miss_storm";
    const START: &'static str = "empty (a fresh miss_storm_cache per pass)";

    fn prepare(seed: u64, tracer: &mut Tracer) -> Self {
        let requests = tracer.scope("trace.gen", None, REFS, || miss_storm_requests(REFS, seed));
        MissStorm {
            seed,
            requests,
            meter: energy_meter(),
        }
    }

    fn pass(&mut self, tracer: &mut Tracer, parent: SpanId) -> Pass {
        let mut cache = miss_storm_cache(self.seed, true);
        let mut pass = Pass::default();
        let mut total = BatchOutcome::default();
        let start = Instant::now();
        for chunk in self.requests.chunks(CHUNK) {
            let out = super::timed(
                tracer,
                "core.access_batch",
                parent,
                chunk.len() as u64,
                &mut pass.batch_us,
                || cache.access_batch(chunk),
            );
            total.merge(&out);
            pass.ops += 1;
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.accesses = total.accesses;

        let stats = cache.stats();
        let snap = CacheSnapshot::of(&cache);
        let g = &stats.global;
        pass.check(total.accesses == REFS && g.accesses == REFS, || {
            format!(
                "{REFS} requests, {} batched, {} counted",
                total.accesses, g.accesses
            )
        });
        pass.check(g.hits + g.misses == g.accesses, || {
            format!("hits + misses != accesses: {}", app_text(g))
        });
        pass.check(total.hits == g.hits, || {
            format!("batches hit {} times, stats say {}", total.hits, g.hits)
        });
        let per_app: Vec<String> = stats
            .per_app
            .iter()
            .map(|(asid, s)| format!("{} {}", asid.raw(), app_text(s)))
            .collect();
        let stats_text = format!("{} | {}", app_text(g), per_app.join(" | "));
        pass.digests = vec![
            ("stats".into(), fnv1a(&stats_text)),
            ("activity".into(), fnv1a(&snap.activity_text())),
        ];
        pass.counters = snap.counters(&self.meter);
        pass
    }
}
