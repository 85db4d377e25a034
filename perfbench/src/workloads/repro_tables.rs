//! `repro_tables`: every experiment of `repro all`, in its order, run
//! in-process through `Engine::new(2)` at one fixed reference count,
//! each with its rendered table and JSON record.
//!
//! The experiments fix their own trace seeds (the paper's methodology),
//! so the inputs, and the stored record digests, are the same for every
//! `--seed`. The experiments generate and interleave their traces
//! inline, where no span can reach, so set-up calibrates those layers:
//! it generates the SPEC4 and MIXED12 streams from `--seed`, interleaves
//! them round-robin and drives them through a cache of the kind the
//! experiments build. The experiments' own caches live and die inside
//! `run_with`, so the `core.*`, `resize.*` and `sim.*` counters of this
//! workload are those of the two calibration caches.

use super::{energy_meter, CacheSnapshot, Pass, Workload};
use crate::catalog::EXPERIMENTS;
use crate::digest::fnv1a;
use crate::spans::{SpanId, Tracer};
use molcache_bench::experiments::table2::Table2;
use molcache_bench::experiments::{ablations, fig5, fig6, table1, table2, table4, table5};
use molcache_bench::harness::molecular_cache;
use molcache_bench::{Engine, ExperimentScale};
use molcache_core::{MolecularCache, RegionPolicy};
use molcache_metrics::record::ExperimentRecord;
use molcache_sim::{CacheModel, Request};
use molcache_trace::gen::{BoxedSource, ReplaySource, TraceSource};
use molcache_trace::interleave::Workload as Streams;
use molcache_trace::presets::{self, Benchmark};
use std::hint::black_box;
use std::time::Instant;

/// References each experiment point simulates.
pub const REFS: u64 = 50_000;
/// Worker threads of the experiment engine.
pub const JOBS: usize = 2;

/// Requests per `access_batch` call of the set-up calibration.
const CALIBRATION_CHUNK: usize = 1024;

/// The experiment engine, and the counters of the set-up calibration.
pub struct ReproTables {
    engine: Engine,
    counters: Vec<(&'static str, f64)>,
}

/// Times trace generation, round-robin interleaving and bare
/// `access_batch` on `REFS` accesses of each of SPEC4 (through a 1 MB
/// cluster, fig5's smallest) and MIXED12 (through table2's 6 MB cache),
/// and returns the two caches' summed totals.
fn calibrate(seed: u64, tracer: &mut Tracer) -> CacheSnapshot {
    let lists: [(&[Benchmark], MolecularCache); 2] = [
        (
            &Benchmark::SPEC4,
            molecular_cache(1 << 20, 1, 4, RegionPolicy::Randy, 0.1, seed),
        ),
        (
            &Benchmark::MIXED12,
            table2::molecular_6mb(RegionPolicy::Randy, seed),
        ),
    ];
    let mut snap = CacheSnapshot::default();
    for (list, mut cache) in lists {
        let per_app = (REFS / list.len() as u64) as usize;
        let total = (per_app * list.len()) as u64;
        let sources: Vec<BoxedSource> = tracer.scope("trace.gen", None, total, || {
            presets::workload(list, seed)
                .into_iter()
                .map(|(asid, mut src)| {
                    Box::new(ReplaySource::new(asid, src.collect_n(per_app))) as BoxedSource
                })
                .collect()
        });
        let streams = Streams::new(sources).expect("preset workload is valid");
        let requests: Vec<Request> = tracer.scope("trace.interleave", None, total, || {
            streams.round_robin().map(Request::from).collect()
        });
        for chunk in requests.chunks(CALIBRATION_CHUNK) {
            let out = tracer.scope("core.access_batch", None, chunk.len() as u64, || {
                cache.access_batch(chunk)
            });
            black_box(out);
        }
        snap.merge(&CacheSnapshot::of(&cache));
    }
    snap
}

/// Runs experiment `id` as `repro` does, renders it and returns its
/// record. `table5` reuses the result of `table2`, which runs before it.
fn run_experiment(
    id: &str,
    scale: ExperimentScale,
    engine: &Engine,
    t2: &mut Option<Table2>,
) -> ExperimentRecord {
    match id {
        "table1" => {
            let t = table1::run_with(scale, engine);
            black_box(t.render());
            t.record()
        }
        "fig5a" | "fig5b" => {
            let graph = if id == "fig5a" {
                fig5::Graph::A
            } else {
                fig5::Graph::B
            };
            let f = fig5::run_with(graph, scale, engine);
            black_box(f.render());
            f.record()
        }
        "table2" => {
            let t = table2::run_with(scale, engine);
            black_box(t.render());
            t2.insert(t).record()
        }
        "table4" => {
            let t = table4::run_with(scale, engine);
            black_box(t.render());
            t.record()
        }
        "fig6" => {
            let f = fig6::run_with(scale, engine);
            black_box(f.render());
            f.record()
        }
        "table5" => {
            let t = table5::run_from_table2(t2.as_ref().expect("table2 ran first"));
            black_box(t.render());
            t.record()
        }
        "ablations" => {
            black_box(ablations::run_with(scale, engine));
            ablations::record_with(scale, engine)
        }
        other => unreachable!("no experiment `{other}`"),
    }
}

impl Workload for ReproTables {
    const NAME: &'static str = "repro_tables";
    const START: &'static str = "as repro runs them (each experiment point warms its own cache)";
    const SEED_FREE: bool = true;
    const COUNTERS: &'static str =
        "the set-up calibration caches (the experiments' own caches are internal)";
    const THREADS: usize = JOBS;

    fn prepare(seed: u64, tracer: &mut Tracer) -> Self {
        let snap = calibrate(seed, tracer);
        ReproTables {
            engine: Engine::new(JOBS),
            counters: snap.counters(&energy_meter()),
        }
    }

    fn pass(&mut self, tracer: &mut Tracer, parent: SpanId) -> Pass {
        let scale = ExperimentScale::Custom(REFS);
        let mut t2 = None;
        let mut ids = Vec::with_capacity(EXPERIMENTS.len());
        let mut pass = Pass::default();
        let start = Instant::now();
        for e in &EXPERIMENTS {
            let record = tracer.scope(e.span, parent, 0, || {
                run_experiment(e.id, scale, &self.engine, &mut t2)
            });
            let json = tracer.scope("metrics.record_json", parent, 0, || record.to_json());
            pass.digests.push((e.id.to_string(), fnv1a(&json)));
            pass.ops += 1;
            ids.push(record.id);
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        let want: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        pass.check(ids == want, || format!("experiment ids {ids:?}"));
        pass.counters = self.counters.clone();
        pass
    }
}
