//! Shared experiment plumbing.

use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_sim::cmp::{run_accesses, run_accesses_observed, run_requests, RunSummary};
use molcache_sim::{CacheModel, Request};
use molcache_telemetry::{Recorder, Sink, SinkHandle};
use molcache_trace::gen::BoxedSource;
use molcache_trace::interleave::{RoundRobin, Workload};
use molcache_trace::presets::Benchmark;
use molcache_trace::Asid;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A deterministic fan-out scheduler for independent experiment points.
///
/// Each item is handed to exactly one worker thread (std scoped threads —
/// no extra dependencies) and the results are merged back **in item
/// order**, so the output of [`Engine::run`] is identical for any worker
/// count. An experiment first builds its trace on the engine
/// ([`workload_requests`] generates every source's share on the workers
/// and merges them in a fixed order), then fans its points out; each
/// point owns its cache and reads that trace read-only, which makes the
/// work function pure given its item. Parallelism therefore cannot
/// change any measured number, only the wall clock.
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
}

impl Engine {
    /// An engine with `jobs` workers (0 is treated as 1).
    pub fn new(jobs: usize) -> Self {
        Engine { jobs: jobs.max(1) }
    }

    /// A single-worker engine that runs everything inline.
    pub fn serial() -> Self {
        Engine::new(1)
    }

    /// Worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` on up to [`Engine::jobs`] workers and returns
    /// the results in item order. With one worker (or one item) the map
    /// runs inline on the calling thread. A panic in `f` propagates.
    pub fn run<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let n = items.len();
        if self.jobs <= 1 || n <= 1 {
            return items.into_iter().map(f).collect();
        }
        // Work-stealing by shared index: workers claim the next undone
        // item, keeping all cores busy even when point costs are skewed
        // (an 8 MB fig5 point costs far more than a 1 MB one).
        let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let f = &f;
        std::thread::scope(|scope| {
            for _ in 0..self.jobs.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i]
                        .lock()
                        .expect("work slot lock")
                        .take()
                        .expect("each item is claimed exactly once");
                    let result = f(item);
                    *slots[i].lock().expect("result slot lock") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot lock")
                    .expect("every slot is filled before scope exit")
            })
            .collect()
    }

    /// Like [`Engine::run`], but hands each item a fresh telemetry
    /// [`SinkHandle`] (closing an epoch every `epoch_length` accesses) and
    /// returns the filled [`Recorder`] next to each result. Recorders come
    /// back **in item order**, so merged epoch streams — like the results
    /// themselves — are identical for any worker count.
    pub fn run_recorded<T, R, F>(
        &self,
        items: Vec<T>,
        epoch_length: u64,
        f: F,
    ) -> Vec<(R, Recorder)>
    where
        T: Send,
        R: Send,
        F: Fn(T, SinkHandle) -> R + Sync,
    {
        self.run(items, move |item| {
            let recorder: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::default()));
            let sink: Arc<Mutex<dyn Sink>> = recorder.clone();
            let result = f(item, SinkHandle::shared(sink, epoch_length));
            let recorder = recorder.lock().expect("recorder lock").clone();
            (result, recorder)
        })
    }
}

/// How many references an experiment simulates.
///
/// The paper's SPEC traces hold ~3.9 M references; [`ExperimentScale::Paper`]
/// matches that. Tests and quick runs use the smaller scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// ~100 K references (CI tests).
    Smoke,
    /// ~1 M references (quick local runs).
    Quick,
    /// ~3.9 M references (the paper's trace length).
    Paper,
    /// Explicit reference count.
    Custom(u64),
}

impl ExperimentScale {
    /// Number of references to drive.
    pub fn references(self) -> u64 {
        match self {
            ExperimentScale::Smoke => 100_000,
            ExperimentScale::Quick => 1_000_000,
            ExperimentScale::Paper => 3_900_000,
            ExperimentScale::Custom(n) => n,
        }
    }
}

/// Builds the molecular configuration used throughout the evaluation:
/// 8 KB molecules, `tiles_per_cluster` tiles per cluster, sized so that
/// `clusters * tiles * tile_bytes = total_bytes`.
///
/// # Panics
///
/// Panics if the geometry does not divide evenly (experiment
/// configurations are all powers of two).
pub fn molecular_config(
    total_bytes: u64,
    clusters: usize,
    tiles_per_cluster: usize,
    policy: RegionPolicy,
    goal: f64,
    seed: u64,
) -> MolecularConfig {
    let molecule = 8 * 1024u64;
    let tile_bytes = total_bytes / (clusters as u64 * tiles_per_cluster as u64);
    assert!(
        tile_bytes >= molecule && tile_bytes.is_multiple_of(molecule),
        "tile size must hold whole molecules"
    );
    MolecularConfig::builder()
        .molecule_size(molecule)
        .tile_molecules((tile_bytes / molecule) as usize)
        .tiles_per_cluster(tiles_per_cluster)
        .clusters(clusters)
        .policy(policy)
        .miss_rate_goal(goal)
        .trigger(ResizeTrigger::GlobalAdaptive {
            initial_period: 25_000,
        })
        .seed(seed)
        .build()
        .expect("experiment geometry is valid")
}

/// Builds the molecular cache for an experiment.
pub fn molecular_cache(
    total_bytes: u64,
    clusters: usize,
    tiles_per_cluster: usize,
    policy: RegionPolicy,
    goal: f64,
    seed: u64,
) -> MolecularCache {
    MolecularCache::new(molecular_config(
        total_bytes,
        clusters,
        tiles_per_cluster,
        policy,
        goal,
        seed,
    ))
}

/// The round-robin interleaving of a benchmark list's preset streams.
/// ASIDs are assigned 1..=n in list order (matching
/// [`molcache_trace::presets::workload`]).
fn preset_round_robin(benchmarks: &[Benchmark], seed: u64) -> RoundRobin {
    let sources: Vec<BoxedSource> = molcache_trace::presets::workload(benchmarks, seed)
        .into_iter()
        .map(|(_, src)| src)
        .collect();
    Workload::new(sources)
        .expect("preset workload is valid")
        .round_robin()
}

/// Runs a benchmark list round-robin through any cache model.
///
/// ASIDs are assigned 1..=n in list order (matching
/// [`molcache_trace::presets::workload`]).
pub fn run_workload_on<C>(
    benchmarks: &[Benchmark],
    cache: &mut C,
    references: u64,
    seed: u64,
) -> RunSummary
where
    C: CacheModel + ?Sized,
{
    run_accesses(preset_round_robin(benchmarks, seed), cache, references)
}

/// Accesses each source generates per round of [`workload_requests`].
/// A round's blocks (16 bytes per request) are all the trace building
/// holds beside the trace itself: 256 KB per source. Blocks of 2^16
/// left paper-scale peak RSS up to 11 MB higher in some runs.
const GENERATION_BLOCK: usize = 1 << 14;

/// The first `references` requests of a benchmark list's round-robin
/// interleaving, materialized so one experiment can replay the same
/// trace to every configuration it compares.
///
/// Equal to `preset_round_robin(benchmarks, seed).take(references)`,
/// request for request, but generated on `engine`:
/// [`presets::workload`] seeds each source apart from the others, so
/// each source's share can be drawn on a different worker. Generation
/// runs in rounds of at most 2^14 accesses per source, and each round's
/// blocks are merged round-robin into the trace before the next round
/// starts. The sources are built on the calling thread, which is cheap:
/// their working sets sample their presets' popularity tables
/// ([`Benchmark::popularity_tables`]), built once per process and
/// shared, so a build allocates no table (tables allocated on the
/// workers stayed in their allocator arenas and raised peak memory).
///
/// [`presets::workload`]: molcache_trace::presets::workload
///
/// # Panics
///
/// Panics if `benchmarks` is empty or a stream ends early. Preset
/// streams never end, so every replay of the trace splits at the same
/// warm-up boundary.
pub fn workload_requests(
    benchmarks: &[Benchmark],
    references: u64,
    seed: u64,
    engine: &Engine,
) -> Vec<Request> {
    let len = usize::try_from(references).expect("trace length fits in memory");
    let apps = benchmarks.len();
    // Round-robin hands source `i` positions `i`, `i + apps`, ..., so the
    // first `len % apps` sources take one request more than the rest. A
    // lane is (source, this round's block, accesses still owed).
    type Lane = (BoxedSource, Vec<Request>, usize);
    let mut lanes: Vec<Lane> = molcache_trace::presets::workload(benchmarks, seed)
        .into_iter()
        .enumerate()
        .map(|(i, (_, source))| {
            let share = len / apps + usize::from(i < len % apps);
            (
                source,
                Vec::with_capacity(share.min(GENERATION_BLOCK)),
                share,
            )
        })
        .collect();
    let generate = |(mut source, mut block, owed): Lane| {
        let n = owed.min(GENERATION_BLOCK);
        block.clear();
        block.extend(
            (0..n).map(|_| Request::from(source.next_access().expect("preset streams never end"))),
        );
        (source, block, owed - n)
    };
    let mut requests = Vec::with_capacity(len);
    while lanes.iter().any(|(_, _, owed)| *owed > 0) {
        lanes = engine.run(lanes, generate);
        let longest = lanes.iter().map(|(_, block, _)| block.len()).max();
        for turn in 0..longest.unwrap_or(0) {
            for (_, block, _) in &lanes {
                if let Some(request) = block.get(turn) {
                    requests.push(*request);
                }
            }
        }
    }
    requests
}

/// Fraction of an experiment's references used to warm the cache (and,
/// for the molecular cache, to let Algorithm 1 size the partitions)
/// before measurement starts. Statistics are reset at the boundary, so
/// reported miss rates are steady-state — matching how trace-driven
/// studies of the paper's era discard cold-start transients.
pub const WARMUP_FRACTION: f64 = 0.25;

/// Drives the first [`WARMUP_FRACTION`] of `requests` through `cache`,
/// resets the statistics, then measures the rest.
pub fn replay_warmed<C>(requests: &[Request], cache: &mut C) -> RunSummary
where
    C: CacheModel + ?Sized,
{
    let warm = (requests.len() as f64 * WARMUP_FRACTION) as usize;
    let (warmup, measured) = requests.split_at(warm);
    run_requests(warmup, cache);
    cache.reset_stats();
    run_requests(measured, cache)
}

/// Like [`run_workload_on`], but publishes every access into `sink` (the
/// latency-histogram feed) while driving. Runs cold — no warmup — so the
/// telemetry stream includes the cold-start growth phase Algorithm 1
/// works through, which is exactly what a partition timeline should show.
pub fn run_workload_recorded<C>(
    benchmarks: &[Benchmark],
    cache: &mut C,
    references: u64,
    seed: u64,
    sink: &SinkHandle,
) -> RunSummary
where
    C: CacheModel + ?Sized,
{
    let mut obs = sink.clone();
    run_accesses_observed(
        preset_round_robin(benchmarks, seed),
        cache,
        references,
        &mut obs,
    )
}

/// The ASID a benchmark receives by its position in the workload list.
pub fn asid_of(position: usize) -> Asid {
    Asid::new(position as u16 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use molcache_sim::{CacheConfig, SetAssocCache};

    #[test]
    fn scale_reference_counts() {
        assert_eq!(ExperimentScale::Smoke.references(), 100_000);
        assert_eq!(ExperimentScale::Paper.references(), 3_900_000);
        assert_eq!(ExperimentScale::Custom(7).references(), 7);
    }

    #[test]
    fn molecular_config_partitions_evenly() {
        // Paper Fig 5: 1MB = 4 tiles of 256KB.
        let cfg = molecular_config(1 << 20, 1, 4, RegionPolicy::Randy, 0.1, 1);
        assert_eq!(cfg.tile_bytes(), 256 << 10);
        assert_eq!(cfg.total_bytes(), 1 << 20);
        // Table 2: 6MB = 3 clusters x 4 tiles x 512KB.
        let cfg2 = molecular_config(6 << 20, 3, 4, RegionPolicy::Random, 0.25, 1);
        assert_eq!(cfg2.tile_bytes(), 512 << 10);
        assert_eq!(cfg2.tile_molecules(), 64);
    }

    #[test]
    fn run_workload_attributes_all_apps() {
        let mut cache = SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap());
        let summary = run_workload_on(&Benchmark::SPEC4, &mut cache, 20_000, 42);
        assert_eq!(summary.per_app.len(), 4);
        assert_eq!(summary.accesses(), 20_000);
    }

    /// The streaming warm-up split [`replay_warmed`] replaces: pull the
    /// round-robin interleaving through [`run_accesses`] twice, resetting
    /// the statistics in between.
    fn streamed_warmed<C: CacheModel>(
        benchmarks: &[Benchmark],
        cache: &mut C,
        references: u64,
        seed: u64,
    ) -> RunSummary {
        let sources: Vec<BoxedSource> = molcache_trace::presets::workload(benchmarks, seed)
            .into_iter()
            .map(|(_, src)| src)
            .collect();
        let mut stream = Workload::new(sources).unwrap().round_robin();
        let warm = (references as f64 * WARMUP_FRACTION) as u64;
        run_accesses(&mut stream, cache, warm);
        cache.reset_stats();
        run_accesses(&mut stream, cache, references - warm)
    }

    fn assert_replay_matches_stream<C: CacheModel>(build: impl Fn() -> C) {
        let requests = workload_requests(&Benchmark::SPEC4, 20_000, 42, &Engine::serial());
        let mut replayed = build();
        let mut streamed = build();
        let summary = replay_warmed(&requests, &mut replayed);
        assert_eq!(
            summary,
            streamed_warmed(&Benchmark::SPEC4, &mut streamed, 20_000, 42)
        );
        assert_eq!(summary.accesses(), 15_000);
        assert_eq!(replayed.stats(), streamed.stats());
        assert_eq!(replayed.activity(), streamed.activity());
    }

    #[test]
    fn replay_warmed_matches_streaming_warmup() {
        use crate::experiments::fig5::{molecular_for, Graph};
        assert_replay_matches_stream(|| {
            SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).unwrap())
        });
        assert_replay_matches_stream(|| molecular_for(Graph::A, 1 << 20, RegionPolicy::Randy));
    }

    /// 64-bit FNV-1a over each request's ASID, address and kind.
    fn fnv1a(requests: &[Request]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for r in requests {
            let kind = u8::from(r.kind == molcache_trace::AccessKind::Write);
            let bytes = r.asid.raw().to_le_bytes().into_iter();
            for b in bytes.chain(r.addr.raw().to_le_bytes()).chain([kind]) {
                hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Pins the experiments' traces: a generator change that moves one
    /// address fails here before it moves a result record.
    #[test]
    fn workload_requests_digests_are_pinned() {
        let pinned: [(&[Benchmark], u64, u64); 3] = [
            (&Benchmark::SPEC4, 42, 0x55a0_1b74_516b_d954),
            (&Benchmark::MIXED12, 7, 0x9953_986c_9a28_949d),
            (&[Benchmark::Crc], 42, 0xfe6a_04c3_fc80_13a4),
        ];
        for (benchmarks, seed, digest) in pinned {
            let requests = workload_requests(benchmarks, 50_000, seed, &Engine::serial());
            assert_eq!(requests.len(), 50_000);
            assert_eq!(
                fnv1a(&requests),
                digest,
                "{benchmarks:?} seed {seed}: {:#018x}",
                fnv1a(&requests)
            );
        }
    }

    /// Generation on the engine yields the streaming interleaving,
    /// request for request, at every worker count. The last length gives
    /// every source a second generation block and the first half of them
    /// one request more.
    #[test]
    fn workload_requests_match_the_stream_on_any_engine() {
        let lists: [&[Benchmark]; 3] = [&Benchmark::SPEC4, &Benchmark::MIXED12, &[Benchmark::Crc]];
        for benchmarks in lists {
            let apps = benchmarks.len();
            for len in [1, 11, 50_000, apps * (GENERATION_BLOCK + 1) + apps / 2] {
                let stream: Vec<Request> = preset_round_robin(benchmarks, 42)
                    .take(len)
                    .map(Request::from)
                    .collect();
                for jobs in 1..=3 {
                    let built = workload_requests(benchmarks, len as u64, 42, &Engine::new(jobs));
                    let first_difference = built.iter().zip(&stream).position(|(b, s)| b != s);
                    assert!(
                        built.len() == len && first_difference.is_none(),
                        "{benchmarks:?}, {len} requests, {jobs} workers: length {}, \
                         first difference at {first_difference:?}",
                        built.len()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole molecules")]
    fn ragged_geometry_panics() {
        molecular_config(1 << 20, 3, 4, RegionPolicy::Randy, 0.1, 1);
    }

    #[test]
    fn engine_preserves_item_order() {
        let items: Vec<u64> = (0..53).collect();
        let serial = Engine::serial().run(items.clone(), |x| x * x);
        let parallel = Engine::new(4).run(items, |x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[7], 49);
    }

    #[test]
    fn engine_handles_more_workers_than_items() {
        let out = Engine::new(8).run(vec![1, 2], |x| x + 1);
        assert_eq!(out, vec![2, 3]);
    }

    #[test]
    fn engine_zero_jobs_is_serial() {
        let e = Engine::new(0);
        assert_eq!(e.jobs(), 1);
        assert_eq!(e.run(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
    }

    #[test]
    fn run_recorded_is_worker_count_invariant() {
        use molcache_core::ResizeTrigger;
        let drive = |seed: u64, sink: SinkHandle| {
            let cfg = MolecularConfig::builder()
                .molecule_size(8 * 1024)
                .tile_molecules(16)
                .tiles_per_cluster(2)
                .clusters(1)
                .trigger(ResizeTrigger::Constant { period: 2_000 })
                .seed(seed)
                .build()
                .unwrap();
            let mut cache = MolecularCache::new(cfg).with_sink(sink.clone());
            run_workload_recorded(&Benchmark::SPEC4, &mut cache, 10_000, seed, &sink)
        };
        let items: Vec<u64> = vec![1, 2, 3];
        let serial = Engine::serial().run_recorded(items.clone(), 2_500, drive);
        let parallel = Engine::new(4).run_recorded(items, 2_500, drive);
        assert_eq!(serial.len(), parallel.len());
        for ((s_sum, s_rec), (p_sum, p_rec)) in serial.iter().zip(parallel.iter()) {
            assert_eq!(s_sum, p_sum);
            assert_eq!(
                s_rec.to_json().unwrap(),
                p_rec.to_json().unwrap(),
                "telemetry export must not depend on worker count"
            );
            assert_eq!(s_rec.epochs().len(), 4, "10000 refs / 2500-long epochs");
            assert_eq!(s_rec.global_latency().count(), 10_000);
        }
    }

    #[test]
    fn engine_runs_boxed_thunks() {
        let thunks: Vec<Box<dyn FnOnce() -> String + Send>> = vec![
            Box::new(|| "a".to_string()),
            Box::new(|| "b".to_string()),
            Box::new(|| "c".to_string()),
        ];
        let out = Engine::new(2).run(thunks, |t| t());
        assert_eq!(out.concat(), "abc");
    }
}
