//! The three workloads and what one timed pass of each reports.

pub mod miss_storm;
pub mod repro_tables;
pub mod serve_churn;

use crate::spans::{SpanId, Tracer};
use molcache_core::{MemoStats, MolecularCache};
use molcache_power::calibrate::molecule_report;
use molcache_power::{EnergyMeter, TechNode};
use molcache_sim::{Activity, AppStats, CacheModel};
use std::time::Instant;

/// A workload: inputs generated from a seed, then timed passes over
/// them. Every pass drives the whole input closed-loop (each call is
/// issued after the previous one returns) and reports the same
/// simulated results.
pub trait Workload: Sized {
    /// Name on the command line.
    const NAME: &'static str;
    /// How the modelled caches start each timed pass.
    const START: &'static str;
    /// Whether the inputs are the same for every seed, so the stored
    /// digests apply to every seed and not only the default one.
    const SEED_FREE: bool = false;
    /// Where the `core.*`, `resize.*` and `sim.*` counters come from.
    const COUNTERS: &'static str = "the caches of each timed pass";
    /// Threads a pass keeps busy, and so the host-speed reference kernel
    /// runs on.
    const THREADS: usize = 1;

    /// Generates the inputs from `seed` and builds what a pass needs,
    /// recording trace-generation spans in `tracer`.
    fn prepare(seed: u64, tracer: &mut Tracer) -> Self;

    /// One timed pass, its spans recorded under `parent`.
    fn pass(&mut self, tracer: &mut Tracer, parent: SpanId) -> Pass;
}

/// What one pass did and measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the timed part, seconds.
    pub wall_s: f64,
    /// Simulated accesses driven through `access_batch` calls.
    pub accesses: u64,
    /// Host µs of each `access_batch` call.
    pub batch_us: Vec<f64>,
    /// Host µs of each scheduled lifecycle call (a revoke and its
    /// readmit count as one).
    pub lifecycle_us: Vec<f64>,
    /// Calls and checks attempted.
    pub ops: u64,
    /// Failed calls and failed accounting identities.
    pub errors: Vec<String>,
    /// Digests of the simulated results, by key.
    pub digests: Vec<(String, u64)>,
    /// Per-layer counters (`sim.*`, `core.*`, ...) of this pass.
    pub counters: Vec<(&'static str, f64)>,
    /// Peak resident set while the pass ran, MB (set by the runner).
    pub peak_rss_mb: f64,
    /// Seconds the host-speed reference kernel took, the mean of its
    /// timings just before and just after the pass (set by the runner).
    pub kernel_s: f64,
}

impl Pass {
    /// Counts one check, failing with `msg` unless `ok`.
    pub fn check(&mut self, ok: bool, msg: impl FnOnce() -> String) {
        self.ops += 1;
        if !ok {
            self.errors.push(msg());
        }
    }
}

/// Runs `f`, which processes `items` accesses, inside a span and
/// appends its host µs to `samples`.
pub fn timed<R>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: SpanId,
    items: u64,
    samples: &mut Vec<f64>,
    f: impl FnOnce() -> R,
) -> R {
    let span = tracer.open(name, parent);
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_secs_f64() * 1e6);
    tracer.close(span, items);
    out
}

/// The energy meter of the 8 KB molecule every workload's caches use.
pub fn energy_meter() -> EnergyMeter {
    let node = TechNode::nm70();
    EnergyMeter::for_molecular(&molecule_report(&node), &node)
}

/// Text of one `AppStats`, the unit the digests are built from.
pub fn app_text(s: &AppStats) -> String {
    format!(
        "{} {} {} {} {}",
        s.accesses, s.hits, s.misses, s.writebacks, s.total_latency
    )
}

/// The simulated totals of one or more molecular caches.
#[derive(Debug, Clone, Default)]
pub struct CacheSnapshot {
    /// Cache-wide hit/miss statistics.
    pub global: AppStats,
    /// Activity events.
    pub activity: Activity,
    /// Memo front-end counters.
    pub memo: MemoStats,
    /// Resize rounds executed.
    pub resize_rounds: u64,
    /// Growth requests the free pool could not satisfy.
    pub failed_allocations: u64,
    /// Estimated resize-daemon cycles.
    pub overhead_cycles: u64,
}

impl CacheSnapshot {
    /// Reads the totals of `cache`.
    pub fn of(cache: &MolecularCache) -> Self {
        CacheSnapshot {
            global: cache.stats().global,
            activity: cache.activity(),
            memo: cache.memo_stats().unwrap_or_default(),
            resize_rounds: cache.resize_rounds(),
            failed_allocations: cache.failed_allocations(),
            overhead_cycles: cache.estimated_resize_overhead_cycles(),
        }
    }

    /// Adds another cache's totals.
    pub fn merge(&mut self, other: &CacheSnapshot) {
        self.global.merge(&other.global);
        self.activity.merge(&other.activity);
        self.memo.hits += other.memo.hits;
        self.memo.misses += other.memo.misses;
        self.memo.stale += other.memo.stale;
        self.memo.generation_bumps += other.memo.generation_bumps;
        self.resize_rounds += other.resize_rounds;
        self.failed_allocations += other.failed_allocations;
        self.overhead_cycles += other.overhead_cycles;
    }

    /// Text of the activity counters, for a digest.
    pub fn activity_text(&self) -> String {
        let a = &self.activity;
        format!(
            "{} {} {} {} {} {}",
            a.accesses, a.ways_probed, a.line_fills, a.writebacks, a.asid_compares, a.ulmo_searches
        )
    }

    /// The `core.*`, `resize.*` and `sim.*` counters.
    pub fn counters(&self, meter: &EnergyMeter) -> Vec<(&'static str, f64)> {
        let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
        let a = &self.activity;
        let lookups = self.memo.lookups();
        vec![
            ("core.memo_hit_ratio", ratio(self.memo.hits, lookups)),
            ("core.memo_stale_ratio", ratio(self.memo.stale, lookups)),
            (
                "core.memo_generation_bumps",
                self.memo.generation_bumps as f64,
            ),
            (
                "core.ulmo_searches_per_access",
                ratio(a.ulmo_searches, a.accesses),
            ),
            (
                "core.tag_probes_per_access",
                ratio(a.ways_probed, a.accesses),
            ),
            (
                "core.asid_compares_per_access",
                ratio(a.asid_compares, a.accesses),
            ),
            (
                "core.line_fills_per_access",
                ratio(a.line_fills, a.accesses),
            ),
            (
                "core.writebacks_per_access",
                ratio(a.writebacks, a.accesses),
            ),
            ("resize.rounds", self.resize_rounds as f64),
            ("resize.failed_allocations", self.failed_allocations as f64),
            ("resize.overhead_cycles", self.overhead_cycles as f64),
            ("sim.miss_rate", self.global.miss_rate()),
            ("sim.cycles_per_access", self.global.avg_latency()),
            ("sim.energy_nj_per_access", meter.energy_per_access_nj(a)),
        ]
    }
}
