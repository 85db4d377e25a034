//! Design-choice ablations called out in §3.4 of the paper.
//!
//! The paper motivates several choices with one-line experimental
//! observations; these ablations make them measurable:
//!
//! * **Resize trigger** — constant vs global-adaptive vs
//!   per-application-adaptive periods ("adaptive schemes perform better
//!   than constant address schemes").
//! * **Initial allocation** — 2 molecules vs half a tile ("when small
//!   initial partition size is used frequent repartitions are required").
//! * **Growth chunk** — single-molecule increments vs chunked growth
//!   ("single molecule increments are less effective").
//! * **Line-size factor** — 1/2/4-line region blocks on a streaming
//!   workload (§3.2's spatial-locality motivation).
//! * **Replacement scheme** — Random vs Randy vs the future-work
//!   LRU-Direct scheme (§5: "a different scheme for replacements such as
//!   an LRU-Direct scheme needs to be evaluated").
//! * **Molecule size** — 8, 16 and 32 KB molecules at 2 MB total (the
//!   paper's §3 building-block range).
//! * **Configured way size** — the `row_max` of the Randy replacement
//!   view: per-row isolation (more rows) vs associativity per row.
//!
//! Every variant is one labelled point of the [`plan`]: a trace and a
//! [`MolecularConfig`]. Seven of the 22 points are the same base cache
//! (2 MB Randy, global-adaptive trigger, half-tile start, quarter-tile
//! chunks, `row_max` 8), so [`Ablations::measure`] simulates each
//! distinct (trace, configuration) pair once — 16 simulations — and
//! fans them out one by one.

use crate::harness::{asid_of, replay_warmed, workload_requests, Engine, ExperimentScale};
use molcache_core::{
    InitialAllocation, MolecularCache, MolecularConfig, MolecularConfigBuilder, RegionPolicy,
    ResizeTrigger,
};
use molcache_metrics::deviation::{average_deviation, MissRateGoal};
use molcache_metrics::record::{ConfigResult, ExperimentRecord, Metric};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_sim::cmp::{run_requests, RunSummary};
use molcache_sim::Request;
use molcache_trace::presets::Benchmark;

const GOAL: f64 = 0.10;

/// Capacity of every ablation cache: one cluster of four tiles.
const SIZE: u64 = 2 << 20;

/// The ablations' base cache — 8 KB molecules, Randy, the 10 % goal and
/// the builder's defaults for everything else — varied by `vary`.
fn config(
    vary: impl FnOnce(&mut MolecularConfigBuilder) -> &mut MolecularConfigBuilder,
) -> MolecularConfig {
    let mut b = MolecularConfig::builder();
    b.molecule_size(8 * 1024)
        .tile_molecules((SIZE / 4 / 8192) as usize)
        .tiles_per_cluster(4)
        .clusters(1)
        .policy(RegionPolicy::Randy)
        .miss_rate_goal(GOAL)
        .seed(42);
    vary(&mut b);
    b.build().expect("ablation geometry is valid")
}

/// The trace an ablation point replays, and how the point is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trace {
    /// SPEC4 (seed 42), warmed up and scored by its average deviation
    /// from the goal.
    Spec4,
    /// CRC (seed 42), driven cold and scored by its miss rate.
    Crc,
}

/// One labelled point of the ablation [`plan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Variant label, as the report prints it.
    pub label: String,
    /// The trace the point replays.
    pub trace: Trace,
    /// The cache the point simulates.
    pub config: MolecularConfig,
}

/// The ablation plan: the points of ablations A–G, one group per
/// ablation, in report order.
pub fn plan() -> [Vec<Point>; 7] {
    fn spec4(
        label: impl Into<String>,
        vary: impl FnOnce(&mut MolecularConfigBuilder) -> &mut MolecularConfigBuilder,
    ) -> Point {
        Point {
            label: label.into(),
            trace: Trace::Spec4,
            config: config(vary),
        }
    }
    let triggers = [
        ("constant(25k)", ResizeTrigger::Constant { period: 25_000 }),
        (
            "global-adaptive(25k)",
            ResizeTrigger::GlobalAdaptive {
                initial_period: 25_000,
            },
        ),
        (
            "per-app-adaptive(25k)",
            ResizeTrigger::PerAppAdaptive {
                initial_period: 25_000,
            },
        ),
    ];
    let initial = [
        ("2 molecules", InitialAllocation::Molecules(2)),
        ("half tile", InitialAllocation::HalfTile),
        ("32 molecules", InitialAllocation::Molecules(32)),
    ];
    let schemes = [
        RegionPolicy::Random,
        RegionPolicy::Randy,
        RegionPolicy::LruDirect,
    ];
    [
        // A: resize trigger schemes.
        triggers
            .map(|(label, trigger)| spec4(label, |b| b.trigger(trigger)))
            .into(),
        // B: initial allocation.
        initial
            .map(|(label, alloc)| spec4(label, |b| b.initial_allocation(alloc)))
            .into(),
        // C: growth chunk (single-molecule vs quarter-tile chunks).
        [1usize, 4, 16]
            .map(|chunk| {
                spec4(format!("max_allocation={chunk}"), |b| {
                    b.max_allocation(chunk)
                })
            })
            .into(),
        // D: region line-size factor on a streaming-heavy application.
        [1u32, 2, 4]
            .map(|factor| Point {
                label: format!("{factor}x64B"),
                trace: Trace::Crc,
                config: config(|b| b.app_line_factor(asid_of(0), factor)),
            })
            .into(),
        // E: replacement schemes.
        schemes
            .map(|policy| spec4(policy.to_string(), |b| b.policy(policy)))
            .into(),
        // F: molecule size at 2 MB total.
        [8u64, 16, 32]
            .map(|kb| {
                spec4(format!("{kb}KB molecules"), |b| {
                    b.molecule_size(kb * 1024)
                        .tile_molecules((SIZE / 4 / (kb * 1024)) as usize)
                })
            })
            .into(),
        // G: configured way size (`row_max`).
        [2usize, 4, 8, 16]
            .map(|rows| spec4(format!("row_max={rows}"), |b| b.row_max(rows)))
            .into(),
    ]
}

/// The distinct simulations behind `points`: each (trace, configuration)
/// once, in order of first use, and for every point the index of its
/// simulation. Equal points are found by comparing configurations, so a
/// variant that repeats another point's cache is simulated once.
fn distinct<'a>(points: impl IntoIterator<Item = &'a Point>) -> (Vec<&'a Point>, Vec<usize>) {
    let mut runs: Vec<&Point> = Vec::new();
    let mut run_of = Vec::new();
    for point in points {
        let same = |run: &&Point| run.trace == point.trace && run.config == point.config;
        run_of.push(runs.iter().position(same).unwrap_or_else(|| {
            runs.push(point);
            runs.len() - 1
        }));
    }
    (runs, run_of)
}

/// What one simulation measured.
struct Outcome {
    summary: RunSummary,
    resize_rounds: u64,
    failed_allocations: u64,
}

/// Simulates `point` on its trace: SPEC4 with the usual warm-up, CRC
/// cold.
fn simulate(point: &Point, spec4: &[Request], crc: &[Request]) -> Outcome {
    let mut cache = MolecularCache::new(point.config.clone());
    let summary = match point.trace {
        Trace::Spec4 => replay_warmed(spec4, &mut cache),
        Trace::Crc => run_requests(crc, &mut cache),
    };
    Outcome {
        summary,
        resize_rounds: cache.resize_rounds(),
        failed_allocations: cache.failed_allocations(),
    }
}

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// Variant label.
    pub label: String,
    /// Average deviation from the goal over the SPEC4 workload.
    pub avg_deviation: f64,
    /// Resize rounds executed.
    pub resize_rounds: u64,
    /// Failed (molecule-starved) allocations.
    pub failed_allocations: u64,
}

impl AblationResult {
    /// Scores a SPEC4 point against the goal.
    fn score(point: &Point, outcome: &Outcome) -> Self {
        let goals = MissRateGoal::uniform(GOAL);
        let avg = average_deviation(
            (0..4).map(|i| (asid_of(i), outcome.summary.app_miss_rate(asid_of(i)))),
            &goals,
        );
        AblationResult {
            label: point.label.clone(),
            avg_deviation: avg,
            resize_rounds: outcome.resize_rounds,
            failed_allocations: outcome.failed_allocations,
        }
    }
}

/// Renders the standard ablation table (variant, deviation, resize and
/// starvation counters).
fn ablation_table(first_col: &str, rows: &[AblationResult]) -> String {
    let mut t = Table::new(vec![first_col, "avg deviation", "resizes", "starved"]);
    for r in rows {
        t.row(vec![
            r.label.clone(),
            fmt_f64(r.avg_deviation, 3),
            r.resize_rounds.to_string(),
            r.failed_allocations.to_string(),
        ]);
    }
    t.render()
}

/// Every ablation, measured once: [`render`](Self::render) and
/// [`record`](Self::record) read the same measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablations {
    /// Ablation A: resize triggers.
    pub triggers: Vec<AblationResult>,
    /// Ablation B: initial allocation.
    pub initial: Vec<AblationResult>,
    /// Ablation C: growth chunk.
    pub chunk: Vec<AblationResult>,
    /// Ablation D: `(line factor, CRC miss rate)` pairs.
    pub line_factor: Vec<(u32, f64)>,
    /// Ablation E: replacement schemes.
    pub schemes: Vec<AblationResult>,
    /// Ablation F: molecule size.
    pub molecule: Vec<AblationResult>,
    /// Ablation G: configured way size (`row_max`).
    pub rows: Vec<AblationResult>,
    /// References simulated per point.
    pub references: u64,
}

impl Ablations {
    /// Measures every point of the [`plan`]. Both traces — SPEC4 and CRC,
    /// seed 42 — are built once on the engine; the plan's distinct
    /// simulations then fan out one by one across its workers, and each
    /// point reads its simulation's outcome. The results do not depend
    /// on the worker count.
    pub fn measure(scale: ExperimentScale, engine: &Engine) -> Self {
        let refs = scale.references();
        let spec4 = workload_requests(&Benchmark::SPEC4, refs, 42, engine);
        let crc = workload_requests(&[Benchmark::Crc], refs, 42, engine);
        let plan = plan();
        let (runs, run_of) = distinct(plan.iter().flatten());
        let outcomes = engine.run(runs, |point| simulate(point, &spec4, &crc));
        let mut run_of = run_of.into_iter();
        let [triggers, initial, chunk, line_factor, schemes, molecule, rows] = plan.map(|group| {
            group
                .into_iter()
                .map(|point| (point, &outcomes[run_of.next().expect("one run per point")]))
                .collect::<Vec<_>>()
        });
        let scored = |group: Vec<(Point, &Outcome)>| {
            group
                .iter()
                .map(|(point, outcome)| AblationResult::score(point, outcome))
                .collect()
        };
        Ablations {
            triggers: scored(triggers),
            initial: scored(initial),
            chunk: scored(chunk),
            line_factor: line_factor
                .iter()
                .map(|(point, outcome)| {
                    (
                        point.config.line_factor(asid_of(0)),
                        outcome.summary.app_miss_rate(asid_of(0)),
                    )
                })
                .collect(),
            schemes: scored(schemes),
            molecule: scored(molecule),
            rows: scored(rows),
            references: refs,
        }
    }

    /// The combined report, one section per ablation.
    pub fn render(&self) -> String {
        let mut line_factor = Table::new(vec!["line factor", "CRC miss rate"]);
        for (factor, mr) in &self.line_factor {
            line_factor.row(vec![format!("{factor}x64B"), fmt_f64(*mr, 3)]);
        }
        [
            format!(
                "Ablation A: resize triggers (2MB)\n{}\n",
                ablation_table("variant", &self.triggers)
            ),
            format!(
                "Ablation B: initial allocation\n{}\n",
                ablation_table("variant", &self.initial)
            ),
            format!(
                "Ablation C: growth chunk\n{}\n",
                ablation_table("variant", &self.chunk)
            ),
            format!("Ablation D: line-size factor\n{}\n", line_factor.render()),
            format!(
                "Ablation E: replacement schemes (incl. future-work LRU-Direct)\n{}\n",
                ablation_table("scheme", &self.schemes)
            ),
            format!(
                "Ablation F: molecule size (2MB total)\n{}\n",
                ablation_table("variant", &self.molecule)
            ),
            format!(
                "Ablation G: configured way size (row_max)\n{}",
                ablation_table("variant", &self.rows)
            ),
        ]
        .concat()
    }

    /// Machine-readable record of all ablations.
    pub fn record(&self) -> ExperimentRecord {
        fn deviation_results(prefix: &str, rows: &[AblationResult]) -> Vec<ConfigResult> {
            rows.iter()
                .map(|r| ConfigResult {
                    label: format!("{prefix}:{}", r.label),
                    metrics: vec![Metric::new("avg_deviation", r.avg_deviation)],
                })
                .collect()
        }
        fn resize_results(prefix: &str, rows: &[AblationResult]) -> Vec<ConfigResult> {
            rows.iter()
                .map(|r| ConfigResult {
                    label: format!("{prefix}:{}", r.label),
                    metrics: vec![
                        Metric::new("avg_deviation", r.avg_deviation),
                        Metric::new("resize_rounds", r.resize_rounds as f64),
                    ],
                })
                .collect()
        }
        let line_factor = self
            .line_factor
            .iter()
            .map(|(factor, mr)| ConfigResult {
                label: format!("line_factor:{factor}"),
                metrics: vec![Metric::new("crc_miss_rate", *mr)],
            })
            .collect();
        let results = [
            resize_results("trigger", &self.triggers),
            resize_results("initial", &self.initial),
            deviation_results("chunk", &self.chunk),
            line_factor,
            deviation_results("scheme", &self.schemes),
            deviation_results("molecule", &self.molecule),
            deviation_results("rows", &self.rows),
        ]
        .concat();
        ExperimentRecord {
            id: "ablations".into(),
            workload: "SPEC4 on 2MB molecular / CRC streaming".into(),
            references: self.references,
            results,
        }
    }
}

/// Runs every ablation serially and renders a combined report.
pub fn run(scale: ExperimentScale) -> String {
    run_with(scale, &Engine::serial())
}

/// Measures every ablation on the engine and renders the combined
/// report (see [`Ablations`]).
pub fn run_with(scale: ExperimentScale, engine: &Engine) -> String {
    Ablations::measure(scale, engine).render()
}

/// Machine-readable record of all ablations (serial).
pub fn record(scale: ExperimentScale) -> ExperimentRecord {
    record_with(scale, &Engine::serial())
}

/// Measures every ablation on the engine and returns the
/// machine-readable record (see [`Ablations`]).
pub fn record_with(scale: ExperimentScale, engine: &Engine) -> ExperimentRecord {
    Ablations::measure(scale, engine).record()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Every ablation at 250 K references, measured once for all tests.
    fn measured() -> &'static Ablations {
        static MEASURED: OnceLock<Ablations> = OnceLock::new();
        MEASURED
            .get_or_init(|| Ablations::measure(ExperimentScale::Custom(250_000), &Engine::new(2)))
    }

    #[test]
    fn plan_keeps_labels_and_simulates_each_distinct_point_once() {
        let plan = plan();
        let labels: Vec<&str> = plan.iter().flatten().map(|p| p.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "constant(25k)",
                "global-adaptive(25k)",
                "per-app-adaptive(25k)",
                "2 molecules",
                "half tile",
                "32 molecules",
                "max_allocation=1",
                "max_allocation=4",
                "max_allocation=16",
                "1x64B",
                "2x64B",
                "4x64B",
                "Random",
                "Randy",
                "LRU-Direct",
                "8KB molecules",
                "16KB molecules",
                "32KB molecules",
                "row_max=2",
                "row_max=4",
                "row_max=8",
                "row_max=16",
            ]
        );
        let (runs, run_of) = distinct(plan.iter().flatten());
        let on = |trace| runs.iter().filter(|r| r.trace == trace).count();
        assert_eq!((runs.len(), on(Trace::Spec4), on(Trace::Crc)), (16, 13, 3));
        // The seven base-cache points share the first simulation.
        let base: Vec<&str> = labels
            .iter()
            .zip(&run_of)
            .filter(|(_, run)| **run == 1)
            .map(|(label, _)| *label)
            .collect();
        assert_eq!(
            base,
            [
                "global-adaptive(25k)",
                "half tile",
                "32 molecules",
                "max_allocation=16",
                "Randy",
                "8KB molecules",
                "row_max=8",
            ]
        );
    }

    #[test]
    fn triggers_produce_three_variants() {
        let rs = &measured().triggers;
        assert_eq!(rs.len(), 3);
        assert!(rs.iter().all(|r| r.resize_rounds > 0));
    }

    #[test]
    fn small_initial_allocation_resizes_more() {
        let rs = &measured().initial;
        let two = rs.iter().find(|r| r.label.starts_with("2 ")).unwrap();
        let half = rs.iter().find(|r| r.label.contains("half")).unwrap();
        // The paper: small initial partitions need frequent repartitions
        // early on. At minimum both must have resized; typically the
        // 2-molecule start needs at least as many rounds.
        assert!(two.resize_rounds >= half.resize_rounds / 2);
    }

    #[test]
    fn line_factor_reduces_streaming_misses() {
        let pts = &measured().line_factor;
        let mr1 = pts.iter().find(|(f, _)| *f == 1).unwrap().1;
        let mr4 = pts.iter().find(|(f, _)| *f == 4).unwrap().1;
        assert!(
            mr4 < mr1,
            "4-line blocks must cut the streaming miss rate: {mr4} vs {mr1}"
        );
    }

    #[test]
    fn combined_report_renders() {
        let a = measured();
        let s = a.render();
        assert!(s.contains("Ablation A"));
        assert!(s.contains("Ablation D"));
        assert!(s.contains("Ablation E"));
        assert!(s.contains("LRU-Direct"));
        let rec = a.record();
        assert_eq!(rec.results.len(), 22, "every point of A-G recorded");
        assert!(rec.results.iter().any(|r| r.label == "scheme:LRU-Direct"));
    }

    #[test]
    fn molecule_sizes_all_run() {
        let rs = &measured().molecule;
        assert_eq!(rs.len(), 3);
        for r in rs {
            assert!(r.avg_deviation.is_finite());
            assert!(r.resize_rounds > 0);
        }
    }

    #[test]
    fn row_max_sweep_runs() {
        let rs = &measured().rows;
        assert_eq!(rs.len(), 4);
        assert!(rs.iter().all(|r| r.avg_deviation.is_finite()));
    }

    #[test]
    fn lru_direct_is_competitive() {
        let rs = &measured().schemes;
        assert_eq!(rs.len(), 3);
        let randy = rs.iter().find(|r| r.label == "Randy").unwrap();
        let lru = rs.iter().find(|r| r.label == "LRU-Direct").unwrap();
        // LRU-Direct should be in the same deviation regime as Randy
        // (within 2x), not pathological.
        assert!(
            lru.avg_deviation < randy.avg_deviation * 2.0 + 0.05,
            "LRU-Direct {:.3} vs Randy {:.3}",
            lru.avg_deviation,
            randy.avg_deviation
        );
    }
}
