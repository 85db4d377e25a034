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

use crate::harness::{asid_of, replay_warmed, workload_requests, Engine, ExperimentScale};
use molcache_core::{
    InitialAllocation, MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger,
};
use molcache_metrics::deviation::{average_deviation, MissRateGoal};
use molcache_metrics::record::{ConfigResult, ExperimentRecord, Metric};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_sim::cmp::run_requests;
use molcache_sim::Request;
use molcache_trace::presets::Benchmark;

const GOAL: f64 = 0.10;

fn base_builder(size: u64) -> MolecularConfigBuilderWrap {
    MolecularConfigBuilderWrap { size }
}

struct MolecularConfigBuilderWrap {
    size: u64,
}

impl MolecularConfigBuilderWrap {
    fn build<F>(&self, customize: F) -> MolecularCache
    where
        F: FnOnce(&mut molcache_core::MolecularConfigBuilder),
    {
        let mut b = MolecularConfig::builder();
        b.molecule_size(8 * 1024)
            .tile_molecules((self.size / 4 / 8192) as usize)
            .tiles_per_cluster(4)
            .clusters(1)
            .policy(RegionPolicy::Randy)
            .miss_rate_goal(GOAL)
            .seed(42);
        customize(&mut b);
        MolecularCache::new(b.build().expect("ablation geometry is valid"))
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

/// Replays `spec4`, the SPEC4 trace (seed 42), through `cache` with the
/// usual warm-up and scores it against the goal.
fn measure(mut cache: MolecularCache, spec4: &[Request], label: String) -> AblationResult {
    let summary = replay_warmed(spec4, &mut cache);
    let goals = MissRateGoal::uniform(GOAL);
    let avg = average_deviation(
        (0..4).map(|i| (asid_of(i), summary.app_miss_rate(asid_of(i)))),
        &goals,
    );
    AblationResult {
        label,
        avg_deviation: avg,
        resize_rounds: cache.resize_rounds(),
        failed_allocations: cache.failed_allocations(),
    }
}

/// Ablation A: resize trigger schemes on a 2 MB molecular cache.
pub fn resize_triggers(spec4: &[Request]) -> Vec<AblationResult> {
    let variants: Vec<(&str, ResizeTrigger)> = vec![
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
    variants
        .into_iter()
        .map(|(label, trigger)| {
            let cache = base_builder(2 << 20).build(|b| {
                b.trigger(trigger);
            });
            measure(cache, spec4, label.to_string())
        })
        .collect()
}

/// Ablation B: initial allocation (2 molecules vs half tile vs 32).
pub fn initial_allocation(spec4: &[Request]) -> Vec<AblationResult> {
    let variants: Vec<(&str, InitialAllocation)> = vec![
        ("2 molecules", InitialAllocation::Molecules(2)),
        ("half tile", InitialAllocation::HalfTile),
        ("32 molecules", InitialAllocation::Molecules(32)),
    ];
    variants
        .into_iter()
        .map(|(label, alloc)| {
            let cache = base_builder(2 << 20).build(|b| {
                b.initial_allocation(alloc);
            });
            measure(cache, spec4, label.to_string())
        })
        .collect()
}

/// Ablation C: growth chunk (single-molecule vs quarter-tile chunks).
pub fn growth_chunk(spec4: &[Request]) -> Vec<AblationResult> {
    [1usize, 4, 16]
        .into_iter()
        .map(|chunk| {
            let cache = base_builder(2 << 20).build(|b| {
                b.max_allocation(chunk);
            });
            measure(cache, spec4, format!("max_allocation={chunk}"))
        })
        .collect()
}

/// Ablation D: region line-size factor on a streaming-heavy application
/// (CRC). Each point drives `crc`, the CRC trace (seed 42), through a
/// cold cache. Returns `(factor, miss_rate)` pairs — spatial locality
/// should make larger blocks pay off.
pub fn line_size_factor(crc: &[Request]) -> Vec<(u32, f64)> {
    [1u32, 2, 4]
        .into_iter()
        .map(|factor| {
            let mut cache = base_builder(2 << 20).build(|b| {
                b.app_line_factor(asid_of(0), factor);
            });
            let summary = run_requests(crc, &mut cache);
            (factor, summary.app_miss_rate(asid_of(0)))
        })
        .collect()
}

/// Ablation E (the paper's §5 future work): replacement schemes on the
/// SPEC4 workload at 2 MB — Random, Randy, and LRU-Direct.
pub fn replacement_schemes(spec4: &[Request]) -> Vec<AblationResult> {
    [
        RegionPolicy::Random,
        RegionPolicy::Randy,
        RegionPolicy::LruDirect,
    ]
    .into_iter()
    .map(|policy| {
        let cache = base_builder(2 << 20).build(|b| {
            b.policy(policy);
        });
        measure(cache, spec4, policy.to_string())
    })
    .collect()
}

/// Ablation F: molecule size (the paper's §3 building-block range is
/// 8-32 KB). Smaller molecules give finer allocation granularity and
/// cheaper probes; larger ones reduce per-access probe counts. Total
/// capacity is held at 2 MB.
pub fn molecule_size(spec4: &[Request]) -> Vec<AblationResult> {
    [8u64, 16, 32]
        .into_iter()
        .map(|kb| {
            let bytes = kb * 1024;
            let mut b = MolecularConfig::builder();
            b.molecule_size(bytes)
                .tile_molecules(((2 << 20) / 4 / bytes) as usize)
                .tiles_per_cluster(4)
                .clusters(1)
                .policy(RegionPolicy::Randy)
                .miss_rate_goal(GOAL)
                .seed(42);
            let cache = MolecularCache::new(b.build().expect("molecule sweep geometry"));
            measure(cache, spec4, format!("{kb}KB molecules"))
        })
        .collect()
}

/// Ablation G: configured way size (`row_max`) of the Randy replacement
/// view — the trade between per-row isolation (more rows) and
/// associativity per row (fewer rows).
pub fn row_max(spec4: &[Request]) -> Vec<AblationResult> {
    [2usize, 4, 8, 16]
        .into_iter()
        .map(|rows| {
            let cache = base_builder(2 << 20).build(|b| {
                b.row_max(rows);
            });
            measure(cache, spec4, format!("row_max={rows}"))
        })
        .collect()
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

/// One ablation family's measurements, so that all seven fan out
/// through a single [`Engine::run`].
enum Family {
    Deviation(Vec<AblationResult>),
    LineFactor(Vec<(u32, f64)>),
}

impl Ablations {
    /// Measures every ablation, fanning the independent families across
    /// the engine's workers. The SPEC4 trace (seed 42) is built once and
    /// replayed to the six deviation families; the line-factor family
    /// builds its CRC trace once for its three points. The results do
    /// not depend on the worker count.
    pub fn measure(scale: ExperimentScale, engine: &Engine) -> Self {
        type Job<'a> = Box<dyn FnOnce() -> Family + Send + 'a>;
        let refs = scale.references();
        let spec4 = workload_requests(&Benchmark::SPEC4, refs, 42);
        let jobs: Vec<Job> = vec![
            Box::new(|| Family::Deviation(resize_triggers(&spec4))),
            Box::new(|| Family::Deviation(initial_allocation(&spec4))),
            Box::new(|| Family::Deviation(growth_chunk(&spec4))),
            Box::new(|| {
                let crc = workload_requests(&[Benchmark::Crc], refs, 42);
                Family::LineFactor(line_size_factor(&crc))
            }),
            Box::new(|| Family::Deviation(replacement_schemes(&spec4))),
            Box::new(|| Family::Deviation(molecule_size(&spec4))),
            Box::new(|| Family::Deviation(row_max(&spec4))),
        ];
        let mut line_factor = Vec::new();
        let mut deviation = Vec::new();
        for family in engine.run(jobs, |job| job()) {
            match family {
                Family::Deviation(rows) => deviation.push(rows),
                Family::LineFactor(points) => line_factor = points,
            }
        }
        let [triggers, initial, chunk, schemes, molecule, rows]: [Vec<AblationResult>; 6] =
            deviation.try_into().expect("six deviation families");
        Ablations {
            triggers,
            initial,
            chunk,
            line_factor,
            schemes,
            molecule,
            rows,
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

    fn spec4(refs: u64) -> Vec<Request> {
        workload_requests(&Benchmark::SPEC4, refs, 42)
    }

    #[test]
    fn triggers_produce_three_variants() {
        let rs = resize_triggers(&spec4(250_000));
        assert_eq!(rs.len(), 3);
        assert!(rs.iter().all(|r| r.resize_rounds > 0));
    }

    #[test]
    fn small_initial_allocation_resizes_more() {
        let rs = initial_allocation(&spec4(120_000));
        let two = rs.iter().find(|r| r.label.starts_with("2 ")).unwrap();
        let half = rs.iter().find(|r| r.label.contains("half")).unwrap();
        // The paper: small initial partitions need frequent repartitions
        // early on. At minimum both must have resized; typically the
        // 2-molecule start needs at least as many rounds.
        assert!(two.resize_rounds >= half.resize_rounds / 2);
    }

    #[test]
    fn line_factor_reduces_streaming_misses() {
        let pts = line_size_factor(&workload_requests(&[Benchmark::Crc], 120_000, 42));
        let mr1 = pts.iter().find(|(f, _)| *f == 1).unwrap().1;
        let mr4 = pts.iter().find(|(f, _)| *f == 4).unwrap().1;
        assert!(
            mr4 < mr1,
            "4-line blocks must cut the streaming miss rate: {mr4} vs {mr1}"
        );
    }

    #[test]
    fn combined_report_renders() {
        let a = Ablations::measure(ExperimentScale::Custom(60_000), &Engine::serial());
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
        let rs = molecule_size(&spec4(120_000));
        assert_eq!(rs.len(), 3);
        for r in &rs {
            assert!(r.avg_deviation.is_finite());
            assert!(r.resize_rounds > 0);
        }
    }

    #[test]
    fn row_max_sweep_runs() {
        let rs = row_max(&spec4(120_000));
        assert_eq!(rs.len(), 4);
        assert!(rs.iter().all(|r| r.avg_deviation.is_finite()));
    }

    #[test]
    fn lru_direct_is_competitive() {
        let rs = replacement_schemes(&spec4(200_000));
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
