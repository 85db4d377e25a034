//! Table 2 — 12-benchmark mixed workload (SPEC + NetBench + MediaBench).
//!
//! The applications are split into three groups of four; each group is
//! assigned one 2 MB tile cluster of a 6 MB molecular cache (4 tiles of
//! 512 KB each). The miss-rate goal is 25 %. Baselines: shared 4 MB and
//! 8 MB caches at 4- and 8-way. The paper's result: the 6 MB molecular
//! cache with Randy replacement beats even the 8 MB 8-way, while Random
//! replacement trails the 4 MB 4-way.

use crate::harness::{asid_of, replay_warmed, workload_requests, Engine, ExperimentScale};
use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_metrics::deviation::{average_deviation, MissRateGoal};
use molcache_metrics::record::{ConfigResult, ExperimentRecord, Metric};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_sim::replacement::Policy;
use molcache_sim::{CacheConfig, Request, SetAssocCache};
use molcache_trace::presets::Benchmark;

/// The miss-rate goal of the experiment.
pub const GOAL: f64 = 0.25;

/// A configuration compared in Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Config {
    /// Shared LRU cache (size bytes, associativity).
    Traditional(u64, u32),
    /// 6 MB molecular cache (3 clusters x 4 tiles x 512 KB).
    Molecular(RegionPolicy),
}

impl Config {
    /// The paper's six rows.
    pub const ALL: [Config; 6] = [
        Config::Traditional(4 << 20, 4),
        Config::Traditional(4 << 20, 8),
        Config::Traditional(8 << 20, 4),
        Config::Traditional(8 << 20, 8),
        Config::Molecular(RegionPolicy::Randy),
        Config::Molecular(RegionPolicy::Random),
    ];

    /// Row label as printed in the paper.
    pub fn label(&self) -> String {
        match self {
            Config::Traditional(size, assoc) => {
                format!("{}MB {}way", size >> 20, assoc)
            }
            Config::Molecular(p) => format!("6MB Molecular {p}"),
        }
    }
}

/// One row's measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The configuration measured.
    pub config: Config,
    /// Average deviation from the 25 % goal over the 12 applications.
    pub avg_deviation: f64,
    /// Per-application miss rates in [`Benchmark::MIXED12`] order.
    pub miss_rates: Vec<f64>,
}

/// The full Table 2 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// All rows in paper order.
    pub rows: Vec<Row>,
    /// References simulated per row.
    pub references: u64,
}

/// Builds the paper's 6 MB molecular cache with the three sequential
/// four-application groups ("without giving consideration to the nature
/// of the mix").
pub fn molecular_6mb(policy: RegionPolicy, seed: u64) -> MolecularCache {
    molecular_6mb_with_period(policy, seed, 25_000)
}

/// [`molecular_6mb`] with an explicit initial per-app resize period —
/// short experiments (CI smoke runs, `molstat` timelines) need the
/// trigger to fire well before the paper's 25 K-access window.
pub fn molecular_6mb_with_period(
    policy: RegionPolicy,
    seed: u64,
    initial_period: u64,
) -> MolecularCache {
    let mut builder = MolecularConfig::builder();
    builder
        .molecule_size(8 * 1024)
        .tile_molecules(64) // 512 KB tiles
        .tiles_per_cluster(4)
        .clusters(3)
        .policy(policy)
        .miss_rate_goal(GOAL)
        .trigger(ResizeTrigger::PerAppAdaptive { initial_period })
        .seed(seed);
    for (i, _b) in Benchmark::MIXED12.iter().enumerate() {
        builder.assign_app_to_cluster(asid_of(i), i / 4);
    }
    MolecularCache::new(builder.build().expect("table 2 geometry is valid"))
}

/// Runs one configuration on `requests`, the table's MIXED12 trace
/// (seed 7).
pub fn run_config(requests: &[Request], config: Config) -> Row {
    let summary = match config {
        Config::Traditional(size, assoc) => {
            let cfg = CacheConfig::new(size, assoc, 64).expect("table 2 geometry");
            replay_warmed(requests, &mut SetAssocCache::new(cfg, Policy::Lru))
        }
        Config::Molecular(policy) => replay_warmed(requests, &mut molecular_6mb(policy, 7)),
    };
    let miss_rates: Vec<f64> = (0..12).map(|i| summary.app_miss_rate(asid_of(i))).collect();
    let goals = MissRateGoal::uniform(GOAL);
    let avg = average_deviation((0..12).map(|i| (asid_of(i), miss_rates[i])), &goals);
    Row {
        config,
        avg_deviation: avg,
        miss_rates,
    }
}

/// Runs the whole table serially.
pub fn run(scale: ExperimentScale) -> Table2 {
    run_with(scale, &Engine::serial())
}

/// Runs the whole table: builds the MIXED12 trace once and replays it
/// to the six configurations, fanned across the engine's workers.
pub fn run_with(scale: ExperimentScale, engine: &Engine) -> Table2 {
    let requests = workload_requests(&Benchmark::MIXED12, scale.references(), 7);
    Table2 {
        rows: engine.run(Config::ALL.to_vec(), |c| run_config(&requests, c)),
        references: scale.references(),
    }
}

impl Table2 {
    /// Deviation of one configuration.
    pub fn deviation(&self, config: Config) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.config == config)
            .map(|r| r.avg_deviation)
    }

    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["Cache Type", "Average Deviation"]);
        for row in &self.rows {
            t.row(vec![row.config.label(), fmt_f64(row.avg_deviation, 6)]);
        }
        format!("Table 2 (miss rate goal 25%)\n{}", t.render())
    }

    /// Machine-readable record.
    pub fn record(&self) -> ExperimentRecord {
        ExperimentRecord {
            id: "table2".into(),
            workload: "12-benchmark mixed (SPEC+NetBench+MediaBench)".into(),
            references: self.references,
            results: self
                .rows
                .iter()
                .map(|r| {
                    let mut metrics = vec![Metric::new("avg_deviation", r.avg_deviation)];
                    for (i, b) in Benchmark::MIXED12.iter().enumerate() {
                        metrics.push(Metric::new(
                            format!("miss_rate_{}", b.name()),
                            r.miss_rates[i],
                        ));
                    }
                    ConfigResult {
                        label: r.config.label(),
                        metrics,
                    }
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_assigned_sequentially() {
        let cache = molecular_6mb(RegionPolicy::Randy, 1);
        let cfg = cache.config();
        assert_eq!(cfg.app_cluster(asid_of(0)), Some(0));
        assert_eq!(cfg.app_cluster(asid_of(3)), Some(0));
        assert_eq!(cfg.app_cluster(asid_of(4)), Some(1));
        assert_eq!(cfg.app_cluster(asid_of(11)), Some(2));
        assert_eq!(cfg.total_bytes(), 6 << 20);
    }

    #[test]
    fn rows_have_twelve_miss_rates() {
        let row = run_config(
            &workload_requests(&Benchmark::MIXED12, 60_000, 7),
            Config::Traditional(4 << 20, 4),
        );
        assert_eq!(row.miss_rates.len(), 12);
        assert!(row.avg_deviation >= 0.0);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(Config::Traditional(8 << 20, 8).label(), "8MB 8way");
        assert_eq!(
            Config::Molecular(RegionPolicy::Randy).label(),
            "6MB Molecular Randy"
        );
    }
}
