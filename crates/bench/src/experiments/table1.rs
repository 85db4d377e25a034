//! Table 1 — inter-application interference on a shared 1 MB 4-way L2.
//!
//! The paper runs art/ammp/parser/mcf solo, in pairs, and all four
//! concurrently, showing that an application's miss rate depends on who
//! it shares the cache with. This experiment reproduces the table's
//! rows: solo miss rate per benchmark, each pair, and the four-way run.

use crate::harness::{asid_of, run_workload_on, Engine, ExperimentScale};
use molcache_metrics::record::{ConfigResult, ExperimentRecord, Metric};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_sim::{CacheConfig, SetAssocCache};
use molcache_trace::presets::Benchmark;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Benchmarks running concurrently.
    pub apps: Vec<Benchmark>,
    /// Miss rate per benchmark, in `apps` order.
    pub miss_rates: Vec<f64>,
}

/// Full result of the Table 1 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Solo rows, pair rows, then the all-four row.
    pub rows: Vec<Row>,
    /// References simulated per row.
    pub references: u64,
}

fn shared_l2() -> SetAssocCache {
    SetAssocCache::new(CacheConfig::new(1 << 20, 4, 64).expect("1MB 4-way is valid"))
}

/// Runs the Table 1 experiment serially.
pub fn run(scale: ExperimentScale) -> Table1 {
    run_with(scale, &Engine::serial())
}

/// Runs the Table 1 experiment, fanning the rows (each an independent
/// cache + workload) across the engine's workers.
pub fn run_with(scale: ExperimentScale, engine: &Engine) -> Table1 {
    let refs = scale.references();
    let singles = Benchmark::SPEC4;

    // Row descriptors: solos, pairs (the paper's combinations), all four.
    let mut groups: Vec<Vec<Benchmark>> = singles.iter().map(|b| vec![*b]).collect();
    for i in 0..singles.len() {
        for j in (i + 1)..singles.len() {
            groups.push(vec![singles[i], singles[j]]);
        }
    }
    groups.push(singles.to_vec());

    let rows = engine.run(groups, |apps| {
        let mut cache = shared_l2();
        let summary = run_workload_on(&apps, &mut cache, refs, 42);
        let miss_rates = (0..apps.len())
            .map(|i| summary.app_miss_rate(asid_of(i)))
            .collect();
        Row { apps, miss_rates }
    });

    Table1 {
        rows,
        references: refs,
    }
}

impl Table1 {
    /// The miss rate of `bench` in the row where exactly `with` runs
    /// alongside it (empty `with` = solo row).
    pub fn miss_rate_of(&self, bench: Benchmark, with: &[Benchmark]) -> Option<f64> {
        self.rows.iter().find_map(|row| {
            if row.apps.len() != with.len() + 1 {
                return None;
            }
            let pos = row.apps.iter().position(|b| *b == bench)?;
            let others: Vec<Benchmark> = row.apps.iter().copied().filter(|b| *b != bench).collect();
            let matches = with.iter().all(|w| others.contains(w)) && others.len() == with.len();
            if matches {
                Some(row.miss_rates[pos])
            } else {
                None
            }
        })
    }

    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "1st app",
            "2nd concurrently executing app",
            "miss rate of app1",
            "miss rate of app2",
        ]);
        for row in &self.rows {
            match row.apps.len() {
                1 => {
                    t.row(vec![
                        row.apps[0].name().into(),
                        "-".into(),
                        fmt_f64(row.miss_rates[0], 3),
                        "-".into(),
                    ]);
                }
                2 => {
                    t.row(vec![
                        row.apps[0].name().into(),
                        row.apps[1].name().into(),
                        fmt_f64(row.miss_rates[0], 3),
                        fmt_f64(row.miss_rates[1], 3),
                    ]);
                }
                _ => {
                    for (i, b) in row.apps.iter().enumerate() {
                        t.row(vec![
                            b.name().into(),
                            "all four".into(),
                            fmt_f64(row.miss_rates[i], 3),
                            "-".into(),
                        ]);
                    }
                }
            }
        }
        t.render()
    }

    /// Machine-readable record.
    pub fn record(&self) -> ExperimentRecord {
        let mut results = Vec::new();
        for row in &self.rows {
            let label = row
                .apps
                .iter()
                .map(|b| b.name())
                .collect::<Vec<_>>()
                .join("+");
            results.push(ConfigResult {
                label,
                metrics: row
                    .apps
                    .iter()
                    .zip(&row.miss_rates)
                    .map(|(b, mr)| Metric::new(format!("miss_rate_{}", b.name()), *mr))
                    .collect(),
            });
        }
        ExperimentRecord {
            id: "table1".into(),
            workload: "art/ammp/mcf/parser on shared 1MB 4-way L2".into(),
            references: self.references,
            results,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_shape_matches_paper() {
        let t = run(ExperimentScale::Smoke);
        // 4 solos + 6 pairs + 1 quad.
        assert_eq!(t.rows.len(), 11);
        let solo_parser = t.miss_rate_of(Benchmark::Parser, &[]).unwrap();
        let quad_parser = t
            .miss_rate_of(
                Benchmark::Parser,
                &[Benchmark::Art, Benchmark::Ammp, Benchmark::Mcf],
            )
            .unwrap();
        assert!(
            quad_parser > solo_parser,
            "parser must suffer under sharing: solo {solo_parser} quad {quad_parser}"
        );
        let solo_mcf = t.miss_rate_of(Benchmark::Mcf, &[]).unwrap();
        assert!(solo_mcf > 0.4, "mcf misses heavily even alone: {solo_mcf}");
    }

    #[test]
    fn render_and_record() {
        let t = run(ExperimentScale::Custom(20_000));
        let text = t.render();
        assert!(text.contains("all four"));
        let rec = t.record();
        assert_eq!(rec.id, "table1");
        assert_eq!(rec.results.len(), 11);
    }
}
