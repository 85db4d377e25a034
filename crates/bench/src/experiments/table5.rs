//! Table 5 — the power-deviation product.
//!
//! Combines Table 2's deviations with Table 4's powers: for the 8 MB
//! 4-way and 8-way caches, `power x deviation` vs the 6 MB molecular
//! cache (Randy) evaluated at the same frequency. The paper's values:
//! 1.890 vs 0.909 (4-way) and 0.870 vs 0.425 (8-way).

use crate::experiments::table2::{self, Config as T2Config};
use crate::harness::{Engine, ExperimentScale};
use molcache_core::RegionPolicy;
use molcache_metrics::deviation::{average_overshoot, MissRateGoal};
use molcache_metrics::power_deviation::{power_deviation_product, refined_power_deviation_product};
use molcache_metrics::record::{ConfigResult, ExperimentRecord, Metric};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_power::cacti::analyze;
use molcache_power::calibrate::{molecular_worst_power_w, table3_traditional};
use molcache_power::tech::TechNode;

/// One comparison row.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Traditional cache label.
    pub label: String,
    /// Traditional power-deviation product.
    pub traditional_pdp: f64,
    /// Molecular (Randy) power-deviation product at the same frequency.
    pub molecular_pdp: f64,
    /// Refined (overshoot-only) PDP of the traditional cache — the §5
    /// future-work metric.
    pub traditional_refined: f64,
    /// Refined PDP of the molecular cache.
    pub molecular_refined: f64,
    /// Paper's values `(traditional, molecular)`.
    pub paper: (f64, f64),
}

/// The full Table 5 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table5 {
    /// 4-way and 8-way rows.
    pub rows: Vec<Row>,
    /// References simulated for the deviations.
    pub references: u64,
}

/// Runs Table 5 from a fresh Table 2 measurement.
pub fn run(scale: ExperimentScale) -> Table5 {
    let t2 = table2::run(scale);
    run_from_table2(&t2)
}

/// Like [`run`], but the underlying Table 2 measurement uses the engine.
pub fn run_with(scale: ExperimentScale, engine: &Engine) -> Table5 {
    let t2 = table2::run_with(scale, engine);
    run_from_table2(&t2)
}

/// Computes Table 5 given a Table 2 result (avoids re-running the
/// workload when both tables are produced together).
pub fn run_from_table2(t2: &table2::Table2) -> Table5 {
    let node = TechNode::nm70();
    let dev_mol = t2
        .deviation(T2Config::Molecular(RegionPolicy::Randy))
        .expect("molecular Randy row present");
    let goals = MissRateGoal::uniform(table2::GOAL);
    let overshoot_of = |cfg: T2Config| -> f64 {
        let row = t2
            .rows
            .iter()
            .find(|r| r.config == cfg)
            .expect("row present");
        average_overshoot(
            row.miss_rates
                .iter()
                .enumerate()
                .map(|(i, mr)| (molcache_trace::Asid::new(i as u16 + 1), *mr)),
            &goals,
        )
    };
    let over_mol = overshoot_of(T2Config::Molecular(RegionPolicy::Randy));
    let paper = [(4u32, 1.890, 0.909), (8u32, 0.870, 0.425)];
    let rows = paper
        .into_iter()
        .map(|(assoc, paper_trad, paper_mol)| {
            let report = analyze(&table3_traditional(assoc), &node);
            let freq = report.frequency_mhz();
            let p_trad = report.power_at_mhz(freq);
            let p_mol = molecular_worst_power_w(8 << 10, 512 << 10, &node, freq);
            let dev_trad = t2
                .deviation(T2Config::Traditional(8 << 20, assoc))
                .expect("traditional row present");
            let over_trad = overshoot_of(T2Config::Traditional(8 << 20, assoc));
            Row {
                label: format!("8MB {assoc}way"),
                traditional_pdp: power_deviation_product(p_trad, dev_trad),
                molecular_pdp: power_deviation_product(p_mol, dev_mol),
                traditional_refined: refined_power_deviation_product(p_trad, over_trad),
                molecular_refined: refined_power_deviation_product(p_mol, over_mol),
                paper: (paper_trad, paper_mol),
            }
        })
        .collect();
    Table5 {
        rows,
        references: t2.references,
    }
}

impl Table5 {
    /// Renders the paper-style table.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec![
            "Cache Type",
            "Power-Deviation Product",
            "PDP of Mol. cache",
            "refined (trad/mol)",
            "paper (trad/mol)",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                fmt_f64(r.traditional_pdp, 3),
                fmt_f64(r.molecular_pdp, 3),
                format!("{:.3}/{:.3}", r.traditional_refined, r.molecular_refined),
                format!("{:.3}/{:.3}", r.paper.0, r.paper.1),
            ]);
        }
        format!(
            "Table 5 (power-deviation product; refined = overshoot-only, §5)\n{}",
            t.render()
        )
    }

    /// Machine-readable record.
    pub fn record(&self) -> ExperimentRecord {
        ExperimentRecord {
            id: "table5".into(),
            workload: "mixed workload deviations x Table 4 powers".into(),
            references: self.references,
            results: self
                .rows
                .iter()
                .map(|r| ConfigResult {
                    label: r.label.clone(),
                    metrics: vec![
                        Metric::new("traditional_pdp", r.traditional_pdp),
                        Metric::new("molecular_pdp", r.molecular_pdp),
                        Metric::new("traditional_refined_pdp", r.traditional_refined),
                        Metric::new("molecular_refined_pdp", r.molecular_refined),
                    ],
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_rows_with_positive_products() {
        let t = run(ExperimentScale::Custom(80_000));
        assert_eq!(t.rows.len(), 2);
        for r in &t.rows {
            assert!(r.traditional_pdp > 0.0);
            assert!(r.molecular_pdp > 0.0);
        }
    }

    #[test]
    fn render_includes_paper_reference() {
        let t = run(ExperimentScale::Custom(60_000));
        assert!(t.render().contains("1.890"));
    }
}
