//! Tables 3 & 4 — CACTI power comparison.
//!
//! Table 3 lists the configurations (8 MB traditional caches with four
//! ports vs the 8 MB molecular cache: 8 KB molecules, 512 KB tiles, four
//! clusters of four tiles, one port per tile cluster). Table 4 reports,
//! at each traditional cache's operating frequency: the traditional
//! cache's power, the molecular cache's *worst-case* power (all molecules
//! of a tile enabled) and its *average* power under the mixed workload
//! (measured molecule-probe activity).

use crate::harness::{asid_of, replay_warmed, workload_requests, Engine, ExperimentScale};
use molcache_core::{MolecularCache, MolecularConfig, RegionPolicy, ResizeTrigger};
use molcache_metrics::record::{ConfigResult, ExperimentRecord, Metric};
use molcache_metrics::table::{fmt_f64, Table};
use molcache_power::accounting::EnergyMeter;
use molcache_power::cacti::analyze;
use molcache_power::calibrate::{
    molecular_worst_power_w, molecule_report, paper_table4, table3_traditional,
};
use molcache_power::tech::TechNode;
use molcache_sim::{Activity, CacheModel};
use molcache_trace::presets::Benchmark;

/// One row of Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Traditional-cache label (e.g. `"8MB 4way"`).
    pub label: String,
    /// Model operating frequency (MHz).
    pub freq_mhz: f64,
    /// Traditional cache power at that frequency (W).
    pub traditional_w: f64,
    /// Molecular worst-case power at that frequency (W).
    pub mol_worst_w: f64,
    /// Molecular average power under the mixed workload (W).
    pub mol_avg_w: f64,
    /// The paper's corresponding values, for the report.
    pub paper_freq_mhz: f64,
    /// Paper traditional power (W).
    pub paper_power_w: f64,
    /// Paper molecular worst-case power (W).
    pub paper_mol_worst_w: f64,
}

/// Full Table 4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// One row per traditional configuration.
    pub rows: Vec<Row>,
    /// Average molecular energy per access measured on the workload (nJ).
    pub mol_avg_energy_nj: f64,
    /// References simulated for the activity measurement.
    pub references: u64,
}

/// Builds the Table 3 molecular cache: 8 MB, 4 clusters x 4 tiles x
/// 512 KB, Randy replacement, 25 % goal (the mixed-workload setting).
pub fn molecular_8mb(seed: u64) -> MolecularCache {
    let mut builder = MolecularConfig::builder();
    builder
        .molecule_size(8 * 1024)
        .tile_molecules(64)
        .tiles_per_cluster(4)
        .clusters(4)
        .policy(RegionPolicy::Randy)
        .miss_rate_goal(0.25)
        .trigger(ResizeTrigger::GlobalAdaptive {
            initial_period: 25_000,
        })
        .seed(seed);
    // Spread the 12 applications over the four clusters (3 per cluster).
    for (i, _b) in Benchmark::MIXED12.iter().enumerate() {
        builder.assign_app_to_cluster(asid_of(i), i / 3);
    }
    MolecularCache::new(builder.build().expect("table 3 geometry is valid"))
}

/// Measures the mixed workload's molecular activity (for the average
/// power column), building its trace on the engine.
pub fn measure_activity(scale: ExperimentScale, engine: &Engine) -> Activity {
    let mut cache = molecular_8mb(7);
    let requests = workload_requests(&Benchmark::MIXED12, scale.references(), 7, engine);
    replay_warmed(&requests, &mut cache);
    cache.activity()
}

/// Runs the power comparison serially.
pub fn run(scale: ExperimentScale) -> Table4 {
    run_with(scale, &Engine::serial())
}

/// Runs the power comparison. The workload activity measurement is one
/// simulation on a trace built on the engine; the per-frequency CACTI
/// rows are fanned across the engine's workers.
pub fn run_with(scale: ExperimentScale, engine: &Engine) -> Table4 {
    let node = TechNode::nm70();
    let activity = measure_activity(scale, engine);
    let meter = EnergyMeter::for_molecular(&molecule_report(&node), &node);
    let mol_avg_energy_nj = meter.energy_per_access_nj(&activity);

    let rows = engine.run(paper_table4().to_vec(), |anchor| {
        let report = analyze(&table3_traditional(anchor.assoc), &node);
        let freq = report.frequency_mhz();
        Row {
            label: anchor.name.to_string(),
            freq_mhz: freq,
            traditional_w: report.power_at_mhz(freq),
            mol_worst_w: molecular_worst_power_w(8 << 10, 512 << 10, &node, freq),
            mol_avg_w: mol_avg_energy_nj * freq / 1000.0,
            paper_freq_mhz: anchor.freq_mhz,
            paper_power_w: anchor.power_w,
            paper_mol_worst_w: anchor.mol_worst_w,
        }
    });
    Table4 {
        rows,
        mol_avg_energy_nj,
        references: scale.references(),
    }
}

impl Table4 {
    /// The molecular power advantage vs the 8 MB 4-way (the paper's
    /// headline 29 %).
    pub fn advantage_vs_4way(&self) -> f64 {
        let row = self
            .rows
            .iter()
            .find(|r| r.label.contains("4way"))
            .expect("4-way row present");
        1.0 - row.mol_worst_w / row.traditional_w
    }

    /// Renders Table 3 (configuration listing) and Table 4.
    pub fn render(&self) -> String {
        let mut t3 = Table::new(vec!["Parameter", "Molecular Cache", "Traditional Cache"]);
        t3.row(vec!["Total Cache Size".into(), "8MB".into(), "8MB".into()]);
        t3.row(vec!["Molecule Size".into(), "8KB".into(), "-".into()]);
        t3.row(vec!["Tile Size".into(), "512KB".into(), "-".into()]);
        t3.row(vec!["No. of tile-clusters".into(), "4".into(), "-".into()]);
        t3.row(vec![
            "No. of tiles per cluster".into(),
            "4".into(),
            "-".into(),
        ]);
        t3.row(vec![
            "No. of Read-Write ports".into(),
            "1 per tile cluster".into(),
            "4".into(),
        ]);
        t3.row(vec![
            "Associativity".into(),
            "adaptive".into(),
            "DM, 2, 4, 8".into(),
        ]);

        let mut t4 = Table::new(vec![
            "Cache type",
            "Freq (MHz)",
            "Power (W)",
            "mol worst (W)",
            "mol avg (W)",
            "paper: MHz/W/molW",
        ]);
        for r in &self.rows {
            t4.row(vec![
                r.label.clone(),
                fmt_f64(r.freq_mhz, 0),
                fmt_f64(r.traditional_w, 2),
                fmt_f64(r.mol_worst_w, 2),
                fmt_f64(r.mol_avg_w, 2),
                format!(
                    "{:.0}/{:.2}/{:.2}",
                    r.paper_freq_mhz, r.paper_power_w, r.paper_mol_worst_w
                ),
            ]);
        }
        format!(
            "Table 3 (configurations)\n{}\nTable 4 (CACTI @70nm)\n{}\nmolecular advantage vs 8MB 4way: {:.1}% (paper: 29%)\n",
            t3.render(),
            t4.render(),
            self.advantage_vs_4way() * 100.0
        )
    }

    /// Machine-readable record.
    pub fn record(&self) -> ExperimentRecord {
        ExperimentRecord {
            id: "table4".into(),
            workload: "mixed 12-benchmark activity on 8MB molecular".into(),
            references: self.references,
            results: self
                .rows
                .iter()
                .map(|r| ConfigResult {
                    label: r.label.clone(),
                    metrics: vec![
                        Metric::new("freq_mhz", r.freq_mhz),
                        Metric::new("traditional_w", r.traditional_w),
                        Metric::new("mol_worst_w", r.mol_worst_w),
                        Metric::new("mol_avg_w", r.mol_avg_w),
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
    fn advantage_in_paper_band() {
        let t = run(ExperimentScale::Custom(60_000));
        let adv = t.advantage_vs_4way();
        assert!(
            (0.18..=0.45).contains(&adv),
            "advantage {adv} outside band (paper: 0.29)"
        );
    }

    #[test]
    fn average_below_worst_case() {
        let t = run(ExperimentScale::Custom(60_000));
        for r in &t.rows {
            assert!(
                r.mol_avg_w <= r.mol_worst_w * 1.05,
                "{}: avg {} should not exceed worst {}",
                r.label,
                r.mol_avg_w,
                r.mol_worst_w
            );
        }
    }

    #[test]
    fn render_mentions_both_tables() {
        let t = run(ExperimentScale::Custom(30_000));
        let s = t.render();
        assert!(s.contains("Table 3"));
        assert!(s.contains("Table 4"));
        assert!(s.contains("advantage"));
    }
}
