//! Figure 6 — hits per molecule (HPM), Random vs Randy.
//!
//! Runs the 12-benchmark mixed workload on the 6 MB molecular cache under
//! both replacement policies and reports per-application HPM, the
//! overall miss rates and the molecule usage. The paper finds Randy's HPM
//! higher for most applications, its overall miss rate ~9 % lower, and
//! its molecule usage ~5 % higher.

use crate::experiments::table2::molecular_6mb;
use crate::harness::{asid_of, replay_warmed, workload_requests, Engine, ExperimentScale};
use molcache_core::RegionPolicy;
use molcache_metrics::record::{ConfigResult, ExperimentRecord, Metric};
use molcache_metrics::table::Table;
use molcache_sim::Request;
use molcache_trace::presets::Benchmark;

/// Per-policy measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyResult {
    /// The replacement policy.
    pub policy: RegionPolicy,
    /// HPM per application in [`Benchmark::MIXED12`] order.
    pub hpm: Vec<f64>,
    /// Overall miss rate.
    pub overall_miss_rate: f64,
    /// Time-averaged molecules used, summed over regions.
    pub molecules_used: f64,
}

/// The full Figure 6 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// Random's measurements.
    pub random: PolicyResult,
    /// Randy's measurements.
    pub randy: PolicyResult,
    /// References simulated per policy.
    pub references: u64,
}

fn run_policy(policy: RegionPolicy, requests: &[Request]) -> PolicyResult {
    let mut cache = molecular_6mb(policy, 7);
    let summary = replay_warmed(requests, &mut cache);
    let snapshots = cache.snapshots();
    let hpm = (0..12)
        .map(|i| {
            snapshots
                .iter()
                .find(|s| s.asid == asid_of(i))
                .map(|s| s.hits_per_molecule)
                .unwrap_or(0.0)
        })
        .collect();
    let molecules_used = snapshots.iter().map(|s| s.avg_molecules).sum();
    PolicyResult {
        policy,
        hpm,
        overall_miss_rate: summary.global.miss_rate(),
        molecules_used,
    }
}

/// Runs the figure serially.
pub fn run(scale: ExperimentScale) -> Fig6 {
    run_with(scale, &Engine::serial())
}

/// Runs the figure: builds the MIXED12 trace once and replays it to the
/// two policies, measured concurrently.
pub fn run_with(scale: ExperimentScale, engine: &Engine) -> Fig6 {
    let refs = scale.references();
    let requests = workload_requests(&Benchmark::MIXED12, refs, 7);
    let mut results = engine.run(vec![RegionPolicy::Random, RegionPolicy::Randy], |p| {
        run_policy(p, &requests)
    });
    let randy = results.pop().expect("randy result");
    let random = results.pop().expect("random result");
    Fig6 {
        random,
        randy,
        references: refs,
    }
}

impl Fig6 {
    /// Number of applications where Randy's HPM beats Random's.
    pub fn randy_wins(&self) -> usize {
        self.randy
            .hpm
            .iter()
            .zip(&self.random.hpm)
            .filter(|(randy, random)| randy > random)
            .count()
    }

    /// Relative overall miss-rate improvement of Randy over Random
    /// (positive = Randy better; paper: ~9 %).
    pub fn randy_miss_improvement(&self) -> f64 {
        if self.random.overall_miss_rate == 0.0 {
            return 0.0;
        }
        1.0 - self.randy.overall_miss_rate / self.random.overall_miss_rate
    }

    /// Relative extra molecule usage of Randy (paper: ~5 %).
    pub fn randy_extra_molecules(&self) -> f64 {
        if self.random.molecules_used == 0.0 {
            return 0.0;
        }
        self.randy.molecules_used / self.random.molecules_used - 1.0
    }

    /// Renders the per-benchmark HPM table (log-scale plot data).
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["Benchmark", "HPM Random", "HPM Randy", "winner"]);
        for (i, b) in Benchmark::MIXED12.iter().enumerate() {
            let (rnd, rdy) = (self.random.hpm[i], self.randy.hpm[i]);
            t.row(vec![
                b.name().into(),
                format!("{rnd:.3e}"),
                format!("{rdy:.3e}"),
                if rdy > rnd { "Randy" } else { "Random" }.into(),
            ]);
        }
        format!(
            "Figure 6 (hits per molecule, mixed workload)\n{}\nRandy wins {}/12; overall miss rate improvement {:.1}% (paper ~9%); extra molecules {:.1}% (paper ~5%)\n",
            t.render(),
            self.randy_wins(),
            self.randy_miss_improvement() * 100.0,
            self.randy_extra_molecules() * 100.0
        )
    }

    /// Machine-readable record.
    pub fn record(&self) -> ExperimentRecord {
        let per_policy = |r: &PolicyResult| ConfigResult {
            label: format!("Molecular ({})", r.policy),
            metrics: {
                let mut m = vec![
                    Metric::new("overall_miss_rate", r.overall_miss_rate),
                    Metric::new("molecules_used", r.molecules_used),
                ];
                for (i, b) in Benchmark::MIXED12.iter().enumerate() {
                    m.push(Metric::new(format!("hpm_{}", b.name()), r.hpm[i]));
                }
                m
            },
        };
        ExperimentRecord {
            id: "fig6".into(),
            workload: "12-benchmark mixed on 6MB molecular".into(),
            references: self.references,
            results: vec![per_policy(&self.random), per_policy(&self.randy)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hpm_positive_for_active_apps() {
        let f = run(ExperimentScale::Custom(120_000));
        let active_random = f.random.hpm.iter().filter(|h| **h > 0.0).count();
        assert!(
            active_random >= 10,
            "most apps should score: {active_random}"
        );
        assert!(f.random.molecules_used > 0.0);
        assert!(f.randy.molecules_used > 0.0);
    }

    #[test]
    fn render_contains_all_benchmarks() {
        let f = run(ExperimentScale::Custom(60_000));
        let s = f.render();
        for b in Benchmark::MIXED12 {
            assert!(s.contains(b.name()), "missing {b}");
        }
    }
}
