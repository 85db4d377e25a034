//! The metric catalog and the result line.
//!
//! Every metric the result line can carry is declared here once, with
//! its unit and the direction that counts as better; `BENCHMARK.json`
//! at the repository root lists the same metrics (a test keeps the two
//! in step). Untraced runs report [`END_TO_END`], traced runs
//! [`PER_LAYER`] and print [`layer_detail`] besides.

use std::collections::BTreeMap;

/// One declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name: letters, digits, `_`, `.` and `-`, starting with a letter
    /// or digit, at most 64 characters.
    pub name: &'static str,
    /// Unit, e.g. `s`, `ns`, `count`.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
    }
}

/// Host-side metrics every workload reports from its untraced run.
pub const END_TO_END: &[MetricDef] = &[lower("setup_s", "s"), lower("run_s", "s")];

/// One experiment of `repro all`: its id, the span around its run and
/// the metric of that span's time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Experiment {
    /// Experiment id, as in its JSON record.
    pub id: &'static str,
    /// Span around its run, render and record.
    pub span: &'static str,
    /// Per-layer metric of the span's self time per pass.
    pub metric: &'static str,
}

macro_rules! experiments {
    ($($id:literal),*) => {
        [$(Experiment {
            id: $id,
            span: concat!("harness.", $id),
            metric: concat!("harness.experiment_s.", $id),
        }),*]
    };
}

/// Experiments of `repro all`, in the order it runs them.
pub const EXPERIMENTS: [Experiment; 8] = experiments!(
    "table1",
    "fig5a",
    "fig5b",
    "table2",
    "table4",
    "fig6",
    "table5",
    "ablations"
);

/// Per-layer metrics of a traced run's result line. Both gated
/// workloads measure every time here. The `serve.*`, `telemetry.*` and
/// `lifecycle.*` counts read 0 on `repro_tables`, which has no service.
pub const PER_LAYER: &[MetricDef] = &[
    lower("trace.gen_ns_per_access", "ns"),
    lower("trace.interleave_ns_per_access", "ns"),
    lower("core.batch_ns_per_access", "ns"),
    higher("core.memo_hit_ratio", "ratio"),
    lower("core.memo_stale_ratio", "ratio"),
    lower("core.memo_generation_bumps", "count"),
    lower("core.ulmo_searches_per_access", "1/access"),
    lower("core.tag_probes_per_access", "1/access"),
    lower("core.asid_compares_per_access", "1/access"),
    lower("core.line_fills_per_access", "1/access"),
    lower("core.writebacks_per_access", "1/access"),
    lower("resize.rounds", "count"),
    lower("resize.failed_allocations", "count"),
    lower("resize.overhead_cycles", "cycles"),
    lower("lifecycle.flushed_lines", "count"),
    lower("serve.lock_acquisitions", "count"),
    lower("serve.contended_ratio", "ratio"),
    lower("serve.imbalance", "ratio"),
    lower("telemetry.epochs", "count"),
    lower("telemetry.export_bytes", "bytes"),
    higher("harness.cpu_utilization", "ratio"),
    lower("harness.unattributed_s", "s"),
    lower("sim.miss_rate", "ratio"),
    lower("sim.cycles_per_access", "cycles"),
    lower("sim.energy_nj_per_access", "nJ"),
    lower("tracing.overhead_s", "s"),
    lower("tracing.spans_per_pass", "count"),
];

/// Per-layer times of layers only one workload reaches. A traced run
/// prints them and keeps their spans, but its result line leaves them
/// out: on the other workload they would read a constant 0.
const DETAIL_TIMES: &[MetricDef] = &[
    lower("serve.batch_ns_per_access", "ns"),
    lower("serve.lock_wait_ns", "ns"),
    lower("serve.worker_run_s.0", "s"),
    lower("serve.worker_run_s.1", "s"),
    lower("lifecycle.admit_us", "us"),
    lower("lifecycle.revoke_us", "us"),
    lower("lifecycle.resize_us", "us"),
    lower("lifecycle.evict_us", "us"),
    lower("telemetry.export_ms", "ms"),
    lower("metrics.record_json_ms", "ms"),
];

/// [`DETAIL_TIMES`] and the time of each experiment in [`EXPERIMENTS`].
pub fn layer_detail() -> Vec<MetricDef> {
    DETAIL_TIMES
        .iter()
        .copied()
        .chain(EXPERIMENTS.iter().map(|e| lower(e.metric, "s")))
        .collect()
}

/// The result line: every metric of `defs` with its unit, taking values
/// from `values` (a metric missing there reports 0).
///
/// # Panics
/// If a value is not finite: a measurement that produced NaN is a bug in
/// the benchmark, not a result.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&str, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name).copied().unwrap_or(0.0);
            assert!(v.is_finite(), "metric {} is not finite: {v}", d.name);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
