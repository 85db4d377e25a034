//! Experiment benches: one benchmark per paper table/figure.
//!
//! Each bench regenerates its artifact at smoke scale (100 K references)
//! so `cargo bench` both exercises the full experiment pipelines and
//! tracks their wall-clock cost. For paper-scale output, run the `repro`
//! binary instead:
//!
//! ```text
//! cargo run -p molcache-bench --release --bin repro -- all --scale paper
//! ```

use molcache_bench::experiments::{ablations, fig5, fig6, table1, table2, table4, table5};
use molcache_bench::harness::workload_requests;
use molcache_bench::stopwatch::{bench, section};
use molcache_bench::ExperimentScale;
use molcache_trace::presets::Benchmark;
use std::time::Duration;

const SCALE: ExperimentScale = ExperimentScale::Custom(100_000);
const BUDGET: Duration = Duration::from_millis(500);

fn main() {
    // The point benches replay the trace their experiment builds once
    // per call, so they time the simulation alone.
    let spec4 = workload_requests(&Benchmark::SPEC4, SCALE.references(), 42);
    let mixed12 = workload_requests(&Benchmark::MIXED12, SCALE.references(), 7);
    section("paper");
    bench("table1_interference", BUDGET, || {
        std::hint::black_box(table1::run(SCALE));
    });
    // One representative point per graph (the full 2x24-point sweep runs
    // via the repro binary).
    bench("fig5a_point_4mb_randy", BUDGET, || {
        std::hint::black_box(fig5::run_point(
            fig5::Graph::A,
            &spec4,
            4 << 20,
            fig5::Config::Molecular(molcache_core::RegionPolicy::Randy),
        ));
    });
    bench("fig5b_point_2mb_traditional4", BUDGET, || {
        std::hint::black_box(fig5::run_point(
            fig5::Graph::B,
            &spec4,
            2 << 20,
            fig5::Config::Traditional(4),
        ));
    });
    bench("table2_molecular_randy", BUDGET, || {
        std::hint::black_box(table2::run_config(
            &mixed12,
            table2::Config::Molecular(molcache_core::RegionPolicy::Randy),
        ));
    });
    bench("table2_8mb_8way", BUDGET, || {
        std::hint::black_box(table2::run_config(
            &mixed12,
            table2::Config::Traditional(8 << 20, 8),
        ));
    });
    bench("table4_power", BUDGET, || {
        std::hint::black_box(table4::run(SCALE));
    });
    bench("fig6_hpm", BUDGET, || {
        std::hint::black_box(fig6::run(SCALE));
    });
    bench("table5_power_deviation", BUDGET, || {
        std::hint::black_box(table5::run(SCALE));
    });
    bench("ablation_resize_triggers", BUDGET, || {
        std::hint::black_box(ablations::resize_triggers(&spec4));
    });
}
