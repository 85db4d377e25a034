//! # molcache-bench — experiment harness
//!
//! One module per table/figure of the paper's evaluation (§4). Each
//! experiment returns an [`ExperimentRecord`] and can print a
//! paper-style table; the `repro` binary drives them all:
//!
//! ```text
//! cargo run -p molcache-bench --release --bin repro -- all
//! ```
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`experiments::table1`] | Table 1 — inter-application interference |
//! | [`experiments::fig5`] | Figure 5 — avg deviation vs size (graphs A & B) |
//! | [`experiments::table2`] | Table 2 — 12-benchmark mixed workload |
//! | [`experiments::table4`] | Tables 3+4 — CACTI power comparison |
//! | [`experiments::fig6`] | Figure 6 — hits-per-molecule, Random vs Randy |
//! | [`experiments::table5`] | Table 5 — power-deviation product |
//! | [`experiments::ablations`] | §3.4 design-choice ablations |
//!
//! [`ExperimentRecord`]: molcache_metrics::record::ExperimentRecord

pub mod experiments;
pub mod harness;
pub mod machine;
pub mod stopwatch;
pub mod tourney;
pub mod workloads;

pub use harness::{molecular_config, run_workload_on, Engine, ExperimentScale};
pub use machine::MachineInfo;
pub use tourney::{TourneyDoc, TourneyEntry, TOURNEY_SCHEMA};
