//! # perfbench — the molecular-cache workspace's benchmark
//!
//! Three workloads (`repro_tables`, `serve_churn`, `miss_storm`) timed
//! end to end from outside the library, plus a traced run that splits
//! the time by layer. See `README.md` in this directory for why each
//! workload exists and which metric each layer should move.

pub mod catalog;
pub mod digest;
pub mod host;
pub mod schedule;
pub mod spans;
pub mod speed;
pub mod stats;
pub mod workloads;
