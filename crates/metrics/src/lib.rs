//! # molcache-metrics — QoS metrics and paper-style reporting
//!
//! The paper evaluates caches with three metrics. Two are implemented
//! here:
//!
//! * **Average deviation from the miss-rate goal** ([`deviation`]) — the
//!   per-application `|miss_rate − goal|`, averaged over the workload
//!   (Figure 5, Table 2).
//! * **Power-deviation product** ([`power_deviation`]) — Table 5's
//!   combined QoS/power figure of merit.
//!
//! The third, Figure 6's **hits per molecule** (hit rate divided by
//! molecules used), needs a region's allocation history, so the
//! molecular cache computes it itself (`Region::hits_per_molecule` in
//! `molcache-core`).
//!
//! Plus [`table`] — fixed-width ASCII tables and CSV emitters so the
//! benchmark harness prints output shaped like the paper's tables — and
//! [`record`] — JSON-serializable experiment records (via the built-in
//! [`json`] module) written next to the human-readable output.

pub mod chart;
pub mod deviation;
pub mod json;
pub mod power_deviation;
pub mod record;
pub mod table;

pub use deviation::{average_deviation, deviation_from_goal, MissRateGoal};
pub use power_deviation::power_deviation_product;
