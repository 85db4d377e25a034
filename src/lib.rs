//! # molecular-caches — facade crate
//!
//! Reproduction of *"Molecular Caches: A caching structure for dynamic
//! creation of application-specific Heterogeneous cache regions"*
//! (MICRO 2006). This crate re-exports the workspace's component crates
//! under one roof; see the README for the architecture overview and
//! `DESIGN.md` / `EXPERIMENTS.md` for the reproduction details.
//!
//! * [`trace`] — synthetic workload generation ([`molcache_trace`]).
//! * [`sim`] — the traditional set-associative cache and the CMP driver
//!   ([`molcache_sim`]).
//! * [`power`] — CACTI-like energy/timing model ([`molcache_power`]).
//! * [`core`] — the molecular cache itself ([`molcache_core`]).
//! * [`metrics`] — QoS metrics and reporting ([`molcache_metrics`]).
//!
//! ## Example: two applications, one molecular cache
//!
//! ```
//! use molecular_caches::core::{MolecularCache, MolecularConfig};
//! use molecular_caches::sim::cmp::run_shared;
//! use molecular_caches::trace::{presets::Benchmark, Asid};
//!
//! // 2 MB molecular cache: 1 cluster x 4 tiles x 64 molecules x 8 KB.
//! let config = MolecularConfig::builder()
//!     .tile_molecules(64)
//!     .tiles_per_cluster(4)
//!     .clusters(1)
//!     .miss_rate_goal(0.10)
//!     .build()?;
//! let mut cache = MolecularCache::new(config);
//!
//! let apps = vec![
//!     Benchmark::Ammp.source(Asid::new(1), 42),
//!     Benchmark::Gzip.source(Asid::new(2), 42),
//! ];
//! let summary = run_shared(apps, &mut cache, 200_000)?;
//! assert_eq!(summary.per_app.len(), 2);
//! assert!(summary.global.miss_rate() < 1.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub use molcache_core as core;
pub use molcache_metrics as metrics;
pub use molcache_power as power;
pub use molcache_sim as sim;
pub use molcache_trace as trace;
