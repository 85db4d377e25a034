//! # molcache-sim — trace-driven cache simulation substrate
//!
//! This crate plays the role of the paper's simulation infrastructure:
//! a replacement for the modified **Dinero** cache simulator in the one
//! configuration the paper's baselines use (write-back, write-allocate
//! LRU set-associative caches of any power-of-two size, associativity
//! and line size) and for the parts of **SESC** the paper actually uses
//! (a CMP front end that interleaves the reference streams of
//! concurrently running applications onto a shared L2).
//!
//! The crate defines the [`CacheModel`] trait that *both* the traditional
//! caches here and the molecular cache in `molcache-core` implement, so
//! every experiment harness is generic over the cache under test. It also
//! defines [`Activity`] — the activity-event counts that
//! `molcache-power` converts into dynamic energy.
//!
//! ## Example: measure a benchmark's miss rate on a 1 MB 4-way L2
//!
//! ```
//! use molcache_sim::{config::CacheConfig, set_assoc::SetAssocCache, cmp::run_source};
//! use molcache_trace::{presets::Benchmark, Asid};
//!
//! let cfg = CacheConfig::new(1 << 20, 4, 64)?;
//! let mut l2 = SetAssocCache::new(cfg);
//! let src = Benchmark::Ammp.source(Asid::new(1), 42);
//! let summary = run_source(src, &mut l2, 200_000);
//! assert!(summary.global.miss_rate() < 0.20);
//! # Ok::<(), molcache_sim::SimError>(())
//! ```

pub mod cmp;
pub mod config;
pub mod error;
pub mod model;
pub mod set_assoc;
pub mod stage;
pub mod stats;

pub use config::CacheConfig;
pub use error::SimError;
pub use model::{
    AccessObserver, AccessOutcome, Activity, BatchOutcome, CacheModel, NullObserver, Request,
};
pub use set_assoc::SetAssocCache;
pub use stage::{Stage, StageActivity, StageBreakdown, StageTotals, StageTrace};
pub use stats::{AppStats, AppTable, CacheStats};
