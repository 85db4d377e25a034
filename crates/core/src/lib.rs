//! # molcache-core — the Molecular Cache
//!
//! Implementation of the cache architecture from *"Molecular Caches: A
//! caching structure for dynamic creation of application-specific
//! Heterogeneous cache regions"* (MICRO 2006).
//!
//! A molecular cache is built from **molecules** — small (8–32 KB)
//! direct-mapped caching units with 64-byte lines, whose frames and ASID
//! live in one flat tag store ([`tags`]). Molecules are
//! physically grouped into **tiles** (one read/write port each) and
//! tiles into **tile clusters**, each managed by a controller called
//! **Ulmo**; the grouping is fixed, so it is index arithmetic
//! ([`tile`]). A subset of molecules forms an application-exclusive
//! **cache region** bound by ASID ([`region`]), with:
//!
//! * ASID-gated molecule access (§3.1) — only molecules configured with
//!   the requestor's ASID proceed past address decode;
//! * configurable line-size multiples per region (§3.2) — misses fetch
//!   `k` consecutive lines into consecutive frames of one molecule;
//! * the **Random** and **Randy** replacement policies (§3.3) — Randy
//!   views the region as a 2-D sparse matrix with per-row victim
//!   selection and non-uniform associativity per row;
//! * hierarchical lookup (§3.3) — home tile first, then Ulmo searches the
//!   cluster tiles contributing molecules to the region;
//! * goal-driven dynamic resizing (§3.4, Algorithm 1) — partitions grow
//!   and shrink to meet per-application miss-rate goals, with constant,
//!   global-adaptive or per-application-adaptive resize triggers.
//!
//! The top-level type is [`MolecularCache`], which implements
//! [`molcache_sim::CacheModel`] so it can be driven by the same harness
//! as the traditional caches it is compared against.
//!
//! ## Example
//!
//! ```
//! use molcache_core::{MolecularCache, MolecularConfig};
//! use molcache_sim::{CacheModel, Request};
//! use molcache_trace::{AccessKind, Address, Asid};
//!
//! // 1 MB: 1 cluster x 4 tiles x 32 molecules x 8 KB.
//! let config = MolecularConfig::builder()
//!     .clusters(1)
//!     .tiles_per_cluster(4)
//!     .tile_molecules(32)
//!     .miss_rate_goal(0.10)
//!     .build()?;
//! let mut cache = MolecularCache::new(config);
//! let req = Request {
//!     asid: Asid::new(1),
//!     addr: Address::new(0x4000),
//!     kind: AccessKind::Read,
//! };
//! assert!(!cache.access(req).hit); // cold miss allocates a region
//! assert!(cache.access(req).hit);
//! # Ok::<(), molcache_core::CoreError>(())
//! ```

pub mod cache;
pub mod config;
pub mod error;
pub mod ids;
mod lifecycle;
mod observe;
pub mod pipeline;
pub mod policy;
pub mod region;
pub mod region_table;
pub mod resize;
mod search_list;
pub mod stats;
pub mod tags;
pub mod tile;

pub use cache::MolecularCache;
pub use config::{InitialAllocation, MolecularConfig, MolecularConfigBuilder, RegionPolicy};
pub use error::CoreError;
pub use pipeline::{Lfsr16, MemoStats, VictimPolicy};
pub use policy::ResizePolicy;
pub use resize::ResizeTrigger;
