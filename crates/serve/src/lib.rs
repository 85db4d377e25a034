//! # molcache-serve — sharded concurrent multi-tenant cache service
//!
//! The paper's molecular cache is a per-CMP structure: one cache, many
//! application regions, one access stream. A serving deployment has the
//! opposite shape — many OS threads pushing interleaved traffic from
//! many tenants into shared cache capacity. This crate bridges the two:
//! it shards capacity into N independent [`MolecularCache`] clusters,
//! each behind its own lock, and routes every tenant (ASID) to exactly
//! one shard through a dense lock-free router table.
//!
//! The pieces:
//!
//! * [`TenantRouter`] — one atomic word per ASID packing
//!   `active | shard | generation`. A [`TenantHandle`] captures the
//!   word at admission; any later lifecycle change (revoke, re-admit)
//!   bumps the generation, so stale handles fail validation instead of
//!   touching another tenant's region.
//! * [`CacheService`] — the lifecycle API (`admit` / `resize` / `evict`
//!   / `revoke`) plus the access path. Lifecycle calls serialize
//!   through an admin lock; accesses take only the owning shard's lock
//!   and validate the handle *after* acquiring it, which makes "no
//!   access succeeds after `revoke` returns" a hard guarantee.
//! * [`replay`](mod@replay) — multi-threaded trace replay partitioned by *shard*
//!   (never by tenant), so every shard's traffic is serviced by exactly
//!   one thread in a deterministic order and per-tenant statistics are
//!   bit-identical for any thread count.
//! * [`report`] — the `molcache-serve-v1` JSON document `molserve`
//!   emits and `molstat --serve` renders.
//!
//! Determinism is the design center: sharding is how the service scales
//! *and* how it stays reproducible. Two tenants in different shards
//! never interact (capacity, replacement, memoization are all per
//! shard); two tenants in the same shard interleave in a fixed
//! round-robin chunk order.

pub mod error;
pub mod replay;
pub mod report;
pub mod router;
pub mod service;

pub use error::ServeError;
pub use replay::{replay, ReplayOptions, ReplayReport, TenantReport};
pub use report::{ServeDoc, SERVE_SCHEMA};
pub use router::{TenantHandle, TenantRouter};
pub use service::CacheService;

pub use molcache_core::MolecularCache;
