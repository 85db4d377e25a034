//! The staged access pipeline (§3 of the paper, one module per stage).
//!
//! A molecular cache services a request through an explicit hardware
//! pipeline, and this module tree mirrors it:
//!
//! 0. [`memo`] — the line-index front-end: one probe of the exact (owner
//!    ASID, line) → molecule index the tag store keeps finds the line and
//!    stands in for stages 1–3, charging exactly the compares, probes and
//!    Ulmo launch their ordered scan would. It answers every access.
//! 1. to 3. [`scan`] — the §3.1 ASID gate, the home-tile tag probe and
//!    Ulmo's cross-tile search as the paper describes them. The access
//!    path charges them through stage 0; the ordered scan itself is kept
//!    as a read-only oracle
//!    ([`MolecularCache::reference_lookup`](crate::MolecularCache::reference_lookup))
//!    that tests compare every access against.
//! 4. [`victim`] — victim selection on a miss: the Random/Randy/
//!    LRU-Direct policies behind the [`VictimPolicy`] trait and the victim
//!    RNG ([`Lfsr16`]).
//! 5. [`fill`] — the block fill: line-factor prefetch into consecutive
//!    frames of the victim molecule, and writeback accounting.
//!
//! Each stage writes what it did into a typed
//! [`StageTrace`](molcache_sim::StageTrace);
//! [`MolecularCache::service`](crate::MolecularCache) is a thin driver
//! that sequences the stages and folds one access's traces, as a
//! [`StageBreakdown`](molcache_sim::StageBreakdown), into the cache's
//! [`Activity`](molcache_sim::Activity). The contract the driver keeps —
//! and the determinism tests enforce — is that the staged decomposition
//! is *observationally free* (stats, latencies and activity counters are
//! bit-identical to the pre-pipeline monolith, and to the ordered scan)
//! and that the stage cycles each access adds sum exactly to its
//! reported latency.
//!
//! [`invariants`] holds cross-stage structural checks and diagnostics
//! (no line resident twice within a region, blocks held whole,
//! block-fill placement).

pub mod fill;
pub mod invariants;
pub mod memo;
pub mod scan;
pub mod victim;

pub use memo::MemoStats;
pub use victim::{Lfsr16, LruDirectVictim, RandomVictim, RandyVictim, VictimPolicy};
