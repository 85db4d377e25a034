//! The staged access pipeline (§3 of the paper, one module per stage).
//!
//! A molecular cache services a request through an explicit hardware
//! pipeline, and this module tree mirrors it one file per stage:
//!
//! 0. [`memo`] — the line-index front-end (on by default, switchable at
//!    runtime): one probe of the exact (owner ASID, line) → molecule
//!    index the tag store keeps finds the line and stands in for stages
//!    1–3, charging exactly the compares, probes and Ulmo launch their
//!    ordered scan would. Regions with a shared molecule on a lookup
//!    tile, and the reference path with the front-end off, run stages
//!    1–3 themselves.
//! 1. [`asid_gate`] — the §3.1 ASID-compare stage: every molecule of the
//!    addressed tile compares the requestor's ASID, and only matching
//!    molecules proceed to tag lookup. This is the dynamic-power lever —
//!    non-matching molecules never burn tag/data energy.
//! 2. [`home_lookup`] — the tag-probe stage over the gated molecules of
//!    the home tile.
//! 3. [`ulmo_search`] — Ulmo's cross-tile search: when the home tile
//!    misses, remote tiles of the cluster holding region molecules are
//!    gated and probed in turn.
//! 4. [`victim`] — victim selection on a miss: the Random/Randy/
//!    LRU-Direct policies behind the [`VictimPolicy`] trait, the victim
//!    RNGs ([`Lfsr16`]), and the §3.1 shared-molecule fallback.
//! 5. [`fill`] — the block fill: line-factor prefetch into consecutive
//!    frames of the victim molecule, stale-copy invalidation (one index
//!    probe per other line of the block), and writeback accounting.
//!
//! Each stage writes what it did into a typed
//! [`StageTrace`](molcache_sim::StageTrace);
//! [`MolecularCache::service`](crate::MolecularCache) is a thin driver
//! that sequences the stages and folds one access's traces, as a
//! [`StageBreakdown`](molcache_sim::StageBreakdown), into the cache's
//! [`Activity`](molcache_sim::Activity). The contract the driver keeps —
//! and the determinism tests enforce — is that the staged decomposition
//! is *observationally free* (stats, latencies and activity counters are
//! bit-identical to the pre-pipeline monolith, and to the ordered scan
//! whether or not the index answers) and that the stage cycles each
//! access adds sum exactly to its reported latency.
//!
//! [`invariants`] holds cross-stage structural checks and diagnostics
//! (no line resident twice within a region, block-fill placement).

pub mod asid_gate;
pub mod fill;
pub mod home_lookup;
pub mod invariants;
pub mod memo;
pub mod ulmo_search;
pub mod victim;

pub use memo::MemoStats;
pub use victim::{Lfsr16, LruDirectVictim, RandomVictim, RandyVictim, VictimPolicy};
