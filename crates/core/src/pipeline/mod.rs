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
//! [`MolecularCache::service`](crate::MolecularCache) is a thin driver:
//! it looks the requesting region up once and passes it, with the cache
//! fields each stage touches, to each stage in turn. The stages add only
//! to the counters that differ from access to access (`Counters`), from
//! which the cache's [`Activity`] and its stage totals are derived. The
//! contract the driver keeps — and the determinism tests enforce — is
//! that the staged decomposition is *observationally free* (stats,
//! latencies and activity counters are bit-identical to the
//! pre-pipeline monolith, and to the ordered scan) and that the stage
//! cycles each access adds sum exactly to its reported latency.
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

use crate::config::{ASID_STAGE_CYCLES, HIT_LATENCY, MISS_PENALTY, ULMO_PENALTY};
use molcache_sim::{Activity, StageActivity};

/// The event counters the access path adds to: the part of the cache's
/// [`Activity`] that differs from access to access.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Counters {
    pub(crate) accesses: u64,
    pub(crate) home_probes: u64,
    pub(crate) ulmo_searches: u64,
    pub(crate) ulmo_compares: u64,
    pub(crate) ulmo_probes: u64,
    /// Misses, bypasses included.
    pub(crate) misses: u64,
    pub(crate) line_fills: u64,
    /// Fills' dirty evictions and every flush's dirty frames.
    pub(crate) writebacks: u64,
}

impl Counters {
    /// The activity these counters stand for, on a cache whose tiles
    /// hold `tile_molecules` molecules: every access passes the ASID gate
    /// (a compare per home-tile molecule, and its cycle) and pays the
    /// home lookup's hit latency, a launched Ulmo search its penalty and
    /// a miss the miss penalty; each line filled is a frame the fill
    /// stage touches, and victim selection costs nothing.
    pub(crate) fn activity(&self, tile_molecules: u64) -> Activity {
        let gate_compares = self.accesses * tile_molecules;
        let mut activity = Activity {
            accesses: self.accesses,
            ways_probed: self.home_probes + self.ulmo_probes,
            line_fills: self.line_fills,
            writebacks: self.writebacks,
            asid_compares: gate_compares + self.ulmo_compares,
            ulmo_searches: self.ulmo_searches,
            stages: StageActivity::default(),
        };
        let s = &mut activity.stages;
        s.asid_gate.cycles = self.accesses * u64::from(ASID_STAGE_CYCLES);
        s.asid_gate.asid_compares = gate_compares;
        s.home_lookup.cycles = self.accesses * u64::from(HIT_LATENCY);
        s.home_lookup.tag_probes = self.home_probes;
        s.ulmo_search.cycles = self.ulmo_searches * u64::from(ULMO_PENALTY);
        s.ulmo_search.asid_compares = self.ulmo_compares;
        s.ulmo_search.tag_probes = self.ulmo_probes;
        s.fill.cycles = self.misses * u64::from(MISS_PENALTY);
        s.fill.frames_touched = self.line_fills;
        activity
    }
}
