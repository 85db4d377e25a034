//! The serve_churn lifecycle schedule.
//!
//! Each shard's worker interleaves tenant lifecycle calls with its
//! access batches. The schedule is a pure function of the seed and the
//! shard, fixed before the run starts, so every shard sees the same
//! sequence of operations however the two workers are timed, and the
//! simulated statistics repeat exactly.
//!
//! The repository holds no tenant-churn trace, so the rate and the mix
//! are a modelling assumption, not a measurement. The rate follows the
//! cache's own re-partitioning cadence: one call per shard per adaptive
//! resize period on average. The three calls are equally likely, and a
//! resize asks for up to twice a tenant's fair share of the shard.

use crate::workloads::serve_churn::{CHUNK, SHARDS, SHARD_MOLECULES, TENANTS};
use molcache_trace::rng::Rng;

/// Initial adaptive resize period of a serve_churn shard, in accesses
/// (the `molserve` and experiment default).
pub const RESIZE_PERIOD: u64 = 25_000;
/// Fewest access batches (turns) between two lifecycle calls: half a
/// resize period.
pub const MIN_GAP: u64 = RESIZE_PERIOD / 2 / CHUNK as u64;
/// Most access batches between two lifecycle calls (exclusive): one and
/// a half resize periods, so calls come one period apart on average.
pub const MAX_GAP: u64 = 3 * RESIZE_PERIOD / 2 / CHUNK as u64;
/// Largest region size, in molecules, a scheduled resize asks for:
/// twice a tenant's fair share of the shard.
pub const MAX_RESIZE: usize = 2 * SHARD_MOLECULES / (TENANTS / SHARDS);

/// A lifecycle call one tenant receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleOp {
    /// `resize` toward this many molecules.
    Resize(usize),
    /// `evict`: flush the tenant's lines, keep its capacity.
    Evict,
    /// `revoke`, then `admit_to` the same shard.
    RevokeReadmit,
}

/// A lifecycle call due before a shard's `turn`-th access batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledOp {
    /// Index of the access batch the call precedes.
    pub turn: u64,
    /// Tenant slot within the shard's group.
    pub slot: usize,
    /// The call.
    pub op: LifecycleOp,
}

/// The lifecycle calls of one shard whose group of `tenants` tenants is
/// driven for `turns` access batches.
pub fn lifecycle_schedule(seed: u64, shard: usize, tenants: usize, turns: u64) -> Vec<ScheduledOp> {
    let mut rng = Rng::seeded(seed ^ (shard as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut ops = Vec::new();
    let mut turn = 0;
    loop {
        turn += MIN_GAP + rng.gen_range(MAX_GAP - MIN_GAP);
        if turn >= turns {
            return ops;
        }
        let slot = rng.gen_index(tenants);
        let op = match rng.gen_range(3) {
            0 => LifecycleOp::Resize(1 + rng.gen_index(MAX_RESIZE)),
            1 => LifecycleOp::Evict,
            _ => LifecycleOp::RevokeReadmit,
        };
        ops.push(ScheduledOp { turn, slot, op });
    }
}
