//! Telemetry event types published by the cache and simulation layers.

use molcache_trace::Asid;

/// One partition's state over one epoch — the per-ASID row of the
/// time-series the paper's Algorithm 1 acts on but never exposes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Epoch index (epoch 0 covers the first `epoch_length` accesses
    /// after the last statistics reset).
    pub epoch: u64,
    /// Owning application.
    pub asid: Asid,
    /// References this partition serviced during the epoch.
    pub accesses: u64,
    /// References that missed during the epoch.
    pub misses: u64,
    /// Molecules allocated to the partition at epoch close.
    pub molecules: usize,
    /// Replacement rows the partition's view is organized into.
    pub rows: usize,
    /// Fraction of the partition's line frames holding valid lines at
    /// epoch close (0.0 for an empty partition).
    pub occupancy: f64,
    /// The partition's miss-rate goal.
    pub goal: f64,
}

impl EpochSample {
    /// Miss rate within the epoch (0.0 when the partition was idle).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Cache-wide activity accumulated over one epoch — the deltas of the
/// [`Activity`](molcache_sim::Activity) counters the power model prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EpochActivity {
    /// Epoch index.
    pub epoch: u64,
    /// References serviced.
    pub accesses: u64,
    /// Ways/molecules probed.
    pub ways_probed: u64,
    /// Lines brought in.
    pub line_fills: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// ASID comparisons performed.
    pub asid_compares: u64,
    /// Ulmo remote-tile searches launched.
    pub ulmo_searches: u64,
    /// Unallocated molecules at epoch close.
    pub free_molecules: usize,
    /// References served by the memoization front-end (always 0 while the
    /// memo is disabled at runtime). Diagnostic only: it is
    /// deliberately **excluded** from the canonical JSON export so that
    /// telemetry documents stay byte-identical with memoization on or
    /// off. Surfaced by `molstat --memo` instead.
    pub memo_hits: u64,
    /// Per-pipeline-stage deltas of the counters above (all-zero for
    /// caches without a staged pipeline).
    pub stages: molcache_sim::StageActivity,
}

impl EpochActivity {
    /// The activity counters as a [`molcache_sim::Activity`], for pricing
    /// by `molcache-power`'s `EnergyMeter`.
    pub fn as_activity(&self) -> molcache_sim::Activity {
        molcache_sim::Activity {
            accesses: self.accesses,
            ways_probed: self.ways_probed,
            line_fills: self.line_fills,
            writebacks: self.writebacks,
            asid_compares: self.asid_compares,
            ulmo_searches: self.ulmo_searches,
            stages: self.stages,
        }
    }
}

/// Direction of an applied resize decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeKind {
    /// Algorithm 1 decided to grow the partition.
    Grow,
    /// Algorithm 1 decided to shrink the partition.
    Shrink,
}

impl ResizeKind {
    /// Lowercase name for reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            ResizeKind::Grow => "grow",
            ResizeKind::Shrink => "shrink",
        }
    }
}

/// The decision-input snapshot a resize policy saw when it made the
/// call, carried on every [`ResizeRecord`]. Diagnostic only: like
/// [`EpochActivity::memo_hits`], it is deliberately **excluded** from
/// the canonical JSON export so telemetry documents stay byte-identical
/// across the policy-trait refactor; `molstat` renders it instead.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResizeDecisionInputs {
    /// Accesses the partition served in the closing window.
    pub window_accesses: u64,
    /// Miss rate over the closing window.
    pub window_miss_rate: f64,
    /// Miss rate of the previous window (1.0 before the first window).
    pub last_miss_rate: f64,
    /// The goal the policy judged the partition against.
    pub goal: f64,
    /// Allocation in molecules at decision time.
    pub current: usize,
    /// Molecules granted or withdrawn by the previous resize.
    pub last_allocation: usize,
    /// Per-resize grant cap in force.
    pub max_allocation: usize,
    /// Unallocated molecules across the cache at decision time.
    pub free_molecules: usize,
}

/// One entry of the structured resize-event log: a non-Hold decision of
/// the installed resize policy, with what was asked for and what
/// actually happened.
#[derive(Debug, Clone, PartialEq)]
pub struct ResizeRecord {
    /// Global access count when the resize round ran.
    pub at_access: u64,
    /// Name of the trigger that fired the round (e.g. `per-app-adaptive`).
    pub trigger: String,
    /// Partition that was resized.
    pub asid: Asid,
    /// Grow or shrink.
    pub kind: ResizeKind,
    /// Molecules the decision asked to add/remove.
    pub requested: usize,
    /// Molecules actually added/removed (allocation can fall short of the
    /// request when tiles are full; `0` records a failed grow).
    pub applied: usize,
    /// Partition size before the decision (molecules).
    pub before: usize,
    /// Partition size after the decision (molecules).
    pub after: usize,
    /// Miss rate of the window that drove the decision.
    pub window_miss_rate: f64,
    /// The partition's miss-rate goal.
    pub goal: f64,
    /// Stable name of the policy that fired the decision (e.g.
    /// `paper-algorithm1`). Diagnostic: excluded from the canonical JSON
    /// export (see [`ResizeDecisionInputs`]).
    pub policy: String,
    /// The full input snapshot the policy decided from. Diagnostic:
    /// excluded from the canonical JSON export.
    pub inputs: ResizeDecisionInputs,
}

/// An event on the telemetry bus.
///
/// Borrowed payloads keep publication allocation-free; sinks that retain
/// events copy what they need.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// One serviced reference (feeds the latency histograms).
    Access {
        /// Requesting application.
        asid: Asid,
        /// Whether the reference hit.
        hit: bool,
        /// Service latency in cycles.
        latency: u32,
    },
    /// A partition's epoch sample.
    Partition(&'a EpochSample),
    /// Cache-wide epoch activity.
    Epoch(&'a EpochActivity),
    /// An applied resize decision.
    Resize(&'a ResizeRecord),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_sample_miss_rate() {
        let mut s = EpochSample {
            epoch: 0,
            asid: Asid::new(1),
            accesses: 4,
            misses: 1,
            molecules: 2,
            rows: 2,
            occupancy: 0.5,
            goal: 0.25,
        };
        assert!((s.miss_rate() - 0.25).abs() < 1e-12);
        s.accesses = 0;
        assert_eq!(s.miss_rate(), 0.0);
    }

    #[test]
    fn epoch_activity_converts() {
        let e = EpochActivity {
            epoch: 3,
            accesses: 10,
            ways_probed: 20,
            line_fills: 2,
            writebacks: 1,
            asid_compares: 20,
            ulmo_searches: 4,
            free_molecules: 7,
            memo_hits: 0,
            stages: molcache_sim::StageActivity::default(),
        };
        let a = e.as_activity();
        assert_eq!(a.accesses, 10);
        assert_eq!(a.ulmo_searches, 4);
    }

    #[test]
    fn resize_kind_names() {
        assert_eq!(ResizeKind::Grow.name(), "grow");
        assert_eq!(ResizeKind::Shrink.name(), "shrink");
    }
}
