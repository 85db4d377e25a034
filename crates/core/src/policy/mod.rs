//! Resize *decision* policies (§3.4, Algorithm 1 and alternatives).
//!
//! PR 5 proved the shape with `VictimPolicy`; this module does the same
//! for resizing. The split is decision vs mechanism:
//!
//! - **Policy (this module)** — when to evaluate a partition and
//!   whether it should grow, shrink, or hold. Implementations of
//!   [`ResizePolicy`] see an immutable [`DecisionInputs`] snapshot per
//!   partition and cache-wide [`PartitionWindow`] snapshots per round.
//! - **Mechanism (`crate::resize`)** — how molecules actually move:
//!   grant/shrink/rehome plumbing on `MolecularCache`, which stays in
//!   core and keeps bumping the search-list structural generation
//!   no matter which policy asked for the move.
//!
//! The default [`PaperAlgorithm1`] reproduces the paper's behavior
//! bit-identically; the alternatives ([`GlobalGoal`], [`PerAppGoal`],
//! [`ProactiveHint`], [`MemsharePressure`]) grow the design space the
//! `moltourney` bench races across workloads.

pub mod memshare;
pub mod paper;
pub mod proactive;
pub mod trigger;
pub mod variants;

pub use memshare::MemsharePressure;
pub use paper::{
    algorithm1, Decision, PaperAlgorithm1, GROWTH_IMPROVEMENT_EPS, PHASE_CHANGE_EPS, SHRINK_MARGIN,
};
pub use proactive::ProactiveHint;
pub use trigger::{
    adapt_period, AdaptScope, ResizeController, ResizeEvent, ResizeTrigger, PERIOD_HYSTERESIS,
};
pub use variants::{GlobalGoal, PerAppGoal};

use molcache_trace::Asid;

/// Everything a policy may consult when deciding one partition's fate.
/// Snapshotted by the mechanism layer immediately before the decision
/// and recorded verbatim on the telemetry `ResizeRecord`, so a resize
/// can always be replayed from its inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DecisionInputs {
    /// Partition being decided.
    pub asid: Asid,
    /// Accesses the partition served in the closing window.
    pub window_accesses: u64,
    /// Miss rate over the closing window.
    pub window_miss_rate: f64,
    /// Miss rate of the previous window (1.0 before the first window).
    pub last_miss_rate: f64,
    /// The partition's miss-rate goal.
    pub goal: f64,
    /// Current allocation in molecules.
    pub current: usize,
    /// Molecules granted or withdrawn by the previous resize.
    pub last_allocation: usize,
    /// Per-resize grant cap from the cache configuration.
    pub max_allocation: usize,
    /// Unallocated molecules across the whole cache.
    pub free_molecules: usize,
}

/// One partition's closing-window summary, handed to
/// [`ResizePolicy::begin_round`] for every live partition before the
/// per-partition decisions of an all-partitions round. Lets arbitrating
/// policies (Memshare-style) rank partitions against each other.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionWindow {
    /// Partition the window belongs to.
    pub asid: Asid,
    /// Accesses served in the closing window.
    pub window_accesses: u64,
    /// Miss rate over the closing window.
    pub window_miss_rate: f64,
    /// Miss rate of the previous window (1.0 before the first window).
    pub last_miss_rate: f64,
    /// The partition's miss-rate goal.
    pub goal: f64,
    /// Current allocation in molecules.
    pub size: usize,
}

/// A resize decision policy: owns the trigger timing and the
/// grow/shrink/hold choice, but never moves a molecule itself — the
/// mechanism layer in `crate::resize` applies decisions and is the only
/// code that touches tiles (and the structural generation).
///
/// Contract (see DESIGN.md §14):
/// - `on_access` is called once per serviced address and must be O(1).
/// - `begin_round` is called once per all-partitions round with every
///   live partition's window, before any `decide` of that round.
/// - `decide` must be deterministic in the policy's state and `inputs`.
/// - `adapt` receives the post-round miss rate for the scope the
///   trigger scheme adapts on; policies without adaptive periods ignore
///   it.
/// - `trigger_label` is what telemetry stores in the `ResizeRecord`
///   `trigger` field; the default policy forwards the trigger scheme's
///   name so pre-refactor records are reproduced byte-identically.
pub trait ResizePolicy: Send + std::fmt::Debug {
    /// Stable kebab-case identifier (`"paper-algorithm1"`, ...).
    fn name(&self) -> &'static str;

    /// Label for the telemetry `trigger` field.
    fn trigger_label(&self) -> &'static str {
        self.name()
    }

    /// Called when an application first receives a region (and on
    /// policy installation for every existing region).
    fn register_app(&mut self, asid: Asid);

    /// Advances trigger timing by one serviced address.
    fn on_access(&mut self, asid: Asid) -> ResizeEvent;

    /// Observes every live partition's closing window at the start of
    /// an all-partitions round. Default: no cross-partition state.
    fn begin_round(&mut self, windows: &[PartitionWindow]) {
        let _ = windows;
    }

    /// Decides one partition's fate from its inputs snapshot.
    fn decide(&mut self, inputs: &DecisionInputs) -> Decision;

    /// Feeds the post-round miss rate back into the trigger period
    /// (Algorithm 1's x2 / x0.1 update). Default: fixed period.
    fn adapt(&mut self, scope: AdaptScope, miss_rate: f64, goal: f64) {
        let _ = (scope, miss_rate, goal);
    }

    /// Delivers a declared working-set-size annotation (in molecules)
    /// from a trace phase marker. Default: ignored.
    fn phase_hint(&mut self, asid: Asid, target_molecules: usize) {
        let _ = (asid, target_molecules);
    }

    /// Clones the policy behind the trait object (`MolecularCache` is
    /// `Clone`).
    fn clone_box(&self) -> Box<dyn ResizePolicy>;
}

impl Clone for Box<dyn ResizePolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Every policy name [`by_name`] resolves, in tournament order.
pub const POLICY_NAMES: [&str; 5] = [
    "paper-algorithm1",
    "global-goal",
    "per-app-goal",
    "proactive-hint",
    "memshare-pressure",
];

/// Builds a policy by its stable name, parameterized from the cache
/// configuration (trigger scheme + default goal). Returns `None` for an
/// unknown name.
pub fn by_name(name: &str, cfg: &crate::MolecularConfig) -> Option<Box<dyn ResizePolicy>> {
    let trigger = cfg.trigger();
    let initial = trigger.initial_period();
    match name {
        "paper-algorithm1" | "paper" | "default" => Some(Box::new(PaperAlgorithm1::new(trigger))),
        "global-goal" => Some(Box::new(GlobalGoal::new(cfg.default_goal(), initial))),
        "per-app-goal" => Some(Box::new(PerAppGoal::new(initial))),
        "proactive-hint" => Some(Box::new(ProactiveHint::new(initial))),
        "memshare-pressure" => Some(Box::new(MemsharePressure::new(initial))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> crate::MolecularConfig {
        crate::MolecularConfig::builder()
            .molecule_size(1 << 10)
            .tile_molecules(8)
            .tiles_per_cluster(2)
            .clusters(1)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn registry_resolves_every_published_name() {
        let cfg = cfg();
        for name in POLICY_NAMES {
            let policy = by_name(name, &cfg).expect("published name resolves");
            assert_eq!(policy.name(), name);
        }
        assert!(by_name("no-such-policy", &cfg).is_none());
    }

    #[test]
    fn boxed_policies_clone() {
        let cfg = cfg();
        let mut policy = by_name("paper-algorithm1", &cfg).unwrap();
        policy.register_app(Asid::new(1));
        let cloned = policy.clone();
        assert_eq!(cloned.name(), policy.name());
    }
}
