//! Property tests for the `ResizePolicy` trait extraction: the default
//! [`PaperAlgorithm1`] behind the trait must be *byte-identical* to the
//! pre-refactor decision layer across arbitrary access/resize/lifecycle
//! interleavings — global and per-app statistics, region snapshots,
//! resize logs, and the exported telemetry JSON.
//!
//! The reference is [`FrozenPaper`]: a verbatim copy of the decision
//! layer as it existed *before* the trait (the old `ResizeController`
//! with its duplicated `adapt_global`/`adapt_app` goal-band logic and
//! the old `algorithm1`), wrapped in the trait only at the edges. If a
//! future change drifts the default policy's decisions, periods, or
//! telemetry labels, these tests catch it against the frozen seed.

use molcache_core::config::InitialAllocation;
use molcache_core::policy::{AdaptScope, Decision, DecisionInputs, ResizeEvent, ResizePolicy};
use molcache_core::{MolecularCache, MolecularConfig, ResizeTrigger};
use molcache_sim::{CacheModel, Request};
use molcache_telemetry::{Recorder, SinkHandle};
use molcache_trace::{AccessKind, Address, Asid};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

// ---- the frozen pre-refactor decision layer ----------------------------

const MIN_PERIOD_FRACTION: u64 = 10;
const MAX_PERIOD_FACTOR: u64 = 16;
const PERIOD_HYSTERESIS: f64 = 1.5;
const GROWTH_IMPROVEMENT_EPS: f64 = 0.02;
const PHASE_CHANGE_EPS: f64 = 0.10;
const SHRINK_MARGIN: f64 = 0.67;

fn frozen_adapt_period(period: u64, initial: u64, miss_rate: f64, goal: f64) -> u64 {
    let initial = initial.max(1);
    let next = if miss_rate < goal {
        period.saturating_mul(2)
    } else if miss_rate > goal * PERIOD_HYSTERESIS {
        (period / 10).max(1)
    } else {
        period
    };
    next.clamp(
        (initial / MIN_PERIOD_FRACTION).max(1),
        initial.saturating_mul(MAX_PERIOD_FACTOR),
    )
}

fn frozen_algorithm1(
    miss_rate: f64,
    goal: f64,
    last_miss_rate: f64,
    current: usize,
    last_allocation: usize,
    max_allocation: usize,
) -> Decision {
    if miss_rate > 0.5 {
        let improving = miss_rate <= last_miss_rate - GROWTH_IMPROVEMENT_EPS;
        let first_window = last_miss_rate >= 1.0;
        let phase_change = miss_rate >= last_miss_rate + PHASE_CHANGE_EPS;
        if improving || first_window || phase_change {
            Decision::Grow(max_allocation.min(last_allocation.max(1)))
        } else {
            Decision::Hold
        }
    } else if miss_rate < goal * SHRINK_MARGIN {
        let temp = ((current as f64 * miss_rate) / goal).sqrt().ceil() as usize;
        if temp == 0 || current <= 1 {
            Decision::Hold
        } else {
            Decision::Shrink(temp.min(current - 1))
        }
    } else if miss_rate < goal {
        Decision::Hold
    } else if miss_rate < last_miss_rate {
        let target = ((current as f64 * miss_rate) / goal).ceil() as usize;
        if target <= current {
            Decision::Hold
        } else {
            Decision::Grow((target - current).min(max_allocation))
        }
    } else {
        Decision::Hold
    }
}

#[derive(Debug, Clone, Copy)]
struct FrozenTimer {
    period: u64,
    countdown: u64,
}

/// The pre-refactor controller + Algorithm 1 as one policy, with the
/// original *duplicated* goal-band logic in `adapt` (each scope inlines
/// its own `adapt_period` call, exactly as `adapt_global`/`adapt_app`
/// did before they were unified).
#[derive(Debug, Clone)]
struct FrozenPaper {
    trigger: ResizeTrigger,
    period: u64,
    countdown: u64,
    per_app: BTreeMap<Asid, FrozenTimer>,
}

impl FrozenPaper {
    fn new(trigger: ResizeTrigger) -> Self {
        let initial = match trigger {
            ResizeTrigger::Constant { period } => period,
            ResizeTrigger::GlobalAdaptive { initial_period }
            | ResizeTrigger::PerAppAdaptive { initial_period } => initial_period,
        }
        .max(1);
        FrozenPaper {
            trigger,
            period: initial,
            countdown: initial,
            per_app: BTreeMap::new(),
        }
    }

    fn initial(&self) -> u64 {
        match self.trigger {
            ResizeTrigger::Constant { period } => period,
            ResizeTrigger::GlobalAdaptive { initial_period }
            | ResizeTrigger::PerAppAdaptive { initial_period } => initial_period,
        }
        .max(1)
    }
}

impl ResizePolicy for FrozenPaper {
    fn name(&self) -> &'static str {
        "paper-algorithm1"
    }

    fn trigger_label(&self) -> &'static str {
        self.trigger.name()
    }

    fn register_app(&mut self, asid: Asid) {
        let initial = self.initial();
        self.per_app.entry(asid).or_insert(FrozenTimer {
            period: initial,
            countdown: initial,
        });
    }

    fn on_access(&mut self, asid: Asid) -> ResizeEvent {
        match self.trigger {
            ResizeTrigger::Constant { .. } | ResizeTrigger::GlobalAdaptive { .. } => {
                self.countdown = self.countdown.saturating_sub(1);
                if self.countdown == 0 {
                    self.countdown = self.period;
                    ResizeEvent::AllPartitions
                } else {
                    ResizeEvent::None
                }
            }
            ResizeTrigger::PerAppAdaptive { .. } => {
                self.register_app(asid);
                let timer = self.per_app.get_mut(&asid).expect("registered above");
                timer.countdown = timer.countdown.saturating_sub(1);
                if timer.countdown == 0 {
                    timer.countdown = timer.period;
                    ResizeEvent::Partition(asid)
                } else {
                    ResizeEvent::None
                }
            }
        }
    }

    fn decide(&mut self, inputs: &DecisionInputs) -> Decision {
        frozen_algorithm1(
            inputs.window_miss_rate,
            inputs.goal,
            inputs.last_miss_rate,
            inputs.current,
            inputs.last_allocation,
            inputs.max_allocation,
        )
    }

    fn adapt(&mut self, scope: AdaptScope, miss_rate: f64, goal: f64) {
        // Deliberately duplicated per scope: this is the pre-refactor
        // shape the unified code path must reproduce exactly.
        match scope {
            AdaptScope::Global => {
                if let ResizeTrigger::GlobalAdaptive { initial_period } = self.trigger {
                    self.period = frozen_adapt_period(self.period, initial_period, miss_rate, goal);
                    self.countdown = self.countdown.min(self.period);
                }
            }
            AdaptScope::App(asid) => {
                if let ResizeTrigger::PerAppAdaptive { initial_period } = self.trigger {
                    if let Some(timer) = self.per_app.get_mut(&asid) {
                        timer.period =
                            frozen_adapt_period(timer.period, initial_period, miss_rate, goal);
                        timer.countdown = timer.countdown.min(timer.period);
                    }
                }
            }
        }
    }

    fn clone_box(&self) -> Box<dyn ResizePolicy> {
        Box::new(self.clone())
    }
}

// ---- the interleaving harness ------------------------------------------

fn torture_config(trigger: ResizeTrigger) -> MolecularConfig {
    MolecularConfig::builder()
        .molecule_size(1024)
        .tile_molecules(8)
        .tiles_per_cluster(2)
        .clusters(1)
        .initial_allocation(InitialAllocation::Molecules(2))
        .trigger(trigger)
        .miss_rate_goal(0.05)
        .build()
        .unwrap()
}

/// One step of a generated interleaving: accesses dominate so windows
/// accumulate; lifecycle ops (release/rehome/flush/set-size)
/// exercise the mechanism paths between decisions.
#[derive(Debug, Clone, Copy)]
enum Op {
    Access { asid: u16, addr: u64, write: bool },
    Release { asid: u16 },
    Rehome { asid: u16, tile: usize },
    Flush { asid: u16 },
    SetSize { asid: u16, molecules: usize },
}

fn decode(selector: u64, payload: u64) -> Op {
    let asid = (payload % 3 + 1) as u16;
    match selector % 23 {
        19 => Op::Release { asid },
        20 => Op::Rehome {
            asid,
            tile: (payload >> 8) as usize % 2,
        },
        21 => Op::Flush { asid },
        22 => Op::SetSize {
            asid,
            molecules: (payload >> 8) as usize % 12 + 1,
        },
        _ => Op::Access {
            asid,
            addr: if payload.is_multiple_of(4) {
                u64::from(asid) * 4096 + (payload >> 4) % 4 * 64
            } else {
                (payload >> 4) % 256 * 64
            },
            write: payload.is_multiple_of(5),
        },
    }
}

fn apply(c: &mut MolecularCache, op: Op) {
    match op {
        Op::Access { asid, addr, write } => {
            c.access(Request {
                asid: Asid::new(asid),
                addr: Address::new(addr),
                kind: if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
            });
        }
        Op::Release { asid } => {
            c.release_region(Asid::new(asid));
        }
        Op::Rehome { asid, tile } => {
            c.rehome_app(Asid::new(asid), tile);
        }
        Op::Flush { asid } => {
            c.flush_region(Asid::new(asid));
        }
        Op::SetSize { asid, molecules } => {
            let a = Asid::new(asid);
            if c.has_region(a) {
                c.set_region_size(a, molecules);
            }
        }
    }
}

/// Runs the same interleaving on a default-policy cache and a
/// frozen-reference cache (both observed by a telemetry recorder) and
/// asserts byte-identical outcomes including the exported JSON.
fn assert_equivalent(trigger: ResizeTrigger, ops: &[(u64, u64)]) -> Result<(), TestCaseError> {
    let rec_a: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::new("run")));
    let rec_b: Arc<Mutex<Recorder>> = Arc::new(Mutex::new(Recorder::new("run")));
    let sink_a: Arc<Mutex<dyn molcache_telemetry::Sink>> = rec_a.clone();
    let sink_b: Arc<Mutex<dyn molcache_telemetry::Sink>> = rec_b.clone();

    let mut default_cache =
        MolecularCache::new(torture_config(trigger)).with_sink(SinkHandle::shared(sink_a, 100));
    let mut frozen_cache =
        MolecularCache::new(torture_config(trigger)).with_sink(SinkHandle::shared(sink_b, 100));
    frozen_cache.set_resize_policy(Box::new(FrozenPaper::new(trigger)));
    prop_assert_eq!(default_cache.resize_policy_name(), "paper-algorithm1");
    prop_assert_eq!(frozen_cache.resize_policy_name(), "paper-algorithm1");

    for &(sel, payload) in ops {
        let op = decode(sel, payload);
        apply(&mut default_cache, op);
        apply(&mut frozen_cache, op);
    }

    prop_assert_eq!(default_cache.stats(), frozen_cache.stats());
    prop_assert_eq!(default_cache.activity(), frozen_cache.activity());
    prop_assert_eq!(default_cache.snapshots(), frozen_cache.snapshots());
    prop_assert_eq!(
        default_cache.free_molecules(),
        frozen_cache.free_molecules()
    );
    prop_assert_eq!(default_cache.resize_rounds(), frozen_cache.resize_rounds());
    prop_assert_eq!(
        default_cache.failed_allocations(),
        frozen_cache.failed_allocations()
    );

    let a = rec_a.lock().unwrap();
    let b = rec_b.lock().unwrap();
    // Structured resize logs agree record for record (including the
    // policy/trigger labels and decision-input snapshots)...
    prop_assert_eq!(a.resizes(), b.resizes());
    // ...and the canonical telemetry JSON is byte-identical.
    prop_assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Constant trigger: the default policy behind the trait reproduces
    /// the pre-refactor seed byte for byte.
    #[test]
    fn default_policy_matches_frozen_seed_constant(
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..350),
    ) {
        assert_equivalent(ResizeTrigger::Constant { period: 64 }, &ops)?;
    }

    /// Global-adaptive trigger (the default scheme): period adaptation
    /// through the unified code path matches the old duplicated one.
    #[test]
    fn default_policy_matches_frozen_seed_global_adaptive(
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..350),
    ) {
        assert_equivalent(ResizeTrigger::GlobalAdaptive { initial_period: 64 }, &ops)?;
    }

    /// Per-app adaptive trigger: per-application timers and adaptation
    /// match the old duplicated code path.
    #[test]
    fn default_policy_matches_frozen_seed_per_app_adaptive(
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 50..350),
    ) {
        assert_equivalent(ResizeTrigger::PerAppAdaptive { initial_period: 64 }, &ops)?;
    }
}
