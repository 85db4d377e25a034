//! The resize controller's per-application timers live in a dense
//! ASID-indexed table. Under all three triggers and arbitrary
//! `register_app` / `on_access` / `adapt` sequences over ASIDs 0, 1–16
//! and 65535, the controller must fire exactly the events, and report
//! exactly the periods, of a `BTreeMap<Asid, (period, countdown)>`
//! reference kept here.

use molcache_core::policy::{adapt_period, AdaptScope, ResizeController, ResizeEvent};
use molcache_core::ResizeTrigger;
use molcache_trace::Asid;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The ASIDs the ops draw from: the lowest, a run of small ones and the
/// highest, so the table spans the whole u16 range.
fn asid_of(pick: u64) -> Asid {
    match pick % 18 {
        0 => Asid::new(0),
        17 => Asid::new(u16::MAX),
        n => Asid::new(n as u16),
    }
}

/// The controller as it kept its timers in an ordered map.
struct Reference {
    trigger: ResizeTrigger,
    period: u64,
    countdown: u64,
    per_app: BTreeMap<Asid, (u64, u64)>,
}

impl Reference {
    fn new(trigger: ResizeTrigger) -> Self {
        let period = trigger.initial_period().max(1);
        Reference {
            trigger,
            period,
            countdown: period,
            per_app: BTreeMap::new(),
        }
    }

    fn register_app(&mut self, asid: Asid) {
        let initial = self.trigger.initial_period().max(1);
        self.per_app.entry(asid).or_insert((initial, initial));
    }

    fn on_access(&mut self, asid: Asid) -> ResizeEvent {
        match self.trigger {
            ResizeTrigger::PerAppAdaptive { .. } => {
                self.register_app(asid);
                let (period, countdown) = self.per_app.get_mut(&asid).unwrap();
                *countdown = countdown.saturating_sub(1);
                if *countdown == 0 {
                    *countdown = *period;
                    ResizeEvent::Partition(asid)
                } else {
                    ResizeEvent::None
                }
            }
            _ => {
                self.countdown = self.countdown.saturating_sub(1);
                if self.countdown == 0 {
                    self.countdown = self.period;
                    ResizeEvent::AllPartitions
                } else {
                    ResizeEvent::None
                }
            }
        }
    }

    fn adapt(&mut self, scope: AdaptScope, miss_rate: f64, goal: f64) {
        let initial = self.trigger.initial_period();
        let timer = match (self.trigger, scope) {
            (ResizeTrigger::GlobalAdaptive { .. }, AdaptScope::Global) => {
                Some((&mut self.period, &mut self.countdown))
            }
            (ResizeTrigger::PerAppAdaptive { .. }, AdaptScope::App(asid)) => {
                self.per_app.get_mut(&asid).map(|(p, c)| (p, c))
            }
            _ => None,
        };
        if let Some((period, countdown)) = timer {
            *period = adapt_period(*period, initial, miss_rate, goal);
            *countdown = (*countdown).min(*period);
        }
    }
}

fn trigger_of(kind: u8, period: u64) -> ResizeTrigger {
    match kind {
        0 => ResizeTrigger::Constant { period },
        1 => ResizeTrigger::GlobalAdaptive {
            initial_period: period,
        },
        _ => ResizeTrigger::PerAppAdaptive {
            initial_period: period,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timers_match_a_btreemap_reference(
        kind in 0u8..3,
        period in 0u64..40,
        ops in proptest::collection::vec(
            (proptest::num::u64::ANY, proptest::num::u64::ANY), 1..400),
    ) {
        let trigger = trigger_of(kind, period);
        let mut dense = ResizeController::new(trigger);
        let mut reference = Reference::new(trigger);
        for (step, &(sel, payload)) in ops.iter().enumerate() {
            let asid = asid_of(payload);
            match sel % 16 {
                0 => {
                    dense.register_app(asid);
                    reference.register_app(asid);
                }
                1 | 2 => {
                    // Miss rates below, inside and above the goal band.
                    let miss_rate = [0.01, 0.12, 0.5][(payload >> 8) as usize % 3];
                    let scope = if sel % 16 == 1 {
                        AdaptScope::Global
                    } else {
                        AdaptScope::App(asid)
                    };
                    dense.adapt(scope, miss_rate, 0.1);
                    reference.adapt(scope, miss_rate, 0.1);
                }
                _ => {
                    prop_assert_eq!(
                        dense.on_access(asid),
                        reference.on_access(asid),
                        "step {}: event for {}",
                        step,
                        asid
                    );
                }
            }
            prop_assert_eq!(dense.period(), reference.period, "step {}", step);
            for pick in 0..18 {
                let a = asid_of(pick);
                prop_assert_eq!(
                    dense.app_period(a),
                    reference.per_app.get(&a).map(|t| t.0),
                    "step {}: period of {}",
                    step,
                    a
                );
            }
        }
    }
}
