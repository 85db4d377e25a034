//! Resize triggers and the countdown/adaptation controller (§3.4,
//! "When to add?").
//!
//! The controller is the timing half of a resize policy: it decides
//! *when* a policy is consulted (every access decrements a countdown)
//! and adapts its period to how well the cache is tracking its goal —
//! Algorithm 1's `x2` on success / `x0.1` on failure update. Every
//! policy that wants periodic evaluation embeds one; the decision half
//! lives in the [`ResizePolicy`](crate::policy::ResizePolicy)
//! implementations.

use molcache_sim::AppTable;
use molcache_trace::Asid;

/// When resizing is evaluated (§3.4, "When to add?").
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResizeTrigger {
    /// Resize every `period` serviced addresses, always.
    Constant {
        /// Addresses between resize rounds.
        period: u64,
    },
    /// Adaptive period driven by the *overall* cache miss rate: doubled
    /// when the cache meets the goal, cut to 10 % when it does not. The
    /// paper finds this works best for small tiles.
    GlobalAdaptive {
        /// First resize happens after this many addresses.
        initial_period: u64,
    },
    /// Adaptive period per application, driven by that application's
    /// miss rate. The paper finds this works better for large tiles
    /// (>= 2 MB).
    PerAppAdaptive {
        /// First per-application resize after this many addresses.
        initial_period: u64,
    },
}

impl ResizeTrigger {
    /// Stable lowercase name, used to tag telemetry resize records.
    pub fn name(&self) -> &'static str {
        match self {
            ResizeTrigger::Constant { .. } => "constant",
            ResizeTrigger::GlobalAdaptive { .. } => "global-adaptive",
            ResizeTrigger::PerAppAdaptive { .. } => "per-app-adaptive",
        }
    }

    /// The configured starting period of the scheme.
    pub fn initial_period(&self) -> u64 {
        match *self {
            ResizeTrigger::Constant { period } => period,
            ResizeTrigger::GlobalAdaptive { initial_period }
            | ResizeTrigger::PerAppAdaptive { initial_period } => initial_period,
        }
    }
}

/// What a trigger fires on one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeEvent {
    /// No resize due.
    None,
    /// Resize every partition (constant / global-adaptive schemes).
    AllPartitions,
    /// Resize just this application's partition (per-app adaptive).
    Partition(Asid),
}

/// Which timer a period adaptation targets: the cache-wide countdown or
/// one application's. The single [`ResizeController::adapt`] entry point
/// dispatches on it, so the global and per-app schemes share one
/// goal-band code path instead of reimplementing it per scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptScope {
    /// The cache-wide timer (global-adaptive scheme).
    Global,
    /// One application's timer (per-app adaptive scheme).
    App(Asid),
}

/// Tracks resize countdowns and adapts periods.
#[derive(Debug, Clone)]
pub struct ResizeController {
    trigger: ResizeTrigger,
    period: u64,
    countdown: u64,
    /// One timer per registered application, in a dense ASID-indexed
    /// table: the per-app scheme reads one on every access.
    per_app: AppTable<AppTimer>,
}

#[derive(Debug, Clone, Copy, Default)]
struct AppTimer {
    period: u64,
    countdown: u64,
}

/// Period adaptation bounds: the period never shrinks below 1/10 of the
/// initial value nor grows beyond 16x (keeps Algorithm 1's x0.1 / x2
/// updates from degenerating).
const MIN_PERIOD_FRACTION: u64 = 10;
const MAX_PERIOD_FACTOR: u64 = 16;

impl ResizeController {
    /// Creates a controller for the given trigger scheme.
    pub fn new(trigger: ResizeTrigger) -> Self {
        let period = trigger.initial_period().max(1);
        ResizeController {
            trigger,
            period,
            countdown: period,
            per_app: AppTable::default(),
        }
    }

    /// The scheme in use.
    pub fn trigger(&self) -> ResizeTrigger {
        self.trigger
    }

    /// Current global period (constant / global-adaptive schemes).
    pub fn period(&self) -> u64 {
        self.period
    }

    /// Current period of one application (per-app scheme); `None` if the
    /// application has not been seen.
    pub fn app_period(&self, asid: Asid) -> Option<u64> {
        self.per_app.get(&asid).map(|t| t.period)
    }

    /// Registers an application (first access).
    pub fn register_app(&mut self, asid: Asid) {
        if self.per_app.get(&asid).is_none() {
            self.new_timer(asid);
        }
    }

    /// Starts `asid`'s timer at the scheme's initial period.
    #[cold]
    fn new_timer(&mut self, asid: Asid) -> &mut AppTimer {
        let initial = self.trigger.initial_period().max(1);
        let timer = self.per_app.entry(asid);
        *timer = AppTimer {
            period: initial,
            countdown: initial,
        };
        timer
    }

    /// Advances the counters by one serviced address from `asid` and
    /// reports whether a resize is due.
    pub fn on_access(&mut self, asid: Asid) -> ResizeEvent {
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
                let timer = match self.per_app.get_mut(&asid) {
                    Some(timer) => timer,
                    None => self.new_timer(asid),
                };
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

    /// Applies Algorithm 1's period update after a resize: `x2` when the
    /// observed miss rate meets the goal, `x0.1` when it overshoots the
    /// hysteresis band. The *one* goal-band code path — both the global
    /// and per-app schemes land on `adapt_timer`; the scope only
    /// selects which timer is touched. A scope the scheme does not use
    /// (or an unregistered application) is a no-op, and the constant
    /// scheme never adapts.
    pub fn adapt(&mut self, scope: AdaptScope, miss_rate: f64, goal: f64) {
        match (self.trigger, scope) {
            (ResizeTrigger::GlobalAdaptive { initial_period }, AdaptScope::Global) => {
                adapt_timer(
                    &mut self.period,
                    &mut self.countdown,
                    initial_period,
                    miss_rate,
                    goal,
                );
            }
            (ResizeTrigger::PerAppAdaptive { initial_period }, AdaptScope::App(asid)) => {
                if let Some(timer) = self.per_app.get_mut(&asid) {
                    adapt_timer(
                        &mut timer.period,
                        &mut timer.countdown,
                        initial_period,
                        miss_rate,
                        goal,
                    );
                }
            }
            _ => {}
        }
    }

    /// [`adapt`](Self::adapt) with [`AdaptScope::Global`].
    pub fn adapt_global(&mut self, overall_miss_rate: f64, goal: f64) {
        self.adapt(AdaptScope::Global, overall_miss_rate, goal);
    }

    /// [`adapt`](Self::adapt) with [`AdaptScope::App`].
    pub fn adapt_app(&mut self, asid: Asid, miss_rate: f64, goal: f64) {
        self.adapt(AdaptScope::App(asid), miss_rate, goal);
    }
}

/// Hysteresis band of the period adaptation: a miss rate between the
/// goal and `goal * PERIOD_HYSTERESIS` is neither "well within acceptable
/// limits" (Algorithm 1's doubling case) nor "higher than expected" (the
/// 10% case), so the period holds. Without the band, a partition hovering
/// just above its goal is resized at the minimum period forever, and the
/// resulting allocate/withdraw churn itself keeps the miss rate inflated.
pub const PERIOD_HYSTERESIS: f64 = 1.5;

/// Applies one period update to a (period, countdown) timer pair through
/// [`adapt_period`], clamping the countdown so a shortened period takes
/// effect immediately.
fn adapt_timer(period: &mut u64, countdown: &mut u64, initial: u64, miss_rate: f64, goal: f64) {
    *period = adapt_period(*period, initial, miss_rate, goal);
    *countdown = (*countdown).min(*period);
}

/// The goal-band period update itself: double below the goal, slash to
/// 10% above the hysteresis band, hold inside it; the result is clamped
/// to `[initial/10, initial*16]`.
pub fn adapt_period(period: u64, initial: u64, miss_rate: f64, goal: f64) -> u64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_trigger_fires_periodically() {
        let mut c = ResizeController::new(ResizeTrigger::Constant { period: 3 });
        let a = Asid::new(1);
        assert_eq!(c.on_access(a), ResizeEvent::None);
        assert_eq!(c.on_access(a), ResizeEvent::None);
        assert_eq!(c.on_access(a), ResizeEvent::AllPartitions);
        assert_eq!(c.on_access(a), ResizeEvent::None);
        // Constant scheme ignores adaptation.
        c.adapt_global(0.9, 0.1);
        assert_eq!(c.period(), 3);
    }

    #[test]
    fn period_holds_inside_hysteresis_band() {
        let mut c = ResizeController::new(ResizeTrigger::GlobalAdaptive {
            initial_period: 100,
        });
        // Just above goal (0.12 vs 0.10): neither doubling nor slashing.
        c.adapt_global(0.12, 0.1);
        assert_eq!(c.period(), 100);
        // Well above the band: slashed.
        c.adapt_global(0.16, 0.1);
        assert_eq!(c.period(), 10);
    }

    /// Pins [`PERIOD_HYSTERESIS`]'s exact boundaries through the unified
    /// [`adapt_period`] path: the band is closed on both ends — a miss
    /// rate exactly at the goal or exactly at `goal * 1.5` holds, and
    /// only strict overshoot past the band slashes.
    #[test]
    fn hysteresis_band_boundaries_are_exact() {
        let goal = 0.10;
        // Strictly below the goal: doubled.
        assert_eq!(adapt_period(100, 100, goal - 1e-9, goal), 200);
        // Exactly at the goal: inside the band, held.
        assert_eq!(adapt_period(100, 100, goal, goal), 100);
        // Exactly at the band edge (goal * PERIOD_HYSTERESIS): held.
        assert_eq!(adapt_period(100, 100, goal * PERIOD_HYSTERESIS, goal), 100);
        // Strictly past the band: slashed to 10%.
        assert_eq!(
            adapt_period(100, 100, goal * PERIOD_HYSTERESIS + 1e-9, goal),
            10
        );
        // Clamps: never below initial/10 nor above initial*16.
        assert_eq!(adapt_period(10, 100, 1.0, goal), 10);
        assert_eq!(adapt_period(1600, 100, 0.0, goal), 1600);
    }

    /// The global and per-app schemes share one adapt code path: the
    /// same miss-rate sequence produces the same period trajectory on a
    /// global timer and on an application timer.
    #[test]
    fn adapt_scopes_share_one_code_path() {
        let sequence = [(0.5, 0.1), (0.05, 0.1), (0.12, 0.1), (0.01, 0.1)];
        let mut global = ResizeController::new(ResizeTrigger::GlobalAdaptive {
            initial_period: 100,
        });
        let mut per_app = ResizeController::new(ResizeTrigger::PerAppAdaptive {
            initial_period: 100,
        });
        let a = Asid::new(3);
        per_app.register_app(a);
        for (mr, goal) in sequence {
            global.adapt(AdaptScope::Global, mr, goal);
            per_app.adapt(AdaptScope::App(a), mr, goal);
            assert_eq!(global.period(), per_app.app_period(a).unwrap());
        }
        // Mismatched scopes are no-ops on both schemes.
        let before = (global.period(), per_app.app_period(a));
        global.adapt(AdaptScope::App(a), 0.9, 0.1);
        per_app.adapt(AdaptScope::Global, 0.9, 0.1);
        assert_eq!(before, (global.period(), per_app.app_period(a)));
    }

    #[test]
    fn global_adaptive_halves_and_doubles() {
        let mut c = ResizeController::new(ResizeTrigger::GlobalAdaptive {
            initial_period: 100,
        });
        c.adapt_global(0.5, 0.1); // missing the goal: x0.1
        assert_eq!(c.period(), 10);
        c.adapt_global(0.05, 0.1); // meeting: x2
        assert_eq!(c.period(), 20);
        // Lower clamp at initial/10.
        c.adapt_global(0.5, 0.1);
        c.adapt_global(0.5, 0.1);
        assert_eq!(c.period(), 10);
        // Upper clamp at 16x initial.
        for _ in 0..12 {
            c.adapt_global(0.01, 0.1);
        }
        assert_eq!(c.period(), 1600);
    }

    #[test]
    fn per_app_timers_are_independent() {
        let mut c = ResizeController::new(ResizeTrigger::PerAppAdaptive { initial_period: 2 });
        let a = Asid::new(1);
        let b = Asid::new(2);
        assert_eq!(c.on_access(a), ResizeEvent::None);
        assert_eq!(c.on_access(b), ResizeEvent::None);
        assert_eq!(c.on_access(a), ResizeEvent::Partition(a));
        assert_eq!(c.on_access(b), ResizeEvent::Partition(b));
        c.adapt_app(a, 0.01, 0.1);
        assert_eq!(c.app_period(a), Some(4));
        assert_eq!(c.app_period(b), Some(2));
    }

    #[test]
    fn per_app_adaptation_requires_registration() {
        let mut c = ResizeController::new(ResizeTrigger::PerAppAdaptive { initial_period: 10 });
        // Adapting an unknown app is a no-op, not a panic.
        c.adapt_app(Asid::new(9), 0.5, 0.1);
        assert_eq!(c.app_period(Asid::new(9)), None);
    }
}
