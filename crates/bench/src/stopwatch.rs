//! Wall-clock benchmark runner for the `benches/` targets (`cargo bench`).
//!
//! The workspace builds without crates.io access, so timing is done with
//! `std::time::Instant` instead of an external harness. [`measure`] warms
//! up once, then times each further iteration *individually* and keeps
//! the per-sample durations, so callers get min/median/mean statistics
//! instead of one mean over a single timing window — and the final
//! iteration's overshoot past the budget is a full sample of its own
//! rather than silently skewing a window-wide mean.
//!
//! [`bench()`] and [`bench_throughput`] route through [`measure`] and
//! print a trailing machine-readable `#BENCH` line ([`machine_line`]).
//! The repository's benchmark of record is `perfbench/`, not these
//! micro-benchmarks.

use std::time::{Duration, Instant};

/// Per-sample cap for the convenience runners: enough resolution for
/// median statistics, small enough that fast bodies don't build
/// million-entry vectors before the budget check.
const MAX_SAMPLES: usize = 512;

/// The individually-timed iterations of one benchmark body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Timing {
    /// Duration of each timed iteration in nanoseconds, in run order.
    pub samples_ns: Vec<u64>,
}

impl Timing {
    /// Number of timed iterations.
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Fastest iteration in nanoseconds (0 when no samples exist).
    pub fn min_ns(&self) -> u64 {
        self.samples_ns.iter().copied().min().unwrap_or(0)
    }

    /// Mean iteration time in nanoseconds over the individual samples.
    pub fn mean_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        self.samples_ns.iter().map(|&ns| ns as f64).sum::<f64>() / self.samples_ns.len() as f64
    }

    /// Median iteration time in nanoseconds (midpoint average for even
    /// sample counts).
    pub fn median_ns(&self) -> f64 {
        if self.samples_ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_unstable();
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] as f64 + sorted[mid] as f64) / 2.0
        } else {
            sorted[mid] as f64
        }
    }
}

/// Runs `f` once untimed as warm-up, then times each further iteration
/// individually until `budget` worth of samples has accumulated or
/// `max_samples` samples exist — always taking at least one sample.
/// Only whole-sample time counts toward the budget and the statistics.
pub fn measure<F: FnMut()>(max_samples: usize, budget: Duration, f: &mut F) -> Timing {
    f(); // Warm-up iteration, excluded from timing.
    let max_samples = max_samples.max(1);
    let budget = budget.as_nanos();
    let mut samples_ns = Vec::new();
    let mut total: u128 = 0;
    loop {
        let start = Instant::now();
        f();
        let ns = start.elapsed().as_nanos();
        total += ns;
        samples_ns.push(u64::try_from(ns).unwrap_or(u64::MAX));
        if samples_ns.len() >= max_samples || total >= budget {
            break;
        }
    }
    Timing { samples_ns }
}

/// One machine-readable result line of a `benches/` target:
///
/// ```text
/// #BENCH name=<..> samples=<..> min_ns=<..> median_ns=<..> mean_ns=<..>
/// #BENCH name=<..> ... elems=<..> melem_per_s=<..>
/// ```
///
/// Throughput (present when `elements` per iteration is stated) is
/// derived from the median sample, the statistic least disturbed by
/// scheduler noise.
pub fn machine_line(name: &str, elements: Option<u64>, t: &Timing) -> String {
    let mut line = format!(
        "#BENCH name={} samples={} min_ns={} median_ns={:.0} mean_ns={:.0}",
        name,
        t.count(),
        t.min_ns(),
        t.median_ns(),
        t.mean_ns(),
    );
    if let Some(elems) = elements {
        let median = t.median_ns();
        let rate = if median > 0.0 {
            elems as f64 * 1e3 / median
        } else {
            0.0
        };
        line.push_str(&format!(" elems={elems} melem_per_s={rate:.3}"));
    }
    line
}

fn human(ns: f64) -> String {
    format!("{:.2?}", Duration::from_nanos(ns.max(0.0) as u64))
}

/// Runs `f` repeatedly for at least `budget` (at least one timed
/// iteration) and prints min/median/mean time per iteration plus the
/// machine-readable `#BENCH` line.
pub fn bench<F: FnMut()>(name: &str, budget: Duration, mut f: F) {
    let t = measure(MAX_SAMPLES, budget, &mut f);
    println!(
        "{name:<44} {:>5} samples   min {:>10}   median {:>10}   mean {:>10}",
        t.count(),
        human(t.min_ns() as f64),
        human(t.median_ns()),
        human(t.mean_ns()),
    );
    println!("{}", machine_line(name, None, &t));
}

/// Like [`bench()`], but also reports throughput for a body that processes
/// `elements` items per iteration.
pub fn bench_throughput<F: FnMut()>(name: &str, elements: u64, budget: Duration, mut f: F) {
    let t = measure(MAX_SAMPLES, budget, &mut f);
    let median = t.median_ns();
    let rate = if median > 0.0 {
        elements as f64 * 1e3 / median
    } else {
        0.0
    };
    println!(
        "{name:<44} {:>5} samples   min {:>10}   median {:>10}   mean {:>10}   {rate:>8.2} Melem/s",
        t.count(),
        human(t.min_ns() as f64),
        human(t.median_ns()),
        human(t.mean_ns()),
    );
    println!("{}", machine_line(name, Some(elements), &t));
}

/// Prints a section header so multi-group bench binaries stay readable.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_body_and_returns() {
        let mut n = 0u32;
        bench("noop", Duration::from_millis(1), || n += 1);
        assert!(n >= 2, "warm-up plus at least one timed iteration");
    }

    #[test]
    fn throughput_handles_fast_bodies() {
        bench_throughput("noop", 100, Duration::from_millis(1), || {
            std::hint::black_box(0u64);
        });
    }

    #[test]
    fn measure_collects_individual_samples() {
        let mut runs = 0u32;
        let t = measure(8, Duration::from_secs(60), &mut || runs += 1);
        assert_eq!(t.count(), 8, "sample cap bounds the run");
        assert_eq!(runs, 9, "8 timed samples plus one warm-up");
        assert!(t.min_ns() as f64 <= t.median_ns());
    }

    #[test]
    fn measure_respects_budget() {
        let t = measure(usize::MAX, Duration::from_millis(5), &mut || {
            std::thread::sleep(Duration::from_millis(2));
        });
        assert!(t.count() >= 1);
        assert!(t.count() <= 4, "budget stops sampling: {}", t.count());
    }

    #[test]
    fn timing_statistics() {
        let t = Timing {
            samples_ns: vec![40, 10, 20, 30],
        };
        assert_eq!(t.min_ns(), 10);
        assert_eq!(t.mean_ns(), 25.0);
        assert_eq!(t.median_ns(), 25.0, "midpoint of 20 and 30");
        let odd = Timing {
            samples_ns: vec![7, 1, 9],
        };
        assert_eq!(odd.median_ns(), 7.0);
        assert_eq!(Timing::default().median_ns(), 0.0);
        assert_eq!(Timing::default().mean_ns(), 0.0);
        assert_eq!(Timing::default().min_ns(), 0);
    }

    #[test]
    fn machine_line_shape() {
        let t = Timing {
            samples_ns: vec![1_000, 3_000],
        };
        assert_eq!(
            machine_line("x", None, &t),
            "#BENCH name=x samples=2 min_ns=1000 median_ns=2000 mean_ns=2000"
        );
        let with_rate = machine_line("x", Some(1_000), &t);
        assert!(
            with_rate.ends_with("elems=1000 melem_per_s=500.000"),
            "{with_rate}"
        );
        let empty = machine_line("x", Some(5), &Timing::default());
        assert!(empty.contains("melem_per_s=0.000"), "{empty}");
    }
}
