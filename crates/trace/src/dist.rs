//! Sampling distributions used by the workload generators.
//!
//! The synthetic benchmarks model temporal locality with Zipf-distributed
//! reuse over a hot set, spatial locality with geometric run lengths, and
//! generator mixing with weighted choice. All distributions draw from the
//! crate’s deterministic [`crate::rng::Rng`].

use crate::rng::Rng;
use std::sync::Arc;

/// A distribution over `u64` values that can be sampled with an [`Rng`].
pub trait Sample {
    /// Draws one value.
    fn sample(&self, rng: &mut Rng) -> u64;
}

/// Uniform distribution over `[0, n)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UniformU64 {
    n: u64,
}

impl UniformU64 {
    /// Creates a uniform distribution over `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: u64) -> Self {
        assert!(n > 0, "uniform range must be non-empty");
        UniformU64 { n }
    }
}

impl Sample for UniformU64 {
    fn sample(&self, rng: &mut Rng) -> u64 {
        rng.gen_range(self.n)
    }
}

/// Zipf distribution over ranks `0..n` with exponent `s`.
///
/// Rank `k` (0-based) has probability proportional to `1/(k+1)^s`. Sampling
/// uses a precomputed CDF and binary search — O(log n) per draw, exact.
/// The table is built once, by [`Zipf::new`] (one `powf` per rank); a
/// clone shares it, so the sources of one preset sample one table
/// ([`Benchmark::popularity_tables`](crate::presets::Benchmark::popularity_tables)).
///
/// ```
/// use molcache_trace::{dist::{Zipf, Sample}, rng::Rng};
/// let z = Zipf::new(100, 1.0);
/// let mut rng = Rng::seeded(1);
/// let v = z.sample(&mut rng);
/// assert!(v < 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Arc<[f64]>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf: cdf.into() }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Returns `true` if the distribution has exactly one rank.
    pub fn is_empty(&self) -> bool {
        false // constructor guarantees n > 0; kept for clippy convention
    }
}

impl Sample for Zipf {
    fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.gen_f64();
        // partition_point returns the first index with cdf > u.
        let idx = self.cdf.partition_point(|&c| c <= u);
        idx.min(self.cdf.len() - 1) as u64
    }
}

/// Geometric distribution over `{1, 2, ...}` with success probability `p`:
/// the number of trials up to and including the first success. Used for
/// run lengths (e.g. how many sequential lines a streaming phase touches).
#[derive(Debug, Clone, PartialEq)]
pub struct Geometric {
    p: f64,
    /// `ln(1 - p)`, the inverse CDF's divisor, taken once.
    ln_q: f64,
}

impl Geometric {
    /// Creates a geometric distribution with `0 < p <= 1`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `(0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0,1]");
        Geometric {
            p,
            ln_q: (1.0 - p).ln(),
        }
    }

    /// Mean of the distribution (`1/p`).
    pub fn mean(&self) -> f64 {
        1.0 / self.p
    }
}

impl Sample for Geometric {
    fn sample(&self, rng: &mut Rng) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        // Inverse-CDF: ceil(ln(1-u) / ln(1-p)).
        let u = rng.gen_f64();
        let v = ((1.0 - u).ln() / self.ln_q).ceil();
        (v.max(1.0)) as u64
    }
}

/// Weighted choice over `n` alternatives.
///
/// ```
/// use molcache_trace::{dist::WeightedChoice, rng::Rng};
/// let w = WeightedChoice::new(&[1.0, 0.0, 3.0]);
/// let mut rng = Rng::seeded(2);
/// assert_ne!(w.sample_index(&mut rng), 1); // zero-weight item never drawn
/// ```
#[derive(Debug, Clone)]
pub struct WeightedChoice {
    cdf: Vec<f64>,
}

impl WeightedChoice {
    /// Creates a weighted choice from non-negative weights.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative/NaN value, or
    /// sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "weighted choice needs alternatives");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(w >= 0.0 && w.is_finite(), "weights must be >= 0");
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "weights must not all be zero");
        for v in &mut cdf {
            *v /= acc;
        }
        WeightedChoice { cdf }
    }

    /// Draws an index in `[0, n)` with probability proportional to weight.
    pub fn sample_index(&self, rng: &mut Rng) -> usize {
        let u = rng.gen_f64();
        let idx = self.cdf.partition_point(|&c| c <= u);
        idx.min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::seeded(4);
        let mut low = 0usize;
        const N: usize = 50_000;
        for _ in 0..N {
            if z.sample(&mut rng) < 10 {
                low += 1;
            }
        }
        // Top-10 of Zipf(1.0, 1000) holds ~39% of mass; uniform would be 1%.
        assert!(low as f64 / N as f64 > 0.3, "low fraction {low}");
    }

    #[test]
    fn zipf_zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = Rng::seeded(4);
        let mut counts = [0u32; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((9_000..=11_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 2.0);
        let mut rng = Rng::seeded(4);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
        assert_eq!(z.len(), 1);
    }

    #[test]
    fn geometric_mean_close_to_inverse_p() {
        let g = Geometric::new(0.25);
        let mut rng = Rng::seeded(4);
        let n = 50_000;
        let sum: u64 = (0..n).map(|_| g.sample(&mut rng)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn geometric_p_one_always_one() {
        let g = Geometric::new(1.0);
        let mut rng = Rng::seeded(4);
        for _ in 0..20 {
            assert_eq!(g.sample(&mut rng), 1);
        }
    }

    #[test]
    fn weighted_choice_respects_weights() {
        let w = WeightedChoice::new(&[1.0, 3.0]);
        let mut rng = Rng::seeded(4);
        let n = 40_000;
        let ones = (0..n).filter(|_| w.sample_index(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((0.72..=0.78).contains(&frac), "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "alternatives")]
    fn weighted_choice_empty_panics() {
        WeightedChoice::new(&[]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn uniform_zero_panics() {
        UniformU64::new(0);
    }

    #[test]
    fn uniform_in_range() {
        let u = UniformU64::new(17);
        let mut rng = Rng::seeded(4);
        for _ in 0..500 {
            assert!(u.sample(&mut rng) < 17);
        }
    }
}
