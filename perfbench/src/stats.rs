//! Order statistics over timing samples.

/// Smallest number of samples that must lie beyond a reported
/// percentile: a p99 needs at least 1000 samples, a p50 at least 20.
pub const MIN_BEYOND: usize = 10;

/// The median of `samples` (mean of the middle two for an even count),
/// or `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-quantile (`0 < p < 1`) of `samples`, or `None`
/// unless at least [`MIN_BEYOND`] samples rank above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile must lie in (0, 1)");
    let n = samples.len();
    let rank = (p * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}
