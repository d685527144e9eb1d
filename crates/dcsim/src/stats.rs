//! Statistical accumulators used throughout the simulator.
//!
//! [`Running`] computes streaming mean/variance (Welford); [`Histogram`]
//! bins samples for distribution reports.

/// Streaming count/mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Running {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    /// An empty accumulator.
    pub fn new() -> Self {
        Running {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 if fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Coefficient of variation (std / |mean|), 0 when the mean is 0.
    ///
    /// The magnitude of the mean is used so a series with a negative mean
    /// (e.g. a surplus/deficit signal) still reports a non-negative
    /// dispersion ratio.
    pub fn cv(&self) -> f64 {
        let m = self.mean().abs();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Merges another accumulator (parallel-reduction support).
    ///
    /// Uses Chan et al.'s pairwise combination: the merged accumulator is
    /// exactly equivalent (up to floating-point rounding) to having pushed
    /// both observation streams into one accumulator, in any order — merge
    /// is commutative and associative in that sense, so partial `Running`s
    /// from shards can be reduced in any tree shape. `self` is left as the
    /// combined accumulator; `other` is not consumed and can be reused.
    pub fn merge(&mut self, other: &Running) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Fixed-width histogram over `[lo, hi)` with saturating edge bins.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "invalid histogram bounds");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Adds one observation; out-of-range values land in the edge bins.
    pub fn push(&mut self, x: f64) {
        let bins = self.counts.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * bins as f64).floor() as i64).clamp(0, bins as i64 - 1) as usize;
        self.counts[idx] += 1;
        self.total += 1;
    }

    /// Per-bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations at or below `x` (empirical CDF on bin edges).
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let bins = self.counts.len();
        let frac = (x - self.lo) / (self.hi - self.lo);
        let cutoff = ((frac * bins as f64).floor() as i64).clamp(-1, bins as i64 - 1);
        let sum: u64 = self.counts[..=(cutoff.max(0) as usize)]
            .iter()
            .copied()
            .sum::<u64>()
            * u64::from(cutoff >= 0);
        sum as f64 / self.total as f64
    }

    /// Lower edge of bin `i`.
    pub fn bin_lo(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / self.counts.len() as f64
    }
}

/// Quantile of a sorted slice via linear interpolation; `q` in `\[0, 1\]`.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_matches_batch_formulas() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut r = Running::new();
        for &x in &xs {
            r.push(x);
        }
        assert_eq!(r.count(), 8);
        assert!((r.mean() - 5.0).abs() < 1e-12);
        assert!((r.variance() - 4.0).abs() < 1e-12);
        assert!((r.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 9.0);
    }

    #[test]
    fn running_empty_and_single() {
        let mut r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.variance(), 0.0);
        r.push(3.0);
        assert_eq!(r.mean(), 3.0);
        assert_eq!(r.variance(), 0.0);
    }

    #[test]
    fn running_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = Running::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Running::new();
        a.push(1.0);
        a.push(2.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&Running::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));
        let mut empty = Running::new();
        let mut b = Running::new();
        b.push(5.0);
        empty.merge(&b);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    fn cv_is_nonnegative_for_negative_mean_series() {
        let mut r = Running::new();
        for x in [-2.0, -4.0, -4.0, -4.0, -5.0, -5.0, -7.0, -9.0] {
            r.push(x);
        }
        assert!((r.mean() + 5.0).abs() < 1e-12);
        // std = 2, |mean| = 5: cv must be +0.4, not -0.4.
        assert!((r.cv() - 0.4).abs() < 1e-12);
        assert!(r.cv() >= 0.0);
    }

    #[test]
    fn histogram_bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for x in [0.0, 0.5, 5.0, 9.99, -3.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.total(), 6);
        assert_eq!(h.counts()[0], 3); // 0.0, 0.5 and clamped -3.0
        assert_eq!(h.counts()[5], 1);
        assert_eq!(h.counts()[9], 2); // 9.99 and clamped 42.0
        assert!((h.bin_lo(5) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&xs, 0.0), 1.0);
        assert_eq!(quantile_sorted(&xs, 1.0), 4.0);
        assert!((quantile_sorted(&xs, 0.5) - 2.5).abs() < 1e-12);
    }
}
