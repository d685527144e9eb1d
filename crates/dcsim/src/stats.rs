//! Statistical accumulators used throughout the simulator.
//!
//! [`Running`] computes streaming mean/variance (Welford); [`TimeWeighted`]
//! integrates a piecewise-constant signal over simulated time (the power →
//! energy accounting path); [`Histogram`] bins samples for distribution
//! reports.

use crate::time::SimTime;

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
    ///
    /// Note [`TimeWeighted`] deliberately has no merge: it integrates one
    /// piecewise-constant signal against a single non-decreasing clock, and
    /// two accumulators over overlapping time ranges have no well-defined
    /// combination (their `current` values would conflict). Shard by signal,
    /// not by time, and sum the `integral()`s if a total is needed.
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

/// Integrates a piecewise-constant signal over simulated time.
///
/// Feed it the value that becomes active at each instant; the integral picks
/// up `value * dt` for every interval. Used for power (W) → energy (J).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    current: f64,
    integral: f64,
    weighted_min: f64,
    weighted_max: f64,
    started: bool,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeighted {
    /// Creates an accumulator with the signal at 0 from t = 0.
    pub fn new() -> Self {
        TimeWeighted {
            last_time: SimTime::ZERO,
            current: 0.0,
            integral: 0.0,
            weighted_min: f64::INFINITY,
            weighted_max: f64::NEG_INFINITY,
            started: false,
        }
    }

    /// Records that the signal takes value `value` from instant `at` onward.
    ///
    /// Instants must be non-decreasing.
    pub fn set(&mut self, at: SimTime, value: f64) {
        self.advance(at);
        self.current = value;
        self.started = true;
        self.weighted_min = self.weighted_min.min(value);
        self.weighted_max = self.weighted_max.max(value);
    }

    /// Adds `delta` to the current signal value from instant `at` onward.
    pub fn add(&mut self, at: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(at, v);
    }

    /// Integrates up to `at` without changing the value.
    pub fn advance(&mut self, at: SimTime) {
        debug_assert!(at >= self.last_time, "TimeWeighted fed out of order");
        let dt = at.saturating_since(self.last_time).as_secs_f64();
        self.integral += self.current * dt;
        self.last_time = at;
    }

    /// Value currently active.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Integral so far, in value·seconds (joules when the value is watts).
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Integral expressed in value·hours (kWh when the value is kW... i.e.
    /// watts in → watt-hours out; divide by 1000 for kWh).
    pub fn integral_hours(&self) -> f64 {
        self.integral / 3600.0
    }

    /// Time-average of the signal over `[0, last_update]` (0 if no time has
    /// elapsed).
    pub fn time_average(&self) -> f64 {
        let t = self.last_time.as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.integral / t
        }
    }

    /// Smallest value ever set (`+inf` if never set).
    pub fn observed_min(&self) -> f64 {
        self.weighted_min
    }

    /// Largest value ever set (`-inf` if never set).
    pub fn observed_max(&self) -> f64 {
        self.weighted_max
    }

    /// Timestamp of the last update.
    pub fn last_time(&self) -> SimTime {
        self.last_time
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
    use crate::time::SimDuration;

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
    fn time_weighted_integrates_rectangles() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 100.0); // 100 W for 10 s
        tw.set(SimTime::from_secs(10), 50.0); // 50 W for 20 s
        tw.advance(SimTime::from_secs(30));
        assert!((tw.integral() - (100.0 * 10.0 + 50.0 * 20.0)).abs() < 1e-9);
        assert!((tw.time_average() - 2000.0 / 30.0).abs() < 1e-9);
        assert!((tw.integral_hours() - 2000.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_add_stacks() {
        let mut tw = TimeWeighted::new();
        tw.add(SimTime::ZERO, 10.0);
        tw.add(SimTime::from_secs(5), 10.0); // now 20
        tw.add(SimTime::from_secs(10), -20.0); // now 0
        tw.advance(SimTime::from_secs(20));
        assert!((tw.integral() - (10.0 * 5.0 + 20.0 * 5.0)).abs() < 1e-9);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_same_instant_updates() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 5.0);
        tw.set(SimTime::ZERO, 7.0); // replaces before any time passes
        tw.advance(SimTime::from_secs(1));
        assert!((tw.integral() - 7.0).abs() < 1e-12);
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

    #[test]
    fn time_weighted_tracks_extremes() {
        let mut tw = TimeWeighted::new();
        tw.set(SimTime::ZERO, 3.0);
        tw.set(SimTime::from_secs(1) + SimDuration::from_millis(500), -1.0);
        assert_eq!(tw.observed_min(), -1.0);
        assert_eq!(tw.observed_max(), 3.0);
    }
}
