//! Deterministic random-number generation and distribution samplers.
//!
//! Every stochastic component of the simulator draws from a [`SimRng`]
//! created from an explicit seed, so that whole-datacenter runs are
//! bit-reproducible. Child generators for independent subsystems are derived
//! with [`SimRng::derive`], which mixes a label into the parent seed; this
//! keeps parallel parameter sweeps independent of evaluation order.
//!
//! The samplers (normal, Poisson, Weibull, log-normal) are implemented here
//! rather than pulled from `rand_distr` to keep the dependency set to the
//! sanctioned list (see DESIGN.md §6); they are property-tested against
//! moment identities in this module's tests.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Seeded deterministic RNG with the distribution samplers the models need.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
    /// Cached second output of the Box–Muller transform.
    spare_normal: Option<f64>,
}

/// Complete captured state of a [`SimRng`]: the four xoshiro256++ words
/// plus the Box–Muller spare. Restoring this resumes the stream at exactly
/// the next draw — checkpoint/restore must not lose the cached normal or
/// every subsequent normal draw shifts by one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngSnapshot {
    /// Raw xoshiro256++ state words.
    pub words: [u64; 4],
    /// Cached second Box–Muller output, if one is pending.
    pub spare_normal: Option<f64>,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Derives an independent child generator for a named subsystem.
    ///
    /// The same `(seed, label)` pair always yields the same stream, so
    /// subsystems can be created in any order (or in parallel) without
    /// perturbing each other's draws.
    pub fn derive(seed: u64, label: &str) -> Self {
        SimRng::new(splitmix64(seed ^ fnv1a(label)))
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`. Requires `n > 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0, "index requires a non-empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with success probability `p` (clamped to `\[0, 1\]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw via the Box–Muller transform.
    pub fn std_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 in (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal draw with the given mean and standard deviation (`sd >= 0`).
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        debug_assert!(sd >= 0.0, "standard deviation must be non-negative");
        mean + sd * self.std_normal()
    }

    /// Normal draw rejected-sampled into `[lo, hi]`.
    ///
    /// Falls back to clamping after 64 rejected draws so that pathological
    /// parameters (mean far outside the window) still terminate.
    pub fn normal_clamped(&mut self, mean: f64, sd: f64, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        for _ in 0..64 {
            let x = self.normal(mean, sd);
            if (lo..=hi).contains(&x) {
                return x;
            }
        }
        mean.clamp(lo, hi)
    }

    /// Poisson draw with the given mean (`mean >= 0`).
    ///
    /// Uses Knuth's product method; for the means this codebase uses
    /// (static-power `beta` ~ 65) the expected iteration count is `mean + 1`
    /// and `exp(-65)` is still comfortably within `f64` range.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0, "poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        if mean > 500.0 {
            // Normal approximation keeps the product method's running time
            // bounded for extreme means (the product would underflow anyway).
            return self.normal(mean, mean.sqrt()).round().max(0.0) as u64;
        }
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut product = 1.0;
        loop {
            product *= self.uniform();
            if product <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Exponential draw with the given rate (`rate > 0`); mean is `1/rate`.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive");
        -(1.0 - self.uniform()).ln() / rate
    }

    /// Weibull draw with shape `k > 0` and scale `lambda > 0`
    /// (inverse-CDF method).
    pub fn weibull(&mut self, shape: f64, scale: f64) -> f64 {
        debug_assert!(
            shape > 0.0 && scale > 0.0,
            "weibull params must be positive"
        );
        let u = 1.0 - self.uniform(); // in (0, 1]
        scale * (-u.ln()).powf(1.0 / shape)
    }

    /// Log-normal draw: `exp(N(mu, sigma))` where `mu`/`sigma` are the
    /// parameters of the underlying normal.
    pub fn lognormal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle (deterministic given the stream position).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (uniform without
    /// replacement). Requires `k <= n`.
    ///
    /// Uses Floyd's algorithm: O(k) draws, no allocation of the full range.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        debug_assert!(k <= n, "cannot sample {k} distinct items from {n}");
        let mut chosen = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.index(j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }

    /// Raw 64-bit draw (for deriving further seeds).
    #[inline]
    pub fn next_seed(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Captures the generator's full state for checkpointing.
    pub fn snapshot(&self) -> RngSnapshot {
        RngSnapshot {
            words: self.inner.state(),
            spare_normal: self.spare_normal,
        }
    }

    /// Rebuilds a generator that continues the captured stream exactly.
    pub fn restore(snap: &RngSnapshot) -> Self {
        SimRng {
            inner: StdRng::from_state(snap.words),
            spare_normal: snap.spare_normal,
        }
    }
}

/// SplitMix64 finalizer: decorrelates nearby seeds.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a hash of a label, for seed derivation.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1_0000_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn moments(samples: &[f64]) -> (f64, f64) {
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn derived_streams_differ_by_label() {
        let mut a = SimRng::derive(7, "wind");
        let mut b = SimRng::derive(7, "chips");
        let va: Vec<f64> = (0..8).map(|_| a.uniform()).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
        // Same label reproduces.
        let mut c = SimRng::derive(7, "wind");
        let vc: Vec<f64> = (0..8).map(|_| c.uniform()).collect();
        assert_eq!(va, vc);
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(42);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.normal(7.5, 0.75)).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 7.5).abs() < 0.02, "mean = {mean}");
        assert!((var - 0.5625).abs() < 0.02, "var = {var}");
    }

    #[test]
    fn poisson_moments_match_mean() {
        let mut rng = SimRng::new(43);
        let xs: Vec<f64> = (0..20_000).map(|_| rng.poisson(65.0) as f64).collect();
        let (mean, var) = moments(&xs);
        assert!((mean - 65.0).abs() < 0.5, "mean = {mean}");
        assert!((var - 65.0).abs() < 2.5, "var = {var}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = SimRng::new(1);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn poisson_large_mean_uses_normal_approx() {
        let mut rng = SimRng::new(44);
        let xs: Vec<f64> = (0..5_000).map(|_| rng.poisson(1000.0) as f64).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 1000.0).abs() < 5.0, "mean = {mean}");
    }

    #[test]
    fn weibull_mean_matches_gamma_identity() {
        // For k = 2, mean = lambda * Gamma(1.5) = lambda * sqrt(pi)/2.
        let mut rng = SimRng::new(45);
        let lambda = 8.0;
        let xs: Vec<f64> = (0..50_000).map(|_| rng.weibull(2.0, lambda)).collect();
        let (mean, _) = moments(&xs);
        let expected = lambda * std::f64::consts::PI.sqrt() / 2.0;
        assert!(
            (mean - expected).abs() < 0.1,
            "mean = {mean}, expected {expected}"
        );
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(46);
        let xs: Vec<f64> = (0..50_000).map(|_| rng.exponential(0.25)).collect();
        let (mean, _) = moments(&xs);
        assert!((mean - 4.0).abs() < 0.1, "mean = {mean}");
    }

    #[test]
    fn lognormal_is_positive_with_expected_median() {
        let mut rng = SimRng::new(47);
        let mut xs: Vec<f64> = (0..20_001).map(|_| rng.lognormal(3.0, 1.0)).collect();
        assert!(xs.iter().all(|&x| x > 0.0));
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = xs[xs.len() / 2];
        assert!((median - 3.0f64.exp()).abs() < 1.0, "median = {median}");
    }

    #[test]
    fn normal_clamped_stays_in_bounds() {
        let mut rng = SimRng::new(48);
        for _ in 0..1000 {
            let x = rng.normal_clamped(4.0, 2.0, 1.1, 20.0);
            assert!((1.1..=20.0).contains(&x));
        }
        // Pathological case terminates via clamping.
        let x = rng.normal_clamped(100.0, 0.001, 0.0, 1.0);
        assert_eq!(x, 1.0);
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = SimRng::new(49);
        for _ in 0..200 {
            let ids = rng.sample_indices(50, 12);
            assert_eq!(ids.len(), 12);
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 12, "duplicates in {ids:?}");
            assert!(ids.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_indices_full_range_is_permutation() {
        let mut rng = SimRng::new(50);
        let mut ids = rng.sample_indices(10, 10);
        ids.sort_unstable();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(51);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "shuffle left input in order"
        );
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::new(52);
        for _ in 0..10_000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }
}
