//! Execution-time model under DVFS (Eq-3 of the paper, after Hsu et al.).
//!
//! `T(f) = T(f_max) * (gamma * (f_max / f - 1) + 1)`, where `gamma` is the
//! CPU-boundness of the application: `gamma = 1` means fully CPU-bound
//! (time inversely proportional to frequency), `gamma = 0` means frequency-
//! insensitive.
//!
//! For mid-flight frequency changes, work is tracked in *nominal seconds*
//! (seconds of execution at `f_max`): a task running at frequency `f`
//! retires nominal work at rate [`speed_factor`]`(gamma, f, f_max)`.

/// CPU-boundness of a task, in `\[0, 1\]`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct CpuBoundness(f64);

impl CpuBoundness {
    /// Wraps a value, clamping into `\[0, 1\]`.
    pub fn new(gamma: f64) -> Self {
        CpuBoundness(gamma.clamp(0.0, 1.0))
    }

    /// The underlying fraction.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Fully CPU-bound.
    pub const FULL: CpuBoundness = CpuBoundness(1.0);
}

/// Eq-3: execution time at frequency `f_ghz` given the time at `f_max_ghz`.
pub fn exec_time_secs(t_at_fmax_secs: f64, gamma: CpuBoundness, f_ghz: f64, f_max_ghz: f64) -> f64 {
    debug_assert!(f_ghz > 0.0 && f_max_ghz >= f_ghz);
    t_at_fmax_secs * (gamma.0 * (f_max_ghz / f_ghz - 1.0) + 1.0)
}

/// Rate of nominal-work retirement at frequency `f_ghz`, relative to
/// running at `f_max_ghz`. Equals `T(f_max)/T(f)`; in `(0, 1]`.
pub fn speed_factor(gamma: CpuBoundness, f_ghz: f64, f_max_ghz: f64) -> f64 {
    1.0 / (gamma.0 * (f_max_ghz / f_ghz - 1.0) + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmax_is_a_fixed_point() {
        let t = exec_time_secs(100.0, CpuBoundness::new(0.7), 2.0, 2.0);
        assert!((t - 100.0).abs() < 1e-12);
        assert!((speed_factor(CpuBoundness::new(0.7), 2.0, 2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_cpu_bound_scales_inversely() {
        let t = exec_time_secs(100.0, CpuBoundness::FULL, 1.0, 2.0);
        assert!((t - 200.0).abs() < 1e-12);
        let t = exec_time_secs(100.0, CpuBoundness::FULL, 0.5, 2.0);
        assert!((t - 400.0).abs() < 1e-12);
    }

    #[test]
    fn insensitive_task_ignores_frequency() {
        let t = exec_time_secs(100.0, CpuBoundness::new(0.0), 0.75, 2.0);
        assert!((t - 100.0).abs() < 1e-12);
    }

    #[test]
    fn time_is_monotone_decreasing_in_frequency() {
        let gamma = CpuBoundness::new(0.6);
        let mut last = f64::INFINITY;
        for f in [0.75, 1.0, 1.25, 1.5, 2.0] {
            let t = exec_time_secs(100.0, gamma, f, 2.0);
            assert!(t < last, "T(f) must decrease as f rises");
            last = t;
        }
    }

    #[test]
    fn time_is_linear_in_gamma() {
        // T(f) = T0 * (1 + gamma * c) with c = f_max/f - 1.
        let t0 = exec_time_secs(100.0, CpuBoundness::new(0.0), 1.0, 2.0);
        let t1 = exec_time_secs(100.0, CpuBoundness::new(1.0), 1.0, 2.0);
        let th = exec_time_secs(100.0, CpuBoundness::new(0.5), 1.0, 2.0);
        assert!((th - (t0 + t1) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn speed_factor_is_reciprocal_of_slowdown() {
        let gamma = CpuBoundness::new(0.8);
        let t = exec_time_secs(100.0, gamma, 1.0, 2.0);
        let sf = speed_factor(gamma, 1.0, 2.0);
        assert!((sf * t - 100.0).abs() < 1e-9, "rate * time = nominal work");
    }

    #[test]
    fn boundness_clamps() {
        assert_eq!(CpuBoundness::new(1.7).value(), 1.0);
        assert_eq!(CpuBoundness::new(-0.2).value(), 0.0);
    }
}
