//! Short-horizon renewable forecasting.
//!
//! ScanFair's surplus-mode placement commits a job to (possibly
//! inefficient) processors for its whole runtime, so the decision really
//! depends on the wind *over the next job-length horizon*, not just this
//! instant. Wind at 10-minute resolution is strongly persistent but decays
//! toward climatology; the standard cheap forecast blends the two:
//!
//! `E[P(t + h) | P(t)] = mean + rho^h * (P(t) - mean)`
//!
//! with `rho` the per-interval autocorrelation. This module fits `mean`
//! and `rho` from a trace's own history (no oracle access to the future)
//! and serves horizon-averaged forecasts.

use crate::trace::PowerTrace;
use iscope_dcsim::{SimDuration, SimTime};

/// Persistence-toward-climatology forecaster fitted on a power trace.
#[derive(Debug, Clone)]
pub struct PersistenceForecast {
    mean_w: f64,
    rho: f64,
    interval: SimDuration,
}

impl PersistenceForecast {
    /// Fits the climatology mean and lag-1 autocorrelation from the first
    /// `history` samples of `trace` (a deployment would fit on its own
    /// recorded past; passing the full length uses everything).
    pub fn fit(trace: &PowerTrace, history: usize) -> PersistenceForecast {
        let n = history.min(trace.len()).max(1);
        let xs = &trace.watts[..n];
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var: f64 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let rho = if var <= 1e-12 || n < 3 {
            0.0
        } else {
            let cov: f64 = xs
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum::<f64>()
                / (n - 1) as f64;
            (cov / var).clamp(0.0, 0.999)
        };
        PersistenceForecast {
            mean_w: mean,
            rho,
            interval: trace.interval,
        }
    }

    /// Fitted climatology mean (W).
    pub fn mean_w(&self) -> f64 {
        self.mean_w
    }

    /// Fitted lag-1 autocorrelation.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Expected power (W) `horizon` ahead of an observation `current_w`.
    pub fn forecast(&self, current_w: f64, horizon: SimDuration) -> f64 {
        let steps = horizon.as_millis() as f64 / self.interval.as_millis() as f64;
        let decay = self.rho.powf(steps);
        (self.mean_w + decay * (current_w - self.mean_w)).max(0.0)
    }

    /// Average expected power over `[now, now + span]` given the current
    /// observation — the quantity a job-placement decision should compare
    /// demand against.
    pub fn horizon_average(&self, current_w: f64, span: SimDuration) -> f64 {
        if span.is_zero() {
            return current_w;
        }
        let steps = (span.as_millis() / self.interval.as_millis()).max(1);
        let mut sum = 0.0;
        for k in 0..steps {
            sum += self.forecast(
                current_w,
                SimDuration::from_millis(self.interval.as_millis() * k),
            );
        }
        sum / steps as f64
    }

    /// Root-mean-square error of the forecaster evaluated over a trace at
    /// a fixed horizon — lets callers compare against pure persistence.
    pub fn rmse_on(&self, trace: &PowerTrace, horizon_steps: usize) -> f64 {
        let n = trace.len();
        if n <= horizon_steps {
            return 0.0;
        }
        let horizon = SimDuration::from_millis(trace.interval.as_millis() * horizon_steps as u64);
        let mut se = 0.0;
        for i in 0..(n - horizon_steps) {
            let pred = self.forecast(trace.watts[i], horizon);
            let truth = trace.watts[i + horizon_steps];
            se += (pred - truth).powi(2);
        }
        (se / (n - horizon_steps) as f64).sqrt()
    }
}

/// A trivial forecaster that predicts the current value forever (pure
/// persistence) — the baseline the blended model must beat at long
/// horizons.
pub fn persistence_rmse(trace: &PowerTrace, horizon_steps: usize) -> f64 {
    let n = trace.len();
    if n <= horizon_steps {
        return 0.0;
    }
    let mut se = 0.0;
    for i in 0..(n - horizon_steps) {
        se += (trace.watts[i] - trace.watts[i + horizon_steps]).powi(2);
    }
    (se / (n - horizon_steps) as f64).sqrt()
}

/// Convenience: forecasted horizon-average wind at `now` for a supply
/// trace (fit over the trace's past relative to `now`).
pub fn forecast_wind_over(trace: &PowerTrace, now: SimTime, span: SimDuration) -> f64 {
    let seen = (now.as_millis() / trace.interval.as_millis()) as usize + 1;
    let model = PersistenceForecast::fit(trace, seen);
    model.horizon_average(trace.power_at(now), span)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wind::WindFarm;

    fn trace() -> PowerTrace {
        WindFarm::default().generate(SimDuration::from_hours(24 * 30), 7)
    }

    #[test]
    fn fit_recovers_strong_persistence() {
        let t = trace();
        let f = PersistenceForecast::fit(&t, t.len());
        assert!(
            f.rho() > 0.7,
            "fitted rho {} too low for AR(0.97) wind",
            f.rho()
        );
        assert!((f.mean_w() - t.mean_power()).abs() < 1e-6);
    }

    #[test]
    fn zero_horizon_returns_current() {
        let t = trace();
        let f = PersistenceForecast::fit(&t, t.len());
        assert_eq!(f.horizon_average(12345.0, SimDuration::ZERO), 12345.0);
        assert!((f.forecast(12345.0, SimDuration::ZERO) - 12345.0).abs() < 1e-9);
    }

    #[test]
    fn long_horizon_decays_to_climatology() {
        let t = trace();
        let f = PersistenceForecast::fit(&t, t.len());
        let far = f.forecast(t.peak_power(), SimDuration::from_hours(24 * 14));
        assert!(
            (far - f.mean_w()).abs() < 0.05 * f.mean_w().max(1.0),
            "two weeks out should be climatology: {far} vs {}",
            f.mean_w()
        );
    }

    #[test]
    fn forecast_interpolates_between_current_and_mean() {
        let t = trace();
        let f = PersistenceForecast::fit(&t, t.len());
        let hi = 2.0 * f.mean_w();
        let h1 = f.forecast(hi, SimDuration::from_mins(10));
        let h6 = f.forecast(hi, SimDuration::from_hours(1));
        assert!(h1 > h6, "forecast must decay toward the mean");
        assert!(h6 > f.mean_w(), "but not overshoot it");
        assert!(h1 < hi, "and must regress from the observation");
    }

    #[test]
    fn blended_model_beats_pure_persistence_at_long_horizons() {
        let t = trace();
        let f = PersistenceForecast::fit(&t, t.len());
        let steps = 36; // 6 hours
        let blended = f.rmse_on(&t, steps);
        let naive = persistence_rmse(&t, steps);
        assert!(
            blended < naive,
            "blended RMSE {blended:.0} not below persistence {naive:.0}"
        );
    }

    #[test]
    fn flat_trace_fits_zero_rho_and_exact_forecast() {
        let t = PowerTrace::constant(SimDuration::from_mins(10), 500.0, 50);
        let f = PersistenceForecast::fit(&t, t.len());
        assert_eq!(f.rho(), 0.0);
        assert!((f.forecast(500.0, SimDuration::from_hours(5)) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn online_fit_uses_only_the_past() {
        let t = trace();
        // Forecast early in the trace: fit window is small but valid.
        let v = forecast_wind_over(&t, SimTime::from_secs(1200), SimDuration::from_hours(1));
        assert!(v >= 0.0 && v.is_finite());
    }
}
