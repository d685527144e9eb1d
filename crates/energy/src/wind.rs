//! Synthetic wind-farm generation (the NREL-trace substitute).
//!
//! The generator composes three standard ingredients:
//!
//! 1. an AR(1)-correlated Gaussian process mapped through the normal CDF to
//!    a Weibull wind-speed marginal (shape ~2 is typical of onshore sites),
//! 2. a diurnal modulation (wind statistically picks up in the afternoon),
//! 3. a commercial turbine power curve (cut-in / cubic ramp / rated /
//!    cut-out),
//!
//! sampled every 10 minutes like the Wind Integration Datasets the paper
//! uses. The result reproduces the *variability* that matters to the
//! scheduler: minutes-scale ramps and full-grade-to-zero swings (§II.A).

use crate::trace::PowerTrace;
use iscope_dcsim::{SimDuration, SimRng};

/// Configuration of a synthetic wind farm.
#[derive(Debug, Clone)]
pub struct WindFarm {
    /// Farm rated (nameplate) power in watts.
    pub rated_power_w: f64,
    /// Weibull shape parameter of the wind-speed marginal (k ≈ 2 onshore).
    pub weibull_shape: f64,
    /// Weibull scale parameter in m/s (sets the mean wind speed).
    pub weibull_scale_ms: f64,
    /// Lag-1 autocorrelation of the underlying Gaussian process between
    /// consecutive 10-minute samples (wind is strongly persistent).
    pub ar1_rho: f64,
    /// Relative amplitude of the diurnal modulation of wind speed.
    pub diurnal_amplitude: f64,
    /// Hour of day (0–24) at which the diurnal factor peaks. Onshore
    /// wind typically picks up in the evening and peaks at night —
    /// anti-correlated with the datacenter's working-hours load.
    pub diurnal_peak_hour: f64,
    /// Turbine cut-in speed (m/s): below this, output is zero.
    pub cut_in_ms: f64,
    /// Rated speed (m/s): output saturates at rated power here.
    pub rated_speed_ms: f64,
    /// Cut-out speed (m/s): above this the turbines furl and output is zero.
    pub cut_out_ms: f64,
    /// Sampling interval of the generated trace.
    pub interval: SimDuration,
    /// Number of geographically separate sites whose output is summed.
    /// The Wind Integration Datasets aggregate many turbines across a
    /// region; spatial diversity keeps the aggregate from spending hours
    /// at zero the way a single turbine does.
    pub num_sites: usize,
}

impl Default for WindFarm {
    /// A farm sized for the paper's 4800-CPU datacenter: full-fleet
    /// IT+cooling demand is ≈ 1.1 MW, and the default nameplate of 1.2 MW
    /// means rated wind just covers a fully powered-up fleet — parallel
    /// bursts beyond the current wind level must buy utility power, which
    /// is what produces the paper's Fig. 6 trends. The ≈ 30 % capacity
    /// factor puts mean wind near the average workload demand; this is the
    /// "standard wind power" (SWP) baseline whose 1.0–1.8× sweep spans
    /// scarcity to abundance (Fig. 9).
    fn default() -> Self {
        WindFarm {
            rated_power_w: 1.2e6,
            weibull_shape: 2.0,
            weibull_scale_ms: 7.5,
            ar1_rho: 0.97,
            diurnal_amplitude: 0.25,
            diurnal_peak_hour: 23.0,
            cut_in_ms: 3.0,
            rated_speed_ms: 12.0,
            cut_out_ms: 25.0,
            interval: SimDuration::from_mins(10),
            num_sites: 4,
        }
    }
}

impl WindFarm {
    /// Panics if the configuration is out of domain.
    pub fn validate(&self) {
        assert!(self.rated_power_w >= 0.0);
        assert!(self.weibull_shape > 0.0 && self.weibull_scale_ms > 0.0);
        assert!((0.0..1.0).contains(&self.ar1_rho));
        assert!((0.0..1.0).contains(&self.diurnal_amplitude));
        assert!(
            0.0 < self.cut_in_ms
                && self.cut_in_ms < self.rated_speed_ms
                && self.rated_speed_ms < self.cut_out_ms,
            "turbine speed thresholds must be ordered"
        );
        assert!(!self.interval.is_zero());
        assert!(self.num_sites >= 1, "need at least one site");
    }

    /// Instantaneous farm output (W) at wind speed `v_ms`.
    pub fn power_curve(&self, v_ms: f64) -> f64 {
        if v_ms < self.cut_in_ms || v_ms >= self.cut_out_ms {
            0.0
        } else if v_ms >= self.rated_speed_ms {
            self.rated_power_w
        } else {
            let num = v_ms.powi(3) - self.cut_in_ms.powi(3);
            let den = self.rated_speed_ms.powi(3) - self.cut_in_ms.powi(3);
            self.rated_power_w * num / den
        }
    }

    /// Generates a power trace covering `duration`, deterministically from
    /// `seed`: each site runs its own AR(1)-copula weather, the farm
    /// output is the sum scaled so the nameplate stays `rated_power_w`.
    pub fn generate(&self, duration: SimDuration, seed: u64) -> PowerTrace {
        self.validate();
        let samples = (duration.as_millis() / self.interval.as_millis()).max(1) as usize;
        let dt_hours = self.interval.as_hours_f64();
        let site_share = 1.0 / self.num_sites as f64;
        let mut watts = vec![0.0; samples];
        for site in 0..self.num_sites {
            let mut rng = SimRng::derive(seed, &format!("wind-site-{site}"));
            let mut z = rng.std_normal();
            for (i, w) in watts.iter_mut().enumerate() {
                if i > 0 {
                    let eps = rng.std_normal();
                    z = self.ar1_rho * z + (1.0 - self.ar1_rho * self.ar1_rho).sqrt() * eps;
                }
                // Gaussian copula: z -> uniform -> Weibull marginal.
                let u = normal_cdf(z).clamp(1e-12, 1.0 - 1e-12);
                let base_speed =
                    self.weibull_scale_ms * (-(1.0 - u).ln()).powf(1.0 / self.weibull_shape);
                let hour = (i as f64 * dt_hours) % 24.0;
                let phase = (hour - self.diurnal_peak_hour) / 24.0 * std::f64::consts::TAU;
                let diurnal = 1.0 + self.diurnal_amplitude * phase.cos();
                *w += site_share * self.power_curve(base_speed * diurnal);
            }
        }
        PowerTrace::new(self.interval, watts)
    }
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
/// (max abs error ≈ 1.5e-7 — far below the model's own fidelity).
fn normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_matches_known_values() {
        assert!(erf(0.0).abs() < 1e-7);
        assert!((erf(1.0) - 0.8427007929).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650).abs() < 1e-6);
    }

    #[test]
    fn normal_cdf_is_a_cdf() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!(normal_cdf(-8.0) < 1e-9);
        assert!(normal_cdf(8.0) > 1.0 - 1e-9);
        let mut last = 0.0;
        for i in -40..=40 {
            let c = normal_cdf(i as f64 / 10.0);
            assert!(c >= last);
            last = c;
        }
    }

    #[test]
    fn power_curve_shape() {
        let farm = WindFarm::default();
        assert_eq!(farm.power_curve(0.0), 0.0);
        assert_eq!(farm.power_curve(2.9), 0.0, "below cut-in");
        assert!(farm.power_curve(5.0) > 0.0);
        assert!(farm.power_curve(5.0) < farm.rated_power_w);
        assert_eq!(farm.power_curve(12.0), farm.rated_power_w, "rated");
        assert_eq!(farm.power_curve(20.0), farm.rated_power_w);
        assert_eq!(farm.power_curve(25.0), 0.0, "cut-out");
        // Cubic ramp is monotone.
        let mut last = 0.0;
        for v in 30..120 {
            let p = farm.power_curve(v as f64 / 10.0);
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn generation_is_deterministic_and_bounded() {
        let farm = WindFarm::default();
        let a = farm.generate(SimDuration::from_hours(48), 5);
        let b = farm.generate(SimDuration::from_hours(48), 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 48 * 6);
        assert!(a
            .watts
            .iter()
            .all(|&w| (0.0..=farm.rated_power_w).contains(&w)));
        let c = farm.generate(SimDuration::from_hours(48), 6);
        assert_ne!(a, c, "different seeds give different weather");
    }

    #[test]
    fn capacity_factor_is_plausible() {
        let farm = WindFarm::default();
        let t = farm.generate(SimDuration::from_hours(24 * 30), 11);
        let cf = t.mean_power() / farm.rated_power_w;
        assert!(
            (0.15..0.55).contains(&cf),
            "capacity factor {cf:.3} outside plausible onshore band"
        );
    }

    #[test]
    fn trace_is_temporally_correlated() {
        // Lag-1 autocorrelation of the power signal should be clearly
        // positive — wind does not teleport between samples.
        let farm = WindFarm::default();
        let t = farm.generate(SimDuration::from_hours(24 * 30), 13);
        let xs = &t.watts;
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let lag1 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (n - 1.0)
            / var;
        assert!(lag1 > 0.7, "lag-1 autocorrelation {lag1:.3} too low");
    }

    #[test]
    fn wind_swings_from_near_zero_to_near_rated() {
        // The scheduler's whole problem: full grade to zero within the
        // trace (§II.A). With spatial diversity the aggregate rarely sits
        // at exactly 0 or exactly rated, but it must visit both extremes.
        let farm = WindFarm::default();
        let t = farm.generate(SimDuration::from_hours(24 * 60), 17);
        let lows = t
            .watts
            .iter()
            .filter(|&&w| w < 0.05 * farm.rated_power_w)
            .count();
        let highs = t
            .watts
            .iter()
            .filter(|&&w| w > 0.7 * farm.rated_power_w)
            .count();
        assert!(lows > 0, "trace never calms");
        assert!(highs > 0, "trace never approaches rated");
    }

    #[test]
    fn single_site_does_hit_exact_extremes() {
        let farm = WindFarm {
            num_sites: 1,
            ..WindFarm::default()
        };
        let t = farm.generate(SimDuration::from_hours(24 * 60), 17);
        assert!(t.watts.contains(&0.0));
        assert!(t.watts.contains(&farm.rated_power_w));
    }

    #[test]
    fn more_sites_smooth_the_aggregate() {
        let solo = WindFarm {
            num_sites: 1,
            ..WindFarm::default()
        };
        let quad = WindFarm::default();
        let dur = SimDuration::from_hours(24 * 30);
        let cv = |t: &crate::trace::PowerTrace| {
            let m = t.mean_power();
            let var = t.watts.iter().map(|w| (w - m).powi(2)).sum::<f64>() / t.len() as f64;
            var.sqrt() / m
        };
        assert!(cv(&quad.generate(dur, 3)) < cv(&solo.generate(dur, 3)));
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn validate_rejects_bad_thresholds() {
        let farm = WindFarm {
            cut_in_ms: 15.0,
            ..WindFarm::default()
        };
        farm.validate();
    }
}
