//! Synthetic solar generation (§II.A: "energy sources like solar and wind
//! can change from full grade to zero within minutes"; SolarCore \[3\] is
//! the paper's solar-side sibling).
//!
//! The model composes a clear-sky irradiance envelope (a day-night arc
//! from sunrise to sunset) with an AR(1) cloud-attenuation process —
//! persistent overcast spells plus fast passing-cloud dips — sampled on
//! the same 10-minute grid as the wind traces, so a [`crate::Supply`] can
//! mix the two.

use crate::trace::PowerTrace;
use iscope_dcsim::{SimDuration, SimRng};

/// Configuration of a synthetic photovoltaic plant.
#[derive(Debug, Clone)]
pub struct SolarFarm {
    /// Nameplate (peak DC) power in watts.
    pub rated_power_w: f64,
    /// Local sunrise hour (0–24).
    pub sunrise_hour: f64,
    /// Local sunset hour (0–24), after sunrise.
    pub sunset_hour: f64,
    /// Lag-1 autocorrelation of the cloud process between samples.
    pub cloud_rho: f64,
    /// Mean cloud attenuation in `[0, 1)` (0 = always clear).
    pub cloud_mean: f64,
    /// Standard deviation of the cloud attenuation.
    pub cloud_sd: f64,
    /// Sampling interval.
    pub interval: SimDuration,
}

impl Default for SolarFarm {
    /// A plant sized like the default wind farm (1.2 MW peak) at a sunny
    /// mid-latitude site.
    fn default() -> Self {
        SolarFarm {
            rated_power_w: 1.2e6,
            sunrise_hour: 6.5,
            sunset_hour: 19.5,
            cloud_rho: 0.92,
            cloud_mean: 0.25,
            cloud_sd: 0.25,
            interval: SimDuration::from_mins(10),
        }
    }
}

impl SolarFarm {
    /// Panics if the configuration is out of domain.
    pub fn validate(&self) {
        assert!(self.rated_power_w >= 0.0);
        assert!(
            0.0 <= self.sunrise_hour
                && self.sunrise_hour < self.sunset_hour
                && self.sunset_hour <= 24.0,
            "sunrise must precede sunset within the day"
        );
        assert!((0.0..1.0).contains(&self.cloud_rho));
        assert!((0.0..1.0).contains(&self.cloud_mean));
        assert!(self.cloud_sd >= 0.0);
        assert!(!self.interval.is_zero());
    }

    /// Clear-sky output fraction at an hour of day: a sine arc between
    /// sunrise and sunset, zero at night.
    pub fn clear_sky_fraction(&self, hour: f64) -> f64 {
        let h = hour.rem_euclid(24.0);
        if h <= self.sunrise_hour || h >= self.sunset_hour {
            return 0.0;
        }
        let phase = (h - self.sunrise_hour) / (self.sunset_hour - self.sunrise_hour);
        (phase * std::f64::consts::PI).sin()
    }

    /// Generates a power trace covering `duration`, deterministically from
    /// `seed`.
    pub fn generate(&self, duration: SimDuration, seed: u64) -> PowerTrace {
        self.validate();
        let mut rng = SimRng::derive(seed, "solar-farm");
        let samples = (duration.as_millis() / self.interval.as_millis()).max(1) as usize;
        let dt_hours = self.interval.as_hours_f64();
        let mut z = rng.std_normal();
        let watts = (0..samples)
            .map(|i| {
                if i > 0 {
                    let eps = rng.std_normal();
                    z = self.cloud_rho * z + (1.0 - self.cloud_rho * self.cloud_rho).sqrt() * eps;
                }
                let attenuation = (self.cloud_mean + self.cloud_sd * z).clamp(0.0, 1.0);
                let hour = (i as f64 * dt_hours) % 24.0;
                self.rated_power_w * self.clear_sky_fraction(hour) * (1.0 - attenuation)
            })
            .collect();
        PowerTrace::new(self.interval, watts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_sky_arc_shape() {
        let farm = SolarFarm::default();
        assert_eq!(farm.clear_sky_fraction(0.0), 0.0, "midnight");
        assert_eq!(farm.clear_sky_fraction(6.5), 0.0, "exact sunrise");
        assert_eq!(farm.clear_sky_fraction(20.0), 0.0, "after sunset");
        let noonish = farm.clear_sky_fraction(13.0);
        assert!((noonish - 1.0).abs() < 1e-9, "solar noon at arc midpoint");
        assert!(farm.clear_sky_fraction(9.0) < noonish);
        assert!(farm.clear_sky_fraction(9.0) > 0.0);
    }

    #[test]
    fn nights_are_dark_and_days_produce() {
        let farm = SolarFarm::default();
        let t = farm.generate(SimDuration::from_hours(24 * 7), 3);
        for (i, &w) in t.watts.iter().enumerate() {
            let hour = (i as f64 / 6.0) % 24.0;
            if !(6.5..19.5).contains(&hour) {
                assert_eq!(w, 0.0, "production at night (hour {hour})");
            }
        }
        assert!(t.peak_power() > 0.3 * farm.rated_power_w, "no sunny spells");
        assert!(t.mean_power() > 0.0);
    }

    #[test]
    fn output_is_bounded_by_nameplate() {
        let farm = SolarFarm::default();
        let t = farm.generate(SimDuration::from_hours(24 * 30), 5);
        assert!(t
            .watts
            .iter()
            .all(|&w| (0.0..=farm.rated_power_w).contains(&w)));
    }

    #[test]
    fn generation_is_deterministic() {
        let farm = SolarFarm::default();
        assert_eq!(
            farm.generate(SimDuration::from_hours(48), 7),
            farm.generate(SimDuration::from_hours(48), 7)
        );
        assert_ne!(
            farm.generate(SimDuration::from_hours(48), 7),
            farm.generate(SimDuration::from_hours(48), 8)
        );
    }

    #[test]
    fn clouds_create_day_to_day_variability() {
        let farm = SolarFarm::default();
        let t = farm.generate(SimDuration::from_hours(24 * 30), 11);
        // Daily energy varies meaningfully across the month.
        let per_day = 24 * 6;
        let daily: Vec<f64> = t
            .watts
            .chunks(per_day)
            .map(|d| d.iter().sum::<f64>())
            .collect();
        let mean = daily.iter().sum::<f64>() / daily.len() as f64;
        let lo = daily.iter().cloned().fold(f64::MAX, f64::min);
        let hi = daily.iter().cloned().fold(f64::MIN, f64::max);
        assert!(
            hi > 1.2 * mean || lo < 0.8 * mean,
            "no cloudy/clear contrast"
        );
    }

    #[test]
    #[should_panic(expected = "sunrise must precede sunset")]
    fn rejects_inverted_day() {
        SolarFarm {
            sunrise_hour: 20.0,
            sunset_hour: 6.0,
            ..SolarFarm::default()
        }
        .validate();
    }
}
