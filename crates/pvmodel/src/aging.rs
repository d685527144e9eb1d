//! Processor aging and wear-out (§III.C, §IV.B, §VI.D).
//!
//! The paper's motivation for balancing utilization: "Processors wear out
//! much faster with intensive usage. Replenishing early retired CPUs
//! incurs extra charge", and for periodic re-profiling: "Divergent working
//! conditions and utilization times wear out processors differently, which
//! can redistribute the variations among chips."
//!
//! We model the dominant long-term mechanism (NBTI/HCI-style threshold
//! drift) at the abstraction level the scheduler sees: a core's Min Vdd
//! *rises* with accumulated stress, where stress accrues with active time
//! and accelerates with overdrive (operating voltage above Min Vdd buys
//! timing margin but ages the device faster). A chip retires when its
//! Min Vdd at the top level exceeds the nominal supply — it can no longer
//! meet timing at any legal voltage.

use crate::chip::Chip;
use crate::freq::DvfsConfig;

/// Parameters of the Min Vdd drift model.
#[derive(Debug, Clone, Copy)]
pub struct AgingModel {
    /// Min Vdd drift (volts) per 1000 hours of active time at reference
    /// stress. Silicon-typical lifetime guardbands are a few percent of
    /// nominal over 5–10 years; 3 mV / 1000 h puts end-of-life near
    /// 7 years of continuous full-stress operation for the default fleet.
    pub drift_v_per_kh: f64,
    /// Voltage-acceleration exponent: stress scales with
    /// `(V / V_ref) ^ exponent` (strongly super-linear in supply voltage
    /// for NBTI; 4 is a common fitting value).
    pub voltage_exponent: f64,
}

impl Default for AgingModel {
    fn default() -> Self {
        AgingModel {
            drift_v_per_kh: 0.003,
            voltage_exponent: 4.0,
        }
    }
}

impl AgingModel {
    /// Panics if the parameters are out of domain.
    pub fn validate(&self) {
        assert!(self.drift_v_per_kh >= 0.0);
        assert!(self.voltage_exponent >= 0.0);
    }

    /// Min Vdd drift (volts) caused by `active_hours` of operation at
    /// supply `voltage`, relative to reference `v_ref`.
    pub fn vmin_drift(&self, active_hours: f64, voltage: f64, v_ref: f64) -> f64 {
        debug_assert!(active_hours >= 0.0 && voltage > 0.0 && v_ref > 0.0);
        let accel = (voltage / v_ref).powf(self.voltage_exponent);
        self.drift_v_per_kh * (active_hours / 1000.0) * accel
    }

    /// Applies `active_hours` of wear at `voltage` to every core of a
    /// chip, raising the whole Min Vdd curve.
    pub fn age_chip(&self, chip: &mut Chip, active_hours: f64, voltage: f64, v_ref: f64) {
        let drift = self.vmin_drift(active_hours, voltage, v_ref);
        for core in &mut chip.cores {
            for v in &mut core.vmin {
                *v += drift;
            }
        }
    }

    /// Remaining lifetime (active hours) of a chip operated at `voltage`:
    /// time until its worst core's Min Vdd at the top level reaches the
    /// nominal supply. `f64::INFINITY` if it never will (zero drift).
    pub fn remaining_life_hours(&self, chip: &Chip, dvfs: &DvfsConfig, voltage: f64) -> f64 {
        let top = dvfs.max_level();
        let headroom = dvfs.v_nom(top) - chip.vmin_chip(top, false);
        if headroom <= 0.0 {
            return 0.0;
        }
        let drift_per_hour = self.vmin_drift(1.0, voltage, dvfs.v_ref());
        if drift_per_hour == 0.0 {
            return f64::INFINITY;
        }
        headroom / drift_per_hour
    }
}

/// Fleet-level wear summary derived from per-chip utilization hours: how
/// unbalanced usage translates into staggered retirements (the cost the
/// ScanFair scheme avoids — operators upgrade in batches, §IV.B).
#[derive(Debug, Clone)]
pub struct WearReport {
    /// Life consumed per chip, as a fraction of full life, given each
    /// chip's utilization hours.
    pub life_consumed: Vec<f64>,
    /// Spread between the most- and least-worn chip (fractions of life).
    pub wear_spread: f64,
    /// Chips past `replace_threshold` of their life.
    pub chips_needing_replacement: usize,
}

impl WearReport {
    /// Builds the report: every chip ran `usage_hours[i]` at the voltage
    /// of `plan_voltage[i]` (its operating plan's top-level supply).
    pub fn from_usage(
        model: &AgingModel,
        dvfs: &DvfsConfig,
        chips: &[Chip],
        usage_hours: &[f64],
        plan_voltage: &[f64],
        replace_threshold: f64,
    ) -> WearReport {
        assert_eq!(chips.len(), usage_hours.len());
        assert_eq!(chips.len(), plan_voltage.len());
        assert!((0.0..=1.0).contains(&replace_threshold));
        let life_consumed: Vec<f64> = chips
            .iter()
            .zip(usage_hours)
            .zip(plan_voltage)
            .map(|((chip, &h), &v)| {
                let life = model.remaining_life_hours(chip, dvfs, v);
                if life.is_infinite() {
                    0.0
                } else if life <= 0.0 {
                    1.0
                } else {
                    (h / life).min(1.0)
                }
            })
            .collect();
        let max = life_consumed.iter().cloned().fold(0.0, f64::max);
        let min = life_consumed.iter().cloned().fold(1.0, f64::min);
        WearReport {
            chips_needing_replacement: life_consumed
                .iter()
                .filter(|&&c| c >= replace_threshold)
                .count(),
            wear_spread: (max - min).max(0.0),
            life_consumed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::ChipId;
    use crate::params::VariationParams;
    use iscope_dcsim::SimRng;

    fn chip(seed: u64) -> (Chip, DvfsConfig) {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(seed);
        (
            Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng),
            dvfs,
        )
    }

    #[test]
    fn drift_is_linear_in_time_and_accelerated_by_voltage() {
        let m = AgingModel::default();
        let d1 = m.vmin_drift(1000.0, 1.375, 1.375);
        assert!((d1 - 0.003).abs() < 1e-12, "reference drift per kh");
        assert!((m.vmin_drift(2000.0, 1.375, 1.375) - 2.0 * d1).abs() < 1e-12);
        // 10 % overdrive at exponent 4 ages ~1.46x faster.
        let hot = m.vmin_drift(1000.0, 1.375 * 1.1, 1.375);
        assert!((hot / d1 - 1.1f64.powi(4)).abs() < 1e-9);
        // Undervolting (the scanned plan) ages slower.
        assert!(m.vmin_drift(1000.0, 1.23, 1.375) < d1);
    }

    #[test]
    fn aging_raises_every_core_uniformly() {
        let (mut c, dvfs) = chip(3);
        let before: Vec<f64> = c.cores.iter().map(|k| k.vmin(dvfs.max_level())).collect();
        AgingModel::default().age_chip(&mut c, 5000.0, 1.3, dvfs.v_ref());
        for (core, b) in c.cores.iter().zip(&before) {
            let drift = core.vmin(dvfs.max_level()) - b;
            assert!(drift > 0.0);
            assert!(
                (drift - AgingModel::default().vmin_drift(5000.0, 1.3, dvfs.v_ref())).abs() < 1e-12
            );
        }
    }

    #[test]
    fn remaining_life_is_headroom_over_drift_rate() {
        let (c, dvfs) = chip(5);
        let m = AgingModel::default();
        let life = m.remaining_life_hours(&c, &dvfs, 1.3);
        assert!(life.is_finite() && life > 0.0);
        // Default margins (~10 %) and 3 mV/kh: years of continuous life.
        assert!(
            (10_000.0..200_000.0).contains(&life),
            "implausible lifetime {life:.0} h"
        );
        // Running hotter shortens life.
        assert!(m.remaining_life_hours(&c, &dvfs, 1.375) < life);
        // Zero drift = immortal.
        let frozen = AgingModel {
            drift_v_per_kh: 0.0,
            ..m
        };
        assert!(frozen.remaining_life_hours(&c, &dvfs, 1.375).is_infinite());
    }

    #[test]
    fn aged_chip_eventually_fails_nominal_timing() {
        let (mut c, dvfs) = chip(7);
        let m = AgingModel::default();
        let life = m.remaining_life_hours(&c, &dvfs, 1.375);
        m.age_chip(&mut c, life * 1.01, 1.375, dvfs.v_ref());
        let top = dvfs.max_level();
        assert!(
            c.vmin_chip(top, false) > dvfs.v_nom(top),
            "chip should be past end of life"
        );
        assert!(m.remaining_life_hours(&c, &dvfs, 1.375) == 0.0);
    }

    #[test]
    fn wear_report_flags_unbalanced_fleets() {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(9);
        let chips: Vec<Chip> = (0..10)
            .map(|i| Chip::generate(ChipId(i), &dvfs, &VariationParams::default(), &mut rng))
            .collect();
        let voltages = vec![1.3; 10];
        let m = AgingModel::default();
        // Balanced fleet: everyone at 10 kh.
        let balanced = WearReport::from_usage(&m, &dvfs, &chips, &[10_000.0; 10], &voltages, 0.8);
        // Effi-style fleet: two chips hammered, the rest idle.
        let mut skewed_hours = vec![1000.0; 10];
        skewed_hours[0] = 60_000.0;
        skewed_hours[1] = 55_000.0;
        let skewed = WearReport::from_usage(&m, &dvfs, &chips, &skewed_hours, &voltages, 0.8);
        assert!(skewed.wear_spread > balanced.wear_spread);
        assert!(skewed.chips_needing_replacement >= 1);
        assert_eq!(balanced.chips_needing_replacement, 0);
    }
}
