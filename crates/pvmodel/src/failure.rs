//! Runtime timing-failure model (§III.C made operational).
//!
//! The staleness analysis in `iscope-scanner` asks *whether* a frozen plan
//! has lost its guardband; this module supplies the runtime half: as jobs
//! run, their chips accumulate voltage-stress hours and Min Vdd drifts per
//! the [`AgingModel`]. When a chip's applied voltage falls below its
//! drifted Min Vdd (plus a small jitter modelling cycle-to-cycle noise and
//! workload-dependent droop), the part can no longer meet timing and the
//! simulator raises a `TimingFailure` event for the gang running on it.
//!
//! Drift over a real maintenance horizon is thousands of hours, far longer
//! than a simulated workload trace, so the model carries an explicit
//! `time_acceleration` factor: one simulated busy hour ages the silicon as
//! `time_acceleration` stress hours. Experiments pick it so the fleet
//! crosses a few safe re-profiling intervals within one trace.

use crate::aging::AgingModel;
use crate::chip::Chip;
use crate::plan::OperatingPlan;
use crate::population::Fleet;

/// Runtime failure model: aging-driven Min Vdd drift plus a jitter band.
#[derive(Debug, Clone, Copy)]
pub struct FailureModel {
    /// The drift law stress hours are fed through.
    pub aging: AgingModel,
    /// Stress hours accrued per simulated busy hour (compresses a
    /// multi-month maintenance horizon into one workload trace).
    pub time_acceleration: f64,
    /// Standard deviation (V) of the jitter added to the margin test: a
    /// chip fails timing when its worst margin falls below a zero-mean
    /// normal draw. Zero makes the check a hard threshold.
    pub jitter_v_sd: f64,
}

impl Default for FailureModel {
    fn default() -> Self {
        FailureModel {
            aging: AgingModel::default(),
            time_acceleration: 1.0,
            jitter_v_sd: 0.001,
        }
    }
}

impl FailureModel {
    /// Panics if the parameters are out of domain.
    pub fn validate(&self) {
        self.aging.validate();
        assert!(self.time_acceleration > 0.0, "acceleration must be > 0");
        assert!(self.jitter_v_sd >= 0.0, "jitter sd must be >= 0");
    }

    /// Worst timing margin (V) of `chip` under `plan` against the *current*
    /// (possibly drifted) silicon: the minimum over frequency levels of
    /// applied voltage minus true chip-level Min Vdd. Negative means some
    /// level already runs below Min Vdd.
    pub fn worst_margin_v(&self, fleet: &Fleet, plan: &OperatingPlan, chip: &Chip) -> f64 {
        fleet
            .dvfs
            .levels()
            .map(|l| plan.applied_voltage(chip.id, l) - chip.vmin_chip(l, false))
            .fold(f64::INFINITY, f64::min)
    }

    /// Min Vdd drift (V) a job attempt of `busy_hours` at `voltage` will
    /// cause under the accelerated clock.
    pub fn attempt_drift_v(&self, busy_hours: f64, voltage: f64, v_ref: f64) -> f64 {
        self.aging
            .vmin_drift(busy_hours * self.time_acceleration, voltage, v_ref)
    }

    /// Applies `busy_hours` of accelerated wear at `voltage` to a chip and
    /// returns the stress hours accrued (the re-profiling cadence counter).
    pub fn wear(&self, chip: &mut Chip, busy_hours: f64, voltage: f64, v_ref: f64) -> f64 {
        let stress_hours = busy_hours * self.time_acceleration;
        self.aging.age_chip(chip, stress_hours, voltage, v_ref);
        stress_hours
    }

    /// Failure predicate for one attempt: with margin `margin_v` at start
    /// and `drift_v` of additional drift accrued over the attempt, the
    /// attempt fails when the end-of-attempt margin falls below `jitter`
    /// (one zero-mean normal draw supplied by the caller's seeded RNG).
    pub fn attempt_fails(&self, margin_v: f64, drift_v: f64, jitter: f64) -> bool {
        margin_v - drift_v < jitter
    }

    /// Where in the attempt the failure lands, as a fraction of the
    /// attempt's duration: the point the drifting margin crosses the
    /// jitter level, clamped away from the exact endpoints so the failure
    /// event always falls strictly inside the attempt.
    pub fn failure_fraction(&self, margin_v: f64, drift_v: f64, jitter: f64) -> f64 {
        if drift_v <= 0.0 {
            return 0.5; // margin already below jitter with no drift
        }
        ((margin_v - jitter) / drift_v).clamp(0.05, 0.95)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::DvfsConfig;
    use crate::params::VariationParams;

    fn fleet() -> Fleet {
        Fleet::generate(
            16,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            11,
        )
    }

    #[test]
    fn oracle_plan_margin_is_the_guardband() {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        let m = FailureModel::default();
        for chip in &f.chips {
            let margin = m.worst_margin_v(&f, &plan, chip);
            assert!(
                (margin - crate::plan::SCAN_GUARDBAND_V).abs() < 1e-12,
                "oracle margin {margin}"
            );
        }
    }

    #[test]
    fn wear_erodes_the_margin_and_accrues_stress() {
        let mut f = fleet();
        let plan = OperatingPlan::oracle(&f);
        let m = FailureModel {
            time_acceleration: 1000.0,
            ..FailureModel::default()
        };
        let v_ref = f.dvfs.v_ref();
        let before = m.worst_margin_v(&f, &plan, &f.chips[0]);
        let v = plan.applied_voltage(f.chips[0].id, f.dvfs.max_level());
        let chip = &mut f.chips[0];
        let stress = m.wear(chip, 2.0, v, v_ref);
        assert!((stress - 2000.0).abs() < 1e-9, "accelerated stress hours");
        let after = m.worst_margin_v(&f, &plan, &f.chips[0]);
        assert!(after < before, "wear must erode the margin");
        let expected_drift = m.attempt_drift_v(2.0, v, v_ref);
        assert!((before - after - expected_drift).abs() < 1e-12);
    }

    #[test]
    fn failure_predicate_is_a_margin_threshold() {
        let m = FailureModel::default();
        assert!(!m.attempt_fails(0.010, 0.002, 0.0), "margin survives drift");
        assert!(m.attempt_fails(0.010, 0.012, 0.0), "drift eats the margin");
        assert!(m.attempt_fails(0.010, 0.005, 0.006), "jitter tips it over");
    }

    #[test]
    fn failure_fraction_tracks_the_crossing_point() {
        let m = FailureModel::default();
        // Margin 4 mV, drift 10 mV over the attempt: crossing at 40 %.
        let frac = m.failure_fraction(0.004, 0.010, 0.0);
        assert!((frac - 0.4).abs() < 1e-12);
        // Already under at start: clamped to the early edge.
        assert_eq!(m.failure_fraction(-0.002, 0.010, 0.0), 0.05);
        // Crossing after the end would not fail, but the clamp keeps the
        // event inside the attempt for callers that force one.
        assert_eq!(m.failure_fraction(0.02, 0.010, 0.0), 0.95);
        // No drift at all: midpoint.
        assert_eq!(m.failure_fraction(-0.001, 0.0, 0.0), 0.5);
    }

    #[test]
    fn validate_accepts_defaults() {
        FailureModel::default().validate();
    }
}
