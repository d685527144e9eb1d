//! Profile staleness and re-profiling cadence (§III.C).
//!
//! "Green datacenters should perform the profiling periodically, especially
//! when servers may undergo aggressive and unbalanced power tuning
//! activities ... Divergent working conditions and utilization times wear
//! out processors differently, which can redistribute the variations among
//! chips. Periodical profiling is an effective way to timely expose
//! processor variation."
//!
//! This module quantifies that: as chips age, their Min Vdd drifts upward;
//! a scanned operating plan frozen at profile time eats into its guardband
//! until some chip runs *below* its drifted Min Vdd — silent timing
//! failures. The analysis reports when that happens and hence how often
//! the fleet must be re-scanned.

use iscope_pvmodel::{AgingModel, Fleet, OperatingPlan, SCAN_GUARDBAND_V};

/// Safety of a frozen operating plan after some aging.
#[derive(Debug, Clone)]
pub struct StalenessReport {
    /// Hours of (uniform) operation since the profile was taken.
    pub profile_age_hours: f64,
    /// Chips whose drifted Min Vdd now exceeds their planned voltage at
    /// some level — they would experience timing failures.
    pub unsafe_chips: usize,
    /// Smallest remaining margin (V) across the fleet (negative when some
    /// chip is already unsafe).
    pub worst_margin_v: f64,
}

/// Evaluates a plan against a fleet aged uniformly for `hours` at each
/// chip's own planned top-level voltage.
pub fn analyse_staleness(
    fleet: &Fleet,
    plan: &OperatingPlan,
    aging: &AgingModel,
    hours: f64,
) -> StalenessReport {
    let mut unsafe_chips = 0;
    let mut worst = f64::INFINITY;
    for chip in &fleet.chips {
        let top = fleet.dvfs.max_level();
        let stress_v = plan.applied_voltage(chip.id, top);
        let drift = aging.vmin_drift(hours, stress_v, fleet.dvfs.v_ref());
        let mut chip_unsafe = false;
        for l in fleet.dvfs.levels() {
            let margin = plan.applied_voltage(chip.id, l) - (chip.vmin_chip(l, false) + drift);
            worst = worst.min(margin);
            if margin < 0.0 {
                chip_unsafe = true;
            }
        }
        if chip_unsafe {
            unsafe_chips += 1;
        }
    }
    StalenessReport {
        profile_age_hours: hours,
        unsafe_chips,
        worst_margin_v: worst,
    }
}

/// The guaranteed-safe re-profiling interval (hours of active operation):
/// the scan guardband divided by the worst-case drift rate at the highest
/// planned voltage. A fleet re-scanned at least this often can never run
/// below a drifted Min Vdd.
pub fn safe_reprofile_interval_hours(
    fleet: &Fleet,
    plan: &OperatingPlan,
    aging: &AgingModel,
) -> f64 {
    let top = fleet.dvfs.max_level();
    let worst_rate = fleet
        .chips
        .iter()
        .map(|c| {
            let v = plan.applied_voltage(c.id, top);
            aging.vmin_drift(1.0, v, fleet.dvfs.v_ref())
        })
        .fold(0.0, f64::max);
    if worst_rate == 0.0 {
        f64::INFINITY
    } else {
        SCAN_GUARDBAND_V / worst_rate
    }
}

/// When the simulator re-runs SBFT on a live fleet (the closed staleness
/// loop): either on a fixed stress-hour cadence, or adaptively as a
/// fraction of [`safe_reprofile_interval_hours`] computed from the
/// initial plan.
#[derive(Debug, Clone, Copy)]
pub enum ReprofilePolicy {
    /// Re-scan a chip once it has accumulated this many stress hours.
    Fixed {
        /// Stress-hour cadence between scans of the same chip.
        stress_hours: f64,
    },
    /// Re-scan at `fraction` of the plan's guaranteed-safe interval.
    /// Fractions at or below 1.0 mean no chip can drift past its
    /// guardband between scans; above 1.0 deliberately gambles.
    Adaptive {
        /// Multiplier on the safe interval (e.g. 0.5 = twice as often).
        fraction: f64,
    },
}

impl ReprofilePolicy {
    /// Panics if the policy is out of domain.
    pub fn validate(&self) {
        match *self {
            ReprofilePolicy::Fixed { stress_hours } => {
                assert!(stress_hours > 0.0, "cadence must be positive")
            }
            ReprofilePolicy::Adaptive { fraction } => {
                assert!(fraction > 0.0, "fraction must be positive")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_pvmodel::{DvfsConfig, VariationParams};

    fn setup() -> (Fleet, OperatingPlan) {
        let fleet = Fleet::generate(
            60,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            21,
        );
        let plan = OperatingPlan::oracle(&fleet);
        (fleet, plan)
    }

    #[test]
    fn fresh_profiles_are_safe() {
        let (fleet, plan) = setup();
        let r = analyse_staleness(&fleet, &plan, &AgingModel::default(), 0.0);
        assert_eq!(r.unsafe_chips, 0);
        // Oracle plan margin = exactly the scan guardband.
        assert!((r.worst_margin_v - SCAN_GUARDBAND_V).abs() < 1e-9);
    }

    #[test]
    fn stale_profiles_eventually_become_unsafe() {
        let (fleet, plan) = setup();
        let aging = AgingModel::default();
        let safe = safe_reprofile_interval_hours(&fleet, &plan, &aging);
        assert!(safe.is_finite() && safe > 0.0);
        // Just inside the safe window: everything still holds.
        let ok = analyse_staleness(&fleet, &plan, &aging, safe * 0.99);
        assert_eq!(ok.unsafe_chips, 0, "{ok:?}");
        // Well past it: chips start failing.
        let bad = analyse_staleness(&fleet, &plan, &aging, safe * 3.0);
        assert!(bad.unsafe_chips > 0, "{bad:?}");
        assert!(bad.worst_margin_v < 0.0);
    }

    #[test]
    fn margin_decreases_monotonically_with_age() {
        let (fleet, plan) = setup();
        let aging = AgingModel::default();
        let mut last = f64::INFINITY;
        for hours in [0.0, 1000.0, 3000.0, 10_000.0] {
            let r = analyse_staleness(&fleet, &plan, &aging, hours);
            assert!(r.worst_margin_v < last);
            last = r.worst_margin_v;
        }
    }

    #[test]
    fn binned_plans_tolerate_far_more_staleness() {
        // The conservative factory voltage buys aging headroom — exactly
        // the trade iScope makes the other way (efficiency now, periodic
        // re-scans to stay safe).
        let (fleet, _) = setup();
        let scan_plan = OperatingPlan::oracle(&fleet);
        let bin_plan = {
            let binning = iscope_pvmodel::Binning::by_efficiency(&fleet, 3);
            OperatingPlan::from_binning(&fleet, &binning)
        };
        let aging = AgingModel::default();
        let hours = 5000.0;
        let scan = analyse_staleness(&fleet, &scan_plan, &aging, hours);
        let bin = analyse_staleness(&fleet, &bin_plan, &aging, hours);
        assert!(bin.worst_margin_v > scan.worst_margin_v);
    }

    #[test]
    fn zero_drift_never_needs_reprofiling() {
        let (fleet, plan) = setup();
        let frozen = AgingModel {
            drift_v_per_kh: 0.0,
            ..AgingModel::default()
        };
        assert!(safe_reprofile_interval_hours(&fleet, &plan, &frozen).is_infinite());
    }

    #[test]
    fn reprofile_policy_resolves_cadence() {
        let (fleet, plan) = setup();
        let aging = AgingModel::default();
        let safe = safe_reprofile_interval_hours(&fleet, &plan, &aging);
        ReprofilePolicy::Fixed { stress_hours: 42.0 }.validate();
        let adaptive = ReprofilePolicy::Adaptive { fraction: 0.5 };
        adaptive.validate();
        let ReprofilePolicy::Adaptive { fraction } = adaptive else {
            unreachable!("built adaptive");
        };
        // A site re-scans at `fraction × safe` under an adaptive policy. At
        // or below the safe interval no chip can drift past its guardband
        // between scans.
        let r = analyse_staleness(&fleet, &plan, &aging, fraction * safe);
        assert_eq!(r.unsafe_chips, 0);
    }
}
