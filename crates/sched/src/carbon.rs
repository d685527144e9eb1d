//! Carbon- and price-aware scheduling policy.
//!
//! The utility mix's carbon intensity and spot price vary in time; jobs
//! with slack are temporally flexible. This policy trades that slack for
//! cleaner/cheaper energy, composing with any of the five base schemes
//! through two mechanisms:
//!
//! * **Deferral** — arrivals are held in the deferred pool (the wind
//!   `DeferralConfig` machinery) while the signal is above a threshold,
//!   with a deadline-pressure release valve: a job is only held while it
//!   can still wait one more check interval and meet its deadline with
//!   `slack_margin` to spare.
//! * **Suspend/resume** — running low-urgency gangs are checkpoint-free
//!   preempted (the PR 3 kill/requeue path, minus the fault bookkeeping)
//!   when the signal crosses a dirtier threshold, re-entering the queue
//!   after the retry policy's backoff. The attempt's energy is charged
//!   as waste, and a gang is only preempted while backoff + a fresh full
//!   run + `slack_margin` still fit before its deadline.
//!
//! All four thresholds are optional; a config with none set is inert —
//! the simulator treats it exactly like no config at all, so the
//! carbon-off bit-identity guarantee is structural.

use crate::recovery::RetryPolicy;
use iscope_dcsim::SimDuration;

/// Thresholds and timing for carbon/price-aware deferral and
/// suspend/resume.
#[derive(Debug, Clone, Copy)]
pub struct CarbonConfig {
    /// Hold flexible arrivals while intensity (gCO2/kWh) exceeds this.
    pub defer_intensity_above: Option<f64>,
    /// Hold flexible arrivals while utility price (USD/kWh) exceeds this.
    pub defer_price_above: Option<f64>,
    /// Preempt running flexible gangs while intensity exceeds this.
    pub suspend_intensity_above: Option<f64>,
    /// Preempt running flexible gangs while price exceeds this.
    pub suspend_price_above: Option<f64>,
    /// Deadline slack a held or preempted job must retain.
    pub slack_margin: SimDuration,
    /// Cadence of the carbon sample event that re-evaluates the signal.
    pub check_interval: SimDuration,
    /// Backoff schedule for suspended gangs (keyed on the gang's start
    /// count, like fault retries).
    pub retry: RetryPolicy,
}

impl Default for CarbonConfig {
    fn default() -> Self {
        CarbonConfig {
            defer_intensity_above: None,
            defer_price_above: None,
            suspend_intensity_above: None,
            suspend_price_above: None,
            slack_margin: SimDuration::from_mins(15),
            check_interval: SimDuration::from_mins(10),
            retry: RetryPolicy::default(),
        }
    }
}

impl CarbonConfig {
    /// A deferral-only policy holding arrivals above `gco2_per_kwh`.
    pub fn deferral(gco2_per_kwh: f64) -> Self {
        CarbonConfig {
            defer_intensity_above: Some(gco2_per_kwh),
            ..CarbonConfig::default()
        }
    }

    /// A suspend/resume policy preempting gangs above `gco2_per_kwh`.
    pub fn suspend_resume(gco2_per_kwh: f64) -> Self {
        CarbonConfig {
            suspend_intensity_above: Some(gco2_per_kwh),
            ..CarbonConfig::default()
        }
    }

    /// True if any threshold is set. An inactive config schedules no
    /// carbon sample events and changes nothing about a run.
    pub fn active(&self) -> bool {
        self.defer_intensity_above.is_some()
            || self.defer_price_above.is_some()
            || self.suspend_intensity_above.is_some()
            || self.suspend_price_above.is_some()
    }

    /// True if any deferral threshold is set.
    pub fn defers(&self) -> bool {
        self.defer_intensity_above.is_some() || self.defer_price_above.is_some()
    }

    /// True if any suspension threshold is set.
    pub fn suspends(&self) -> bool {
        self.suspend_intensity_above.is_some() || self.suspend_price_above.is_some()
    }

    /// Whether the current signal asks new flexible arrivals to wait.
    pub fn should_defer(&self, intensity: f64, price: f64) -> bool {
        above(self.defer_intensity_above, intensity) || above(self.defer_price_above, price)
    }

    /// Whether the current signal asks running flexible gangs to yield.
    pub fn should_suspend(&self, intensity: f64, price: f64) -> bool {
        above(self.suspend_intensity_above, intensity) || above(self.suspend_price_above, price)
    }

    /// Panics if the policy is out of domain.
    pub fn validate(&self) {
        if self.active() {
            assert!(
                !self.check_interval.is_zero(),
                "carbon check interval must be positive"
            );
        }
        for t in [
            self.defer_intensity_above,
            self.defer_price_above,
            self.suspend_intensity_above,
            self.suspend_price_above,
        ]
        .into_iter()
        .flatten()
        {
            assert!(t.is_finite() && t >= 0.0, "carbon threshold out of domain");
        }
        self.retry.validate();
    }
}

fn above(threshold: Option<f64>, signal: f64) -> bool {
    threshold.is_some_and(|t| signal > t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let c = CarbonConfig::default();
        assert!(!c.active() && !c.defers() && !c.suspends());
        assert!(!c.should_defer(1e9, 1e9));
        assert!(!c.should_suspend(1e9, 1e9));
        c.validate();
    }

    #[test]
    fn thresholds_gate_the_right_mechanism() {
        let d = CarbonConfig::deferral(400.0);
        assert!(d.active() && d.defers() && !d.suspends());
        assert!(d.should_defer(500.0, 0.0));
        assert!(!d.should_defer(400.0, 0.0), "strictly above");
        assert!(!d.should_suspend(500.0, 0.0));

        let s = CarbonConfig::suspend_resume(600.0);
        assert!(s.active() && !s.defers() && s.suspends());
        assert!(s.should_suspend(601.0, 0.0));
        assert!(!s.should_defer(601.0, 0.0));
    }

    #[test]
    fn price_thresholds_work_too() {
        let c = CarbonConfig {
            defer_price_above: Some(0.20),
            suspend_price_above: Some(0.40),
            ..CarbonConfig::default()
        };
        assert!(c.should_defer(0.0, 0.25));
        assert!(!c.should_defer(0.0, 0.15));
        assert!(c.should_suspend(0.0, 0.45));
        assert!(!c.should_suspend(0.0, 0.25));
        c.validate();
    }

    #[test]
    #[should_panic(expected = "threshold out of domain")]
    fn validate_rejects_negative_thresholds() {
        CarbonConfig::deferral(-1.0).validate();
    }

    #[test]
    #[should_panic(expected = "check interval")]
    fn validate_rejects_zero_cadence_when_active() {
        CarbonConfig {
            check_interval: SimDuration::ZERO,
            ..CarbonConfig::deferral(100.0)
        }
        .validate();
    }
}
