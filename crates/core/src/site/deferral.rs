//! Jobs held back from placement: arrivals held while wind is short
//! (GreenSlot-style) or the utility signal is dirty, running gangs the
//! carbon policy suspends, and the release of both.

use super::checkpoint::check_live;
use super::{JobTable, SiteEv};
use crate::report::CarbonStats;
use crate::simulation::DeferralConfig;
use crate::snapshot::{section, Fields, Reader, Section, SnapshotError, Writer};
use iscope_dcsim::{SimDuration, SimTime};
use iscope_energy::Supply;
use iscope_sched::CarbonConfig;
use iscope_workload::{Job, Urgency};

/// The counters around an active [`CarbonConfig`].
pub(crate) struct CarbonState {
    config: CarbonConfig,
    /// Arrivals held because the signal was dirty.
    deferrals: u64,
    /// Running gangs preempted by the suspend threshold.
    suspensions: u64,
    /// Energy (J) burned by suspended attempts.
    wasted_j: f64,
}

section!(CarbonState, |c| {
    "deferrals" => c.deferrals,
    "suspensions" => c.suspensions,
    "wasted_j" => c.wasted_j,
});

pub(crate) struct Deferral {
    /// The wind deferral policy, when enabled.
    deferral: Option<DeferralConfig>,
    /// Arrivals held back, in arrival order.
    pub(super) deferred: Vec<usize>,
    /// `Some` only for a config with a threshold set, so an inert config
    /// leaves every carbon gate in its carbon-free form.
    pub(super) carbon: Option<CarbonState>,
}

impl Deferral {
    pub(super) fn new(deferral: Option<DeferralConfig>, carbon: Option<CarbonConfig>) -> Deferral {
        let carbon = carbon.filter(CarbonConfig::active).map(|config| {
            config.validate();
            let (deferrals, suspensions, wasted_j) = (0, 0, 0.0);
            CarbonState {
                config,
                deferrals,
                suspensions,
                wasted_j,
            }
        });
        let deferred = Vec::new();
        Deferral {
            deferral,
            deferred,
            carbon,
        }
    }

    /// Whether a policy here can place jobs out of arrival order or kill
    /// running attempts.
    pub(super) fn active(&self) -> bool {
        self.deferral.is_some() || self.carbon.is_some()
    }

    /// Whether the carbon policy preempts running gangs.
    pub(super) fn suspends(&self) -> bool {
        self.carbon.as_ref().is_some_and(|c| c.config.suspends())
    }

    /// The carbon check, when a carbon policy is active.
    pub(super) fn periodic(&self) -> Option<(SimDuration, SiteEv)> {
        self.carbon
            .as_ref()
            .map(|c| (c.config.check_interval, SiteEv::CarbonSample))
    }

    /// Whether the wind test (wind short of `demand_w`) and the carbon
    /// test (a flexible job, the signal over its threshold) hold job `j`
    /// back at `now`, each only while it can wait one more check interval
    /// and still finish `slack_margin` early.
    fn holds(&self, j: &Job, now: SimTime, supply: &Supply, demand_w: f64) -> (bool, bool) {
        let can_wait = |interval: SimDuration, slack_margin| {
            let latest = j
                .deadline
                .saturating_since(SimTime::ZERO + j.runtime_at_fmax + slack_margin);
            now + interval <= SimTime::ZERO + latest
        };
        let wind = self.deferral.is_some_and(|cfg| {
            if !supply.has_wind() || supply.wind_power_at(now) > demand_w {
                return false; // no wind to wait for, or enough of it now
            }
            let next_check = supply.wind_interval().unwrap_or(SimDuration::ZERO);
            can_wait(next_check, cfg.slack_margin)
        });
        let carbon = self.carbon.as_ref().is_some_and(|c| {
            let (cfg, signal) = (&c.config, (supply.intensity_at(now), supply.price_at(now)));
            cfg.defers()
                && j.urgency != Urgency::High
                && cfg.should_defer(signal.0, signal.1)
                && can_wait(cfg.check_interval, cfg.slack_margin)
        });
        (wind, carbon)
    }

    /// An arrival: holds job `idx` back if either test asks it to wait.
    /// Returns whether it was held.
    pub(super) fn hold(
        &mut self,
        idx: usize,
        j: &Job,
        now: SimTime,
        supply: &Supply,
        demand_w: f64,
    ) -> bool {
        let (wind, carbon) = self.holds(j, now, supply, demand_w);
        if let Some(c) = self.carbon.as_mut().filter(|_| carbon) {
            c.deferrals += 1;
        }
        if wind || carbon {
            self.deferred.push(idx);
        }
        wind || carbon
    }

    /// Takes the held jobs whose wait is over, in arrival order.
    pub(super) fn release(
        &mut self,
        now: SimTime,
        jobs: &JobTable,
        supply: &Supply,
        demand_w: f64,
    ) -> Vec<usize> {
        let pending = std::mem::take(&mut self.deferred);
        let held = |&i: &usize| self.holds(&jobs[i].job, now, supply, demand_w) != (false, false);
        let (still, released) = pending.into_iter().partition(held);
        self.deferred = still;
        released
    }

    /// The running gangs the carbon policy suspends at `now` (`None`
    /// without a carbon policy): while the signal is over the suspend
    /// threshold, the flexible jobs that can still take the backoff, a
    /// fresh full run and `slack_margin` before their deadline.
    pub(super) fn victims(
        &self,
        now: SimTime,
        supply: &Supply,
        running: &[usize],
        jobs: &JobTable,
    ) -> Option<Vec<usize>> {
        let cfg = &self.carbon.as_ref()?.config;
        if !(cfg.suspends() && cfg.should_suspend(supply.intensity_at(now), supply.price_at(now))) {
            return Some(Vec::new());
        }
        let fits = |&i: &usize| {
            let (j, delay) = (&jobs[i].job, cfg.retry.backoff(jobs[i].starts));
            j.urgency == Urgency::Low
                && now + delay + j.runtime_at_fmax + cfg.slack_margin <= j.deadline
        };
        Some(running.iter().copied().filter(fits).collect())
    }

    /// Books a suspension of a job's `starts`-th attempt, which burned
    /// `wasted` J; returns the backoff before it resumes.
    pub(super) fn suspended(&mut self, starts: u32, wasted: f64) -> SimDuration {
        let carbon = self
            .carbon
            .as_mut()
            .expect("suspension without a carbon policy");
        carbon.suspensions += 1;
        carbon.wasted_j += wasted;
        carbon.config.retry.backoff(starts)
    }

    pub(super) fn stats(&self) -> Option<CarbonStats> {
        self.carbon.as_ref().map(|c| CarbonStats {
            deferrals: c.deferrals,
            suspensions: c.suspensions,
            wasted_kwh: c.wasted_j / 3.6e6,
        })
    }

    /// Checks the restored pool against the job table.
    pub(super) fn check_restored(&self, jobs: &JobTable) -> Result<(), SnapshotError> {
        for &i in &self.deferred {
            check_live(jobs, "the deferred list", i)?;
        }
        Ok(())
    }
}
