//! The running set, the fixed-point demand aggregates over the running
//! jobs' frozen power rows, and the DVFS matchers that choose their
//! levels against the renewable budget.

use super::checkpoint::check_live;
use super::{JobState, JobTable};
use crate::simulation::DvfsMode;
use crate::snapshot::{mismatch, SnapshotError};
use iscope_pvmodel::{microwatts_to_watts, DvfsConfig, FreqLevel};
use iscope_sched::{match_budget, DvfsCandidate};

/// A level change a rebalance applies: a running job and its new level.
type Move = (usize, FreqLevel);

/// What the running jobs draw, and at which levels they run.
pub(crate) struct Demand {
    /// Running job indexes, in start order.
    pub(super) running: Vec<usize>,
    /// How many running jobs sit at each DVFS level, so the global
    /// matcher proves "nothing changes level" in O(1).
    pub(super) running_at_level: Vec<usize>,
    /// `demand_uw_at_level[l]`: fleet demand (integer µW) if every running
    /// job sat at level `l` — the sum of the frozen `power_uw_at` rows over
    /// the running set. The global matcher's descent probes it in O(1).
    demand_uw_at_level: Vec<i64>,
    /// Fleet demand (integer µW) at the jobs' *current* levels (what the
    /// ledger actually charges, before cooling-free profiling overhead).
    running_demand_uw: i64,
    /// Total demand (W) as of the last refresh: the jobs plus the scans.
    pub(super) current_demand_w: f64,
    /// The level changes a rebalance applies, reused across invocations
    /// like `PlaceScratch`'s candidate buffers.
    level_scratch: Vec<Move>,
    dvfs_mode: DvfsMode,
}

impl Demand {
    pub(super) fn new(num_levels: usize, dvfs_mode: DvfsMode) -> Demand {
        Demand {
            running: Vec::new(),
            running_at_level: vec![0; num_levels],
            demand_uw_at_level: vec![0; num_levels],
            running_demand_uw: 0,
            current_demand_w: 0.0,
            level_scratch: Vec::new(),
            dvfs_mode,
        }
    }

    pub(crate) fn running(&self) -> &[usize] {
        &self.running
    }

    /// Total demand (W) as of the last refresh.
    pub(crate) fn demand_w(&self) -> f64 {
        self.current_demand_w
    }

    /// The aggregates as maintained, per level and at the current levels:
    /// what the auditor recounts.
    pub(super) fn aggregates(&self) -> (&[i64], i64) {
        (&self.demand_uw_at_level, self.running_demand_uw)
    }

    /// Job `idx` starts at level `top` with the frozen `row`.
    pub(super) fn start(&mut self, idx: usize, row: &[i64], top: FreqLevel) {
        for (sum, &uw) in self.demand_uw_at_level.iter_mut().zip(row) {
            *sum += uw;
        }
        self.running_demand_uw += row[top.0 as usize];
        self.running.push(idx);
        self.running_at_level[top.0 as usize] += 1;
    }

    /// Job `idx`, whose state is `js`, stops running.
    pub(super) fn stop(&mut self, idx: usize, js: &JobState) {
        for (sum, &uw) in self.demand_uw_at_level.iter_mut().zip(&js.power_uw_at) {
            *sum -= uw;
        }
        self.running_demand_uw -= js.power_uw_at[js.level.0 as usize];
        self.running_at_level[js.level.0 as usize] -= 1;
        let slot = self.running.iter().position(|&i| i == idx);
        self.running
            .remove(slot.expect("released job was not running"));
    }

    /// A running job, whose state before the change is `js`, moves to
    /// `level`.
    pub(super) fn move_level(&mut self, js: &JobState, level: FreqLevel) {
        let old = js.level.0 as usize;
        self.running_demand_uw += js.power_uw_at[level.0 as usize] - js.power_uw_at[old];
        self.running_at_level[old] -= 1;
        self.running_at_level[level.0 as usize] += 1;
    }

    /// Ground truth for the aggregates: the frozen rows summed at `level`
    /// or, for `None`, at each job's own (`None` on overflow).
    fn replay(&self, jobs: &JobTable, level: Option<usize>) -> Option<i64> {
        self.running.iter().try_fold(0i64, |sum, &i| {
            let js = &jobs[i];
            sum.checked_add(js.power_uw_at[level.unwrap_or(js.level.0 as usize)])
        })
    }

    /// Rebuilds both aggregates from the running jobs' rows after a
    /// restore; integer sums make that indistinguishable from upkeep.
    pub(crate) fn rebuild(&mut self, jobs: &JobTable) -> Result<(), SnapshotError> {
        let levels = self.demand_uw_at_level.len();
        let sums = (0..=levels).map(|l| self.replay(jobs, (l < levels).then_some(l)));
        let Some(mut sums) = sums.collect::<Option<Vec<i64>>>() else {
            mismatch!("running jobs' power overflows the demand aggregate");
        };
        self.running_demand_uw = sums.pop().unwrap_or(0);
        self.demand_uw_at_level = sums;
        Ok(())
    }

    /// Refreshes total demand: the job share is the incrementally
    /// maintained fixed-point aggregate — O(1) per event — converted to
    /// watts only here, at the ledger / sampler boundary; each scan bay's
    /// draw adds on top, in bay order.
    pub(super) fn refresh(&mut self, jobs: &JobTable, scans: impl Iterator<Item = f64>) -> f64 {
        debug_assert_eq!(
            Some(self.running_demand_uw),
            self.replay(jobs, None),
            "incremental running-demand aggregate diverged from replay"
        );
        let mut demand = microwatts_to_watts(self.running_demand_uw);
        for w in scans {
            demand += w;
        }
        self.current_demand_w = demand;
        demand
    }

    /// The level changes the matcher makes under `budget_uw`, no job
    /// going below its deadline `floor` (the buffer goes back through
    /// [`Demand::recycle`]). `GlobalLevel`, the paper's, takes the lowest
    /// fleet-wide level that fits the budget, clamped at the tightest
    /// floor; `PerJobGreedy` fits it job by job.
    pub(super) fn level_moves(
        &mut self,
        budget_uw: i64,
        dvfs: &DvfsConfig,
        jobs: &JobTable,
        floor: impl Fn(usize) -> FreqLevel,
    ) -> Vec<Move> {
        let mut moves = std::mem::take(&mut self.level_scratch);
        let top = dvfs.max_level();
        if self.dvfs_mode == DvfsMode::PerJobGreedy {
            let cand = |&i: &usize| DvfsCandidate {
                key: i,
                level: jobs[i].level,
                min_level: floor(i),
                power_uw_at: &jobs[i].power_uw_at,
            };
            let mut cands: Vec<_> = self.running.iter().map(cand).collect();
            moves.extend(match_budget(&mut cands, budget_uw, 0, top).changes);
            return moves;
        }
        let demand_at = |l: FreqLevel| {
            let uw = self.demand_uw_at_level[l.0 as usize];
            debug_assert_eq!(
                Some(uw),
                self.replay(jobs, Some(l.0 as usize)),
                "incremental per-level demand aggregate diverged from replay"
            );
            uw
        };
        let mut level = top;
        while demand_at(level) > budget_uw && level > dvfs.min_level() {
            level = level.down();
        }
        // Floors are level-independent, so one pass suffices, and it
        // stops once a floor reaches the top.
        let mut running = self.running.iter();
        while level < top {
            let Some(&i) = running.next() else { break };
            level = level.max(floor(i));
        }
        let at_level = |&&i: &&usize| jobs[i].level == level;
        debug_assert_eq!(
            self.running_at_level[level.0 as usize],
            self.running.iter().filter(at_level).count(),
            "running_at_level count diverged from the running set"
        );
        // The counts prove in O(1) when every job already sits at the
        // level: the steady state when the budget is abundant.
        if self.running_at_level[level.0 as usize] != self.running.len() {
            let off = self.running.iter().filter(|i| !at_level(i));
            moves.extend(off.map(|&i| (i, level)));
        }
        moves
    }

    /// Takes back the buffer [`Demand::level_moves`] returned.
    pub(super) fn recycle(&mut self, mut moves: Vec<Move>) {
        moves.clear();
        self.level_scratch = moves;
    }

    /// Checks the restored running set against the job table — each
    /// running job holds chips and `heads` their queues, `running_at_level`
    /// counts the running jobs at each level, and their power rows cover
    /// every level — and rebuilds the aggregates from it.
    pub(super) fn restored(
        &mut self,
        jobs: &JobTable,
        num_levels: usize,
        heads: impl Fn(usize, &JobState) -> bool,
    ) -> Result<(), SnapshotError> {
        let counts = &self.running_at_level;
        if counts.len() != num_levels {
            mismatch!(
                "running_at_level has {} entries, fleet has {num_levels} levels",
                counts.len()
            );
        }
        for &i in &self.running {
            check_live(jobs, "the running set", i)?;
        }
        let mut at_level = vec![0; num_levels];
        for &i in &self.running {
            let js = &jobs[i];
            if js.chips.is_empty() || !heads(i, js) {
                mismatch!("running job {i} does not head the queues of its chips");
            }
            at_level[js.level.0 as usize] += 1;
        }
        if at_level != *counts {
            mismatch!(
                "running_at_level {counts:?} disagrees with the running jobs' levels {at_level:?}"
            );
        }
        for &i in &self.running {
            let levels = jobs[i].power_uw_at.len();
            if levels != num_levels {
                mismatch!("running job {i} has {levels} power levels, fleet has {num_levels}");
            }
        }
        self.rebuild(jobs)
    }
}

#[cfg(test)]
impl Demand {
    /// Adds `uw` to the running-demand aggregate behind the maintenance
    /// code's back (the cross-check tests corrupt it).
    pub(crate) fn skew_running_demand(&mut self, uw: i64) {
        self.running_demand_uw += uw;
    }
}
