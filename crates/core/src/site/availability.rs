//! When each chip frees up: the per-chip queues and usage, the drain-time
//! projection placement reads, the chain lengths behind each queue head
//! and the chip indexes over all of them (DESIGN.md §3d).

use super::checkpoint::check_live;
use super::{JobTable, Phase};
use crate::snapshot::{mismatch, SnapshotError};
use iscope_dcsim::{SimDuration, SimTime};
use iscope_pvmodel::{ChipId, DvfsConfig, OperatingPlan};
use iscope_sched::{validate_key_range, ChipIndexes, PlaceScratch, ProcView};
use std::collections::VecDeque;

pub(crate) struct Availability {
    /// Job indexes queued on each chip, head first; the head runs.
    pub(super) queues: Vec<VecDeque<usize>>,
    /// Busy time booked on each chip by ended attempts.
    pub(super) usage: Vec<SimDuration>,
    /// `avail[c]`: the absolute time chip `c` drains its queue under
    /// current knowledge (running jobs end at their scheduled completion,
    /// queued gangs at f_max behind them). Values may fall behind `now`
    /// for idle chips; the placement view clamps them.
    pub(super) avail: Vec<SimTime>,
    /// Set when a DVFS level change moved running jobs' completions, so
    /// every downstream projection in `avail` is stale until the next
    /// placement replays the queues.
    pub(super) avail_dirty: bool,
    /// Tournament-tree indexes over the `(usage, id)` and clamped
    /// `(avail, id)` orderings, kept in step with `avail` and `usage` in
    /// O(log F) per chip.
    chip_index: ChipIndexes,
    /// Reusable candidate buffers for the placement policies.
    place_scratch: PlaceScratch,
    /// `chain_len_ms[c]`: summed nominal runtimes (ms) of everything
    /// queued on chip `c` *behind* its head job: the O(1) chain-limit
    /// tightening in `enqueue` reads it.
    chain_len_ms: Vec<u64>,
    /// Chips with a non-empty queue, so the in-situ profiling check does
    /// not recount the fleet.
    pub(super) busy_queues: usize,
}

impl Availability {
    /// `n` idle chips, indexed along the plan's preference `ranking`.
    pub(super) fn new(n: usize, ranking: &[ChipId]) -> Availability {
        let mut chip_index = ChipIndexes::new(n);
        chip_index.set_ranking(ranking);
        Availability {
            queues: vec![VecDeque::new(); n],
            usage: vec![SimDuration::ZERO; n],
            avail: vec![SimTime::ZERO; n],
            avail_dirty: false,
            chip_index,
            place_scratch: PlaceScratch::default(),
            chain_len_ms: vec![0; n],
            busy_queues: 0,
        }
    }

    pub(super) fn is_idle(&self, ci: usize) -> bool {
        self.queues[ci].is_empty()
    }

    pub(super) fn busy_queues(&self) -> usize {
        debug_assert_eq!(
            self.busy_queues,
            self.queues.iter().filter(|q| !q.is_empty()).count(),
            "busy-queue counter diverged from the queues"
        );
        self.busy_queues
    }

    pub(super) fn usage(&self) -> &[SimDuration] {
        &self.usage
    }

    /// Whether job `idx` heads the queue of every chip in `chips`.
    pub(super) fn heads(&self, idx: usize, chips: &[ChipId]) -> bool {
        let at_head = |c: &ChipId| self.queues[c.0 as usize].front() == Some(&idx);
        chips.iter().all(at_head)
    }

    /// A scan moved a chip in the plan's preference ranking.
    pub(super) fn set_ranking(&mut self, ranking: &[ChipId]) {
        self.chip_index.set_ranking(ranking);
    }

    /// A running job's completion moved: every start projected behind
    /// it is stale.
    pub(super) fn invalidate(&mut self) {
        self.avail_dirty = true;
    }

    /// Ground truth for `avail`: replays the queues, running jobs ending
    /// at their scheduled completion (their *current* DVFS level) and
    /// queued gangs starting when all their chips are free and running at
    /// f_max. Waiting jobs are walked in the table's admission order,
    /// which is queue order only while placement follows arrival order;
    /// runs that retry or release held jobs replay on every placement
    /// instead.
    fn replay(&self, jobs: &JobTable, running: &[usize], now: SimTime) -> Vec<SimTime> {
        let mut avail = vec![now; self.avail.len()];
        for js in running.iter().map(|&i| &jobs[i]) {
            for &c in &js.chips {
                avail[c.0 as usize] = avail[c.0 as usize].max(js.sched_end);
            }
        }
        let waiting = jobs
            .iter()
            .map(|(_, js)| js)
            .filter(|js| js.phase == Phase::Waiting && !js.chips.is_empty());
        for js in waiting {
            let start = js.chips.iter().fold(now, |t, c| t.max(avail[c.0 as usize]));
            for &c in &js.chips {
                avail[c.0 as usize] = start + js.job.runtime_at_fmax;
            }
        }
        avail
    }

    /// Refreshes the projection before a placement: `incremental` runs
    /// replay only after a DVFS level change (debug builds check them
    /// against the replay), the others every time. A replay rewrites
    /// `avail` wholesale, so the indexes keyed on it re-record it; only
    /// the chips whose state changed move.
    pub(super) fn refresh(
        &mut self,
        jobs: &JobTable,
        running: &[usize],
        now: SimTime,
        incremental: bool,
    ) {
        if !incremental || std::mem::take(&mut self.avail_dirty) {
            self.avail = self.replay(jobs, running, now);
            let queues = &self.queues;
            self.chip_index
                .rebuild_avail(&self.avail, |i| !queues[i].is_empty());
        }
        #[cfg(debug_assertions)]
        if incremental {
            let clamped: Vec<SimTime> = self.avail.iter().map(|&t| t.max(now)).collect();
            debug_assert_eq!(
                clamped,
                self.replay(jobs, running, now),
                "incremental availability diverged from queue replay"
            );
        }
    }

    /// The placement policy's view of the pool at `now`.
    pub(super) fn view<'a>(
        &'a self,
        now: SimTime,
        (plan, dvfs): (&'a OperatingPlan, &'a DvfsConfig),
        blocked: &'a [bool],
        in_service: usize,
    ) -> ProcView<'a> {
        ProcView {
            now,
            avail: &self.avail,
            usage: &self.usage,
            plan,
            dvfs,
            blocked,
            in_service,
            index: Some(&self.chip_index),
            scratch: &self.place_scratch,
        }
    }

    /// Queues job `idx` on `chips`: it starts when the last of them
    /// drains (folding from `now` clamps stale idle-chip drain times like
    /// the view does) and holds all of them for its f_max runtime —
    /// exactly what the replay would derive.
    pub(super) fn enqueue(
        &mut self,
        idx: usize,
        chips: &[ChipId],
        jobs: &mut JobTable,
        now: SimTime,
    ) {
        let job = &jobs[idx].job;
        let start = chips
            .iter()
            .fold(now, |t, c| t.max(self.avail[c.0 as usize]));
        let (end, deadline) = (start + job.runtime_at_fmax, job.deadline);
        let runtime_ms = job.runtime_at_fmax.as_millis();
        for &c in chips {
            let ci = c.0 as usize;
            self.avail[ci] = end;
            self.chip_index.chip_busy(c, end);
            if let Some(&head) = self.queues[ci].front() {
                // The job lands behind an existing chain: extend it and
                // tighten the running head's cached successor bound in
                // O(1) — the constraint the queue walk would derive.
                self.chain_len_ms[ci] += runtime_ms;
                let head = &mut jobs[head];
                if head.phase == Phase::Running {
                    let chain = SimTime::ZERO + SimDuration::from_millis(self.chain_len_ms[ci]);
                    let limit = SimTime::ZERO + deadline.saturating_since(chain);
                    head.chain_limit = head.chain_limit.min(limit);
                }
            } else {
                self.busy_queues += 1;
            }
            self.queues[ci].push_back(idx);
        }
    }

    /// Job `idx` left `chips` after holding them for `busy`: books the
    /// busy time and pops the job off each queue, re-basing the chain
    /// length on the new head or marking the chip idle. Returns the new
    /// heads (the jobs that may start now).
    pub(super) fn release(
        &mut self,
        idx: usize,
        chips: &[ChipId],
        busy: SimDuration,
        jobs: &JobTable,
    ) -> Vec<usize> {
        let mut heads = Vec::with_capacity(chips.len());
        for &c in chips {
            let ci = c.0 as usize;
            self.usage[ci] += busy;
            self.chip_index.set_usage(c, self.usage[ci]);
            let q = &mut self.queues[ci];
            let head = q.pop_front();
            debug_assert_eq!(head, Some(idx), "released job was not at head");
            if let Some(&next) = q.front() {
                self.chain_len_ms[ci] -= jobs[next].job.runtime_at_fmax.as_millis();
                heads.push(next);
            } else {
                debug_assert_eq!(self.chain_len_ms[ci], 0, "drained queue with a chain");
                self.busy_queues -= 1;
                self.chip_index.chip_idle(c);
            }
        }
        heads
    }

    /// Ground truth for [`JobState::chain_limit`]: re-walks the job's
    /// queues. Successor k must start by (deadline_k − sum of nominal
    /// runtimes of the chain up to and including k).
    pub(super) fn chain_limit_replay(&self, idx: usize, jobs: &JobTable) -> SimTime {
        let mut limit = SimTime::MAX;
        for &c in &jobs[idx].chips {
            let mut chain = SimTime::ZERO;
            for sj in self.queues[c.0 as usize]
                .iter()
                .skip(1)
                .map(|&s| &jobs[s].job)
            {
                chain += sj.runtime_at_fmax;
                limit = limit.min(SimTime::ZERO + sj.deadline.saturating_since(chain));
            }
        }
        limit
    }

    /// A running job's cached successor bound; debug builds check it
    /// against the queue walk.
    pub(super) fn chain_limit(&self, idx: usize, jobs: &JobTable) -> SimTime {
        debug_assert_eq!(
            jobs[idx].chain_limit,
            self.chain_limit_replay(idx, jobs),
            "cached chain limit diverged from queue walk"
        );
        jobs[idx].chain_limit
    }

    /// Checks the restored queues, usage and projection against the fleet
    /// (which `ranking` covers) and the job table, rebuilds the chain
    /// lengths and the chip indexes from them, and cross-checks the
    /// stored busy-queue count.
    pub(super) fn restored(
        &mut self,
        jobs: &JobTable,
        ranking: &[ChipId],
    ) -> Result<(), SnapshotError> {
        let n = ranking.len();
        let lens = [self.queues.len(), self.usage.len(), self.avail.len()];
        for (what, len) in ["chip queues", "usage", "avail"].into_iter().zip(lens) {
            if len != n {
                mismatch!("{what} covers {len} chips, fleet has {n}");
            }
        }
        for &i in self.queues.iter().flatten() {
            check_live(jobs, "a chip queue", i)?;
        }
        let behind_head = |q: &VecDeque<usize>| {
            let mut runtimes = q.iter().skip(1).map(|&i| jobs[i].job.runtime_at_fmax);
            runtimes.try_fold(0u64, |sum, r| sum.checked_add(r.as_millis()))
        };
        let Some(chain_len_ms) = self
            .queues
            .iter()
            .map(behind_head)
            .collect::<Option<Vec<_>>>()
        else {
            mismatch!("a chip queue's runtime overflows u64 ms");
        };
        self.chain_len_ms = chain_len_ms;
        let busy = self.queues.iter().filter(|q| !q.is_empty()).count();
        if busy != self.busy_queues {
            mismatch!(
                "snapshot records {} busy queues but its queues hold {busy}",
                self.busy_queues
            );
        }
        // The indexes pack (ms, id) keys whose ranges debug builds
        // assert; a snapshot is outside input, so they are checked here.
        self.chip_index.set_ranking(ranking);
        for (ci, (usage, avail)) in self.usage.iter().zip(&self.avail).enumerate() {
            validate_key_range(usage.as_millis(), ci as u32)?;
            validate_key_range(avail.as_millis(), ci as u32)?;
            self.chip_index.set_usage(ChipId(ci as u32), *usage);
        }
        let queues = &self.queues;
        self.chip_index
            .rebuild_avail(&self.avail, |i| !queues[i].is_empty());
        Ok(())
    }
}

#[cfg(test)]
impl Availability {
    /// Moves chip `ci`'s projected drain time `by` later, behind the
    /// maintenance code's back (the cross-check tests corrupt it).
    pub(crate) fn delay_drain(&mut self, ci: usize, by: SimDuration) {
        self.avail[ci] += by;
    }
}
