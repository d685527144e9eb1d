//! The scheduler's view of the processor pool at a decision instant.

use crate::index::ChipIndexes;
use iscope_dcsim::{SimDuration, SimTime};
use iscope_pvmodel::{ChipId, DvfsConfig, OperatingPlan};
use iscope_workload::Job;
use std::cell::RefCell;

/// Reusable candidate buffers a placement policy borrows for the span of
/// one decision, so the per-placement hot path allocates nothing once the
/// buffers have grown to fleet size. The owner (one per simulation)
/// threads a reference through every [`ProcView`]; policies take the
/// single interior borrow via [`PlaceScratch::borrow_mut`].
#[derive(Debug, Default)]
pub struct PlaceScratch {
    bufs: RefCell<ScratchBufs>,
}

/// The buffers themselves; fields are free for any use within one
/// placement call, no content survives between calls.
#[derive(Debug, Default)]
pub struct ScratchBufs {
    /// Candidate pool under (partial) preference ordering.
    pub pool: Vec<ChipId>,
    /// Bounded max-heap of the `n` earliest-available candidates seen so
    /// far in a widening walk, keyed by the packed `(clamped_avail, id)`
    /// integer (`millis << 24 | id` — one u64 comparison per candidate).
    pub top: Vec<u64>,
}

impl PlaceScratch {
    /// Borrows the buffers for one placement decision. Panics if the
    /// buffers are already borrowed — policies must not nest decisions.
    pub fn borrow_mut(&self) -> std::cell::RefMut<'_, ScratchBufs> {
        self.bufs.borrow_mut()
    }
}

/// Read-only snapshot handed to a placement policy.
///
/// `avail[chip]` is the scheduler's estimate of when the chip finishes its
/// queued work (its reservation horizon); `usage[chip]` is its cumulative
/// busy time so far (the lifetime-balancing signal of ScanFair). Stored
/// `avail` values may lag `now` for idle chips (their last drain time is
/// in the past); ordering and start estimates always clamp through
/// [`ProcView::clamped_avail`] / [`ProcView::est_start`].
pub struct ProcView<'a> {
    /// Current time.
    pub now: SimTime,
    /// Estimated earliest start per chip (unclamped; may lag `now`).
    pub avail: &'a [SimTime],
    /// Cumulative busy time per chip.
    pub usage: &'a [SimDuration],
    /// Applied voltages + power estimates under the active knowledge.
    pub plan: &'a OperatingPlan,
    /// Shared DVFS table.
    pub dvfs: &'a DvfsConfig,
    /// Chips currently out of service (e.g. isolated for in-situ
    /// profiling); empty slice means everything is in service.
    pub blocked: &'a [bool],
    /// Number of in-service chips, maintained by the owner at its
    /// block/unblock transitions so [`ProcView::available_count`] stops
    /// rescanning `blocked` on every placement.
    pub in_service: usize,
    /// Persistent chip indexes maintained by the simulator; `None`
    /// (standalone views that carry no indexes) takes the linear
    /// full-pool scans, which debug builds also run alongside every
    /// indexed decision as its cross-check.
    pub index: Option<&'a ChipIndexes>,
    /// Reusable candidate buffers (see [`PlaceScratch`]).
    pub scratch: &'a PlaceScratch,
}

impl ProcView<'_> {
    /// Number of processors.
    pub(crate) fn len(&self) -> usize {
        self.avail.len()
    }

    /// Whether a chip is out of service.
    pub fn is_blocked(&self, chip: ChipId) -> bool {
        self.blocked.get(chip.0 as usize).copied().unwrap_or(false)
    }

    /// Number of in-service processors. O(1): the owner maintains the
    /// count at its block/unblock transitions.
    pub fn available_count(&self) -> usize {
        debug_assert_eq!(
            self.in_service,
            if self.blocked.is_empty() {
                self.len()
            } else {
                self.blocked.iter().filter(|&&b| !b).count()
            },
            "in-service counter diverged from the blocked set"
        );
        self.in_service
    }

    /// A chip's earliest usable instant: its reservation horizon, clamped
    /// to `now` (idle chips' stored drain times may be in the past). The
    /// `(clamped_avail, id)` tuple is the ordering every earliest-
    /// available selection uses.
    pub fn clamped_avail(&self, chip: ChipId) -> SimTime {
        self.avail[chip.0 as usize].max(self.now)
    }

    /// Estimated start time if `chips` are reserved for a gang job now.
    pub fn est_start(&self, chips: &[ChipId]) -> SimTime {
        chips
            .iter()
            .map(|c| self.avail[c.0 as usize])
            .fold(self.now, SimTime::max)
    }

    /// Estimated completion of `job` on `chips` at full frequency.
    pub fn est_completion(&self, job: &Job, chips: &[ChipId]) -> SimTime {
        self.est_start(chips) + job.runtime_at_fmax
    }

    /// Whether running `job` on `chips` (at f_max, starting as soon as
    /// they free up) meets its deadline.
    pub fn meets_deadline(&self, job: &Job, chips: &[ChipId]) -> bool {
        self.est_completion(job, chips) <= job.deadline
    }
}
