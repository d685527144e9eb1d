//! The job table: one slot per admitted job, indexed by admission order.
//!
//! Events, queues, the running and deferred sets and snapshots all name a
//! job by that index. A live job's row is a heap box; a finished,
//! abandoned or migrated job gives its row back through
//! [`JobTable::retire`] and leaves an empty slot, so the table costs one
//! pointer per admitted job and a row per live one.

use super::JobState;
use std::ops::{Index, IndexMut};

#[derive(Default)]
pub(crate) struct JobTable {
    rows: Vec<Option<Box<JobState>>>,
}

impl JobTable {
    /// Enters `js` and returns its index.
    pub(crate) fn admit(&mut self, js: JobState) -> usize {
        self.push(Some(js))
    }

    /// Appends the slot of a restored job: its row, or `None` for one that
    /// had retired when the snapshot was taken.
    pub(super) fn push(&mut self, row: Option<JobState>) -> usize {
        self.rows.push(row.map(Box::new));
        self.rows.len() - 1
    }

    /// Takes job `idx`'s row out of the table; its slot stays empty.
    /// Panics if the job has already retired.
    pub(crate) fn retire(&mut self, idx: usize) -> JobState {
        *self.rows[idx].take().unwrap_or_else(|| retired(idx))
    }

    /// Job `idx`'s row, or `None` once it has retired or if it was never
    /// admitted. Events that may outlive their job read through this.
    pub(crate) fn get(&self, idx: usize) -> Option<&JobState> {
        self.rows.get(idx)?.as_deref()
    }

    /// Jobs entered so far, retired ones included.
    pub(crate) fn admitted(&self) -> usize {
        self.rows.len()
    }

    /// The live rows with their indexes, in admission order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &JobState)> {
        let rows = self.rows.iter().enumerate();
        rows.filter_map(|(i, row)| Some((i, row.as_deref()?)))
    }
}

impl Index<usize> for JobTable {
    type Output = JobState;

    fn index(&self, idx: usize) -> &JobState {
        self.rows[idx].as_deref().unwrap_or_else(|| retired(idx))
    }
}

impl IndexMut<usize> for JobTable {
    fn index_mut(&mut self, idx: usize) -> &mut JobState {
        self.rows[idx]
            .as_deref_mut()
            .unwrap_or_else(|| retired(idx))
    }
}

/// Live code never names a retired job: only events that may outlive
/// their job do, and they read through [`JobTable::get`].
fn retired(idx: usize) -> ! {
    panic!("job {idx} has retired")
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_dcsim::{SimDuration, SimTime};
    use iscope_pvmodel::{CpuBoundness, FreqLevel};
    use iscope_workload::{Job, JobId, Urgency};

    fn row(id: u32) -> JobState {
        JobState {
            job: Job {
                id: JobId(id),
                submit: SimTime::ZERO,
                cpus: 1,
                runtime_at_fmax: SimDuration::from_secs(60),
                gamma: CpuBoundness::FULL,
                deadline: SimTime::from_secs(600),
                urgency: Urgency::Low,
            },
            chips: Vec::new(),
            phase: super::super::Phase::Waiting,
            level: FreqLevel(0),
            remaining_nominal_s: 60.0,
            last_progress: SimTime::ZERO,
            started_at: SimTime::ZERO,
            gen: 0,
            sched_end: SimTime::ZERO,
            power_uw_at: Vec::new(),
            chain_limit: SimTime::MAX,
            starts: 0,
            attempt_energy_j: 0.0,
        }
    }

    #[test]
    fn a_retired_slot_keeps_its_index_and_drops_its_row() {
        let mut table = JobTable::default();
        let ids: Vec<usize> = (0..3).map(|i| table.admit(row(i))).collect();
        assert_eq!(ids, [0, 1, 2]);
        assert_eq!(table.retire(1).job.id, JobId(1));
        assert_eq!(table.admitted(), 3);
        assert!(table.get(1).is_none() && table.get(3).is_none());
        let live: Vec<(usize, u32)> = table.iter().map(|(i, js)| (i, js.job.id.0)).collect();
        assert_eq!(live, [(0, 0), (2, 2)]);
        assert_eq!(table.push(None), 3);
        assert_eq!(table[2].job.id, JobId(2));
    }

    #[test]
    #[should_panic(expected = "job 1 has retired")]
    fn indexing_a_retired_job_panics() {
        let mut table = JobTable::default();
        table.admit(row(0));
        table.admit(row(1));
        table.retire(1);
        let _ = &table[1];
    }
}
