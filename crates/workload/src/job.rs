//! Job model: rigid parallel tasks with deadlines.
//!
//! Tasks arrive dynamically with a requested CPU count, CPU-boundness,
//! estimated execution time at a reference frequency, and a deadline
//! (§IV.A). The two urgency classes (§V.D) drive how tight the deadline is
//! relative to the nominal runtime.

use iscope_dcsim::{SimDuration, SimTime};
use iscope_pvmodel::CpuBoundness;

/// Identifier of a job within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct JobId(pub u32);

/// Deadline urgency class (§V.D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Urgency {
    /// High urgency: deadline factor ~ N(4, var 2) × nominal runtime.
    High,
    /// Low urgency: deadline factor ~ N(12, var 2) × nominal runtime.
    Low,
}

/// A rigid parallel job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Identifier.
    pub id: JobId,
    /// Submission instant.
    pub submit: SimTime,
    /// Number of CPUs (processors) requested; the job gang-schedules on
    /// exactly this many.
    pub cpus: u32,
    /// Execution time when all assigned CPUs run at f_max.
    pub runtime_at_fmax: SimDuration,
    /// CPU-boundness `gamma` of Eq-3.
    pub gamma: CpuBoundness,
    /// Completion deadline.
    pub deadline: SimTime,
    /// Urgency class the deadline was drawn from.
    pub urgency: Urgency,
}

impl Job {
    /// CPU-seconds of work at f_max (the job's "size").
    pub fn core_seconds(&self) -> f64 {
        self.cpus as f64 * self.runtime_at_fmax.as_secs_f64()
    }
}

/// An ordered collection of jobs (by submit time, ties by id).
#[derive(Debug, Clone, Default)]
pub struct Workload {
    jobs: Vec<Job>,
}

impl Workload {
    /// Builds a workload, sorting jobs by `(submit, id)`.
    pub fn new(mut jobs: Vec<Job>) -> Self {
        jobs.sort_by_key(|j| (j.submit, j.id));
        Workload { jobs }
    }

    /// The jobs in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Takes the jobs out, in submission order.
    pub fn into_jobs(self) -> Vec<Job> {
        self.jobs
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if there are no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Largest single-job CPU request (0 if empty).
    pub fn max_cpus(&self) -> u32 {
        self.jobs.iter().map(|j| j.cpus).max().unwrap_or(0)
    }

    /// Total CPU-seconds of work at f_max.
    pub fn total_core_seconds(&self) -> f64 {
        self.jobs.iter().map(|j| j.core_seconds()).sum()
    }

    /// Time of the first submission (t = 0 if empty). Real PWA traces
    /// rarely start at the origin, so span computations must use this
    /// rather than assuming submit times begin at zero.
    pub fn first_submit(&self) -> SimTime {
        self.jobs.first().map(|j| j.submit).unwrap_or(SimTime::ZERO)
    }

    /// Time of the last submission (t = 0 if empty).
    pub fn last_submit(&self) -> SimTime {
        self.jobs.last().map(|j| j.submit).unwrap_or(SimTime::ZERO)
    }

    /// Fraction of jobs in the high-urgency class.
    pub fn hu_fraction(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        let hu = self
            .jobs
            .iter()
            .filter(|j| j.urgency == Urgency::High)
            .count();
        hu as f64 / self.jobs.len() as f64
    }

    /// CPU demand per sampling interval assuming every job runs immediately
    /// on submission for its nominal runtime — the "required number of
    /// processors" trace of Fig. 10.
    pub fn demand_trace(&self, interval: SimDuration) -> Vec<f64> {
        assert!(!interval.is_zero());
        let end = self
            .jobs
            .iter()
            .map(|j| (j.submit + j.runtime_at_fmax).as_millis())
            .max()
            .unwrap_or(0);
        let n = (end / interval.as_millis() + 1) as usize;
        let mut demand = vec![0.0; n];
        for j in &self.jobs {
            let s = (j.submit.as_millis() / interval.as_millis()) as usize;
            let e = ((j.submit + j.runtime_at_fmax).as_millis() / interval.as_millis()) as usize;
            for slot in demand.iter_mut().take(e.min(n - 1) + 1).skip(s) {
                *slot += j.cpus as f64;
            }
        }
        demand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, submit_s: u64, cpus: u32, runtime_s: u64, deadline_s: u64) -> Job {
        Job {
            id: JobId(id),
            submit: SimTime::from_secs(submit_s),
            cpus,
            runtime_at_fmax: SimDuration::from_secs(runtime_s),
            gamma: CpuBoundness::FULL,
            deadline: SimTime::from_secs(deadline_s),
            urgency: Urgency::Low,
        }
    }

    #[test]
    fn workload_sorts_by_submit() {
        let w = Workload::new(vec![job(0, 50, 1, 10, 100), job(1, 10, 1, 10, 100)]);
        assert_eq!(w.jobs()[0].id, JobId(1));
        assert_eq!(w.jobs()[1].id, JobId(0));
        assert_eq!(w.last_submit(), SimTime::from_secs(50));
    }

    #[test]
    fn core_seconds_and_totals() {
        let w = Workload::new(vec![job(0, 0, 4, 100, 1000), job(1, 0, 2, 50, 1000)]);
        assert!((w.total_core_seconds() - 500.0).abs() < 1e-12);
        assert_eq!(w.max_cpus(), 4);
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn hu_fraction_counts_high_urgency() {
        let mut a = job(0, 0, 1, 1, 10);
        a.urgency = Urgency::High;
        let w = Workload::new(vec![
            a,
            job(1, 0, 1, 1, 10),
            job(2, 0, 1, 1, 10),
            job(3, 0, 1, 1, 10),
        ]);
        assert!((w.hu_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn demand_trace_superimposes_jobs() {
        // Job A: 4 cpus over [0, 120); Job B: 2 cpus over [60, 180).
        let w = Workload::new(vec![job(0, 0, 4, 120, 1000), job(1, 60, 2, 120, 1000)]);
        let d = w.demand_trace(SimDuration::from_mins(1));
        assert!(d[0] == 4.0);
        assert!(d[1] == 6.0);
        assert!(d[2] == 6.0); // boundary minute includes both
        assert!(d[3] == 2.0);
    }

    #[test]
    fn empty_workload_edge_cases() {
        let w = Workload::new(vec![]);
        assert!(w.is_empty());
        assert_eq!(w.max_cpus(), 0);
        assert_eq!(w.hu_fraction(), 0.0);
        assert_eq!(w.demand_trace(SimDuration::from_mins(1)), vec![0.0]);
    }
}
