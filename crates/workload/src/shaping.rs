//! Workload shaping: urgency classes, deadlines, CPU-boundness, and the
//! arrival-rate knob (§V.D).
//!
//! Deadlines follow Garg et al.'s two urgency classes: the deadline factor
//! (deadline = submit + factor × nominal runtime) is drawn from
//! `N(4, var 2)` for high-urgency (HU) jobs and `N(12, var 2)` for
//! low-urgency (LU) jobs. The arrival-rate knob compresses submit times:
//! "an arrival rate of 5X indicates the adjusted task submit time is 20 %
//! of the origin setting".

use crate::job::{Job, JobId, Urgency, Workload};
use crate::synthetic::RawJob;
use iscope_dcsim::SimRng;
use iscope_pvmodel::CpuBoundness;

/// Parameters turning a raw trace into a deadline-annotated [`Workload`].
#[derive(Debug, Clone)]
pub struct Shaper {
    /// Fraction of jobs assigned to the high-urgency class, in `\[0, 1\]`.
    pub hu_fraction: f64,
    /// Arrival-rate multiplier: submit times are divided by this (5.0 ⇒
    /// submits at 20 % of their original instants).
    pub arrival_rate: f64,
    /// HU deadline factor mean (paper: 4 × nominal runtime).
    pub hu_factor_mean: f64,
    /// LU deadline factor mean (paper: 12 × nominal runtime).
    pub lu_factor_mean: f64,
    /// Variance of both deadline-factor distributions (paper: 2).
    pub factor_variance: f64,
    /// Minimum deadline factor (a deadline can never precede the nominal
    /// completion; clamped slightly above 1).
    pub factor_floor: f64,
    /// Mean CPU-boundness `gamma` (HPC batch jobs are strongly CPU-bound).
    pub gamma_mean: f64,
    /// Standard deviation of `gamma`.
    pub gamma_sd: f64,
    /// Clamp range for `gamma`.
    pub gamma_clamp: (f64, f64),
}

impl Default for Shaper {
    fn default() -> Self {
        Shaper {
            hu_fraction: 0.25,
            arrival_rate: 1.0,
            hu_factor_mean: 4.0,
            lu_factor_mean: 12.0,
            factor_variance: 2.0,
            factor_floor: 1.1,
            gamma_mean: 0.85,
            gamma_sd: 0.1,
            gamma_clamp: (0.3, 1.0),
        }
    }
}

impl Shaper {
    /// Panics if parameters are out of domain.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.hu_fraction));
        assert!(self.arrival_rate > 0.0);
        assert!(self.hu_factor_mean > 1.0 && self.lu_factor_mean > 1.0);
        assert!(self.factor_variance >= 0.0);
        assert!(self.factor_floor >= 1.0);
        assert!((0.0..=1.0).contains(&self.gamma_mean));
        assert!(self.gamma_sd >= 0.0);
        assert!(self.gamma_clamp.0 <= self.gamma_clamp.1);
    }

    /// Sets the HU fraction (builder style).
    pub fn with_hu_fraction(mut self, f: f64) -> Self {
        self.hu_fraction = f;
        self
    }

    /// Sets the arrival-rate multiplier (builder style).
    pub fn with_arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate = rate;
        self
    }

    /// Shapes raw jobs into a full workload, deterministically from `seed`.
    ///
    /// Submit times are compressed by the arrival rate *first*, then
    /// deadlines are assigned relative to the compressed submits.
    pub fn shape(&self, raw: &[RawJob], seed: u64) -> Workload {
        self.validate();
        let mut rng = SimRng::derive(seed, "shaper");
        let jobs: Vec<Job> = raw
            .iter()
            .enumerate()
            .map(|(i, r)| self.shape_one(r, i as u32, &mut rng))
            .collect();
        Workload::new(jobs)
    }

    /// Shapes one raw job, consuming exactly the draws [`Shaper::shape`]
    /// consumes for it (urgency, deadline factor, gamma — in that order).
    ///
    /// This is the unit both ingestion paths share: `shape` folds it over
    /// a materialized trace, the streaming sources
    /// ([`crate::source::JobSource`] impls) call it per job as the trace
    /// is pulled. A streaming source that feeds raw jobs in the same
    /// order as the materialized trace therefore produces bit-identical
    /// [`Job`]s.
    pub fn shape_one(&self, r: &RawJob, id: u32, rng: &mut SimRng) -> Job {
        let sd = self.factor_variance.sqrt();
        let submit = iscope_dcsim::SimTime::from_millis(
            (r.submit.as_millis() as f64 / self.arrival_rate).round() as u64,
        );
        let urgency = if rng.chance(self.hu_fraction) {
            Urgency::High
        } else {
            Urgency::Low
        };
        let mean = match urgency {
            Urgency::High => self.hu_factor_mean,
            Urgency::Low => self.lu_factor_mean,
        };
        let factor = rng.normal(mean, sd).max(self.factor_floor);
        let deadline = submit + r.runtime.mul_f64(factor);
        let gamma = CpuBoundness::new(rng.normal_clamped(
            self.gamma_mean,
            self.gamma_sd,
            self.gamma_clamp.0,
            self.gamma_clamp.1,
        ));
        Job {
            id: JobId(id),
            submit,
            cpus: r.cpus,
            runtime_at_fmax: r.runtime,
            gamma,
            deadline,
            urgency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_dcsim::{SimDuration, SimTime};

    fn raw(n: usize) -> Vec<RawJob> {
        (0..n)
            .map(|i| RawJob {
                submit: SimTime::from_secs(i as u64 * 100),
                cpus: 4,
                runtime: SimDuration::from_secs(600),
            })
            .collect()
    }

    #[test]
    fn deadlines_never_precede_nominal_completion() {
        let w = Shaper::default().shape(&raw(500), 3);
        for j in w.jobs() {
            assert!(j.deadline >= j.submit + j.runtime_at_fmax);
        }
    }

    #[test]
    fn hu_fraction_is_respected_in_aggregate() {
        let w = Shaper::default().with_hu_fraction(0.4).shape(&raw(5000), 5);
        assert!(
            (w.hu_fraction() - 0.4).abs() < 0.03,
            "got {}",
            w.hu_fraction()
        );
        let all_lu = Shaper::default().with_hu_fraction(0.0).shape(&raw(100), 5);
        assert_eq!(all_lu.hu_fraction(), 0.0);
        let all_hu = Shaper::default().with_hu_fraction(1.0).shape(&raw(100), 5);
        assert!((all_hu.hu_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deadline_factors_match_urgency_means() {
        let w = Shaper::default().with_hu_fraction(0.5).shape(&raw(8000), 7);
        let mut hu = Vec::new();
        let mut lu = Vec::new();
        for j in w.jobs() {
            let factor = j.deadline.saturating_since(j.submit).as_secs_f64()
                / j.runtime_at_fmax.as_secs_f64();
            match j.urgency {
                Urgency::High => hu.push(factor),
                Urgency::Low => lu.push(factor),
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!((mean(&hu) - 4.0).abs() < 0.15, "HU mean {}", mean(&hu));
        assert!((mean(&lu) - 12.0).abs() < 0.15, "LU mean {}", mean(&lu));
        // HU deadlines are systematically tighter.
        assert!(mean(&hu) < mean(&lu));
    }

    #[test]
    fn arrival_rate_compresses_submits() {
        // Rate 5X: submit times at 20 % of the original (paper §V.D).
        let base = Shaper::default().shape(&raw(50), 9);
        let fast = Shaper::default().with_arrival_rate(5.0).shape(&raw(50), 9);
        assert_eq!(
            fast.last_submit().as_millis(),
            base.last_submit().as_millis() / 5
        );
    }

    #[test]
    fn gamma_respects_clamp() {
        let w = Shaper::default().shape(&raw(2000), 11);
        for j in w.jobs() {
            let g = j.gamma.value();
            assert!((0.3..=1.0).contains(&g), "gamma {g}");
        }
    }

    #[test]
    fn shaping_is_deterministic() {
        let a = Shaper::default().shape(&raw(100), 13);
        let b = Shaper::default().shape(&raw(100), 13);
        for (x, y) in a.jobs().iter().zip(b.jobs()) {
            assert_eq!(x.deadline, y.deadline);
            assert_eq!(x.urgency, y.urgency);
        }
    }

    #[test]
    fn rate_scaling_preserves_job_count_and_sizes() {
        let w = Shaper::default()
            .with_arrival_rate(3.0)
            .shape(&raw(100), 15);
        assert_eq!(w.len(), 100);
        assert!(w.jobs().iter().all(|j| j.cpus == 4));
        assert!(w
            .jobs()
            .iter()
            .all(|j| j.runtime_at_fmax == SimDuration::from_secs(600)));
    }
}
