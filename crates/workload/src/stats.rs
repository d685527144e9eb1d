//! Workload characterization: the summary statistics trace papers report
//! (and the calibration targets of the synthetic generator).

use crate::job::Workload;
use iscope_dcsim::stats::quantile_sorted;

/// Distribution summary of one workload.
#[derive(Debug, Clone)]
pub struct WorkloadStats {
    /// Number of jobs.
    pub jobs: usize,
    /// Total work in core-hours at the reference frequency.
    pub core_hours: f64,
    /// Runtime quantiles (seconds): p10 / median / p90 / max.
    pub runtime_quantiles_s: [f64; 4],
    /// CPU-request quantiles: p10 / median / p90 / max.
    pub cpus_quantiles: [f64; 4],
    /// Histogram of CPU requests by power-of-two bucket: `sizes[k]` counts
    /// jobs with `2^k` processors (non-powers land in the floor bucket).
    pub size_histogram: Vec<usize>,
    /// Mean deadline factor (deadline span over nominal runtime).
    pub mean_deadline_factor: f64,
    /// Fraction of high-urgency jobs.
    pub hu_fraction: f64,
    /// Submission span in hours.
    pub span_hours: f64,
}

impl WorkloadStats {
    /// Computes the summary (None for an empty workload).
    pub fn from_workload(w: &Workload) -> Option<WorkloadStats> {
        if w.is_empty() {
            return None;
        }
        let mut runtimes: Vec<f64> = w
            .jobs()
            .iter()
            .map(|j| j.runtime_at_fmax.as_secs_f64())
            .collect();
        // Total order instead of `partial_cmp(..).expect("finite")`: the
        // values here derive from integer millisecond/CPU counts today,
        // but a percentile summary must never be able to abort the
        // process — NaNs (if any ever appear) sort to the end.
        runtimes.sort_by(f64::total_cmp);
        let mut cpus: Vec<f64> = w.jobs().iter().map(|j| j.cpus as f64).collect();
        cpus.sort_by(f64::total_cmp);
        let q = |v: &[f64]| {
            [
                quantile_sorted(v, 0.10),
                quantile_sorted(v, 0.50),
                quantile_sorted(v, 0.90),
                quantile_sorted(v, 1.0),
            ]
        };
        let max_k = w
            .jobs()
            .iter()
            .map(|j| 31 - j.cpus.max(1).leading_zeros())
            .max()
            .unwrap_or(0) as usize;
        let mut size_histogram = vec![0usize; max_k + 1];
        for j in w.jobs() {
            size_histogram[(31 - j.cpus.max(1).leading_zeros()) as usize] += 1;
        }
        let mean_deadline_factor = w
            .jobs()
            .iter()
            .map(|j| {
                j.deadline.saturating_since(j.submit).as_secs_f64()
                    / j.runtime_at_fmax.as_secs_f64().max(1e-9)
            })
            .sum::<f64>()
            / w.len() as f64;
        Some(WorkloadStats {
            jobs: w.len(),
            core_hours: w.total_core_seconds() / 3600.0,
            runtime_quantiles_s: q(&runtimes),
            cpus_quantiles: q(&cpus),
            size_histogram,
            mean_deadline_factor,
            hu_fraction: w.hu_fraction(),
            span_hours: w
                .last_submit()
                .saturating_since(w.first_submit())
                .as_hours_f64(),
        })
    }

    /// Renders a one-paragraph characterization.
    pub fn render(&self) -> String {
        format!(
            "{} jobs over {:.1} h ({:.0} core-hours); runtimes p10/p50/p90/max = \
             {:.0}/{:.0}/{:.0}/{:.0} s; widths p10/p50/p90/max = {:.0}/{:.0}/{:.0}/{:.0} CPUs; \
             {:.0} % high-urgency, mean deadline factor {:.1}x",
            self.jobs,
            self.span_hours,
            self.core_hours,
            self.runtime_quantiles_s[0],
            self.runtime_quantiles_s[1],
            self.runtime_quantiles_s[2],
            self.runtime_quantiles_s[3],
            self.cpus_quantiles[0],
            self.cpus_quantiles[1],
            self.cpus_quantiles[2],
            self.cpus_quantiles[3],
            100.0 * self.hu_fraction,
            self.mean_deadline_factor,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shaping::Shaper;
    use crate::synthetic::SyntheticTrace;

    fn workload() -> Workload {
        let raw = SyntheticTrace::default().generate(3);
        Shaper::default().shape(&raw, 3)
    }

    #[test]
    fn summary_matches_direct_computation() {
        let w = workload();
        let s = WorkloadStats::from_workload(&w).unwrap();
        assert_eq!(s.jobs, w.len());
        assert!((s.core_hours - w.total_core_seconds() / 3600.0).abs() < 1e-9);
        assert!((s.hu_fraction - w.hu_fraction()).abs() < 1e-12);
        // Quantiles are ordered.
        assert!(s.runtime_quantiles_s.windows(2).all(|p| p[0] <= p[1]));
        assert!(s.cpus_quantiles.windows(2).all(|p| p[0] <= p[1]));
        // Histogram covers every job exactly once.
        assert_eq!(s.size_histogram.iter().sum::<usize>(), w.len());
    }

    #[test]
    fn deadline_factor_reflects_the_shaper_mix() {
        let w = workload(); // default: 25 % HU @ 4x, 75 % LU @ 12x => ~10x
        let s = WorkloadStats::from_workload(&w).unwrap();
        assert!(
            (8.0..12.0).contains(&s.mean_deadline_factor),
            "mean factor {}",
            s.mean_deadline_factor
        );
    }

    #[test]
    fn empty_workload_has_no_stats() {
        assert!(WorkloadStats::from_workload(&Workload::new(vec![])).is_none());
    }

    #[test]
    fn span_is_relative_to_the_first_submission() {
        use crate::job::{Job, JobId, Urgency};
        use iscope_dcsim::{SimDuration, SimTime};
        use iscope_pvmodel::CpuBoundness;
        // A PWA-style trace whose origin is far from t = 0: the span must
        // be last - first, not last - 0.
        let job = |id: u32, submit_h: u64| Job {
            id: JobId(id),
            submit: SimTime::ZERO + SimDuration::from_hours(submit_h),
            cpus: 4,
            runtime_at_fmax: SimDuration::from_secs(600),
            gamma: CpuBoundness::new(0.9),
            deadline: SimTime::ZERO + SimDuration::from_hours(submit_h + 2),
            urgency: Urgency::Low,
        };
        let w = Workload::new(vec![job(0, 1000), job(1, 1003)]);
        let s = WorkloadStats::from_workload(&w).unwrap();
        assert!((s.span_hours - 3.0).abs() < 1e-9, "span {}", s.span_hours);
    }

    #[test]
    fn render_is_human_readable() {
        let s = WorkloadStats::from_workload(&workload()).unwrap().render();
        assert!(s.contains("jobs over"));
        assert!(s.contains("core-hours"));
    }
}
