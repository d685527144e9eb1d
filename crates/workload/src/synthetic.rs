//! Synthetic LLNL-Thunder-like trace generation.
//!
//! The paper evaluates on the LLNL Thunder log (4096-processor Linux
//! cluster) from the Parallel Workloads Archive. We cannot ship that file,
//! so this generator is calibrated to its published summary shape:
//!
//! * strongly diurnal submissions (busy working hours, quiet nights) —
//!   this is what produces the Fig. 10 profiling windows;
//! * power-of-two-ish processor requests dominated by small-to-medium
//!   jobs, with a thin tail of large ones;
//! * log-normal runtimes spanning minutes to hours.
//!
//! A real SWF file parsed with [`crate::swf`] can be used instead at any
//! time; both paths produce the same [`RawJob`] intermediate.

use crate::swf::SwfRecord;
use iscope_dcsim::{SimDuration, SimRng, SimTime};

/// A job before deadline/boundness shaping: what a trace file records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawJob {
    /// Submission instant.
    pub submit: SimTime,
    /// Requested processors.
    pub cpus: u32,
    /// Runtime at the reference (maximum) frequency.
    pub runtime: SimDuration,
}

/// Configuration of the synthetic trace generator.
#[derive(Debug, Clone)]
pub struct SyntheticTrace {
    /// Number of jobs to generate.
    pub num_jobs: usize,
    /// Length of the submission window.
    pub span: SimDuration,
    /// Relative amplitude of the diurnal submission intensity in `[0, 1)`.
    pub diurnal_amplitude: f64,
    /// Hour of day at which submissions peak.
    pub peak_hour: f64,
    /// Largest processor request to generate (power of two).
    pub max_cpus: u32,
    /// Geometric decay of the power-of-two size histogram in `(0, 1)`:
    /// P(2^(k+1)) = decay * P(2^k).
    pub size_decay: f64,
    /// Median runtime in seconds (log-normal location).
    pub runtime_median_s: f64,
    /// Log-normal sigma of the runtime distribution.
    pub runtime_sigma: f64,
    /// Runtime clamp range in seconds.
    pub runtime_clamp_s: (f64, f64),
}

impl Default for SyntheticTrace {
    /// Thunder-like defaults: one day of submissions, strongly diurnal,
    /// jobs up to 128 CPUs, minutes-to-hours runtimes.
    fn default() -> Self {
        SyntheticTrace {
            num_jobs: 1000,
            span: SimDuration::from_hours(24),
            diurnal_amplitude: 0.75,
            peak_hour: 14.0,
            max_cpus: 128,
            size_decay: 0.62,
            runtime_median_s: 600.0,
            runtime_sigma: 0.9,
            runtime_clamp_s: (30.0, 2.0 * 3600.0),
        }
    }
}

impl SyntheticTrace {
    /// Panics if the configuration is out of domain.
    pub fn validate(&self) {
        assert!(self.num_jobs > 0, "need at least one job");
        assert!(!self.span.is_zero());
        assert!((0.0..1.0).contains(&self.diurnal_amplitude));
        assert!(self.max_cpus >= 1);
        assert!((0.0..1.0).contains(&self.size_decay) || self.max_cpus == 1);
        assert!(self.runtime_median_s > 0.0 && self.runtime_sigma >= 0.0);
        assert!(0.0 < self.runtime_clamp_s.0 && self.runtime_clamp_s.0 <= self.runtime_clamp_s.1);
    }

    /// Generates the raw trace deterministically from `seed`, sorted by
    /// submit time.
    pub fn generate(&self, seed: u64) -> Vec<RawJob> {
        self.validate();
        let mut rng = SimRng::derive(seed, "synthetic-trace");
        let draws = self.draws();
        let mut jobs: Vec<RawJob> = (0..self.num_jobs)
            .map(|_| {
                let submit = self.sample_submit(&mut rng);
                let cpus = draws.cpus(&mut rng);
                let runtime = draws.runtime(&mut rng);
                RawJob {
                    submit,
                    cpus,
                    runtime,
                }
            })
            .collect();
        jobs.sort_by_key(|j| j.submit);
        jobs
    }

    /// Samples a submission instant from the diurnal intensity
    /// `lambda(h) = 1 + a cos(2 pi (h - peak)/24)` by rejection.
    fn sample_submit(&self, rng: &mut SimRng) -> SimTime {
        let span_ms = self.span.as_millis();
        loop {
            let t_ms = (rng.uniform() * span_ms as f64) as u64;
            let hour = (t_ms as f64 / 3_600_000.0) % 24.0;
            let phase = (hour - self.peak_hour) / 24.0 * std::f64::consts::TAU;
            let intensity = 1.0 + self.diurnal_amplitude * phase.cos();
            if rng.uniform() * (1.0 + self.diurnal_amplitude) < intensity {
                return SimTime::from_millis(t_ms);
            }
        }
    }

    /// The per-trace constants of the job-attribute draws.
    pub(crate) fn draws(&self) -> JobDraws {
        let max_k = (31 - self.max_cpus.leading_zeros()) as usize; // floor(log2)
        let size_weights: Vec<f64> = (0..=max_k)
            .map(|k| self.size_decay.powi(k as i32))
            .collect();
        JobDraws {
            size_total: size_weights.iter().sum(),
            size_weights,
            runtime_mu: self.runtime_median_s.ln(),
            runtime_sigma: self.runtime_sigma,
            runtime_clamp_s: self.runtime_clamp_s,
        }
    }
}

/// What a trace's per-job attribute draws share, computed once per trace:
/// every job draws its size and runtime from the same distributions.
#[derive(Debug, Clone)]
pub(crate) struct JobDraws {
    /// `size_decay^k`, the weight of a request of `2^k` processors.
    size_weights: Vec<f64>,
    size_total: f64,
    /// Log-normal location of the runtime, `ln(runtime_median_s)`.
    runtime_mu: f64,
    runtime_sigma: f64,
    runtime_clamp_s: (f64, f64),
}

impl JobDraws {
    /// Samples a power-of-two processor request with geometric decay.
    pub(crate) fn cpus(&self, rng: &mut SimRng) -> u32 {
        let mut u = rng.uniform() * self.size_total;
        for (k, w) in self.size_weights.iter().enumerate() {
            if u < *w {
                return 1 << k;
            }
            u -= w;
        }
        1 << (self.size_weights.len() - 1)
    }

    /// Samples a clamped log-normal runtime.
    pub(crate) fn runtime(&self, rng: &mut SimRng) -> SimDuration {
        let (lo, hi) = self.runtime_clamp_s;
        let secs = rng
            .lognormal(self.runtime_mu, self.runtime_sigma)
            .clamp(lo, hi);
        SimDuration::from_secs_f64(secs)
    }
}

/// Converts parsed SWF records into raw jobs, dropping unusable records
/// and rebasing submit times so the first job arrives at `t = 0`.
///
/// Records are stable-sorted by their *raw* submit seconds (file order
/// breaks ties) before the millisecond conversion. This is the canonical
/// order of an SWF trace: the streaming source
/// ([`crate::source::SwfSource`]) reproduces exactly this order within
/// its reorder horizon, so both ingestion paths shape identical jobs.
pub fn raw_jobs_from_swf(records: &[SwfRecord]) -> Vec<RawJob> {
    let mut usable: Vec<&SwfRecord> = records.iter().filter(|r| r.is_usable()).collect();
    let origin = usable
        .iter()
        .map(|r| r.submit_s)
        .fold(f64::INFINITY, f64::min);
    usable.sort_by(|a, b| a.submit_s.total_cmp(&b.submit_s));
    usable
        .iter()
        .map(|r| RawJob {
            submit: SimTime::from_secs_f64(r.submit_s - origin),
            cpus: r.procs().expect("usable records have procs"),
            runtime: SimDuration::from_secs_f64(r.run_s),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swf::parse_swf;

    #[test]
    fn generates_requested_count_sorted() {
        let cfg = SyntheticTrace::default();
        let jobs = cfg.generate(1);
        assert_eq!(jobs.len(), 1000);
        assert!(jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SyntheticTrace::default();
        assert_eq!(cfg.generate(7), cfg.generate(7));
        assert_ne!(cfg.generate(7), cfg.generate(8));
    }

    #[test]
    fn cpu_requests_are_powers_of_two_within_bounds() {
        let cfg = SyntheticTrace::default();
        for j in cfg.generate(3) {
            assert!(j.cpus.is_power_of_two(), "cpus = {}", j.cpus);
            assert!(j.cpus <= cfg.max_cpus);
        }
    }

    #[test]
    fn small_jobs_dominate() {
        let cfg = SyntheticTrace::default();
        let jobs = cfg.generate(5);
        let small = jobs.iter().filter(|j| j.cpus <= 8).count();
        assert!(
            small > jobs.len() / 2,
            "expected mostly small jobs, got {small}/{}",
            jobs.len()
        );
        // ...but the tail exists.
        assert!(jobs.iter().any(|j| j.cpus >= 64), "no large jobs generated");
    }

    #[test]
    fn runtimes_respect_clamps() {
        let cfg = SyntheticTrace::default();
        for j in cfg.generate(9) {
            let s = j.runtime.as_secs_f64();
            assert!((30.0..=2.0 * 3600.0).contains(&s), "runtime {s}");
        }
    }

    #[test]
    fn submissions_are_diurnal() {
        // Count submissions in the 6 hours around the peak vs the 6 hours
        // around the trough; the peak window must be clearly busier.
        let cfg = SyntheticTrace {
            num_jobs: 4000,
            ..SyntheticTrace::default()
        };
        let jobs = cfg.generate(11);
        let hour_of = |j: &RawJob| (j.submit.as_secs_f64() / 3600.0) % 24.0;
        let near = |h: f64, c: f64| {
            let d = (h - c).abs();
            d.min(24.0 - d) <= 3.0
        };
        let peak = jobs
            .iter()
            .filter(|j| near(hour_of(j), cfg.peak_hour))
            .count();
        let trough_hour = (cfg.peak_hour + 12.0) % 24.0;
        let trough = jobs
            .iter()
            .filter(|j| near(hour_of(j), trough_hour))
            .count();
        assert!(
            peak as f64 > 2.0 * trough as f64,
            "diurnal pattern too weak: peak {peak}, trough {trough}"
        );
    }

    #[test]
    fn swf_conversion_rebases_and_filters() {
        let swf = "\
1 100 0 600 64 -1 -1 64 3600 -1 1
2 160 0 0 8 -1 -1 8 600 -1 0
3 220 0 120 -1 -1 -1 4 600 -1 1
";
        let jobs = raw_jobs_from_swf(&parse_swf(swf).unwrap());
        assert_eq!(jobs.len(), 2, "zero-runtime record dropped");
        assert_eq!(jobs[0].submit, SimTime::ZERO, "rebased to origin");
        assert_eq!(jobs[1].submit, SimTime::from_secs(120));
        assert_eq!(jobs[1].cpus, 4);
    }

    /// FNV-1a over 64-bit words.
    fn fnv(words: impl Iterator<Item = u64>) -> u64 {
        words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
            (h ^ w).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The materialized trace and a streamed, shaped prefix keep their
    /// exact values and draw order: digests of both, one 64-bit word per
    /// field.
    #[test]
    fn synthetic_trace_is_pinned() {
        let wide = SyntheticTrace {
            num_jobs: 3000,
            max_cpus: 512,
            ..SyntheticTrace::default()
        };
        for (cfg, pin) in [
            (SyntheticTrace::default(), 16877444962507792348),
            (wide.clone(), 258995622610143858),
        ] {
            let raw = cfg.generate(42);
            let words = raw
                .iter()
                .flat_map(|j| [j.submit.as_millis(), j.cpus as u64, j.runtime.as_millis()]);
            assert_eq!(
                fnv(words),
                pin,
                "generate({} jobs up to {} CPUs)",
                cfg.num_jobs,
                cfg.max_cpus
            );
        }
        let mut src = crate::SyntheticSource::new(wide, crate::Shaper::default(), 42);
        let mut words = Vec::new();
        while let Some(j) = crate::JobSource::next_job(&mut src).unwrap() {
            let urgent = j.urgency == crate::Urgency::High;
            words.extend([
                j.id.0 as u64,
                j.submit.as_millis(),
                j.cpus as u64,
                j.runtime_at_fmax.as_millis(),
                j.gamma.value().to_bits(),
                j.deadline.as_millis(),
                urgent as u64,
            ]);
        }
        assert_eq!(words.len(), 3000 * 7);
        assert_eq!(
            fnv(words.into_iter()),
            17880759054545857617,
            "streamed source"
        );
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn validate_rejects_empty_config() {
        SyntheticTrace {
            num_jobs: 0,
            ..SyntheticTrace::default()
        }
        .validate();
    }
}
