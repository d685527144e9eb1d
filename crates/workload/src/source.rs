//! Streaming job ingestion: pull-based sources the simulation engine
//! drains as its clock advances, instead of materializing a whole trace
//! as one `Vec` up front (the ROADMAP's "Streaming-scale runs" item,
//! since done).
//!
//! A [`JobSource`] yields fully shaped [`Job`]s in non-decreasing submit
//! order, one at a time. The driver merges the source against its event
//! queue: whenever the next submission is not later than the next queued
//! event, the job is admitted and its arrival dispatched directly, so
//! arrivals win equal-time ties and a run of the same job sequence
//! processes the same events in the same order whichever source it
//! comes from.
//!
//! Three backends:
//!
//! * [`SwfSource`] — reads Standard Workload Format lines incrementally,
//!   tolerating the bounded submit-time reordering real Parallel
//!   Workloads Archive logs exhibit. Within a configurable **reorder
//!   horizon** records are stable-sorted by raw submit seconds (file
//!   order breaks ties) — the exact order [`crate::raw_jobs_from_swf`]
//!   produces — and a record arriving later than the horizon allows is a
//!   hard [`SwfError`], never a silent event-queue reorder. Memory is
//!   bounded by the number of records inside one horizon window.
//! * [`SyntheticSource`] — generates a diurnal synthetic trace directly
//!   in time order by thinning a Poisson process at the peak intensity,
//!   so arbitrarily long traces stream in O(1) memory. (The materialized
//!   [`SyntheticTrace`] draws per-job attributes
//!   first and sorts afterwards, which cannot stream; the thinning
//!   generator draws a *different* — equally valid — trace for the same
//!   seed.)
//! * [`WorkloadSource`] — serves an already materialized [`Workload`] in
//!   its submission order, so a job list and a stream take the same
//!   ingestion path.

use crate::job::{Job, Workload};
use crate::shaping::Shaper;
use crate::swf::{parse_swf_line, SwfError, SwfRecord};
use crate::synthetic::{JobDraws, RawJob, SyntheticTrace};
use iscope_dcsim::{SimDuration, SimRng, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// Error surfaced while pulling from a [`JobSource`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceError {
    /// The underlying SWF text was malformed or reordered beyond the
    /// source's horizon.
    Swf(SwfError),
}

impl std::fmt::Display for SourceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SourceError::Swf(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SourceError {}

impl From<SwfError> for SourceError {
    fn from(e: SwfError) -> Self {
        SourceError::Swf(e)
    }
}

/// A pull-based stream of shaped jobs in non-decreasing submit order.
///
/// `peek_submit` / `next_job` may perform I/O and can therefore fail;
/// both return the *shaped* (arrival-rate-compressed) submit instants.
/// Implementations must be deterministic: the same construction
/// parameters always yield the same job sequence, so a resumed run can
/// re-create the source and skip the first `n` jobs to land exactly
/// where a checkpointed run left off.
pub trait JobSource {
    /// Shaped submit instant of the next job, without consuming it.
    fn peek_submit(&mut self) -> Result<Option<SimTime>, SourceError>;

    /// Pulls the next job. Jobs carry consecutive ids in emission order.
    fn next_job(&mut self) -> Result<Option<Job>, SourceError>;

    /// Jobs emitted so far.
    fn emitted(&self) -> u64;

    /// Peak number of parsed-but-not-yet-emitted jobs ever buffered —
    /// the source's memory high-water mark, bounded by the reorder
    /// horizon (plus one job of lookahead).
    fn peak_buffered(&self) -> usize;
}

/// Streams an SWF trace: parse incrementally, reorder within a bounded
/// horizon, shape on emission. See the module docs for the ordering
/// contract.
pub struct SwfSource<I> {
    lines: I,
    line_no: usize,
    shaper: Shaper,
    rng: SimRng,
    /// Reorder tolerance in raw trace seconds.
    horizon_s: f64,
    /// Buffered usable records keyed by `(submit_s bits, insertion seq)`
    /// — for non-negative floats the bit pattern orders like the value,
    /// and the sequence number reproduces a stable sort's tie handling.
    buffer: BTreeMap<(u64, u64), SwfRecord>,
    seq: u64,
    /// Raw submit seconds of the first emitted record (the rebase origin).
    origin_s: Option<f64>,
    /// Raw submit seconds of the last emitted record: the stream's
    /// monotonicity watermark. A parsed record below it can no longer be
    /// placed in order and is a hard error.
    watermark_s: f64,
    exhausted: bool,
    emitted: u64,
    peak_buffered: usize,
}

impl<I: Iterator<Item = String>> SwfSource<I> {
    /// Creates a source over SWF lines with the given reorder horizon.
    ///
    /// `shaper`/`seed` mirror the materialized path's
    /// [`Shaper::shape`]`(raw_jobs_from_swf(..), seed)`: as long as the
    /// trace's out-of-orderness stays within `horizon`, the streamed
    /// jobs are bit-identical to the materialized ones.
    pub fn new(lines: I, horizon: SimDuration, shaper: Shaper, seed: u64) -> Self {
        shaper.validate();
        SwfSource {
            lines,
            line_no: 0,
            shaper,
            rng: SimRng::derive(seed, "shaper"),
            horizon_s: horizon.as_secs_f64(),
            buffer: BTreeMap::new(),
            seq: 0,
            origin_s: None,
            watermark_s: f64::NEG_INFINITY,
            exhausted: false,
            emitted: 0,
            peak_buffered: 0,
        }
    }

    /// Pulls lines until the buffer's front record is at least one
    /// horizon older than the newest parsed record (safe to emit), or
    /// the input ends.
    fn fill(&mut self) -> Result<(), SourceError> {
        while !self.exhausted {
            let front_s = self
                .buffer
                .keys()
                .next()
                .map(|&(bits, _)| f64::from_bits(bits));
            if let Some(front) = front_s {
                if let Some(&(newest_bits, _)) = self.buffer.keys().next_back() {
                    if f64::from_bits(newest_bits) - front >= self.horizon_s {
                        return Ok(());
                    }
                }
            }
            let Some(raw) = self.lines.next() else {
                self.exhausted = true;
                return Ok(());
            };
            self.line_no += 1;
            let Some(rec) = parse_swf_line(&raw, self.line_no)? else {
                continue;
            };
            if !rec.is_usable() {
                continue; // same silent filter as raw_jobs_from_swf
            }
            if rec.submit_s < self.watermark_s {
                return Err(SwfError {
                    line: self.line_no,
                    message: format!(
                        "submit time {} s precedes already-emitted {} s: record is out of \
                         order by more than the {} s reorder horizon",
                        rec.submit_s, self.watermark_s, self.horizon_s
                    ),
                }
                .into());
            }
            // submit_s >= 0 for usable records, so the bit pattern
            // preserves ordering.
            self.buffer.insert((rec.submit_s.to_bits(), self.seq), rec);
            self.seq += 1;
            self.peak_buffered = self.peak_buffered.max(self.buffer.len());
        }
        Ok(())
    }

    /// Shaped submit instant the front record will carry on emission.
    fn front_submit(&self) -> Option<SimTime> {
        let (&(bits, _), _) = self.buffer.iter().next()?;
        let submit_s = f64::from_bits(bits);
        let origin = self.origin_s.unwrap_or(submit_s);
        let raw_ms = SimTime::from_secs_f64(submit_s - origin).as_millis();
        Some(SimTime::from_millis(
            (raw_ms as f64 / self.shaper.arrival_rate).round() as u64,
        ))
    }
}

impl<I: Iterator<Item = String>> JobSource for SwfSource<I> {
    fn peek_submit(&mut self) -> Result<Option<SimTime>, SourceError> {
        self.fill()?;
        Ok(self.front_submit())
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        self.fill()?;
        let Some((&key, _)) = self.buffer.iter().next() else {
            return Ok(None);
        };
        let rec = self.buffer.remove(&key).expect("front key just observed");
        let origin = *self.origin_s.get_or_insert(rec.submit_s);
        self.watermark_s = rec.submit_s;
        let raw = RawJob {
            submit: SimTime::from_secs_f64(rec.submit_s - origin),
            cpus: rec.procs().expect("usable records have procs"),
            runtime: SimDuration::from_secs_f64(rec.run_s),
        };
        let job = self
            .shaper
            .shape_one(&raw, self.emitted as u32, &mut self.rng);
        self.emitted += 1;
        Ok(Some(job))
    }

    fn emitted(&self) -> u64 {
        self.emitted
    }

    fn peak_buffered(&self) -> usize {
        self.peak_buffered
    }
}

/// Streams a diurnal synthetic trace in submit order with O(1) memory.
///
/// Arrivals come from thinning a Poisson process at the peak diurnal
/// intensity: inter-arrival gaps are exponential at the maximum rate and
/// each candidate instant is accepted with probability
/// `intensity(t) / max intensity`, which yields an inhomogeneous Poisson
/// process with the same `1 + a·cos` intensity the materialized
/// generator rejection-samples — but emitted monotonically, so nothing
/// ever needs sorting. The base rate is calibrated so `num_jobs` land in
/// about `span` (the count is exact, the span approximate — the dual of
/// the materialized generator, whose span is exact and count-per-window
/// random).
pub struct SyntheticSource {
    cfg: SyntheticTrace,
    draws: JobDraws,
    shaper: Shaper,
    trace_rng: SimRng,
    shape_rng: SimRng,
    /// Current raw-trace clock in milliseconds.
    t_ms: f64,
    /// One shaped job of lookahead (`peek` needs the shaped submit).
    next: Option<Job>,
    emitted: u64,
}

impl SyntheticSource {
    /// Creates a streaming generator for `cfg.num_jobs` jobs.
    ///
    /// The RNG label differs from the materialized generator's: the two
    /// draw different traces for the same seed by construction (the
    /// materialized one interleaves per-job draws then sorts, which
    /// cannot stream).
    pub fn new(cfg: SyntheticTrace, shaper: Shaper, seed: u64) -> Self {
        cfg.validate();
        shaper.validate();
        let mut src = SyntheticSource {
            draws: cfg.draws(),
            cfg,
            shaper,
            trace_rng: SimRng::derive(seed, "streaming-synthetic-trace"),
            shape_rng: SimRng::derive(seed, "shaper"),
            t_ms: 0.0,
            next: None,
            emitted: 0,
        };
        src.next = src.generate();
        src
    }

    /// Draws the next arrival (thinning), then its attributes and shape.
    fn generate(&mut self) -> Option<Job> {
        if self.emitted + self.next.is_some() as u64 >= self.cfg.num_jobs as u64 {
            return None;
        }
        let span_ms = self.cfg.span.as_millis() as f64;
        let base_per_ms = self.cfg.num_jobs as f64 / span_ms;
        let max_per_ms = base_per_ms * (1.0 + self.cfg.diurnal_amplitude);
        loop {
            self.t_ms += self.trace_rng.exponential(max_per_ms);
            let hour = (self.t_ms / 3_600_000.0) % 24.0;
            let phase = (hour - self.cfg.peak_hour) / 24.0 * std::f64::consts::TAU;
            let intensity = base_per_ms * (1.0 + self.cfg.diurnal_amplitude * phase.cos());
            if self.trace_rng.uniform() * max_per_ms < intensity {
                break;
            }
        }
        let raw = RawJob {
            submit: SimTime::from_millis(self.t_ms as u64),
            cpus: self.draws.cpus(&mut self.trace_rng),
            runtime: self.draws.runtime(&mut self.trace_rng),
        };
        let id = self.emitted + self.next.is_some() as u64;
        Some(self.shaper.shape_one(&raw, id as u32, &mut self.shape_rng))
    }
}

impl JobSource for SyntheticSource {
    fn peek_submit(&mut self) -> Result<Option<SimTime>, SourceError> {
        Ok(self.next.as_ref().map(|j| j.submit))
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        let Some(job) = self.next.take() else {
            return Ok(None);
        };
        self.emitted += 1;
        self.next = self.generate();
        Ok(Some(job))
    }

    fn emitted(&self) -> u64 {
        self.emitted
    }

    fn peak_buffered(&self) -> usize {
        1
    }
}

/// A materialized [`Workload`] as a [`JobSource`]: its jobs in
/// submission order, which is already the order a source must emit.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSource {
    jobs: VecDeque<Job>,
    total: usize,
}

impl WorkloadSource {
    /// Serves `workload`'s jobs in submission order.
    pub fn new(workload: Workload) -> Self {
        let jobs = VecDeque::from(workload.into_jobs());
        let total = jobs.len();
        WorkloadSource { jobs, total }
    }
}

impl JobSource for WorkloadSource {
    fn peek_submit(&mut self) -> Result<Option<SimTime>, SourceError> {
        Ok(self.jobs.front().map(|j| j.submit))
    }

    fn next_job(&mut self) -> Result<Option<Job>, SourceError> {
        Ok(self.jobs.pop_front())
    }

    fn emitted(&self) -> u64 {
        (self.total - self.jobs.len()) as u64
    }

    /// The whole workload is held from the start.
    fn peak_buffered(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::swf::write_swf;
    use crate::synthetic::raw_jobs_from_swf;

    fn records(n: usize) -> Vec<SwfRecord> {
        (0..n)
            .map(|i| SwfRecord {
                job_number: i as u64 + 1,
                submit_s: (i as f64 * 90.0) + if i % 3 == 0 { 30.0 } else { 0.0 },
                wait_s: 0.0,
                run_s: 300.0 + (i % 7) as f64 * 60.0,
                allocated_procs: 1 << (i % 5),
                requested_procs: -1,
                requested_s: -1.0,
                status: 1,
            })
            .collect()
    }

    fn drain(src: &mut impl JobSource) -> Vec<Job> {
        let mut out = Vec::new();
        while let Some(j) = src.next_job().unwrap() {
            out.push(j);
        }
        out
    }

    #[test]
    fn swf_stream_matches_materialized_path_exactly() {
        let recs = records(200);
        let text = write_swf(&recs, "stream-test");
        let materialized = Shaper::default().shape(&raw_jobs_from_swf(&recs), 42);
        let mut src = SwfSource::new(
            text.lines().map(String::from),
            SimDuration::from_hours(1),
            Shaper::default(),
            42,
        );
        let streamed = drain(&mut src);
        assert_eq!(streamed.len(), materialized.len());
        for (s, m) in streamed.iter().zip(materialized.jobs()) {
            assert_eq!(s, m, "streamed job diverged from materialized job");
        }
    }

    #[test]
    fn swf_stream_reorders_within_horizon() {
        // Shuffle submits within a 10-minute window; a 1-hour horizon
        // must restore the canonical (submit, file-order) order.
        let mut recs = records(100);
        for chunk in recs.chunks_mut(5) {
            chunk.reverse();
        }
        let text = write_swf(&recs, "reorder-test");
        let materialized = Shaper::default().shape(&raw_jobs_from_swf(&recs), 7);
        let mut src = SwfSource::new(
            text.lines().map(String::from),
            SimDuration::from_hours(1),
            Shaper::default(),
            7,
        );
        let streamed = drain(&mut src);
        for (s, m) in streamed.iter().zip(materialized.jobs()) {
            assert_eq!(s, m);
        }
        assert!(src.peak_buffered() > 1, "reordering must have buffered");
    }

    #[test]
    fn swf_stream_errors_beyond_horizon() {
        let mut recs = records(100);
        // Move a late record before the start: unsortable under any
        // bounded horizon once earlier records were emitted.
        recs[80].submit_s = 0.0;
        let text = write_swf(&recs, "bad-order");
        let mut src = SwfSource::new(
            text.lines().map(String::from),
            SimDuration::from_secs(120),
            Shaper::default(),
            1,
        );
        let mut err = None;
        loop {
            match src.next_job() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let SourceError::Swf(e) = err.expect("out-of-horizon record must error");
        assert!(e.message.contains("reorder horizon"), "{e}");
    }

    #[test]
    fn swf_stream_peek_is_stable_and_matches_next() {
        let recs = records(30);
        let text = write_swf(&recs, "peek-test");
        let mut src = SwfSource::new(
            text.lines().map(String::from),
            SimDuration::from_hours(1),
            Shaper::default(),
            3,
        );
        while let Some(at) = src.peek_submit().unwrap() {
            assert_eq!(
                src.peek_submit().unwrap(),
                Some(at),
                "peek must not consume"
            );
            let job = src.next_job().unwrap().unwrap();
            assert_eq!(job.submit, at);
        }
        assert!(src.next_job().unwrap().is_none());
    }

    #[test]
    fn swf_stream_propagates_parse_errors() {
        let text = "1 0 0 600 4 -1 -1 4 900 -1 1\n1 NaN 0 600 4 -1 -1 4 900 -1 1\n";
        let mut src = SwfSource::new(
            text.lines().map(String::from),
            SimDuration::from_secs(60),
            Shaper::default(),
            1,
        );
        let mut saw_err = false;
        loop {
            match src.next_job() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(SourceError::Swf(e)) => {
                    assert_eq!(e.line, 2);
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err);
    }

    #[test]
    fn synthetic_stream_is_monotone_deterministic_and_counted() {
        let cfg = SyntheticTrace {
            num_jobs: 500,
            ..SyntheticTrace::default()
        };
        let mut a = SyntheticSource::new(cfg.clone(), Shaper::default(), 9);
        let mut b = SyntheticSource::new(cfg, Shaper::default(), 9);
        let ja = drain(&mut a);
        let jb = drain(&mut b);
        assert_eq!(ja.len(), 500);
        assert_eq!(ja, jb, "same seed must stream the same trace");
        assert!(ja.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert_eq!(a.emitted(), 500);
        assert_eq!(a.peak_buffered(), 1);
        // Ids are consecutive emission indices.
        assert!(ja.iter().enumerate().all(|(i, j)| j.id.0 == i as u32));
    }

    #[test]
    fn synthetic_stream_span_is_roughly_calibrated() {
        let cfg = SyntheticTrace {
            num_jobs: 2000,
            ..SyntheticTrace::default()
        };
        let span_h = cfg.span.as_hours_f64();
        let mut src = SyntheticSource::new(cfg, Shaper::default(), 4);
        let jobs = drain(&mut src);
        let last_h = jobs.last().unwrap().submit.as_secs_f64() / 3600.0;
        assert!(
            (0.5 * span_h..1.5 * span_h).contains(&last_h),
            "streamed span {last_h:.1} h far from configured {span_h:.1} h"
        );
    }

    #[test]
    fn skipping_n_jobs_replays_the_tail_exactly() {
        // The resume path re-creates a source and discards the first n
        // jobs; the tail must be identical to the original stream.
        let cfg = SyntheticTrace {
            num_jobs: 100,
            ..SyntheticTrace::default()
        };
        let mut full = SyntheticSource::new(cfg.clone(), Shaper::default(), 11);
        let all = drain(&mut full);
        let mut resumed = SyntheticSource::new(cfg, Shaper::default(), 11);
        for _ in 0..40 {
            resumed.next_job().unwrap().unwrap();
        }
        let tail = drain(&mut resumed);
        assert_eq!(tail, all[40..]);
    }

    #[test]
    fn workload_source_emits_the_workload_in_order() {
        let jobs = SyntheticTrace {
            num_jobs: 50,
            ..SyntheticTrace::default()
        }
        .generate(3);
        let workload = Shaper::default().shape(&jobs, 3);
        let mut src = WorkloadSource::new(workload.clone());
        assert_eq!(src.peek_submit().unwrap(), Some(workload.jobs()[0].submit));
        assert_eq!(drain(&mut src), workload.jobs());
        assert_eq!((src.emitted(), src.peak_buffered()), (50, 50));
        assert_eq!(src.peek_submit().unwrap(), None);
    }
}
