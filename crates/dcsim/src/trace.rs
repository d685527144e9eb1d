//! Time-series recording: fixed-interval sampling of piecewise-constant
//! signals, used to regenerate the paper's power-trace figures (Fig. 7) and
//! the required-node trace (Fig. 10).

use crate::time::{SimDuration, SimTime};

/// A named series of `(time, value)` samples at a fixed interval.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    /// Series label (e.g. `"wind"` or `"utility"`).
    pub name: String,
    /// Sampling interval.
    pub interval: SimDuration,
    /// Sample values; sample `i` is the signal value at `i * interval`.
    pub values: Vec<f64>,
}

impl TimeSeries {
    /// Timestamp of sample `i`.
    pub fn time_of(&self, i: usize) -> SimTime {
        SimTime::from_millis(self.interval.as_millis() * i as u64)
    }

    /// Iterator over `(seconds, value)` pairs.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &v)| (self.time_of(i).as_secs_f64(), v))
    }

    /// Fraction of samples strictly below `threshold`.
    pub fn fraction_below(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.iter().filter(|&&v| v < threshold).count();
        n as f64 / self.values.len() as f64
    }

    /// Lengths (in samples) of the maximal runs of consecutive samples
    /// strictly below `threshold` — used to show that profiling windows are
    /// contiguous, not scattered (paper §VI.E).
    pub fn runs_below(&self, threshold: f64) -> Vec<usize> {
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for &v in &self.values {
            if v < threshold {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        runs
    }
}

/// Samples a piecewise-constant signal at a fixed interval.
///
/// Feed signal changes with [`Sampler::record`] in non-decreasing time
/// order; the sampler emits one value per interval tick (sample-and-hold of
/// the value active at the tick instant).
#[derive(Debug, Clone)]
pub struct Sampler {
    name: String,
    interval: SimDuration,
    next_tick: SimTime,
    current: f64,
    values: Vec<f64>,
}

impl Sampler {
    /// Creates a sampler emitting one sample per `interval`, starting at
    /// t = 0 with an initial signal value of `initial`.
    pub fn new(name: impl Into<String>, interval: SimDuration, initial: f64) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        Sampler {
            name: name.into(),
            interval,
            next_tick: SimTime::ZERO,
            current: initial,
            values: Vec::new(),
        }
    }

    /// Records that the signal takes value `value` from instant `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        self.emit_until(at);
        self.current = value;
    }

    /// Emits all ticks up to and including `at` (exclusive of changes at
    /// `at` itself: a change exactly on a tick is visible from that tick).
    fn emit_until(&mut self, at: SimTime) {
        while self.next_tick < at {
            self.values.push(self.current);
            self.next_tick += self.interval;
        }
    }

    /// Finalizes the series, emitting ticks up to `end` inclusive.
    pub fn finish(mut self, end: SimTime) -> TimeSeries {
        while self.next_tick <= end {
            self.values.push(self.current);
            self.next_tick += self.interval;
        }
        TimeSeries {
            name: self.name,
            interval: self.interval,
            values: self.values,
        }
    }

    /// Value currently held.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// Captured state for checkpointing: `(name, interval, next tick,
    /// held value, emitted samples)`.
    pub fn parts(&self) -> (&str, SimDuration, SimTime, f64, &[f64]) {
        (
            &self.name,
            self.interval,
            self.next_tick,
            self.current,
            &self.values,
        )
    }

    /// Rebuilds a sampler mid-stream from captured state (restore path).
    pub fn from_parts(
        name: impl Into<String>,
        interval: SimDuration,
        next_tick: SimTime,
        current: f64,
        values: Vec<f64>,
    ) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        Sampler {
            name: name.into(),
            interval,
            next_tick,
            current,
            values,
        }
    }
}

/// Samples several piecewise-constant signals at one shared fixed interval.
///
/// The multi-channel counterpart of [`Sampler`]: every tick emits one row
/// holding the value of every channel at that instant, so the channels stay
/// aligned without running (and synchronizing) one sampler per signal. Like
/// [`Sampler`], it is purely passive sample-and-hold — it schedules no
/// events and never perturbs the simulation it observes.
#[derive(Debug, Clone)]
pub struct RowSampler {
    interval: SimDuration,
    next_tick: SimTime,
    current: Vec<f64>,
    rows: Vec<(SimTime, Vec<f64>)>,
}

impl RowSampler {
    /// Creates a sampler with `channels` signals, all starting at
    /// `initial`, emitting one row per `interval` from t = 0.
    pub fn new(interval: SimDuration, channels: usize, initial: f64) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        assert!(channels > 0, "row sampler needs at least one channel");
        RowSampler {
            interval,
            next_tick: SimTime::ZERO,
            current: vec![initial; channels],
            rows: Vec::new(),
        }
    }

    /// Records that the channels take `values` from instant `at` onward.
    ///
    /// `values` must carry one entry per channel; instants must be
    /// non-decreasing. A change exactly on a tick is visible at that tick
    /// (same convention as [`Sampler::record`]).
    pub fn record(&mut self, at: SimTime, values: &[f64]) {
        assert_eq!(values.len(), self.current.len(), "channel count mismatch");
        self.emit_until(at);
        self.current.copy_from_slice(values);
    }

    fn emit_until(&mut self, at: SimTime) {
        while self.next_tick < at {
            self.rows.push((self.next_tick, self.current.clone()));
            self.next_tick += self.interval;
        }
    }

    /// Finalizes the series, emitting ticks up to `end` inclusive, and
    /// returns the `(tick instant, channel values)` rows.
    pub fn finish(mut self, end: SimTime) -> Vec<(SimTime, Vec<f64>)> {
        while self.next_tick <= end {
            self.rows.push((self.next_tick, self.current.clone()));
            self.next_tick += self.interval;
        }
        self.rows
    }

    /// Values currently held.
    pub fn current(&self) -> &[f64] {
        &self.current
    }

    /// Captured state for checkpointing: `(interval, next tick, held
    /// values, emitted rows)`.
    #[allow(clippy::type_complexity)]
    pub fn parts(&self) -> (SimDuration, SimTime, &[f64], &[(SimTime, Vec<f64>)]) {
        (self.interval, self.next_tick, &self.current, &self.rows)
    }

    /// Rebuilds a sampler mid-stream from captured state (restore path).
    pub fn from_parts(
        interval: SimDuration,
        next_tick: SimTime,
        current: Vec<f64>,
        rows: Vec<(SimTime, Vec<f64>)>,
    ) -> Self {
        assert!(!interval.is_zero(), "sampling interval must be positive");
        assert!(
            !current.is_empty(),
            "row sampler needs at least one channel"
        );
        RowSampler {
            interval,
            next_tick,
            current,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn sample_and_hold() {
        let mut s = Sampler::new("p", SimDuration::from_secs(10), 0.0);
        s.record(secs(5), 100.0); // active from t=5
        s.record(secs(25), 50.0); // active from t=25
        let ts = s.finish(secs(40));
        // Ticks at 0,10,20,30,40: values 0,100,100,50,50.
        assert_eq!(ts.values, vec![0.0, 100.0, 100.0, 50.0, 50.0]);
        assert_eq!(ts.time_of(3), secs(30));
    }

    #[test]
    fn change_exactly_on_tick_is_visible_at_that_tick() {
        let mut s = Sampler::new("p", SimDuration::from_secs(10), 1.0);
        s.record(secs(10), 2.0);
        let ts = s.finish(secs(20));
        assert_eq!(ts.values, vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn fraction_below_counts_strictly() {
        let ts = TimeSeries {
            name: "x".into(),
            interval: SimDuration::from_secs(1),
            values: vec![0.1, 0.3, 0.3, 0.5, 0.9],
        };
        assert!((ts.fraction_below(0.3) - 0.2).abs() < 1e-12);
        assert!((ts.fraction_below(0.31) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn runs_below_finds_contiguous_windows() {
        let ts = TimeSeries {
            name: "load".into(),
            interval: SimDuration::from_secs(60),
            values: vec![0.5, 0.1, 0.1, 0.6, 0.2, 0.2, 0.2, 0.9, 0.1],
        };
        assert_eq!(ts.runs_below(0.3), vec![2, 3, 1]);
        assert_eq!(ts.runs_below(0.05), Vec::<usize>::new());
    }

    #[test]
    fn points_pair_times_with_values() {
        let mut s = Sampler::new("p", SimDuration::from_secs(2), 7.0);
        let ts = s_finish(&mut s);
        let pts: Vec<(f64, f64)> = ts.points().collect();
        assert_eq!(pts, vec![(0.0, 7.0), (2.0, 7.0)]);
    }

    fn s_finish(s: &mut Sampler) -> TimeSeries {
        s.clone().finish(secs(2))
    }

    #[test]
    fn row_sampler_keeps_channels_aligned() {
        let mut rs = RowSampler::new(SimDuration::from_secs(10), 2, 0.0);
        rs.record(secs(5), &[100.0, 1.0]);
        rs.record(secs(25), &[50.0, 2.0]);
        let rows = rs.finish(secs(30));
        assert_eq!(rows.len(), 4); // ticks at 0, 10, 20, 30
        assert_eq!(rows[0], (secs(0), vec![0.0, 0.0]));
        assert_eq!(rows[1], (secs(10), vec![100.0, 1.0]));
        assert_eq!(rows[2], (secs(20), vec![100.0, 1.0]));
        assert_eq!(rows[3], (secs(30), vec![50.0, 2.0]));
    }

    #[test]
    fn row_sampler_change_on_tick_is_visible() {
        let mut rs = RowSampler::new(SimDuration::from_secs(10), 1, 1.0);
        rs.record(secs(10), &[2.0]);
        let rows = rs.finish(secs(20));
        let vals: Vec<f64> = rows.into_iter().map(|(_, r)| r[0]).collect();
        assert_eq!(vals, vec![1.0, 2.0, 2.0]);
    }

    #[test]
    fn empty_series_fraction_is_zero() {
        let ts = TimeSeries {
            name: "x".into(),
            interval: SimDuration::from_secs(1),
            values: vec![],
        };
        assert_eq!(ts.fraction_below(1.0), 0.0);
    }
}
