//! Utility-side scalar signals over time: carbon intensity and
//! time-of-use / spot pricing.
//!
//! The grid's carbon intensity (gCO2 per kWh) and spot price (USD per
//! kWh) vary on the same cadence as the renewable budget but are
//! properties of the *utility* side of the supply. [`SignalTrace`] is the
//! shared representation: a piecewise-constant scalar sampled at a fixed
//! interval, with hold-last semantics past the final sample (exactly the
//! [`crate::trace::PowerTrace`] convention, so wind and grid signals can
//! share sampling grids without conversion).
//!
//! Synthetic generators cover the two canonical shapes: a diurnal
//! sinusoid for carbon intensity (the grid is dirtiest when solar is off
//! and demand peaks) and a step time-of-use tariff for price.

use iscope_dcsim::{SimDuration, SimTime};

/// A piecewise-constant scalar signal sampled at a fixed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalTrace {
    /// Sampling interval.
    pub interval: SimDuration,
    /// Signal value in each interval; sample `i` covers
    /// `[i*interval, (i+1)*interval)`. Beyond the final sample the trace
    /// holds its last value.
    pub values: Vec<f64>,
}

impl SignalTrace {
    /// Creates a trace. All samples must be finite and non-negative.
    pub fn new(interval: SimDuration, values: Vec<f64>) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "signal samples must be finite and non-negative"
        );
        SignalTrace { interval, values }
    }

    /// A constant signal.
    pub fn constant(interval: SimDuration, value: f64, samples: usize) -> Self {
        SignalTrace::new(interval, vec![value; samples])
    }

    /// Signal value at instant `t`. Beyond the final sample the trace
    /// holds its last value (0 if empty).
    pub fn value_at(&self, t: SimTime) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let idx = (t.as_millis() / self.interval.as_millis()) as usize;
        self.values[idx.min(self.values.len() - 1)]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_millis(self.interval.as_millis() * self.values.len() as u64)
    }

    /// Mean value over the trace (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The earliest cell boundary strictly inside `(t, end)` at which the
    /// signal's value *changes* (bitwise) from its value at `t`, or `None`
    /// if the signal is constant over the whole span. Cell boundaries
    /// where the value repeats are not changes — an integrator that splits
    /// only at the returned instants books a constant trace in one exact
    /// segment.
    pub fn next_change_before(&self, t: SimTime, end: SimTime) -> Option<SimTime> {
        if self.values.len() < 2 {
            return None;
        }
        let iv = self.interval.as_millis();
        let cur = ((t.as_millis() / iv) as usize).min(self.values.len() - 1);
        let cur_bits = self.values[cur].to_bits();
        for idx in (cur + 1)..self.values.len() {
            let boundary = SimTime::from_millis(iv * idx as u64);
            if boundary >= end {
                return None;
            }
            if self.values[idx].to_bits() != cur_bits {
                return Some(boundary);
            }
        }
        None
    }

    /// A stable 64-bit identity over the sampling grid and the exact bit
    /// patterns of every sample (FNV-1a). Snapshots store this so a resume
    /// against a different grid signal is rejected instead of silently
    /// drifting the cost integrals.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        mix(self.interval.as_millis());
        mix(self.values.len() as u64);
        for v in &self.values {
            mix(v.to_bits());
        }
        h
    }

    /// A diurnal sinusoid: `base + amplitude * cos(2π (h - peak_hour)/24)`
    /// sampled at `interval` over `duration`, `h` the hour-of-day at the
    /// sample start. The canonical carbon-intensity shape: the grid mix is
    /// dirtiest around `peak_hour` (solar off, demand up) and cleanest
    /// twelve hours away. `base >= amplitude` keeps the signal
    /// non-negative.
    pub fn diurnal(
        interval: SimDuration,
        duration: SimDuration,
        base: f64,
        amplitude: f64,
        peak_hour: f64,
    ) -> SignalTrace {
        assert!(base.is_finite() && amplitude.is_finite() && amplitude >= 0.0);
        assert!(base >= amplitude, "base below amplitude goes negative");
        let n = (duration.as_millis() / interval.as_millis()).max(1) as usize;
        let step_h = interval.as_secs_f64() / 3600.0;
        let values = (0..n)
            .map(|i| {
                let h = (i as f64 * step_h) % 24.0;
                base + amplitude * (std::f64::consts::TAU * (h - peak_hour) / 24.0).cos()
            })
            .collect();
        SignalTrace::new(interval, values)
    }

    /// A step time-of-use tariff: `peak` during `[peak_start_h,
    /// peak_end_h)` of each day, `offpeak` otherwise, sampled at
    /// `interval` over `duration`.
    pub fn time_of_use(
        interval: SimDuration,
        duration: SimDuration,
        offpeak: f64,
        peak: f64,
        peak_start_h: f64,
        peak_end_h: f64,
    ) -> SignalTrace {
        assert!(peak_start_h <= peak_end_h, "peak window reversed");
        let n = (duration.as_millis() / interval.as_millis()).max(1) as usize;
        let step_h = interval.as_secs_f64() / 3600.0;
        let values = (0..n)
            .map(|i| {
                let h = (i as f64 * step_h) % 24.0;
                if h >= peak_start_h && h < peak_end_h {
                    peak
                } else {
                    offpeak
                }
            })
            .collect();
        SignalTrace::new(interval, values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    fn at_mins(m: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_mins(m)
    }

    fn at_hours(h: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_hours(h)
    }

    #[test]
    fn value_at_selects_interval_and_holds_last() {
        let t = SignalTrace::new(mins(10), vec![100.0, 200.0, 50.0]);
        assert_eq!(t.value_at(SimTime::ZERO), 100.0);
        assert_eq!(t.value_at(SimTime::from_secs(599)), 100.0);
        assert_eq!(t.value_at(SimTime::from_secs(600)), 200.0);
        assert_eq!(t.value_at(SimTime::from_secs(99_999)), 50.0);
        assert_eq!(
            SignalTrace::new(mins(10), vec![]).value_at(SimTime::ZERO),
            0.0
        );
    }

    #[test]
    fn next_change_skips_repeated_cells() {
        // Cells: 5, 5, 7, 7, 5 at 10-minute spacing.
        let t = SignalTrace::new(mins(10), vec![5.0, 5.0, 7.0, 7.0, 5.0]);
        let far = at_hours(10);
        // From inside cell 0 the first change is the cell-2 boundary.
        assert_eq!(
            t.next_change_before(SimTime::from_secs(30), far),
            Some(at_mins(20))
        );
        // From cell 2 the next change is the cell-4 boundary.
        assert_eq!(t.next_change_before(at_mins(25), far), Some(at_mins(40)));
        // Past the last cell the signal holds: no further changes.
        assert_eq!(t.next_change_before(at_mins(45), far), None);
        // A bound before the change hides it.
        assert_eq!(
            t.next_change_before(SimTime::from_secs(30), at_mins(20)),
            None
        );
    }

    #[test]
    fn constant_trace_never_changes() {
        let t = SignalTrace::constant(mins(10), 0.13, 1000);
        assert_eq!(t.next_change_before(SimTime::ZERO, at_hours(1000)), None);
    }

    #[test]
    fn fingerprint_separates_grids_and_values() {
        let a = SignalTrace::new(mins(10), vec![1.0, 2.0]);
        let b = SignalTrace::new(mins(10), vec![1.0, 3.0]);
        let c = SignalTrace::new(mins(5), vec![1.0, 2.0]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn diurnal_peaks_at_peak_hour_and_stays_positive() {
        let t = SignalTrace::diurnal(mins(60), SimDuration::from_hours(24), 450.0, 250.0, 19.0);
        assert_eq!(t.len(), 24);
        let peak_idx = (0..24)
            .max_by(|&a, &b| t.values[a].total_cmp(&t.values[b]))
            .unwrap();
        assert_eq!(peak_idx, 19);
        assert!(t.values.iter().all(|&v| v >= 200.0 - 1e-9));
        assert!((t.values[19] - 700.0).abs() < 1e-9);
    }

    #[test]
    fn time_of_use_steps_on_the_window() {
        let t = SignalTrace::time_of_use(
            mins(60),
            SimDuration::from_hours(48),
            0.10,
            0.30,
            16.0,
            21.0,
        );
        assert_eq!(t.values[0], 0.10);
        assert_eq!(t.values[16], 0.30);
        assert_eq!(t.values[20], 0.30);
        assert_eq!(t.values[21], 0.10);
        // Second day repeats.
        assert_eq!(t.values[24 + 16], 0.30);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_samples() {
        SignalTrace::new(mins(10), vec![-1.0]);
    }
}
