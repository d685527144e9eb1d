//! Sampled power-availability traces (the renewable budget signal).
//!
//! The paper drives its evaluation with the NREL Western Wind Integration
//! Datasets: commercial-turbine output sampled every 10 minutes, scaled
//! down to 3.5 % to match a 4800-CPU datacenter (§V.C). [`PowerTrace`] is
//! that signal: piecewise-constant available power over simulated time,
//! with the scaling knobs the evaluation sweeps (the SWP factor of Fig. 9).

use iscope_dcsim::{SimDuration, SimTime};

/// A piecewise-constant available-power signal sampled at a fixed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// Sampling interval (10 minutes for NREL-style traces).
    pub interval: SimDuration,
    /// Available power (W) in each interval; sample `i` covers
    /// `[i*interval, (i+1)*interval)`.
    pub watts: Vec<f64>,
}

impl PowerTrace {
    /// Creates a trace. All samples must be finite and non-negative.
    pub fn new(interval: SimDuration, watts: Vec<f64>) -> Self {
        assert!(!interval.is_zero(), "interval must be positive");
        assert!(
            watts.iter().all(|w| w.is_finite() && *w >= 0.0),
            "power samples must be finite and non-negative"
        );
        PowerTrace { interval, watts }
    }

    /// A constant-power trace (utility-style budget, or zero wind).
    pub fn constant(interval: SimDuration, watts: f64, samples: usize) -> Self {
        PowerTrace::new(interval, vec![watts; samples])
    }

    /// Available power at instant `t`. Beyond the final sample the trace
    /// holds its last value (0 if empty).
    pub fn power_at(&self, t: SimTime) -> f64 {
        if self.watts.is_empty() {
            return 0.0;
        }
        let idx = (t.as_millis() / self.interval.as_millis()) as usize;
        self.watts[idx.min(self.watts.len() - 1)]
    }

    /// Total covered duration.
    pub fn duration(&self) -> SimDuration {
        SimDuration::from_millis(self.interval.as_millis() * self.watts.len() as u64)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.watts.len()
    }

    /// True if the trace has no samples.
    pub fn is_empty(&self) -> bool {
        self.watts.is_empty()
    }

    /// Mean power over the trace (0 if empty).
    pub fn mean_power(&self) -> f64 {
        if self.watts.is_empty() {
            0.0
        } else {
            self.watts.iter().sum::<f64>() / self.watts.len() as f64
        }
    }

    /// Peak power over the trace.
    pub fn peak_power(&self) -> f64 {
        self.watts.iter().copied().fold(0.0, f64::max)
    }

    /// Returns the trace scaled by `factor` — the paper's "3.5 % of the
    /// original level" downscaling and the SWP sweep of Fig. 9.
    pub fn scaled(&self, factor: f64) -> PowerTrace {
        assert!(factor >= 0.0 && factor.is_finite());
        PowerTrace {
            interval: self.interval,
            watts: self.watts.iter().map(|w| w * factor).collect(),
        }
    }

    /// Total energy under the trace, in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.watts.iter().sum::<f64>() * self.interval.as_secs_f64()
    }

    /// Pointwise sum of two traces on the same sampling grid (a wind farm
    /// plus a solar plant feeding one datacenter). The shorter trace is
    /// extended with its hold-last-value semantics.
    pub fn plus(&self, other: &PowerTrace) -> PowerTrace {
        assert_eq!(self.interval, other.interval, "sampling grids must match");
        let n = self.watts.len().max(other.watts.len());
        let at = |t: &PowerTrace, i: usize| -> f64 {
            if t.watts.is_empty() {
                0.0
            } else {
                t.watts[i.min(t.watts.len() - 1)]
            }
        };
        PowerTrace {
            interval: self.interval,
            watts: (0..n).map(|i| at(self, i) + at(other, i)).collect(),
        }
    }

    /// Serializes in the repository's NREL-style CSV format:
    /// a header line then `elapsed_seconds,power_watts` rows.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(32 + self.watts.len() * 24);
        out.push_str("seconds,watts\n");
        for (i, w) in self.watts.iter().enumerate() {
            let t = self.interval.as_secs_f64() * i as f64;
            out.push_str(&format!("{t:.0},{w:.3}\n"));
        }
        out
    }

    /// Parses the CSV format written by [`PowerTrace::to_csv`]. The
    /// interval is inferred from the first two rows (single-row traces get
    /// a 10-minute default).
    pub fn from_csv(text: &str) -> Result<PowerTrace, String> {
        let mut rows: Vec<(f64, f64)> = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let t: f64 = match parts
                .next()
                .ok_or_else(|| format!("line {}: missing time", lineno + 1))?
                .trim()
                .parse()
            {
                Ok(t) => t,
                // A leading word that is not a number (`nan`, `inf` are)
                // is the header.
                Err(_) if lineno == 0 && line.starts_with(char::is_alphabetic) => continue,
                Err(e) => return Err(format!("line {}: bad time: {e}", lineno + 1)),
            };
            if !t.is_finite() {
                return Err(format!("line {}: non-finite time", lineno + 1));
            }
            if rows.last().is_some_and(|&(prev, _)| t <= prev) {
                return Err(format!("line {}: non-increasing timestamp", lineno + 1));
            }
            let w: f64 = parts
                .next()
                .ok_or_else(|| format!("line {}: missing watts", lineno + 1))?
                .trim()
                .parse()
                .map_err(|e| format!("line {}: bad watts: {e}", lineno + 1))?;
            if !w.is_finite() || w < 0.0 {
                return Err(format!("line {}: negative or non-finite power", lineno + 1));
            }
            rows.push((t, w));
        }
        if rows.is_empty() {
            return Err("no samples".into());
        }
        let interval = if rows.len() >= 2 {
            let interval = SimDuration::from_secs_f64(rows[1].0 - rows[0].0);
            if interval.is_zero() {
                return Err("sample interval rounds to 0 ms".into());
            }
            interval
        } else {
            SimDuration::from_mins(10)
        };
        Ok(PowerTrace::new(
            interval,
            rows.into_iter().map(|(_, w)| w).collect(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mins(m: u64) -> SimDuration {
        SimDuration::from_mins(m)
    }

    #[test]
    fn power_at_selects_interval() {
        let t = PowerTrace::new(mins(10), vec![100.0, 200.0, 50.0]);
        assert_eq!(t.power_at(SimTime::ZERO), 100.0);
        assert_eq!(t.power_at(SimTime::from_secs(599)), 100.0);
        assert_eq!(t.power_at(SimTime::from_secs(600)), 200.0);
        assert_eq!(
            t.power_at(SimTime::from_secs(1800)),
            50.0,
            "holds last value"
        );
        assert_eq!(t.power_at(SimTime::from_secs(99999)), 50.0);
    }

    #[test]
    fn empty_trace_is_zero_power() {
        let t = PowerTrace::new(mins(10), vec![]);
        assert_eq!(t.power_at(SimTime::from_secs(5)), 0.0);
        assert_eq!(t.mean_power(), 0.0);
    }

    #[test]
    fn scaling_is_pointwise() {
        let t = PowerTrace::new(mins(10), vec![100.0, 200.0]);
        let s = t.scaled(0.035);
        assert!((s.watts[0] - 3.5).abs() < 1e-12 && (s.watts[1] - 7.0).abs() < 1e-12);
        assert_eq!(s.interval, t.interval);
        let swp = t.scaled(1.8);
        assert!((swp.watts[0] - 180.0).abs() < 1e-9 && (swp.watts[1] - 360.0).abs() < 1e-9);
    }

    #[test]
    fn energy_is_sum_of_rectangles() {
        let t = PowerTrace::new(mins(10), vec![100.0, 200.0]);
        assert!((t.total_energy_j() - (100.0 + 200.0) * 600.0).abs() < 1e-9);
    }

    #[test]
    fn csv_round_trip() {
        let t = PowerTrace::new(mins(10), vec![0.0, 1234.5, 99.125]);
        let parsed = PowerTrace::from_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed.interval, t.interval);
        for (a, b) in parsed.watts.iter().zip(&t.watts) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn csv_rejects_garbage() {
        assert!(PowerTrace::from_csv("").is_err());
        assert!(PowerTrace::from_csv("seconds,watts\nabc,1\n").is_err());
        assert!(PowerTrace::from_csv("seconds,watts\n0,-5\n").is_err());
        assert!(PowerTrace::from_csv("seconds,watts\n600,1\n0,2\n").is_err());
        assert!(PowerTrace::from_csv("nan,1\n1,2").is_err());
        assert!(PowerTrace::from_csv("0,1\n0.0004,2").is_err());
        assert!(PowerTrace::from_csv("0,1\n600,2\n300,3").is_err());
    }

    #[test]
    fn stats() {
        let t = PowerTrace::new(mins(10), vec![1.0, 3.0, 2.0]);
        assert!((t.mean_power() - 2.0).abs() < 1e-12);
        assert_eq!(t.peak_power(), 3.0);
        assert_eq!(t.duration(), SimDuration::from_mins(30));
        assert_eq!(t.len(), 3);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_samples() {
        PowerTrace::new(mins(10), vec![-1.0]);
    }

    #[test]
    fn plus_sums_pointwise_and_extends_the_shorter() {
        let a = PowerTrace::new(mins(10), vec![1.0, 2.0, 3.0]);
        let b = PowerTrace::new(mins(10), vec![10.0]);
        let c = a.plus(&b);
        assert_eq!(c.watts, vec![11.0, 12.0, 13.0], "b holds its last value");
        let d = b.plus(&a);
        assert_eq!(d.watts, c.watts, "commutative");
        let empty = PowerTrace::new(mins(10), vec![]);
        assert_eq!(a.plus(&empty).watts, a.watts);
    }

    #[test]
    #[should_panic(expected = "grids must match")]
    fn plus_rejects_mismatched_intervals() {
        let a = PowerTrace::new(mins(10), vec![1.0]);
        let b = PowerTrace::new(mins(5), vec![1.0]);
        a.plus(&b);
    }
}
