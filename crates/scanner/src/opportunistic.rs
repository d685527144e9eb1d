//! Opportunistic profiling windows (§III.C, §VI.E / Fig. 10).
//!
//! Newly installed processors run safely at nominal configuration, so the
//! datacenter profiles them *opportunistically*: whenever utilization drops
//! below a threshold, idle processors are pulled out of the service pool,
//! profiled, and returned — no QoS impact. This module analyses a
//! required-processor trace for those windows and estimates how long a
//! profiling campaign takes to complete inside them.

use iscope_dcsim::{SimDuration, TimeSeries};

/// Analysis of where profiling can happen in a demand trace.
#[derive(Debug, Clone)]
pub struct WindowReport {
    /// Fraction of samples with utilization strictly below the threshold
    /// (the paper reports 27.2 % of the day below 30 %).
    pub fraction_below: f64,
    /// Lengths (in samples) of the maximal contiguous low-utilization
    /// windows — the paper stresses these are successive, not discrete.
    pub window_lengths: Vec<usize>,
    /// Idle processor-seconds available inside the windows (capacity minus
    /// demand, integrated over the low-utilization samples).
    pub idle_proc_seconds: f64,
}

/// Analyses a required-processor trace. `demand` holds required processor
/// counts per sample; `capacity` is the total processor count; the
/// threshold is a utilization fraction (0.3 in the paper).
pub fn analyse_windows(demand: &TimeSeries, capacity: f64, threshold: f64) -> WindowReport {
    assert!(capacity > 0.0 && (0.0..=1.0).contains(&threshold));
    let cut = capacity * threshold;
    let dt = demand.interval.as_secs_f64();
    let idle_proc_seconds = demand
        .values
        .iter()
        .filter(|&&d| d < cut)
        .map(|&d| (capacity - d) * dt)
        .sum();
    WindowReport {
        fraction_below: demand.fraction_below(cut),
        window_lengths: demand.runs_below(cut),
        idle_proc_seconds,
    }
}

/// Estimate of an opportunistic campaign over one analysed day.
#[derive(Debug, Clone, Copy)]
pub struct CampaignEstimate {
    /// Processor-seconds of profiling work the campaign needs.
    pub required_proc_seconds: f64,
    /// Processor-seconds available per analysed period.
    pub available_proc_seconds: f64,
    /// Periods (e.g. days) needed to profile the whole fleet.
    pub periods_to_complete: f64,
    /// True if a single longest window fits one full per-chip profiling
    /// pass (windows must be long enough to be useful, not just plentiful).
    pub longest_window_fits_one_chip: bool,
}

/// Estimates campaign length: `num_chips` each needing `per_chip` of test
/// time, packed into the report's idle windows.
pub fn estimate_campaign(
    report: &WindowReport,
    num_chips: usize,
    per_chip: SimDuration,
    window_interval: SimDuration,
) -> CampaignEstimate {
    let required = num_chips as f64 * per_chip.as_secs_f64();
    let available = report.idle_proc_seconds;
    let longest = report.window_lengths.iter().copied().max().unwrap_or(0);
    CampaignEstimate {
        required_proc_seconds: required,
        available_proc_seconds: available,
        periods_to_complete: if available > 0.0 {
            required / available
        } else {
            f64::INFINITY
        },
        longest_window_fits_one_chip: longest as f64 * window_interval.as_secs_f64()
            >= per_chip.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_dcsim::SimDuration;

    fn series(values: Vec<f64>) -> TimeSeries {
        TimeSeries {
            name: "demand".into(),
            interval: SimDuration::from_mins(1),
            values,
        }
    }

    #[test]
    fn fraction_and_windows() {
        // Capacity 100, threshold 0.3 => cut at 30.
        let ts = series(vec![50.0, 20.0, 10.0, 40.0, 25.0, 25.0, 25.0, 90.0]);
        let r = analyse_windows(&ts, 100.0, 0.3);
        assert!((r.fraction_below - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(r.window_lengths, vec![2, 3]);
    }

    #[test]
    fn idle_capacity_integrates_headroom() {
        let ts = series(vec![20.0, 10.0, 90.0]);
        let r = analyse_windows(&ts, 100.0, 0.3);
        // (100-20)*60 + (100-10)*60 = 10200 proc-seconds.
        assert!((r.idle_proc_seconds - 10_200.0).abs() < 1e-9);
    }

    #[test]
    fn campaign_estimate_divides_work_by_windows() {
        let ts = series(vec![10.0; 60]); // one quiet hour, capacity 100
        let r = analyse_windows(&ts, 100.0, 0.3);
        // 90 idle procs for 3600 s = 324000 proc-seconds per period.
        let est = estimate_campaign(
            &r,
            100,
            SimDuration::from_mins(10),
            SimDuration::from_mins(1),
        );
        assert!((est.required_proc_seconds - 60_000.0).abs() < 1e-9);
        assert!((est.periods_to_complete - 60_000.0 / 324_000.0).abs() < 1e-9);
        assert!(
            est.longest_window_fits_one_chip,
            "60 min window > 10 min test"
        );
    }

    #[test]
    fn no_windows_means_never_completes() {
        let ts = series(vec![95.0; 10]);
        let r = analyse_windows(&ts, 100.0, 0.3);
        assert_eq!(r.fraction_below, 0.0);
        let est = estimate_campaign(
            &r,
            10,
            SimDuration::from_mins(10),
            SimDuration::from_mins(1),
        );
        assert!(est.periods_to_complete.is_infinite());
        assert!(!est.longest_window_fits_one_chip);
    }

    #[test]
    fn short_scattered_windows_do_not_fit_a_stress_pass() {
        // 5-minute windows cannot hold a 10-minute per-chip stress pass.
        let mut values = Vec::new();
        for _ in 0..20 {
            values.extend_from_slice(&[10.0, 10.0, 10.0, 10.0, 10.0, 90.0]);
        }
        let r = analyse_windows(&series(values), 100.0, 0.3);
        let est = estimate_campaign(
            &r,
            10,
            SimDuration::from_mins(10),
            SimDuration::from_mins(1),
        );
        assert!(!est.longest_window_fits_one_chip);
    }
}
