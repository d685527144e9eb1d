//! Figure 10 — opportunistic profiling windows (§VI.E).
//!
//! The required-processor percentage per minute over one day (1024
//! processors in the paper's plot). The paper reports the load staying
//! below 30 % for 27.2 % of the day, in *successive* (not scattered)
//! windows — plenty for a 10-minute stress pass, let alone the 29-second
//! SBFT.

use crate::common::sparkline;
use iscope_dcsim::{SimDuration, TimeSeries};
use iscope_scanner::{analyse_windows, estimate_campaign, CampaignEstimate, WindowReport};
use iscope_workload::{Shaper, SyntheticTrace};

/// Capacity used in the paper's Fig. 10 plot.
pub const CAPACITY: f64 = 1024.0;
/// The utilization threshold below which profiling is free.
pub const THRESHOLD: f64 = 0.30;

/// Output of the Fig. 10 experiment.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Required-processor fraction (of 1024) per minute over the day.
    pub demand_fraction: TimeSeries,
    /// Low-utilization window analysis.
    pub windows: WindowReport,
    /// Campaign estimate for a 10-minute stress pass over the fleet.
    pub stress_campaign: CampaignEstimate,
    /// Campaign estimate for a 29-second SBFT pass.
    pub sbft_campaign: CampaignEstimate,
}

iscope::to_val!(Fig10, |f| {
    "demand_fraction" => f.demand_fraction,
    "windows" => f.windows,
    "stress_campaign" => f.stress_campaign,
    "sbft_campaign" => f.sbft_campaign,
});

/// Builds the day-long demand trace and analyses it.
pub fn run(seed: u64) -> Fig10 {
    // A day of Thunder-like submissions sized for a 1024-processor
    // cluster: diurnal enough that nights dip well below 30 %.
    let trace = SyntheticTrace {
        num_jobs: 6200,
        max_cpus: 128,
        runtime_median_s: 900.0,
        diurnal_amplitude: 0.85,
        ..SyntheticTrace::default()
    };
    let workload = Shaper::default().shape(&trace.generate(seed), seed);
    let minute = SimDuration::from_mins(1);
    let demand = workload.demand_trace(minute);
    let series = TimeSeries {
        name: "required processors".into(),
        interval: minute,
        values: demand.iter().map(|d| (d / CAPACITY).min(1.0)).collect(),
    };
    let abs_series = TimeSeries {
        name: "required processors (absolute)".into(),
        interval: minute,
        values: demand.iter().map(|d| d.min(CAPACITY)).collect(),
    };
    let windows = analyse_windows(&abs_series, CAPACITY, THRESHOLD);
    let stress_campaign = estimate_campaign(
        &windows,
        1024,
        // Per-chip stress pass at one configuration point (the paper's
        // Fig. 10 argument sizes windows against a single 10-minute run).
        SimDuration::from_mins(10),
        minute,
    );
    let sbft_campaign = estimate_campaign(&windows, 1024, SimDuration::from_secs(29), minute);
    Fig10 {
        demand_fraction: series,
        windows,
        stress_campaign,
        sbft_campaign,
    }
}

impl Fig10 {
    /// Renders the summary the paper reports.
    pub fn render(&self) -> String {
        let longest = self
            .windows
            .window_lengths
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        format!(
            "## fig10 — required processors over one day (capacity {CAPACITY})\n\
             minutes sampled:               {}\n\
             fraction of day below 30 %:    {:.1} % (paper: 27.2 %)\n\
             low-utilization windows:       {} (longest {} min — contiguous, not scattered)\n\
             stress pass fits in a window:  {}\n\
             SBFT pass fits in a window:    {}\n\
             idle capacity in windows:      {:.0} processor-minutes/day\n",
            self.demand_fraction.values.len(),
            100.0 * self.windows.fraction_below,
            self.windows.window_lengths.len(),
            longest,
            self.stress_campaign.longest_window_fits_one_chip,
            self.sbft_campaign.longest_window_fits_one_chip,
            self.windows.idle_proc_seconds / 60.0,
        ) + &format!(
            "load over the day:             {}\n",
            sparkline(&self.demand_fraction.values, 72)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_utilization_fraction_near_paper_value() {
        let fig = run(2015);
        let pct = 100.0 * fig.windows.fraction_below;
        assert!(
            (12.0..45.0).contains(&pct),
            "fraction below 30 % = {pct:.1} %, paper reports 27.2 %"
        );
    }

    #[test]
    fn windows_are_contiguous_and_long_enough() {
        let fig = run(2015);
        let longest = fig.windows.window_lengths.iter().copied().max().unwrap();
        assert!(
            longest >= 10,
            "longest window {longest} min cannot hold a 10-minute stress pass"
        );
        assert!(fig.stress_campaign.longest_window_fits_one_chip);
        assert!(fig.sbft_campaign.longest_window_fits_one_chip);
    }

    #[test]
    fn demand_has_a_diurnal_swing() {
        let fig = run(2015);
        let vs = &fig.demand_fraction.values;
        let max = vs.iter().cloned().fold(0.0, f64::max);
        let min = vs.iter().cloned().fold(1.0, f64::min);
        assert!(max > 0.4, "peak load {max:.2} too low");
        assert!(min < 0.2, "trough load {min:.2} too high");
    }
}
