//! Figure 9 — balancing processor lifetime (§VI.D).
//!
//! Variance of per-processor utilization time vs wind strength (SWP factor
//! 1.0–1.8) for the five schemes. Expected shape: `Effi` variance is far
//! above everything else, `Ran` is lowest, ScanFair sits in between and
//! *decreases* as wind grows (abundant wind biases it toward fairness).

use crate::common::{ExpConfig, ExpTable};
use iscope::experiments::sweep;
use iscope::{TelemetryConfig, TelemetryRecord};
use iscope_sched::Scheme;

/// The SWP factors swept.
pub const SWP_POINTS: [f64; 5] = [1.0, 1.2, 1.4, 1.6, 1.8];

/// Output of the Fig. 9 experiment.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Utilization-time variance (h²) per scheme per SWP factor.
    pub variance: ExpTable,
    /// Fixed-cadence run telemetry for the ScanFair @ 1.0·SWP cell
    /// (supply/demand/utility watts, queue depth, DVFS occupancy) —
    /// written alongside the table as `results/fig9_telemetry.jsonl`.
    pub telemetry: Vec<TelemetryRecord>,
}

// The telemetry is written to its own JSONL file, not repeated here.
iscope::to_val!(Fig9, |f| {
    "variance" => f.variance,
});

/// Runs the SWP sweep.
pub fn run(cfg: &ExpConfig) -> Fig9 {
    let cells: Vec<(Scheme, f64)> = Scheme::ALL
        .iter()
        .flat_map(|&s| SWP_POINTS.iter().map(move |&w| (s, w)))
        .collect();
    // Telemetry is observational (bit-identical runs), so every cell can
    // record it; only the headline ScanFair cell's series is kept.
    let mut reports = sweep(&cells, |&(scheme, swp)| {
        cfg.wind_sim(scheme, swp)
            .telemetry(TelemetryConfig::default())
            .build()
            .run()
    });
    let fair = Scheme::ALL
        .iter()
        .position(|s| matches!(s, Scheme::ScanFair))
        .expect("ScanFair in Scheme::ALL");
    let telemetry = reports[fair * SWP_POINTS.len()]
        .telemetry
        .take()
        .expect("telemetry was enabled for every cell");
    Fig9 {
        telemetry,
        variance: ExpTable {
            id: "fig9".into(),
            title: "variance of processor utilization time (h^2) vs SWP".into(),
            columns: SWP_POINTS.iter().map(|w| format!("{w}*SWP")).collect(),
            rows: Scheme::ALL
                .iter()
                .enumerate()
                .map(|(si, s)| {
                    (
                        s.name().to_string(),
                        (0..SWP_POINTS.len())
                            .map(|xi| reports[si * SWP_POINTS.len() + xi].usage_variance())
                            .collect(),
                    )
                })
                .collect(),
        },
    }
}

impl Fig9 {
    /// One-line digest of the recorded telemetry (sample count, peak
    /// demand, wind-covered sample fraction, mean queue depth).
    pub fn telemetry_summary(&self) -> String {
        let n = self.telemetry.len();
        if n == 0 {
            return "telemetry: no samples".into();
        }
        let peak_kw = self
            .telemetry
            .iter()
            .map(|r| r.demand_w)
            .fold(0.0f64, f64::max)
            / 1e3;
        let covered = self
            .telemetry
            .iter()
            .filter(|r| r.utility_w <= 1e-9)
            .count();
        let mean_queue = self
            .telemetry
            .iter()
            .map(|r| r.queue_depth as f64)
            .sum::<f64>()
            / n as f64;
        format!(
            "telemetry (ScanFair @ 1.0*SWP): {n} samples, peak demand {peak_kw:.1} kW, \
             {:.0}% wind-covered, mean queue {mean_queue:.1}",
            100.0 * covered as f64 / n as f64
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn variance_ordering_matches_the_paper() {
        let fig = run(&ExpConfig::new(ExpScale::Fast));
        let t = &fig.variance;
        let ran = mean(t.row("ScanRan").unwrap());
        let effi = mean(t.row("ScanEffi").unwrap());
        let fair = mean(t.row("ScanFair").unwrap());
        assert!(
            effi > fair,
            "Effi variance {effi:.2} must exceed Fair {fair:.2}"
        );
        assert!(
            fair > ran * 0.8,
            "Fair should not beat Ran's natural balance by much"
        );
        assert!(
            effi > 2.0 * ran,
            "Effi variance {effi:.2} should dwarf Ran {ran:.2}"
        );
    }

    #[test]
    fn telemetry_rides_along_and_round_trips() {
        let fig = run(&ExpConfig::new(ExpScale::Fast));
        assert!(!fig.telemetry.is_empty(), "telemetry series missing");
        for r in &fig.telemetry {
            assert!(
                (r.utility_w - (r.demand_w - r.supply_w).max(0.0)).abs() < 1e-9,
                "utility must be clamped demand minus supply"
            );
        }
        assert!(fig.telemetry_summary().contains("samples"));
        let text = iscope::telemetry::render_jsonl(&fig.telemetry);
        let back = iscope::telemetry::parse_jsonl(&text).expect("JSONL round-trip");
        assert_eq!(back, fig.telemetry);
    }

    #[test]
    fn scanfair_variance_falls_as_wind_grows() {
        let fig = run(&ExpConfig::new(ExpScale::Fast));
        let fair = fig.variance.row("ScanFair").unwrap();
        // More wind => more surplus-mode (fairness-biased) placements.
        assert!(
            fair[4] < fair[0],
            "ScanFair variance should fall with wind: {fair:?}"
        );
    }
}
