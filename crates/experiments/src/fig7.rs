//! Figure 7 — real-time power traces of the three Scan schemes (§VI.C).
//!
//! Samples the working process every 350 seconds. Expected shape: ScanRan
//! draws heavy utility power when wind fades; ScanEffi minimizes power but
//! cannot fill high wind; ScanFair tracks the wind budget by switching
//! between efficient and least-used processors.

use crate::common::{sparkline, ExpConfig};
use iscope::experiments::sweep;
use iscope_dcsim::{SimDuration, TimeSeries};
use iscope_sched::Scheme;

/// One scheme's sampled traces.
#[derive(Debug, Clone)]
pub struct SchemeTrace {
    /// Scheme name.
    pub scheme: String,
    /// Total facility demand (W) per sample.
    pub demand: TimeSeries,
    /// Wind budget (W) per sample.
    pub wind: TimeSeries,
    /// Utility draw (W) per sample.
    pub utility_draw: TimeSeries,
    /// Wind draw (W) per sample.
    pub wind_draw: TimeSeries,
}

iscope::to_val!(SchemeTrace, |s| {
    "scheme" => s.scheme,
    "demand" => s.demand,
    "wind" => s.wind,
    "utility_draw" => s.utility_draw,
    "wind_draw" => s.wind_draw,
});

/// Output of the Fig. 7 experiment.
#[derive(Debug, Clone)]
pub struct Fig7 {
    /// Panels (A) ScanRan, (B) ScanEffi, (C) ScanFair.
    pub panels: Vec<SchemeTrace>,
}

iscope::to_val!(Fig7, |f| {
    "panels" => f.panels,
});

/// The paper's sampling interval.
pub const SAMPLE_INTERVAL_S: u64 = 350;

/// Runs the three Scan schemes with tracing on.
pub fn run(cfg: &ExpConfig) -> Fig7 {
    let schemes = [Scheme::ScanRan, Scheme::ScanEffi, Scheme::ScanFair];
    let reports = sweep(&schemes, |&scheme| {
        cfg.wind_sim(scheme, 1.0)
            .trace_interval(SimDuration::from_secs(SAMPLE_INTERVAL_S))
            .build()
            .run()
    });
    let panels = reports
        .into_iter()
        .map(|r| SchemeTrace {
            scheme: r.scheme.clone(),
            demand: r.series("demand").expect("tracing enabled").clone(),
            wind: r.series("wind").expect("tracing enabled").clone(),
            utility_draw: r.series("utility_draw").expect("tracing enabled").clone(),
            wind_draw: r.series("wind_draw").expect("tracing enabled").clone(),
        })
        .collect();
    Fig7 { panels }
}

impl Fig7 {
    fn panel(&self, scheme: &str) -> &SchemeTrace {
        self.panels
            .iter()
            .find(|p| p.scheme == scheme)
            .expect("unknown scheme")
    }

    /// Fraction of the available wind energy the scheme absorbed over its
    /// active window (the Fig. 7 "fills the wind curve" signal; ScanFair
    /// beats ScanEffi here).
    pub fn wind_utilization(&self, scheme: &str) -> f64 {
        let p = self.panel(scheme);
        let used: f64 = p.wind_draw.values.iter().sum();
        let avail: f64 = p.wind.values.iter().sum();
        if avail == 0.0 {
            0.0
        } else {
            used / avail
        }
    }

    /// Renders a textual summary of each panel.
    pub fn render(&self) -> String {
        let mut out = String::from("## fig7 — power traces (350 s sampling)\n");
        for p in &self.panels {
            let mean = |s: &TimeSeries| {
                if s.values.is_empty() {
                    0.0
                } else {
                    s.values.iter().sum::<f64>() / s.values.len() as f64
                }
            };
            out.push_str(&format!(
                "{:<9} samples {:>5}  mean demand {:>9.1} W  mean utility draw {:>9.1} W  \
                 mean wind draw {:>9.1} W  wind utilization {:.3}\n",
                p.scheme,
                p.demand.values.len(),
                mean(&p.demand),
                mean(&p.utility_draw),
                mean(&p.wind_draw),
                self.wind_utilization(&p.scheme),
            ));
            out.push_str(&format!(
                "          demand {}\n",
                sparkline(&p.demand.values, 60)
            ));
            out.push_str(&format!(
                "          wind   {}\n",
                sparkline(&p.wind.values, 60)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    #[test]
    fn traces_have_consistent_samples() {
        let fig = run(&ExpConfig::new(ExpScale::Fast));
        assert_eq!(fig.panels.len(), 3);
        for p in &fig.panels {
            assert!(!p.demand.values.is_empty());
            assert_eq!(p.demand.values.len(), p.wind.values.len());
            assert_eq!(p.demand.values.len(), p.utility_draw.values.len());
            // Sample-wise identity: utility_draw = max(0, demand - wind).
            for i in 0..p.demand.values.len() {
                let expect = (p.demand.values[i] - p.wind.values[i]).max(0.0);
                assert!((p.utility_draw.values[i] - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn scanfair_is_the_good_of_both_worlds() {
        // The Fig. 7 narrative: ScanEffi cannot fill high wind (lowest
        // wind absorption); ScanRan spills the most into utility when wind
        // fades; ScanFair absorbs more wind than ScanEffi while drawing
        // less utility than ScanRan.
        let fig = run(&ExpConfig::new(ExpScale::Fast));
        let fair_wind = fig.wind_utilization("ScanFair");
        let effi_wind = fig.wind_utilization("ScanEffi");
        assert!(
            fair_wind > effi_wind * 0.98,
            "ScanFair wind utilization {fair_wind:.3} vs ScanEffi {effi_wind:.3}"
        );
        let mean_utility_draw = |scheme| {
            let draw = &fig.panel(scheme).utility_draw.values;
            draw.iter().sum::<f64>() / draw.len() as f64
        };
        let fair_util = mean_utility_draw("ScanFair");
        let ran_util = mean_utility_draw("ScanRan");
        assert!(
            fair_util < ran_util * 1.1,
            "ScanFair utility draw {fair_util:.1} vs ScanRan {ran_util:.1}"
        );
    }
}
