//! Figure 5 — utility-power-only design (§VI.A).
//!
//! (A) utility energy consumption vs % of high-urgency jobs, and
//! (B) vs job arrival rate, for the five schemes. Expected shape:
//! `Effi` schemes always beat `Ran` schemes, `Scan` schemes beat `Bin`
//! schemes by roughly 10 %, `Effi` energy rises with %HU and arrival rate
//! while `Ran` stays flat.

use crate::common::{ExpConfig, ExpTable};
use iscope::experiments::sweep;
use iscope_sched::Scheme;

/// The %HU values swept (x-axis of Fig. 5A).
pub const HU_POINTS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];
/// The arrival rates swept (x-axis of Fig. 5B).
pub const RATE_POINTS: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 5.0];

/// Output of the Fig. 5 experiment.
#[derive(Debug, Clone)]
pub struct Fig5 {
    /// (A) utility kWh per scheme per %HU.
    pub by_hu: ExpTable,
    /// (B) utility kWh per scheme per arrival rate.
    pub by_rate: ExpTable,
}

iscope::to_val!(Fig5, |f| {
    "by_hu" => f.by_hu,
    "by_rate" => f.by_rate,
});

/// Runs both sweeps.
pub fn run(cfg: &ExpConfig) -> Fig5 {
    let hu_cells: Vec<(Scheme, f64)> = Scheme::ALL
        .iter()
        .flat_map(|&s| HU_POINTS.iter().map(move |&h| (s, h)))
        .collect();
    let hu_reports = sweep(&hu_cells, |&(scheme, hu)| {
        cfg.sim(scheme).hu_fraction(hu).build().run()
    });
    let rate_cells: Vec<(Scheme, f64)> = Scheme::ALL
        .iter()
        .flat_map(|&s| RATE_POINTS.iter().map(move |&r| (s, r)))
        .collect();
    let rate_reports = sweep(&rate_cells, |&(scheme, rate)| {
        cfg.sim(scheme).arrival_rate(rate).build().run()
    });
    let table =
        |id: &str, title: &str, xs: &[f64], reports: &[iscope::RunReport], unit: f64| ExpTable {
            id: id.into(),
            title: title.into(),
            columns: xs.iter().map(|x| format!("{x}")).collect(),
            rows: Scheme::ALL
                .iter()
                .enumerate()
                .map(|(si, s)| {
                    let vals = (0..xs.len())
                        .map(|xi| reports[si * xs.len() + xi].utility_kwh() * unit)
                        .collect();
                    (s.name().to_string(), vals)
                })
                .collect(),
        };
    Fig5 {
        by_hu: table(
            "fig5a",
            "utility energy (kWh) vs % of HU jobs, utility-only",
            &HU_POINTS,
            &hu_reports,
            1.0,
        ),
        by_rate: table(
            "fig5b",
            "utility energy (kWh) vs job arrival rate, utility-only",
            &RATE_POINTS,
            &rate_reports,
            1.0,
        ),
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
    fn shapes_match_the_paper() {
        let fig = run(&ExpConfig::new(ExpScale::Fast));
        for t in [&fig.by_hu, &fig.by_rate] {
            let bin_ran = t.row("BinRan").unwrap();
            let bin_effi = t.row("BinEffi").unwrap();
            let scan_ran = t.row("ScanRan").unwrap();
            let scan_effi = t.row("ScanEffi").unwrap();
            // Effi beats Ran, Scan beats Bin — on sweep average.
            assert!(mean(bin_effi) < mean(bin_ran), "{}: Effi >= Ran", t.id);
            assert!(
                mean(scan_effi) < mean(scan_ran),
                "{}: ScanEffi >= ScanRan",
                t.id
            );
            assert!(
                mean(scan_ran) < mean(bin_ran),
                "{}: Scan >= Bin (Ran)",
                t.id
            );
            assert!(
                mean(scan_effi) < mean(bin_effi),
                "{}: Scan >= Bin (Effi)",
                t.id
            );
            // The Scan advantage is in the right ballpark (roughly 10 %).
            let gap = 1.0 - mean(scan_ran) / mean(bin_ran);
            assert!((0.02..0.2).contains(&gap), "{}: scan gap {gap:.3}", t.id);
        }
        // Ran is flat vs arrival rate; Effi rises.
        let ran = fig.by_rate.row("ScanRan").unwrap();
        let spread = (ran.iter().cloned().fold(f64::MIN, f64::max)
            - ran.iter().cloned().fold(f64::MAX, f64::min))
            / mean(ran);
        assert!(
            spread < 0.12,
            "Ran energy should be flat vs rate, spread {spread:.3}"
        );
        let effi = fig.by_rate.row("ScanEffi").unwrap();
        assert!(
            effi[4] > effi[0],
            "Effi energy should rise with arrival rate: {effi:?}"
        );
    }
}
