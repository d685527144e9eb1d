//! Figure 8 — energy cost comparison (§VI.C).
//!
//! Energy cost per scheme with and without wind, at the paper's prices
//! (utility 0.13 USD/kWh, wind 0.05) and at the projected future wind
//! price (0.005). Headline claims reproduced as *shape*:
//!
//! * without wind, the Effi/Fair schemes cost less than the Ran schemes;
//! * ScanEffi cuts ~9 % off BinEffi (the value of in-cloud profiling);
//! * ScanEffi has the lowest cost overall (high green-energy utilization);
//! * a green datacenter running ScanFair cuts a large fraction (the paper
//!   reports up to 54 %) of a conventional utility-only BinRan
//!   datacenter's cost.

use crate::common::{ExpConfig, ExpTable};
use iscope::experiments::sweep;
use iscope_energy::PriceBook;
use iscope_sched::Scheme;

/// Output of the Fig. 8 experiment.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Total cost (USD) per scheme: columns = no-wind / wind / wind@future-price.
    pub cost: ExpTable,
    /// Utility-only share of cost (USD), same columns.
    pub utility_cost: ExpTable,
    /// Derived headline percentages.
    pub headlines: Headlines,
}

iscope::to_val!(Fig8, |f| {
    "cost" => f.cost,
    "utility_cost" => f.utility_cost,
    "headlines" => f.headlines,
});

/// The derived claims of §VI.C.
#[derive(Debug, Clone)]
pub struct Headlines {
    /// ScanEffi vs BinEffi total-cost saving, no-wind case (paper: 9 %).
    pub scaneffi_vs_bineffi_nowind_pct: f64,
    /// ScanFair-with-wind vs conventional BinRan-without-wind total-cost
    /// saving (the paper's "up to 54 %" cross-scenario claim).
    pub scanfair_green_vs_binran_brown_pct: f64,
    /// Same comparison on the utility-cost column only.
    pub scanfair_green_vs_binran_brown_utility_pct: f64,
    /// ScanFair vs BinRan total cost within the wind scenario (the
    /// paper's "30.7 % savings on energy (wind & utility) cost").
    pub scanfair_vs_binran_wind_pct: f64,
}

iscope::to_val!(Headlines, |h| {
    "scaneffi_vs_bineffi_nowind_pct" => h.scaneffi_vs_bineffi_nowind_pct,
    "scanfair_green_vs_binran_brown_pct" => h.scanfair_green_vs_binran_brown_pct,
    "scanfair_green_vs_binran_brown_utility_pct" => h.scanfair_green_vs_binran_brown_utility_pct,
    "scanfair_vs_binran_wind_pct" => h.scanfair_vs_binran_wind_pct,
});

/// Runs the three supply scenarios over all five schemes.
pub fn run(cfg: &ExpConfig) -> Fig8 {
    #[derive(Clone, Copy)]
    enum Case {
        NoWind,
        Wind,
        WindFuture,
    }
    let cells: Vec<(Scheme, usize)> = Scheme::ALL
        .iter()
        .flat_map(|&s| (0..3usize).map(move |c| (s, c)))
        .collect();
    let reports = sweep(&cells, |&(scheme, case)| {
        match [Case::NoWind, Case::Wind, Case::WindFuture][case] {
            Case::NoWind => cfg
                .sim(scheme)
                .supply(iscope_energy::Supply::utility_only()),
            Case::Wind => cfg.wind_sim(scheme, 1.0),
            Case::WindFuture => cfg
                .sim(scheme)
                .supply(cfg.wind_supply(1.0).with_prices(PriceBook::future_wind())),
        }
        .build()
        .run()
    });
    let columns = vec![
        "no-wind".to_string(),
        "wind".to_string(),
        "wind@0.005".to_string(),
    ];
    let table = |id: &str, title: &str, f: &dyn Fn(&iscope::RunReport) -> f64| ExpTable {
        id: id.into(),
        title: title.into(),
        columns: columns.clone(),
        rows: Scheme::ALL
            .iter()
            .enumerate()
            .map(|(si, s)| {
                (
                    s.name().to_string(),
                    (0..3).map(|c| f(&reports[si * 3 + c])).collect(),
                )
            })
            .collect(),
    };
    let cost = table("fig8", "total energy cost (USD)", &|r| r.total_cost_usd());
    let utility_cost = table("fig8u", "utility energy cost (USD)", &|r| {
        r.utility_cost_usd()
    });
    let pct = |a: f64, b: f64| 100.0 * (1.0 - a / b);
    let headlines = Headlines {
        scaneffi_vs_bineffi_nowind_pct: pct(
            cost.row("ScanEffi").unwrap()[0],
            cost.row("BinEffi").unwrap()[0],
        ),
        scanfair_green_vs_binran_brown_pct: pct(
            cost.row("ScanFair").unwrap()[1],
            cost.row("BinRan").unwrap()[0],
        ),
        scanfair_green_vs_binran_brown_utility_pct: pct(
            utility_cost.row("ScanFair").unwrap()[1],
            utility_cost.row("BinRan").unwrap()[0],
        ),
        scanfair_vs_binran_wind_pct: pct(
            cost.row("ScanFair").unwrap()[1],
            cost.row("BinRan").unwrap()[1],
        ),
    };
    Fig8 {
        cost,
        utility_cost,
        headlines,
    }
}

impl Fig8 {
    /// Renders tables plus the headline percentages.
    pub fn render(&self) -> String {
        format!(
            "{}\n{}\n## fig8 headlines\n\
             ScanEffi vs BinEffi (no wind):              {:>6.1} % cheaper (paper: 9 %)\n\
             ScanFair(green) vs BinRan(conventional):    {:>6.1} % cheaper (paper: up to 54 %)\n\
             ... on the utility-cost column:             {:>6.1} %\n\
             ScanFair vs BinRan (both with wind):        {:>6.1} % cheaper\n",
            self.cost.render(),
            self.utility_cost.render(),
            self.headlines.scaneffi_vs_bineffi_nowind_pct,
            self.headlines.scanfair_green_vs_binran_brown_pct,
            self.headlines.scanfair_green_vs_binran_brown_utility_pct,
            self.headlines.scanfair_vs_binran_wind_pct,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    #[test]
    fn headline_shapes_hold() {
        let fig = run(&ExpConfig::new(ExpScale::Fast));
        // Without wind: variation-aware schemes beat the random ones.
        let nowind = |s: &str| fig.cost.row(s).unwrap()[0];
        assert!(nowind("BinEffi") < nowind("BinRan"));
        assert!(nowind("ScanEffi") < nowind("ScanRan"));
        assert!(nowind("ScanFair") < nowind("BinRan"));
        // In-cloud profiling pays: ScanEffi under BinEffi by a meaningful
        // margin (paper: 9 %).
        assert!(
            (2.0..20.0).contains(&fig.headlines.scaneffi_vs_bineffi_nowind_pct),
            "got {:.1} %",
            fig.headlines.scaneffi_vs_bineffi_nowind_pct
        );
        // ScanEffi has the lowest wind-scenario cost of all schemes.
        let wind_costs: Vec<f64> = iscope_sched::Scheme::ALL
            .iter()
            .map(|s| fig.cost.row(s.name()).unwrap()[1])
            .collect();
        let scaneffi = fig.cost.row("ScanEffi").unwrap()[1];
        assert!(
            wind_costs.iter().all(|&c| scaneffi <= c + 1e-9),
            "ScanEffi not cheapest: {wind_costs:?}"
        );
        // The cross-scenario green-vs-brown saving is large (paper: 54 %).
        assert!(
            fig.headlines.scanfair_green_vs_binran_brown_pct > 25.0,
            "got {:.1} %",
            fig.headlines.scanfair_green_vs_binran_brown_pct
        );
        // Cheaper wind makes every wind case cheaper still.
        for s in iscope_sched::Scheme::ALL {
            let row = fig.cost.row(s.name()).unwrap();
            assert!(row[2] < row[1], "{s}: future wind price must cut cost");
        }
    }
}
