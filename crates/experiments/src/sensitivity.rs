//! Knowledge-resolution sensitivity: how much hardware knowledge is
//! enough?
//!
//! Two sweeps that locate the paper's Bin/Scan dichotomy on a continuum:
//!
//! * **Bin count** — 1 bin (one worst-case voltage for the whole fleet,
//!   i.e. classic nominal operation) through 2/3/5/10 bins up to the scan
//!   (every chip its own bin). Scanning is the `bins → fleet size` limit;
//!   the sweep shows the diminishing returns that make 3 factory bins a
//!   rational datasheet choice and in-cloud scanning the only way to the
//!   remaining margin.
//! * **Grid resolution** — the scanner's voltage points per frequency bin
//!   (§III.C: "as long as the PLLs and VR provide enough settings, more
//!   voltage/frequency configuration points can be tested ... more freedom
//!   for better energy efficiency", at more profiling time).

use crate::common::{ExpConfig, ExpTable};
use iscope::experiments::sweep;
use iscope::prelude::*;
use iscope_pvmodel::{Binning, OperatingPlan, VariationParams};
use iscope_scanner::{Scanner, ScannerConfig};

/// The bin counts swept (the last column is the full scan).
pub const BIN_POINTS: [usize; 5] = [1, 2, 3, 5, 10];
/// The grid resolutions swept (voltage points per frequency bin).
pub const GRID_POINTS: [usize; 4] = [5, 10, 20, 40];

/// Output of the sensitivity experiment.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Utility kWh under BinEffi-style scheduling at each bin count, plus
    /// the scanned fleet as the limit.
    pub by_bins: ExpTable,
    /// (scan saving vs 3-bin baseline %, profiling test count) per grid
    /// resolution.
    pub by_grid: Vec<GridPoint>,
}

iscope::to_val!(Sensitivity, |s| {
    "by_bins" => s.by_bins,
    "by_grid" => s.by_grid,
});

/// One grid-resolution measurement.
#[derive(Debug, Clone, Copy)]
pub struct GridPoint {
    /// Voltage points per frequency bin.
    pub points: usize,
    /// Fleet busy power at the top level under the resulting plan (kW).
    pub fleet_power_kw: f64,
    /// Stability tests the scan executed.
    pub tests_run: u64,
}

iscope::to_val!(GridPoint, |g| {
    "points" => g.points,
    "fleet_power_kw" => g.fleet_power_kw,
    "tests_run" => g.tests_run,
});

/// Runs both sweeps.
pub fn run(cfg: &ExpConfig) -> Sensitivity {
    // Sweep 1: full simulations with a custom bin count baked into the
    // operating plan. We reuse the ScanEffi placement machinery by running
    // BinEffi with each binning — the scheme itself only differs in plan.
    let cells: Vec<usize> = BIN_POINTS.to_vec();
    let reports = sweep(&cells, |&bins| {
        // Build a custom run: BinEffi scheduling over a `bins`-bin plan.
        // The builder always bins at 3, so sweep via the variation in the
        // sim input path: use the scheme machinery directly.
        run_with_bins(cfg, bins)
    });
    let scan_report = cfg.sim(iscope_sched::Scheme::ScanEffi).build().run();
    let mut columns: Vec<String> = BIN_POINTS.iter().map(|b| format!("{b} bins")).collect();
    columns.push("scan".into());
    let mut values: Vec<f64> = reports.iter().map(|r| r.utility_kwh()).collect();
    values.push(scan_report.utility_kwh());
    let by_bins = ExpTable {
        id: "sens-bins".into(),
        title: "utility energy (kWh) vs factory bin count, utility-only, Effi scheduling".into(),
        columns,
        rows: vec![("BinEffi".into(), values)],
    };

    // Sweep 2: plan quality vs scanner grid resolution (static fleet-power
    // comparison: simulation noise would drown the sub-percent deltas).
    let fleet = iscope_pvmodel::Fleet::generate(
        cfg.fleet_size,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        cfg.seed,
    );
    let top = fleet.dvfs.max_level();
    let by_grid = sweep(&GRID_POINTS, |&points| {
        let report = Scanner::new(ScannerConfig {
            grid_points: points,
            ..ScannerConfig::default()
        })
        .profile_fleet(&fleet, cfg.seed);
        let plan = OperatingPlan::from_scanned(&fleet, &report.measured_vmin);
        let kw: f64 = fleet
            .chips
            .iter()
            .map(|c| plan.true_power(&fleet, c.id, top))
            .sum::<f64>()
            / 1e3;
        GridPoint {
            points,
            fleet_power_kw: kw,
            tests_run: report.tests_run,
        }
    });
    Sensitivity { by_bins, by_grid }
}

/// Runs the configured workload under Effi scheduling with a `bins`-bin
/// factory plan.
fn run_with_bins(cfg: &ExpConfig, bins: usize) -> iscope::RunReport {
    use iscope_pvmodel::Fleet;
    use iscope_sched::Scheme;
    // Recreate exactly what the builder does, but with a custom binning.
    let fleet = Fleet::generate(
        cfg.fleet_size,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        cfg.seed,
    );
    let binning = Binning::by_efficiency(&fleet, bins);
    let plan = OperatingPlan::from_binning(&fleet, &binning);
    let sim = cfg.sim(Scheme::BinEffi).build();
    let workload = sim.workload().clone();
    iscope::run_simulation(iscope::SimInput {
        scheme_name: format!("Bin{bins}Effi"),
        fleet,
        plan: plan.into(),
        placement: Scheme::BinEffi.placement(),
        supply: iscope_energy::Supply::utility_only(),
        cooling: CoolingModel::default(),
        workload,
        seed: cfg.seed,
        trace_interval: None,
        dvfs_mode: iscope::DvfsMode::GlobalLevel,
        deferral: None,
        in_situ: None,
        fault_injection: None,
        surplus_signal: iscope::SurplusSignal::Instantaneous,
        audit: cfg.audit.then(iscope::AuditConfig::default),
        telemetry: None,
        carbon: None,
    })
}

impl Sensitivity {
    /// Renders both sweeps.
    pub fn render(&self) -> String {
        let mut out = self.by_bins.render();
        out.push_str("\n## sens-grid — scan plan quality vs voltage-grid resolution\n");
        out.push_str("points/bin   fleet busy power   stability tests\n");
        for g in &self.by_grid {
            out.push_str(&format!(
                "{:>10}   {:>13.2} kW   {:>12}\n",
                g.points, g.fleet_power_kw, g.tests_run
            ));
        }
        out.push_str(
            "More bins monotonically recover margin; the scan is the limit.\n\
             Finer grids shave the quantization loss at linearly more tests.\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    #[test]
    fn more_knowledge_is_monotonically_better() {
        let s = run(&ExpConfig::new(ExpScale::Fast));
        let row = s.by_bins.row("BinEffi").unwrap();
        // Energy falls (weakly) as bins grow, and the scan is best of all.
        for w in row.windows(2) {
            assert!(
                w[1] <= w[0] * 1.005,
                "more bins must not cost energy: {row:?}"
            );
        }
        let scan = *row.last().unwrap();
        assert!(
            scan <= row[0] * 0.95,
            "scan should clearly beat one-bin nominal: {row:?}"
        );
    }

    #[test]
    fn finer_grids_trade_tests_for_power() {
        let s = run(&ExpConfig::new(ExpScale::Fast));
        for w in s.by_grid.windows(2) {
            assert!(w[1].points > w[0].points);
            assert!(
                w[1].fleet_power_kw <= w[0].fleet_power_kw + 1e-9,
                "finer grid must not worsen the plan: {:?}",
                s.by_grid
            );
            assert!(
                w[1].tests_run > w[0].tests_run,
                "finer grid must probe more"
            );
        }
    }
}
