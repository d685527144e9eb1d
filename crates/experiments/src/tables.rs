//! Tables 1 and 2 of the paper, plus the §VI.E profiling-overhead numbers.

use crate::common::ExpConfig;
use iscope_energy::PriceBook;
use iscope_pvmodel::{Binning, DvfsConfig, Fleet, VariationParams, OPTERON_6300_BINS};
use iscope_scanner::{OverheadModel, ProfilingCost, Scanner, ScannerConfig, TestKind};

/// Table 1: the AMD Opteron 6300 bins plus our fleet's 3-bin outcome.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Worst-case operating voltage (top level) per bin of our fleet.
    pub bin_voltages: Vec<f64>,
    /// Member count per bin.
    pub bin_sizes: Vec<usize>,
    /// Representative busy power (W, top level) per bin.
    pub bin_power_w: Vec<f64>,
}

iscope::to_val!(Table1, |t| {
    "bin_voltages" => t.bin_voltages,
    "bin_sizes" => t.bin_sizes,
    "bin_power_w" => t.bin_power_w,
});

/// Regenerates Table 1 against a generated fleet.
pub fn table1(cfg: &ExpConfig) -> Table1 {
    let fleet = Fleet::generate(
        cfg.fleet_size,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        cfg.seed,
    );
    let binning = Binning::by_efficiency(&fleet, 3);
    let pm = fleet.power_model();
    let top = fleet.dvfs.max_level();
    Table1 {
        bin_voltages: binning
            .bins
            .iter()
            .map(|b| b.voltage[top.0 as usize])
            .collect(),
        bin_sizes: binning.bins.iter().map(|b| b.members.len()).collect(),
        bin_power_w: binning
            .bins
            .iter()
            .map(|b| {
                pm.power(
                    b.repr_alpha,
                    b.repr_beta,
                    fleet.dvfs.f_max(),
                    b.voltage[top.0 as usize],
                )
            })
            .collect(),
    }
}

impl Table1 {
    /// Renders the published Opteron table and our fleet's bins.
    pub fn render(&self) -> String {
        let mut out = String::from("## table1 — AMD Opteron 6300 bins (published)\n");
        out.push_str("model  cores/cache  nominal  max    price\n");
        for b in OPTERON_6300_BINS {
            out.push_str(&format!(
                "{}   {}/{} MB     {:.1} GHz {:.1} GHz ${}\n",
                b.model, b.cores, b.cache_mb, b.nominal_ghz, b.max_ghz, b.price_usd
            ));
        }
        out.push_str("\n## our fleet's 3 efficiency bins (2 GHz level)\n");
        out.push_str("bin    members   voltage     repr power\n");
        for i in 0..self.bin_sizes.len() {
            out.push_str(&format!(
                "{}      {:>7}   {:>7.4} V   {:>7.1} W\n",
                i, self.bin_sizes[i], self.bin_voltages[i], self.bin_power_w[i]
            ));
        }
        out
    }
}

/// Table 2: the five schemes (printed straight from the scheme registry).
pub fn table2() -> String {
    let mut out = String::from("## table2 — evaluated task scheduling schemes\n");
    out.push_str("name      profiling  scheduling algorithm\n");
    for s in iscope_sched::Scheme::ALL {
        let profiling = match s.profiling() {
            iscope_sched::Profiling::Bin => "No",
            iscope_sched::Profiling::Scan => "Dynamic",
        };
        let algo = match s.placement().name() {
            "Ran" => "Random",
            "Effi" => "Minimize Energy",
            _ => "Minimize Energy + Balance Utilization",
        };
        out.push_str(&format!("{:<9} {:<10} {}\n", s.name(), profiling, algo));
    }
    out
}

/// §VI.E profiling-overhead reproduction.
#[derive(Debug, Clone)]
pub struct Overhead {
    /// Full-grid stress-test cost (paper: 230 USD wind / 598 utility).
    pub stress_full_grid: ProfilingCost,
    /// Full-grid SBFT cost (paper: 11.2 USD wind / 28.9 utility).
    pub sbft_full_grid: ProfilingCost,
    /// Cost of an actual early-stop scan of the configured fleet.
    pub actual_scan: ProfilingCost,
    /// Stability tests the actual scan executed.
    pub actual_tests: u64,
}

iscope::to_val!(Overhead, |o| {
    "stress_full_grid" => o.stress_full_grid,
    "sbft_full_grid" => o.sbft_full_grid,
    "actual_scan" => o.actual_scan,
    "actual_tests" => o.actual_tests,
});

/// Reproduces the overhead arithmetic at the paper's 4800-CPU scale and
/// prices an actual scan of the configured fleet.
pub fn overhead(cfg: &ExpConfig) -> Overhead {
    let model = OverheadModel::default();
    let prices = PriceBook::paper_default();
    let fleet = Fleet::generate(
        cfg.fleet_size,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        cfg.seed,
    );
    let report = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, cfg.seed);
    let total_secs: f64 = report.per_chip_time.iter().map(|d| d.as_secs_f64()).sum();
    Overhead {
        stress_full_grid: model.full_grid_cost(4800, TestKind::Stress, &prices),
        sbft_full_grid: model.full_grid_cost(4800, TestKind::Sbft, &prices),
        actual_scan: model.actual_cost(total_secs, &prices),
        actual_tests: report.tests_run,
    }
}

impl Overhead {
    /// Renders the §VI.E cost lines.
    pub fn render(&self, fleet_size: usize) -> String {
        format!(
            "## overhead — profiling energy cost (SVI.E)\n\
             full grid, 10-min stress, 4800 CPUs:  {:.0} kWh = ${:.0} wind / ${:.0} utility (paper: 230 / 598)\n\
             full grid, 29-s SBFT, 4800 CPUs:      {:.1} kWh = ${:.1} wind / ${:.1} utility (paper: 11.2 / 28.9)\n\
             actual early-stop scan, {} CPUs:     {:.2} kWh = ${:.2} wind / ${:.2} utility ({} tests)\n",
            self.stress_full_grid.energy_kwh,
            self.stress_full_grid.cost_wind_usd,
            self.stress_full_grid.cost_utility_usd,
            self.sbft_full_grid.energy_kwh,
            self.sbft_full_grid.cost_wind_usd,
            self.sbft_full_grid.cost_utility_usd,
            fleet_size,
            self.actual_scan.energy_kwh,
            self.actual_scan.cost_wind_usd,
            self.actual_scan.cost_utility_usd,
            self.actual_tests,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    #[test]
    fn table1_bins_are_ordered_by_efficiency() {
        let t = table1(&ExpConfig::new(ExpScale::Fast));
        assert_eq!(t.bin_sizes.len(), 3);
        assert!(t.bin_power_w.windows(2).all(|w| w[0] < w[1]));
        assert!(t.render().contains("6376"));
    }

    #[test]
    fn table2_lists_all_five() {
        let s = table2();
        for name in ["BinRan", "BinEffi", "ScanRan", "ScanEffi", "ScanFair"] {
            assert!(s.contains(name), "missing {name}");
        }
    }

    #[test]
    fn overhead_matches_paper_dollars() {
        let o = overhead(&ExpConfig::new(ExpScale::Fast));
        assert!((o.stress_full_grid.cost_wind_usd - 230.0).abs() < 1.0);
        assert!((o.stress_full_grid.cost_utility_usd - 598.0).abs() < 1.0);
        assert!((o.sbft_full_grid.cost_wind_usd - 11.2).abs() < 0.1);
        assert!((o.sbft_full_grid.cost_utility_usd - 28.9).abs() < 0.1);
        // The actual scan stops early, so it is cheaper per CPU than the
        // full grid.
        let per_cpu_actual = o.actual_scan.energy_kwh / 48.0;
        let per_cpu_full = o.stress_full_grid.energy_kwh / 4800.0;
        assert!(per_cpu_actual < per_cpu_full);
        assert!(o.actual_tests > 0);
    }
}
