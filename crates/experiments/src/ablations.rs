//! Ablation studies beyond the paper's headline figures — the §VIII /
//! DESIGN.md §8 extension set, each quantifying one design choice:
//!
//! 1. **Per-core voltage domains** (§III.B): chip-wide worst-core supply
//!    vs per-core supplies.
//! 2. **DVFS matching**: the paper's fleet-wide level stepping vs per-job
//!    greedy fitting.
//! 3. **Macro vs macro+micro**: GreenSlot-style deferral on binned
//!    hardware vs iScope's ScanFair (with and without deferral).
//! 4. **Wear & replacement**: the Fig. 9 utilization variance translated
//!    into staggered retirements via the aging model.
//! 5. **Re-profiling cadence** (§III.C): how long a scanned plan stays
//!    safe as chips age.
//! 6. **Battery vs matching**: smoothing the supply with storage instead
//!    of shaping demand.

use crate::common::ExpConfig;
use iscope::experiments::sweep;
use iscope::prelude::*;
use iscope::{DeferralConfig, DvfsMode, RunReport};
use iscope_energy::{smooth_against_demand, Battery, Supply};
use iscope_pvmodel::{AgingModel, Binning, OperatingPlan, VariationParams, WearReport};
use iscope_scanner::{analyse_staleness, safe_reprofile_interval_hours, Scanner, ScannerConfig};
use iscope_sched::Scheme;

/// Results of the ablation suite.
#[derive(Debug, Clone)]
pub struct Ablations {
    /// Fleet busy power (kW, top level): binned / scanned / per-core.
    pub fleet_power_kw: (f64, f64, f64),
    /// Utility kWh and miss rate: global-level vs per-job-greedy DVFS.
    pub dvfs_global: (f64, f64),
    /// Per-job-greedy counterpart.
    pub dvfs_greedy: (f64, f64),
    /// Total cost USD: BinRan / BinRan+defer / ScanFair / ScanFair+defer.
    pub macro_micro_cost: [f64; 4],
    /// Wear spread (fraction of life) after the run: ScanEffi vs ScanFair.
    pub wear_spread: (f64, f64),
    /// Chips worn past half the worst observed wear: ScanEffi vs ScanFair
    /// (the imbalance signal; absolute life fractions are tiny over a few
    /// simulated days).
    pub replacements: (usize, usize),
    /// Safe re-profiling interval (hours) for a scanned fleet.
    pub reprofile_hours: f64,
    /// Unsafe chips when the profile is 3x too old.
    pub stale_unsafe_chips: usize,
    /// Utility kWh: demand matching alone vs a 2-hour battery instead.
    pub matching_vs_battery: (f64, f64),
}

iscope::to_val!(Ablations, |a| {
    "fleet_power_kw" => a.fleet_power_kw,
    "dvfs_global" => a.dvfs_global,
    "dvfs_greedy" => a.dvfs_greedy,
    "macro_micro_cost" => a.macro_micro_cost,
    "wear_spread" => a.wear_spread,
    "replacements" => a.replacements,
    "reprofile_hours" => a.reprofile_hours,
    "stale_unsafe_chips" => a.stale_unsafe_chips,
    "matching_vs_battery" => a.matching_vs_battery,
});

fn run(cfg: &ExpConfig, scheme: Scheme, wind: bool, mode: DvfsMode, defer: bool) -> RunReport {
    let b = if wind {
        cfg.wind_sim(scheme, 1.0)
    } else {
        cfg.sim(scheme)
    }
    .dvfs_mode(mode);
    let b = if defer {
        b.deferral(DeferralConfig::default())
    } else {
        b
    };
    b.build().run()
}

/// Runs the whole ablation suite.
pub fn run_all(cfg: &ExpConfig) -> Ablations {
    let fleet = iscope_pvmodel::Fleet::generate(
        cfg.fleet_size,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        cfg.seed,
    );
    let scan = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, cfg.seed);
    let bin_plan = OperatingPlan::from_binning(&fleet, &Binning::by_efficiency(&fleet, 3));
    let scan_plan = OperatingPlan::from_scanned(&fleet, &scan.measured_vmin);
    let core_plan = OperatingPlan::from_scanned_per_core(&fleet, &scan.measured_vmin_per_core);
    let top = fleet.dvfs.max_level();
    let fleet_kw = |p: &OperatingPlan| {
        fleet
            .chips
            .iter()
            .map(|c| p.true_power(&fleet, c.id, top))
            .sum::<f64>()
            / 1e3
    };

    // 2–4. The six distinct simulation cells behind the DVFS, macro/micro
    // and wear studies, as one parallel sweep. Each cell is a pure
    // function of its parameters (seeded runs are deterministic), so the
    // studies share cells instead of re-running identical configs.
    let cells: [(Scheme, DvfsMode, bool); 6] = [
        (Scheme::ScanFair, DvfsMode::GlobalLevel, false),
        (Scheme::ScanFair, DvfsMode::PerJobGreedy, false),
        (Scheme::BinRan, DvfsMode::GlobalLevel, false),
        (Scheme::BinRan, DvfsMode::GlobalLevel, true),
        (Scheme::ScanFair, DvfsMode::GlobalLevel, true),
        (Scheme::ScanEffi, DvfsMode::GlobalLevel, false),
    ];
    let runs = sweep(&cells, |&(scheme, mode, defer)| {
        run(cfg, scheme, true, mode, defer)
    });
    let (global, greedy) = (&runs[0], &runs[1]);

    // 3. Macro vs macro+micro.
    let macro_micro_cost = [
        runs[2].total_cost_usd(),
        runs[3].total_cost_usd(),
        runs[0].total_cost_usd(),
        runs[4].total_cost_usd(),
    ];

    // 4. Wear from the Fig. 9 runs.
    let aging = AgingModel::default();
    let wear_of = |r: &RunReport| -> WearReport {
        let voltages: Vec<f64> = fleet
            .chips
            .iter()
            .map(|c| scan_plan.applied_voltage(c.id, top))
            .collect();
        WearReport::from_usage(
            &aging,
            &fleet.dvfs,
            &fleet.chips,
            &r.usage_hours,
            &voltages,
            0.0,
        )
    };
    let wear_effi = wear_of(&runs[5]);
    let wear_fair = wear_of(&runs[0]);
    // "Needs replacement" relative to the most-worn chip across both runs
    // (absolute life fractions are tiny over a few simulated days).
    let worst = wear_effi
        .life_consumed
        .iter()
        .chain(&wear_fair.life_consumed)
        .cloned()
        .fold(0.0, f64::max);
    let count_past = |w: &WearReport| {
        w.life_consumed
            .iter()
            .filter(|&&c| c >= 0.5 * worst)
            .count()
    };

    // 5. Staleness.
    let reprofile_hours = safe_reprofile_interval_hours(&fleet, &scan_plan, &aging);
    let stale = analyse_staleness(&fleet, &scan_plan, &aging, reprofile_hours * 3.0);

    // 6. Battery vs matching: BinRan with a battery-smoothed supply vs
    //    ScanFair shaping demand against the raw supply.
    let raw = cfg.wind_supply(1.0);
    let matching = cfg.sim(Scheme::ScanFair).supply(raw.clone()).build().run();
    let battery_supply = {
        let wind = raw.wind.clone().expect("hybrid supply has wind");
        let mean_demand = 0.3 * fleet_kw(&bin_plan) * 1000.0; // ~30 % utilization
        let battery = Battery::sized_for(mean_demand, 2.0);
        Supply::hybrid(smooth_against_demand(&wind, mean_demand, battery))
    };
    let battered = cfg.sim(Scheme::BinRan).supply(battery_supply).build().run();

    Ablations {
        fleet_power_kw: (
            fleet_kw(&bin_plan),
            fleet_kw(&scan_plan),
            fleet_kw(&core_plan),
        ),
        dvfs_global: (global.utility_kwh(), global.miss_rate()),
        dvfs_greedy: (greedy.utility_kwh(), greedy.miss_rate()),
        macro_micro_cost,
        wear_spread: (wear_effi.wear_spread, wear_fair.wear_spread),
        replacements: (count_past(&wear_effi), count_past(&wear_fair)),
        reprofile_hours,
        stale_unsafe_chips: stale.unsafe_chips,
        matching_vs_battery: (matching.utility_kwh(), battered.utility_kwh()),
    }
}

impl Ablations {
    /// Renders the ablation summary.
    pub fn render(&self) -> String {
        let (bin, scan, core) = self.fleet_power_kw;
        format!(
            "## ablations — design-choice studies (DESIGN.md §8)\n\
             1. voltage granularity, fleet busy power @2 GHz:\n\
                binned {bin:.1} kW -> scanned {scan:.1} kW ({:.1} %) -> per-core {core:.1} kW ({:.1} %)\n\
             2. DVFS matching (utility kWh / miss rate):\n\
                global level  {:.1} kWh / {:.1} %\n\
                per-job greedy {:.1} kWh / {:.1} %\n\
             3. macro vs macro+micro, total cost USD:\n\
                BinRan {:.2} | BinRan+defer {:.2} | ScanFair {:.2} | ScanFair+defer {:.2}\n\
             4. wear spread after the run (fraction of life, Effi vs Fair): {:.5} vs {:.5}\n\
                early replacements flagged: {} vs {}\n\
             5. safe re-profiling interval: {:.0} h of active operation; \
                at 3x that age, {} chips run unsafe\n\
             6. utility energy: ScanFair demand-matching {:.1} kWh vs \
                BinRan + 2 h battery {:.1} kWh\n",
            100.0 * (1.0 - scan / bin),
            100.0 * (1.0 - core / bin),
            self.dvfs_global.0,
            100.0 * self.dvfs_global.1,
            self.dvfs_greedy.0,
            100.0 * self.dvfs_greedy.1,
            self.macro_micro_cost[0],
            self.macro_micro_cost[1],
            self.macro_micro_cost[2],
            self.macro_micro_cost[3],
            self.wear_spread.0,
            self.wear_spread.1,
            self.replacements.0,
            self.replacements.1,
            self.reprofile_hours,
            self.stale_unsafe_chips,
            self.matching_vs_battery.0,
            self.matching_vs_battery.1,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    #[test]
    fn ablation_directions_hold() {
        let a = run_all(&ExpConfig::new(ExpScale::Fast));
        // 1. Finer voltage granularity always helps.
        let (bin, scan, core) = a.fleet_power_kw;
        assert!(scan < bin, "scan {scan} >= bin {bin}");
        assert!(core < scan, "per-core {core} >= scan {scan}");
        // 2. Greedy matching fits tighter (less utility), at the cost of
        //    generality; both keep misses bounded.
        assert!(a.dvfs_greedy.0 <= a.dvfs_global.0 * 1.1);
        assert!(a.dvfs_global.1 < 0.15 && a.dvfs_greedy.1 < 0.15);
        // 3. Macro+micro (ScanFair) beats macro-only (BinRan+defer).
        assert!(
            a.macro_micro_cost[2] < a.macro_micro_cost[0],
            "ScanFair must beat BinRan"
        );
        assert!(
            a.macro_micro_cost[3] <= a.macro_micro_cost[1],
            "ScanFair+defer must beat BinRan+defer"
        );
        // 4. Effi wears the fleet less evenly than Fair.
        assert!(a.wear_spread.0 > a.wear_spread.1);
        // 5. Re-profiling cadence is finite and useful.
        assert!(a.reprofile_hours.is_finite() && a.reprofile_hours > 100.0);
        assert!(a.stale_unsafe_chips > 0, "staleness must eventually bite");
    }
}
