//! Scanner → scheduler integration: the in-cloud profile must be safe,
//! close to the oracle, and actually worth its overhead.

use iscope_dcsim::SimRng;
use iscope_energy::PriceBook;
use iscope_pvmodel::{DvfsConfig, Fleet, OperatingPlan, VariationParams};
use iscope_scanner::{OverheadModel, Scanner, ScannerConfig, TestKind, VoltageGrid};

fn fleet(n: usize, seed: u64) -> Fleet {
    Fleet::generate(
        n,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        seed,
    )
}

#[test]
fn scanned_plan_is_safe_and_within_one_grid_step_of_oracle() {
    let f = fleet(80, 3);
    let scanner = Scanner::new(ScannerConfig::default());
    let report = scanner.profile_fleet(&f, 3);
    let plan = OperatingPlan::from_scanned(&f, &report.measured_vmin);
    let oracle = OperatingPlan::oracle(&f);
    let grid = scanner.config().grid(&f.dvfs);
    for chip in &f.chips {
        for l in f.dvfs.levels() {
            let applied = plan.applied_voltage(chip.id, l);
            let ideal = oracle.applied_voltage(chip.id, l);
            assert!(
                applied >= chip.vmin_chip(l, false),
                "unsafe scanned voltage"
            );
            // Quantization costs at most one grid step over the oracle.
            let grid = grid.voltages(l);
            let step = grid[0] - grid[1];
            assert!(
                applied - ideal <= step + 1e-9,
                "scan lost more than one grid step: {applied} vs {ideal}"
            );
        }
    }
}

#[test]
fn scan_energy_saving_exceeds_its_own_cost_quickly() {
    // The profile costs one early-stop scan; the fleet then saves power on
    // every busy hour. Check the payback is short (the paper calls the
    // overhead "negligible").
    let f = fleet(60, 7);
    let report = Scanner::new(ScannerConfig::default()).profile_fleet(&f, 7);
    let scan_plan = OperatingPlan::from_scanned(&f, &report.measured_vmin);
    let bin_plan = {
        let binning = iscope_pvmodel::Binning::by_efficiency(&f, 3);
        OperatingPlan::from_binning(&f, &binning)
    };
    let top = f.dvfs.max_level();
    let saving_w: f64 = f
        .chips
        .iter()
        .map(|c| bin_plan.true_power(&f, c.id, top) - scan_plan.true_power(&f, c.id, top))
        .sum();
    assert!(saving_w > 0.0);
    let prices = PriceBook::paper_default();
    let total_secs: f64 = report.per_chip_time.iter().map(|d| d.as_secs_f64()).sum();
    let scan_cost = OverheadModel::default().actual_cost(total_secs, &prices);
    // Hours of fleet-busy operation to amortize the scan on utility power.
    let saving_usd_per_hour = saving_w / 1000.0 * prices.utility_usd_per_kwh;
    let payback_h = scan_cost.cost_utility_usd / saving_usd_per_hour;
    assert!(
        payback_h < 24.0 * 14.0,
        "scan pays back only after {payback_h:.0} busy hours"
    );
}

#[test]
fn sbft_and_stress_find_the_same_vmin() {
    // The 29-second SBFT extracts the same boundary as the 10-minute
    // stress test — only the time/energy cost differs (SIII.C).
    let f = fleet(20, 11);
    let stress = Scanner::new(ScannerConfig::default()).profile_fleet(&f, 11);
    let sbft = Scanner::new(ScannerConfig {
        test_kind: TestKind::Sbft,
        ..ScannerConfig::default()
    })
    .profile_fleet(&f, 11);
    assert_eq!(stress.measured_vmin, sbft.measured_vmin);
    assert!(sbft.campaign_time < stress.campaign_time);
}

#[test]
fn incremental_profiling_converges_to_full_scan() {
    // Profiling chips one at a time, as opportunistic windows allow,
    // completes every chip with a safe Min Vdd.
    let f = fleet(24, 13);
    let scanner = Scanner::new(ScannerConfig::default());
    let grid = VoltageGrid::paper_default(&f.dvfs);
    let mut rng = SimRng::derive(13, "scanner");
    for chip in &f.chips {
        // The scan kernel checks the chip's records resolve in debug builds.
        let scan = scanner.scan_chip(chip, &grid, &mut rng);
        for l in f.dvfs.levels() {
            let measured = scan.measured_vmin_chip(l).unwrap();
            assert!(measured >= chip.vmin_chip(l, false));
        }
    }
}

#[test]
fn gpu_aware_profiling_buys_headroom_when_gpu_is_off() {
    // On-demand profiling (SIII.C): a cloud that never uses the iGPU can
    // run at the lower GPU-off Min Vdd; a GPU-on profile is strictly more
    // conservative.
    let f = fleet(30, 17);
    let off = Scanner::new(ScannerConfig::default()).profile_fleet(&f, 17);
    let on = Scanner::new(ScannerConfig {
        gpu_enabled: true,
        ..ScannerConfig::default()
    })
    .profile_fleet(&f, 17);
    let plan_off = OperatingPlan::from_scanned(&f, &off.measured_vmin);
    let plan_on = OperatingPlan::from_scanned(&f, &on.measured_vmin);
    let top = f.dvfs.max_level();
    let power =
        |p: &OperatingPlan| -> f64 { f.chips.iter().map(|c| p.true_power(&f, c.id, top)).sum() };
    assert!(
        power(&plan_off) < power(&plan_on),
        "GPU-off profile must be cheaper to run"
    );
}
