//! Property-based tests for the scanner: for arbitrary fleets and grid
//! shapes, measurements stay safe and the early-stop logic stays sound.

use iscope_dcsim::SimRng;
use iscope_pvmodel::{
    AgingModel, Chip, ChipId, CoreId, DvfsConfig, Fleet, FreqLevel, OperatingPlan, VariationParams,
};
use iscope_scanner::{
    analyse_staleness, safe_reprofile_interval_hours, ProfilingRecords, Scanner, ScannerConfig,
    TestKind, TestOutcome, TestProgram, VoltageGrid,
};
use proptest::prelude::*;

fn fleet(n: usize, seed: u64) -> Fleet {
    Fleet::generate(
        n,
        DvfsConfig::paper_default(),
        &VariationParams::default(),
        seed,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any seed and grid resolution, measured Min Vdd is never below
    /// the true value and never more than one grid step above it (when the
    /// truth lies inside the grid).
    #[test]
    fn measurements_are_safe_and_tight(
        seed in any::<u64>(),
        points in 4usize..24,
        chips in 2usize..10,
    ) {
        let f = fleet(chips, seed);
        let scanner = Scanner::new(ScannerConfig {
            grid_points: points,
            ..ScannerConfig::default()
        });
        let report = scanner.profile_fleet(&f, seed);
        for chip in &f.chips {
            for l in f.dvfs.levels() {
                let truth = chip.vmin_chip(l, false);
                let measured = report.measured_vmin[chip.id.0 as usize][l.0 as usize];
                prop_assert!(measured >= truth - 1e-12);
                let grid = report.records.grid().voltages(l);
                let step = grid[0] - grid[1];
                if truth >= *grid.last().unwrap() {
                    prop_assert!(measured - truth <= step + 1e-9);
                }
            }
        }
    }

    /// The early-stop scan never runs more tests than the exhaustive grid
    /// and never fewer than one per core-level.
    #[test]
    fn test_counts_are_bounded(seed in any::<u64>(), chips in 2usize..8) {
        let f = fleet(chips, seed);
        let report = Scanner::new(ScannerConfig::default()).profile_fleet(&f, seed);
        let levels = f.dvfs.num_levels() as u64;
        let cores = 4u64;
        let lower = chips as u64 * cores * levels;
        let upper = chips as u64 * cores * levels * 10;
        prop_assert!(report.tests_run >= lower, "{} < {lower}", report.tests_run);
        prop_assert!(report.tests_run <= upper, "{} > {upper}", report.tests_run);
    }

    /// SBFT and stress scans always extract identical grids (only cost
    /// differs), for any fleet.
    #[test]
    fn test_kind_never_changes_the_measurement(seed in any::<u64>()) {
        let f = fleet(6, seed);
        let a = Scanner::new(ScannerConfig::default()).profile_fleet(&f, seed);
        let b = Scanner::new(ScannerConfig {
            test_kind: TestKind::Sbft,
            ..ScannerConfig::default()
        })
        .profile_fleet(&f, seed);
        prop_assert_eq!(&a.measured_vmin, &b.measured_vmin);
    }

    /// Arbitrary record/outcome sequences never produce an inconsistent
    /// database: measured vmin (if any) is always a voltage that passed,
    /// and next_probe never points at or below a recorded fail.
    #[test]
    fn records_stay_consistent_under_arbitrary_outcomes(
        outcomes in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let dvfs = DvfsConfig::paper_default();
        let grid = VoltageGrid::paper_default(&dvfs);
        let mut records = ProfilingRecords::new(grid, 1, 1);
        let core = CoreId { chip: ChipId(0), core: 0 };
        let level = FreqLevel(0);
        let mut lowest_pass: Option<usize> = None;
        for &pass in &outcomes {
            let Some(idx) = records.next_probe(core, level) else { break };
            let outcome = if pass { TestOutcome::Pass } else { TestOutcome::Fail };
            if pass {
                lowest_pass = Some(lowest_pass.map_or(idx, |p: usize| p.max(idx)));
            }
            records.record(core, level, idx, outcome);
        }
        let measured = records.measured_vmin(core, level);
        match lowest_pass {
            Some(idx) => {
                let v = records.grid().voltages(level)[idx];
                prop_assert_eq!(measured, Some(v));
            }
            None => prop_assert_eq!(measured, None),
        }
    }

    /// The safe re-profiling interval really is safe: for any fleet, any
    /// scanned plan, and any (positive-drift) aging law, a profile aged
    /// strictly less than `safe_reprofile_interval_hours` reports zero
    /// unsafe chips and a positive worst margin.
    #[test]
    fn aging_within_the_safe_interval_is_always_safe(
        seed in any::<u64>(),
        chips in 2usize..12,
        drift_v_per_kh in 0.0005f64..0.02,
        voltage_exponent in 1.0f64..6.0,
        frac in 0.01f64..0.99,
    ) {
        let f = fleet(chips, seed);
        let scan = Scanner::new(ScannerConfig::default()).profile_fleet(&f, seed);
        let plan = OperatingPlan::from_scanned(&f, &scan.measured_vmin);
        let aging = AgingModel { drift_v_per_kh, voltage_exponent };
        let safe = safe_reprofile_interval_hours(&f, &plan, &aging);
        prop_assert!(safe.is_finite() && safe > 0.0);
        let r = analyse_staleness(&f, &plan, &aging, frac * safe);
        prop_assert_eq!(r.unsafe_chips, 0, "aged {:.1} of {:.1} safe hours: {:?}", frac * safe, safe, r);
        prop_assert!(r.worst_margin_v > 0.0);
    }

    /// Scanning a chip on its own (the in-run re-scan path) is the same
    /// scan as profiling it into fleet-wide records: same duration, test
    /// count, per-core and chip-level Min Vdd bits, and the same RNG state
    /// afterwards, for any chip, grid, fault rate and GPU setting.
    #[test]
    fn chip_scan_matches_fleet_records(
        seed in any::<u64>(),
        chips in 1usize..8,
        pick in any::<usize>(),
        points in 2usize..24,
        depth in 0.02f64..0.5,
        fault_rate in 0.001f64..0.1,
        gpu_enabled in any::<bool>(),
        rng_seed in any::<u64>(),
    ) {
        let f = fleet(chips, seed);
        let chip = &f.chips[pick % chips];
        let scanner = Scanner::new(ScannerConfig {
            grid_points: points,
            grid_depth: depth,
            fault_rate,
            gpu_enabled,
            ..ScannerConfig::default()
        });
        let grid = VoltageGrid::from_dvfs(&f.dvfs, points, depth);
        let mut fleet_rng = SimRng::new(rng_seed);
        let mut records = ProfilingRecords::for_fleet(grid.clone(), &f);
        let duration = scanner.profile_chip(chip, &mut records, &mut fleet_rng);
        let mut chip_rng = SimRng::new(rng_seed);
        let scan = scanner.scan_chip(chip, &grid, &mut chip_rng);
        prop_assert_eq!(scan.duration, duration);
        prop_assert_eq!(scan.tests_run, records.tests_run());
        prop_assert_eq!(chip_rng.snapshot(), fleet_rng.snapshot());
        for l in f.dvfs.levels() {
            prop_assert_eq!(
                scan.measured_vmin_chip(l).map(f64::to_bits),
                records.measured_vmin_chip(chip.id, l).map(f64::to_bits)
            );
            for core in 0..chip.cores.len() as u8 {
                prop_assert_eq!(
                    scan.measured_vmin(core, l).map(f64::to_bits),
                    records
                        .measured_vmin(CoreId { chip: chip.id, core }, l)
                        .map(f64::to_bits)
                );
            }
        }
    }

    /// A test at a stable operating point passes without drawing from the
    /// RNG, whatever the fault rate and GPU setting.
    #[test]
    fn stable_points_pass_without_drawing(
        seed in any::<u64>(),
        level in 0u8..5,
        headroom in 0.0f64..0.2,
        fault_rate in 0.0f64..1.0,
        gpu_enabled in any::<bool>(),
    ) {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(seed);
        let chip = Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng);
        let program = TestProgram::generate(64, &mut rng);
        let level = FreqLevel(level);
        for core in &chip.cores {
            let voltage = core.vmin_gpu(level) + headroom;
            prop_assert!(core.stable_at(level, voltage, gpu_enabled));
            let before = rng.snapshot();
            let outcome = program.run(core, level, voltage, gpu_enabled, fault_rate, &mut rng);
            prop_assert_eq!(outcome, TestOutcome::Pass);
            prop_assert_eq!(rng.snapshot(), before);
        }
    }

    /// A test at an unstable point draws exactly one `chance(fault_rate)`
    /// per operation plus one `index(64)` per flipped bit, in program
    /// order: the RNG ends where a bare replay of those draws does, for
    /// any fault rate in `[0, 1]`, at the edges of the 53-bit uniform, and
    /// for the NaN and out-of-range rates `chance` clamps.
    #[test]
    fn unstable_points_draw_one_chance_per_op(
        seed in any::<u64>(),
        level in 0u8..5,
        below in 0.001f64..0.2,
        len in 1usize..600,
        edge in 0usize..16,
        uniform_rate in 0.0f64..=1.0,
    ) {
        let ulp = 1.0 / (1u64 << 53) as f64;
        let fault_rate = [0.0, ulp, 3.0 * ulp, 0.05, 1.0, f64::NAN, -1.0, 2.0]
            .get(edge)
            .copied()
            .unwrap_or(uniform_rate);
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(seed);
        let chip = Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng);
        let program = TestProgram::generate(len, &mut rng);
        let level = FreqLevel(level);
        for core in &chip.cores {
            let voltage = core.vmin(level) - below;
            prop_assert!(!core.stable_at(level, voltage, false));
            let mut replay = rng.clone();
            program.run(core, level, voltage, false, fault_rate, &mut rng);
            for _ in 0..program.len() {
                if replay.chance(fault_rate) {
                    replay.index(64);
                }
            }
            prop_assert_eq!(rng.snapshot(), replay.snapshot(), "fault_rate {}", fault_rate);
        }
    }

    /// profile_chip leaves every core complete for any chip the default
    /// variation model can produce.
    #[test]
    fn profile_chip_always_completes(seed in any::<u64>()) {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(seed);
        let chip = Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng);
        let grid = VoltageGrid::paper_default(&dvfs);
        let mut records = ProfilingRecords::new(grid, 1, chip.cores.len());
        let scanner = Scanner::new(ScannerConfig::default());
        let dur = scanner.profile_chip(&chip, &mut records, &mut rng);
        prop_assert!(records.chip_complete(ChipId(0)));
        prop_assert!(dur.as_millis() > 0);
    }
}
