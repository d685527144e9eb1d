//! Property-based tests for the scanner: for arbitrary fleets and grid
//! shapes, measurements stay safe and the early-stop logic stays sound.

use iscope_dcsim::SimRng;
use iscope_pvmodel::{
    AgingModel, Chip, ChipId, DvfsConfig, Fleet, FreqLevel, OperatingPlan, VariationParams,
};
use iscope_scanner::{
    analyse_staleness, safe_reprofile_interval_hours, Scanner, ScannerConfig, TestKind,
    TestOutcome, TestProgram, VoltageGrid,
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
        let grid = scanner.config().grid(&f.dvfs);
        for chip in &f.chips {
            for l in f.dvfs.levels() {
                let truth = chip.vmin_chip(l, false);
                let measured = report.measured_vmin[chip.id.0 as usize][l.0 as usize];
                prop_assert!(measured >= truth - 1e-12);
                let grid = grid.voltages(l);
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

    /// scan_chip leaves every core complete for any chip the default
    /// variation model can produce (the kernel checks its records
    /// resolve in debug builds) and takes the chip out of service.
    #[test]
    fn scan_chip_always_completes(seed in any::<u64>()) {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(seed);
        let chip = Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng);
        let grid = VoltageGrid::paper_default(&dvfs);
        let scanner = Scanner::new(ScannerConfig::default());
        let scan = scanner.scan_chip(&chip, &grid, &mut rng);
        prop_assert!(scan.duration.as_millis() > 0);
    }
}

fn fnv1a(words: &[u64]) -> u64 {
    words
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Golden output of `scan_chip` under non-default grids, fault rates and
/// GPU settings, where the default-config fleet pin does not reach: per
/// setting the chip's out-of-service time, tests run, FNV-1a of the bits
/// of every per-core and chip-level Min Vdd (`u64::MAX` for none), and
/// the RNG words after the scan.
#[test]
fn chip_scan_is_pinned() {
    let f = fleet(6, 23);
    let settings = [
        (6, 0.14, 0.001, false),
        (23, 0.45, 0.09, true),
        (2, 0.3, 1.0, false),
        (12, 0.2, 0.02, true),
    ];
    let mut got = Vec::new();
    for (i, &(grid_points, grid_depth, fault_rate, gpu_enabled)) in settings.iter().enumerate() {
        let scanner = Scanner::new(ScannerConfig {
            grid_points,
            grid_depth,
            fault_rate,
            gpu_enabled,
            ..ScannerConfig::default()
        });
        let grid = scanner.config().grid(&f.dvfs);
        let chip = &f.chips[i + 1];
        let mut rng = SimRng::new(100 + i as u64);
        let scan = scanner.scan_chip(chip, &grid, &mut rng);
        let bits = |v: Option<f64>| v.map_or(u64::MAX, f64::to_bits);
        let (mut per_core, mut chip_level) = (Vec::new(), Vec::new());
        for l in f.dvfs.levels() {
            chip_level.push(bits(scan.measured_vmin_chip(l)));
            for core in 0..chip.cores.len() as u8 {
                per_core.push(bits(scan.measured_vmin(core, l)));
            }
        }
        got.push((
            scan.duration.as_millis(),
            scan.tests_run,
            fnv1a(&per_core),
            fnv1a(&chip_level),
            rng.snapshot().words,
        ));
    }
    assert_eq!(
        got,
        [
            (
                18_000_000,
                111,
                17_233_346_471_786_607_185,
                6_283_977_530_460_535_825,
                [
                    8_057_165_232_529_998_456,
                    6_817_626_938_920_331_082,
                    17_844_614_460_903_872_418,
                    18_201_833_281_519_833_712,
                ],
            ),
            (
                21_000_000,
                133,
                10_009_491_701_284_889_313,
                13_293_651_740_322_702_819,
                [
                    5_204_435_962_674_555_491,
                    12_992_944_266_171_668_422,
                    16_765_626_807_929_793_699,
                    5_595_661_560_545_743_667,
                ],
            ),
            (
                6_000_000,
                40,
                18_017_785_639_311_839_125,
                4_817_053_500_654_092_316,
                [
                    10_306_227_084_674_310_299,
                    17_841_290_799_302_581_154,
                    14_082_204_667_900_378_307,
                    2_444_558_961_996_786_839,
                ],
            ),
            (
                24_000_000,
                155,
                12_795_926_450_407_704_096,
                8_856_837_718_900_568_213,
                [
                    12_202_067_094_073_058_952,
                    5_458_991_458_685_167_144,
                    880_106_464_107_395_553,
                    1_137_642_152_728_798_589,
                ],
            ),
        ]
    );
}
