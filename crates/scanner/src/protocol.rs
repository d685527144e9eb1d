//! The master/slave profiling protocol and the fleet-wide scan driver
//! (stages 1–6 of Fig. 3).
//!
//! An idle processor acts as master: it groups inadequately profiled
//! processors into a *profiling domain*, pushes a V/F configuration and a
//! stability test to each, collects pass/fail results, and refreshes the
//! records. Within a chip the supply is shared, so the voltage descends
//! chip-wide while every still-passing core runs the test concurrently —
//! exactly the §V.A methodology ("the processor Vdd is gradually
//! decreased ... until all cores cannot pass").

use crate::records::{ChipBlock, LevelRecord, ProfilingRecords, VoltageGrid};
use crate::sbft::{TestKind, TestProgram};
use iscope_dcsim::{SimDuration, SimRng};
use iscope_pvmodel::{Chip, ChipId, CoreId, DvfsConfig, Fleet, FreqLevel};

/// Configuration of the iScope scanner.
#[derive(Debug, Clone)]
pub struct ScannerConfig {
    /// Which stability test to run at each grid point.
    pub test_kind: TestKind,
    /// Probe voltages per frequency bin (paper §VI.E: 10).
    pub grid_points: usize,
    /// Probe depth below nominal voltage (0.15 ⇒ down to 85 % of nominal).
    pub grid_depth: f64,
    /// Length of the generated functional test program.
    pub program_len: usize,
    /// Per-operation fault probability below Min Vdd. With the default
    /// 512-operation program a false pass has probability
    /// `(1 - 0.05)^512 ~ 4e-12` — matching real SBFTs, whose 29 seconds of
    /// execution make missed detection essentially impossible.
    pub fault_rate: f64,
    /// Whether the integrated GPU is active during profiling. On-demand
    /// profiling of GPU-less cloud services leaves it off, buying extra
    /// voltage headroom (§III.C).
    pub gpu_enabled: bool,
    /// Processors profiled concurrently in one profiling domain (one
    /// master drives this many slaves).
    pub domain_size: usize,
}

impl ScannerConfig {
    /// The probe grid this configuration scans over `dvfs`.
    pub fn grid(&self, dvfs: &DvfsConfig) -> VoltageGrid {
        VoltageGrid::from_dvfs(dvfs, self.grid_points, self.grid_depth)
    }
}

impl Default for ScannerConfig {
    fn default() -> Self {
        ScannerConfig {
            test_kind: TestKind::Stress,
            grid_points: 10,
            grid_depth: 0.15,
            program_len: 512,
            fault_rate: 0.05,
            gpu_enabled: false,
            domain_size: 32,
        }
    }
}

/// Result of scanning a fleet.
#[derive(Debug, Clone)]
pub struct ScanReport {
    /// The filled profiling-records database.
    pub records: ProfilingRecords,
    /// `measured_vmin[chip][level]`: chip-level (worst-core) measured
    /// Min Vdd; falls back to nominal voltage for any unmeasured entry.
    pub measured_vmin: Vec<Vec<f64>>,
    /// `measured_vmin_per_core[chip][core][level]`: the per-core grid, for
    /// per-core voltage-domain plans (§III.B); same nominal fallback.
    pub measured_vmin_per_core: Vec<Vec<Vec<f64>>>,
    /// Stability tests executed (per-core test runs).
    pub tests_run: u64,
    /// Busy time per chip: how long each slave was out of service.
    pub per_chip_time: Vec<SimDuration>,
    /// Campaign wall-clock with `domain_size` chips profiled concurrently
    /// and domains run back to back.
    pub campaign_time: SimDuration,
}

impl ScanReport {
    /// Chips with at least one core that failed even at the top of the
    /// grid (nominal voltage) on some level — defective units that should
    /// be pulled from service rather than operated. Their `measured_vmin`
    /// rows fall back to nominal, which is NOT safe for them.
    pub fn defective_chips(&self) -> Vec<iscope_pvmodel::ChipId> {
        (0..self.records.num_chips() as u32)
            .map(iscope_pvmodel::ChipId)
            .filter(|&chip| {
                (0..self.records.grid().num_levels() as u8).any(|l| {
                    self.records
                        .measured_vmin_chip(chip, FreqLevel(l))
                        .is_none()
                })
            })
            .collect()
    }

    /// Mean Min Vdd across all measured chip/core values at the top level —
    /// the Fig. 4 red dashed line.
    pub fn mean_vmin_top(&self) -> f64 {
        let col: Vec<f64> = self
            .measured_vmin
            .iter()
            .map(|row| *row.last().expect("at least one level"))
            .collect();
        col.iter().sum::<f64>() / col.len().max(1) as f64
    }
}

/// One chip scanned on its own: out-of-service time, tests run, and the
/// chip's `cores × levels` records over the grid it was scanned on.
#[derive(Debug, Clone)]
pub struct ChipScan<'g> {
    /// How long the chip was out of service.
    pub duration: SimDuration,
    /// Stability tests executed (per-core test runs).
    pub tests_run: u64,
    grid: &'g VoltageGrid,
    records: Vec<LevelRecord>,
}

impl ChipScan<'_> {
    fn block(&self) -> ChipBlock<'_> {
        ChipBlock {
            grid: self.grid,
            records: &self.records,
        }
    }

    /// Measured Min Vdd of core `core` at `level`; `None` if the core
    /// failed even at nominal voltage.
    pub fn measured_vmin(&self, core: u8, level: FreqLevel) -> Option<f64> {
        self.block().measured_vmin(core, level)
    }

    /// Chip-level (worst-core) measured Min Vdd at `level`; `None` if any
    /// core lacks a measurement.
    pub fn measured_vmin_chip(&self, level: FreqLevel) -> Option<f64> {
        self.block().measured_vmin_chip(level)
    }
}

/// A Min Vdd row over every DVFS level, read from `measured`; levels the
/// scan could not resolve fall back to nominal voltage (see
/// [`ScanReport::defective_chips`] for why that is not safe for them).
pub fn with_nominal_fallback(
    dvfs: &DvfsConfig,
    measured: impl Fn(FreqLevel) -> Option<f64>,
) -> Vec<f64> {
    dvfs.levels()
        .map(|l| measured(l).unwrap_or_else(|| dvfs.v_nom(l)))
        .collect()
}

/// Label of the RNG stream a fleet-wide scan draws from.
const FLEET_SCAN_STREAM: &str = "scanner";

/// The iScope scanner: drives the profiling protocol over a fleet.
#[derive(Debug, Clone)]
pub struct Scanner {
    config: ScannerConfig,
}

impl Scanner {
    /// Creates a scanner.
    ///
    /// Panics on a configuration that could not scan soundly: a program
    /// of no operations, or a fault rate outside `(0, 1]` (at 0 or NaN an
    /// unstable point never corrupts the checksum, so every probe passes
    /// and the plan records voltages below the true Min Vdd).
    pub fn new(config: ScannerConfig) -> Self {
        assert!(config.grid_points >= 2);
        assert!(config.domain_size >= 1);
        assert!(config.program_len >= 1, "empty test program tests nothing");
        assert!(
            config.fault_rate > 0.0 && config.fault_rate <= 1.0,
            "fault_rate {} outside (0, 1]",
            config.fault_rate
        );
        Scanner { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ScannerConfig {
        &self.config
    }

    /// The scan kernel: generates the chip's test program, then descends
    /// each level's grid chip-wide with every still-passing core tested
    /// concurrently at each step, recording into `block` (the chip's
    /// `cores × levels` records). Returns the chip's out-of-service time
    /// and the stability tests run.
    fn scan_block(
        &self,
        chip: &Chip,
        grid: &VoltageGrid,
        block: &mut [LevelRecord],
        rng: &mut SimRng,
    ) -> (SimDuration, u64) {
        let program = TestProgram::generate(self.config.program_len, rng);
        let levels = grid.num_levels();
        let (mut steps, mut tests) = (0u64, 0u64);
        for l in 0..levels {
            let level = FreqLevel(l as u8);
            let voltages = grid.voltages(level);
            loop {
                // Every core that still needs this level probed runs the
                // test at the chip-wide supply; cores agree on the step
                // because they all descend from the top. A core's record
                // changes only after its own test, so deciding per core in
                // turn picks the same cores as deciding for all up front.
                let mut probed = None;
                for (c, core) in chip.cores.iter().enumerate() {
                    let rec = &mut block[c * levels + l];
                    let Some(idx) = rec.next_probe(voltages.len()) else {
                        continue;
                    };
                    debug_assert!(probed.is_none_or(|p| p == idx), "cores descend in lockstep");
                    probed = Some(idx);
                    let outcome = program.run(
                        core,
                        level,
                        voltages[idx],
                        self.config.gpu_enabled,
                        self.config.fault_rate,
                        rng,
                    );
                    rec.insert(idx, outcome);
                    tests += 1;
                }
                if probed.is_none() {
                    break;
                }
                steps += 1;
            }
        }
        let duration =
            SimDuration::from_millis(steps * self.config.test_kind.duration().as_millis());
        (duration, tests)
    }

    /// Profiles one chip into its block of the fleet records. Returns the
    /// chip's out-of-service time.
    pub fn profile_chip(
        &self,
        chip: &Chip,
        records: &mut ProfilingRecords,
        rng: &mut SimRng,
    ) -> SimDuration {
        let (grid, block, tests_run) = records.chip_mut(chip.id);
        let (duration, tests) = self.scan_block(chip, grid, block, rng);
        *tests_run += tests;
        duration
    }

    /// Scans one chip on its own over `grid`: the same kernel and the same
    /// random draws as [`Scanner::profile_chip`], into chip-sized records
    /// (the in-run re-scan path, which must not pay for the fleet).
    pub fn scan_chip<'g>(
        &self,
        chip: &Chip,
        grid: &'g VoltageGrid,
        rng: &mut SimRng,
    ) -> ChipScan<'g> {
        let mut records = vec![LevelRecord::default(); chip.cores.len() * grid.num_levels()];
        let (duration, tests_run) = self.scan_block(chip, grid, &mut records, rng);
        ChipScan {
            duration,
            tests_run,
            grid,
            records,
        }
    }

    /// Every chip's chip-level measured Min Vdd row, with the nominal
    /// fallback: [`ScanReport::measured_vmin`] of
    /// [`Scanner::profile_fleet`] (same kernel, same draws), scanned chip
    /// by chip so no fleet-sized records are built.
    pub fn fleet_vmin(&self, fleet: &Fleet, seed: u64) -> Vec<Vec<f64>> {
        let grid = self.config.grid(&fleet.dvfs);
        let mut rng = SimRng::derive(seed, FLEET_SCAN_STREAM);
        fleet
            .chips
            .iter()
            .map(|chip| {
                let scan = self.scan_chip(chip, &grid, &mut rng);
                with_nominal_fallback(&fleet.dvfs, |l| scan.measured_vmin_chip(l))
            })
            .collect()
    }

    /// Scans the whole fleet (stage 2 picks every inadequately profiled
    /// chip; domains of `domain_size` run concurrently).
    pub fn profile_fleet(&self, fleet: &Fleet, seed: u64) -> ScanReport {
        let mut records = ProfilingRecords::for_fleet(self.config.grid(&fleet.dvfs), fleet);
        let mut rng = SimRng::derive(seed, FLEET_SCAN_STREAM);
        let mut per_chip_time = Vec::with_capacity(fleet.len());
        for chip in &fleet.chips {
            per_chip_time.push(self.profile_chip(chip, &mut records, &mut rng));
        }
        let measured_vmin: Vec<Vec<f64>> = fleet
            .chips
            .iter()
            .map(|c| with_nominal_fallback(&fleet.dvfs, |l| records.measured_vmin_chip(c.id, l)))
            .collect();
        let measured_vmin_per_core: Vec<Vec<Vec<f64>>> = fleet
            .chips
            .iter()
            .map(|c| {
                (0..c.cores.len() as u8)
                    .map(|core| {
                        with_nominal_fallback(&fleet.dvfs, |l| {
                            records.measured_vmin(CoreId { chip: c.id, core }, l)
                        })
                    })
                    .collect()
            })
            .collect();
        // Domains of `domain_size` chips run concurrently; a domain's time
        // is its slowest member, domains run back to back.
        let mut campaign_ms = 0u64;
        for domain in per_chip_time.chunks(self.config.domain_size) {
            campaign_ms += domain.iter().map(|d| d.as_millis()).max().unwrap_or(0);
        }
        ScanReport {
            tests_run: records.tests_run(),
            measured_vmin,
            measured_vmin_per_core,
            per_chip_time,
            campaign_time: SimDuration::from_millis(campaign_ms),
            records,
        }
    }

    /// Profiles an explicit subset of chips (the opportunistic path used
    /// while the datacenter is at low utilization).
    pub fn profile_chips(
        &self,
        fleet: &Fleet,
        chips: &[ChipId],
        records: &mut ProfilingRecords,
        rng: &mut SimRng,
    ) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for &id in chips {
            total += self.profile_chip(fleet.chip(id), records, rng);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_pvmodel::{DvfsConfig, VariationParams};

    fn small_fleet() -> Fleet {
        Fleet::generate(
            24,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            31,
        )
    }

    #[test]
    #[should_panic(expected = "empty test program")]
    fn rejects_zero_program_len() {
        Scanner::new(ScannerConfig {
            program_len: 0,
            ..ScannerConfig::default()
        });
    }

    fn scanner_with_fault_rate(fault_rate: f64) -> Scanner {
        Scanner::new(ScannerConfig {
            fault_rate,
            ..ScannerConfig::default()
        })
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_zero_fault_rate() {
        scanner_with_fault_rate(0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_nan_fault_rate() {
        scanner_with_fault_rate(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn rejects_fault_rate_above_one() {
        scanner_with_fault_rate(1.5);
    }

    #[test]
    fn accepts_fault_rates_in_unit_interval() {
        for fault_rate in [f64::MIN_POSITIVE, 0.05, 1.0] {
            assert_eq!(
                scanner_with_fault_rate(fault_rate).config().fault_rate,
                fault_rate
            );
        }
    }

    #[test]
    fn fleet_scan_completes_every_chip() {
        let fleet = small_fleet();
        let report = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 1);
        for chip in &fleet.chips {
            assert!(report.records.chip_complete(chip.id), "chip {:?}", chip.id);
        }
        assert_eq!(report.measured_vmin.len(), fleet.len());
    }

    #[test]
    fn measured_vmin_is_conservative_within_one_grid_step() {
        let fleet = small_fleet();
        let report = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 2);
        for chip in &fleet.chips {
            for l in fleet.dvfs.levels() {
                let truth = chip.vmin_chip(l, false);
                let measured = report.measured_vmin[chip.id.0 as usize][l.0 as usize];
                assert!(measured >= truth - 1e-12, "measured below truth");
                let grid = report.records.grid().voltages(l);
                let step = grid[0] - grid[1];
                // Within one step unless the truth lies below the grid floor.
                if truth >= *grid.last().unwrap() {
                    assert!(
                        measured - truth <= step + 1e-9,
                        "measured {measured} too far above truth {truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn early_stop_beats_full_grid() {
        // The descending scan with stage-6 inference must run far fewer
        // tests than the exhaustive grid (cores stop at their first fail).
        let fleet = small_fleet();
        let report = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 3);
        let exhaustive = (fleet.len() * 4 * 50) as u64; // chips x cores x grid
        assert!(report.tests_run < exhaustive, "{} tests", report.tests_run);
        assert!(report.tests_run > 0);
    }

    #[test]
    fn per_chip_time_reflects_test_kind() {
        let fleet = small_fleet();
        let stress = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 4);
        let sbft = Scanner::new(ScannerConfig {
            test_kind: TestKind::Sbft,
            ..ScannerConfig::default()
        })
        .profile_fleet(&fleet, 4);
        // Same seed, same probe sequence: time ratio is exactly 600/29.
        for (a, b) in stress.per_chip_time.iter().zip(&sbft.per_chip_time) {
            let ratio = a.as_secs_f64() / b.as_secs_f64();
            assert!((ratio - 600.0 / 29.0).abs() < 1e-6, "ratio {ratio}");
        }
        assert!(sbft.campaign_time < stress.campaign_time);
    }

    #[test]
    fn campaign_time_scales_with_domain_size() {
        let fleet = small_fleet();
        let narrow = Scanner::new(ScannerConfig {
            domain_size: 1,
            ..ScannerConfig::default()
        })
        .profile_fleet(&fleet, 5);
        let wide = Scanner::new(ScannerConfig {
            domain_size: 24,
            ..ScannerConfig::default()
        })
        .profile_fleet(&fleet, 5);
        assert!(wide.campaign_time < narrow.campaign_time);
        // One big domain: campaign = slowest chip.
        let slowest = wide.per_chip_time.iter().max().unwrap();
        assert_eq!(wide.campaign_time, *slowest);
    }

    #[test]
    fn healthy_fleets_have_no_defective_chips() {
        let fleet = small_fleet();
        let report = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 9);
        assert!(report.defective_chips().is_empty());
    }

    #[test]
    fn failure_injection_flags_defective_chips() {
        // Inject a manufacturing escape: one core of chip 5 needs more
        // than nominal voltage at the top level (it would have failed the
        // factory test, but escapes happen — the in-cloud scan catches it).
        let mut fleet = small_fleet();
        let top = fleet.dvfs.max_level();
        let broken_v = fleet.dvfs.v_nom(top) + 0.05;
        let lvl = top.0 as usize;
        fleet.chips[5].cores[2].vmin[lvl] = broken_v;
        let report = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 9);
        let defective = report.defective_chips();
        assert_eq!(defective, vec![ChipId(5)], "exactly the injected escape");
        // The fallback row is nominal voltage — callers must check
        // defective_chips() before trusting it.
        assert!(
            (report.measured_vmin[5][lvl] - fleet.dvfs.v_nom(top)).abs() < 1e-12,
            "defective chip falls back to nominal"
        );
        // The chip-by-chip scan reads the same rows, fallback included.
        assert_eq!(
            Scanner::new(ScannerConfig::default()).fleet_vmin(&fleet, 9),
            report.measured_vmin
        );
        // Healthy chips are unaffected.
        for chip in &fleet.chips {
            if chip.id == ChipId(5) {
                continue;
            }
            for l in fleet.dvfs.levels() {
                assert!(
                    report.measured_vmin[chip.id.0 as usize][l.0 as usize]
                        >= chip.vmin_chip(l, false)
                );
            }
        }
    }

    fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// `(entries, FNV-1a of their little-endian bits)`.
    fn fingerprint<'a>(values: impl IntoIterator<Item = &'a f64>) -> (usize, u64) {
        let bits: Vec<u8> = values
            .into_iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        (bits.len() / 8, fnv1a(bits))
    }

    /// Golden output of a 64-chip fleet scan (seed 7, default config):
    /// test count, per-chip and campaign times, the bits of every measured
    /// Min Vdd, and the scan stream's state afterwards. Any change to the
    /// scan kernel, the SBFT model or the random draws shows up here.
    #[test]
    fn fleet_scan_is_pinned() {
        let fleet = Fleet::generate(
            64,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            7,
        );
        let scanner = Scanner::new(ScannerConfig::default());
        let report = scanner.profile_fleet(&fleet, 7);
        // Outcomes barely depend on which random values a test draws, so
        // the stream is pinned on its own: chip by chip, as the fleet
        // scan draws it.
        let mut rng = SimRng::derive(7, "scanner");
        let mut records = ProfilingRecords::for_fleet(report.records.grid().clone(), &fleet);
        for chip in &fleet.chips {
            scanner.profile_chip(chip, &mut records, &mut rng);
        }
        assert_eq!(
            rng.snapshot().words,
            [
                14_498_678_627_132_362_391,
                11_464_505_199_095_644_546,
                11_164_820_963_428_360_777,
                10_085_606_093_372_401_317,
            ]
        );
        let chip_ms: Vec<u8> = report
            .per_chip_time
            .iter()
            .flat_map(|d| d.as_millis().to_le_bytes())
            .collect();
        let per_core = report.measured_vmin_per_core.iter().flatten().flatten();
        let got = (
            report.tests_run,
            report.per_chip_time.len(),
            fnv1a(chip_ms),
            report.campaign_time.as_millis(),
            fingerprint(report.measured_vmin.iter().flatten()),
            fingerprint(per_core),
        );
        assert_eq!(
            got,
            (
                10_031,
                64,
                8_629_325_899_153_874_581,
                57_000_000,
                (320, 4_872_235_501_589_366_132),
                (1_280, 3_099_161_782_492_799_840),
            )
        );
    }

    #[test]
    fn scan_is_deterministic() {
        let fleet = small_fleet();
        let a = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 6);
        let b = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 6);
        assert_eq!(a.measured_vmin, b.measured_vmin);
        assert_eq!(a.tests_run, b.tests_run);
    }

    #[test]
    fn per_core_grid_is_consistent_with_chip_grid() {
        let fleet = small_fleet();
        let report = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 8);
        for chip in &fleet.chips {
            for l in fleet.dvfs.levels() {
                let chip_v = report.measured_vmin[chip.id.0 as usize][l.0 as usize];
                let worst_core = report.measured_vmin_per_core[chip.id.0 as usize]
                    .iter()
                    .map(|row| row[l.0 as usize])
                    .fold(0.0, f64::max);
                assert!(
                    (chip_v - worst_core).abs() < 1e-12,
                    "chip grid != worst core"
                );
                // Each per-core measurement is safe for that core.
                for (core, row) in chip
                    .cores
                    .iter()
                    .zip(&report.measured_vmin_per_core[chip.id.0 as usize])
                {
                    assert!(row[l.0 as usize] >= core.vmin(l) - 1e-12);
                }
            }
        }
    }

    #[test]
    fn gpu_enabled_profiling_yields_higher_vmin() {
        let fleet = small_fleet();
        let off = Scanner::new(ScannerConfig::default()).profile_fleet(&fleet, 7);
        let on = Scanner::new(ScannerConfig {
            gpu_enabled: true,
            ..ScannerConfig::default()
        })
        .profile_fleet(&fleet, 7);
        let mean = |r: &ScanReport| r.mean_vmin_top();
        assert!(
            mean(&on) > mean(&off),
            "GPU-on scan must find higher Min Vdd: {} vs {}",
            mean(&on),
            mean(&off)
        );
    }
}
