//! Scan records (stage 2 and stage 6 of the Fig. 3 flow): the descending
//! voltage grid, and what one chip's scan learned on it.
//!
//! For every core and frequency bin a [`ChipScan`] keeps which grid
//! voltages passed or failed. The stage-6 inference rule is applied on
//! insert: a recorded *fail* forces all lower voltages at the same
//! frequency to *fail*, and a recorded *pass* implies all higher voltages
//! pass — so the extracted Min Vdd is the lowest passing grid point.

use crate::sbft::TestOutcome;
use iscope_dcsim::SimDuration;
use iscope_pvmodel::FreqLevel;

/// The descending voltage grid probed at each frequency bin.
#[derive(Debug, Clone, PartialEq)]
pub struct VoltageGrid {
    /// Probe voltages per level, each strictly descending (highest first).
    steps: Vec<Vec<f64>>,
}

impl VoltageGrid {
    /// Builds the grid the paper's overhead analysis assumes: `points`
    /// voltages per frequency bin (10 in §VI.E), spanning from the nominal
    /// voltage down to `(1 - depth)` of nominal.
    pub fn from_dvfs(dvfs: &iscope_pvmodel::DvfsConfig, points: usize, depth: f64) -> VoltageGrid {
        assert!(points >= 2, "need at least two probe points");
        assert!((0.0..1.0).contains(&depth) && depth > 0.0);
        let steps = dvfs
            .levels()
            .map(|l| {
                let v_hi = dvfs.v_nom(l);
                let v_lo = v_hi * (1.0 - depth);
                (0..points)
                    .map(|i| v_hi - (v_hi - v_lo) * i as f64 / (points - 1) as f64)
                    .collect()
            })
            .collect();
        VoltageGrid { steps }
    }

    /// The paper's §VI.E grid: 10 voltage values per frequency bin, probing
    /// down to 15 % below nominal (just past the deepest feasible margin).
    pub fn paper_default(dvfs: &iscope_pvmodel::DvfsConfig) -> VoltageGrid {
        VoltageGrid::from_dvfs(dvfs, 10, 0.15)
    }

    /// Probe voltages at a level, highest first.
    pub fn voltages(&self, level: FreqLevel) -> &[f64] {
        &self.steps[level.0 as usize]
    }

    /// Number of levels covered.
    pub fn num_levels(&self) -> usize {
        self.steps.len()
    }
}

/// Pass/fail knowledge for one core at one level, over the grid.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LevelRecord {
    /// Index (into the grid's descending voltages) of the lowest *pass*
    /// observed, if any.
    lowest_pass: Option<usize>,
    /// Index of the highest *fail* observed, if any.
    highest_fail: Option<usize>,
}

impl LevelRecord {
    /// Stage-6 consistency: once a fail is recorded, every lower voltage
    /// (higher index) is also fail; once a pass is recorded, every higher
    /// voltage (lower index) is also pass.
    pub(crate) fn insert(&mut self, idx: usize, outcome: TestOutcome) {
        match outcome {
            TestOutcome::Pass => {
                self.lowest_pass = Some(self.lowest_pass.map_or(idx, |p| p.max(idx)));
            }
            TestOutcome::Fail => {
                self.highest_fail = Some(self.highest_fail.map_or(idx, |f| f.min(idx)));
            }
        }
    }

    /// Next grid index worth probing (descending), if any. The remaining
    /// uncertainty region is the open interval between the lowest pass and
    /// the highest fail; the scan is done when it is empty.
    pub(crate) fn next_probe(&self, grid_len: usize) -> Option<usize> {
        let candidate = self.lowest_pass.map_or(0, |p| p + 1);
        if candidate >= grid_len {
            return None; // even the deepest point passed
        }
        match self.highest_fail {
            Some(f) if candidate >= f => None, // boundary pinned (or defective at nominal)
            _ => Some(candidate),
        }
    }

    /// The lowest passing voltage of `voltages` (this record's grid row),
    /// if any passed.
    pub(crate) fn measured(&self, voltages: &[f64]) -> Option<f64> {
        self.lowest_pass.map(|i| voltages[i])
    }
}

/// One chip scanned on its own: out-of-service time, tests run, and the
/// chip's `cores × levels` records (core-major) over the grid it was
/// scanned on.
#[derive(Debug, Clone)]
pub struct ChipScan<'g> {
    /// How long the chip was out of service.
    pub duration: SimDuration,
    /// Stability tests executed (per-core test runs).
    pub tests_run: u64,
    pub(crate) grid: &'g VoltageGrid,
    pub(crate) records: Vec<LevelRecord>,
}

impl ChipScan<'_> {
    /// Measured Min Vdd of core `core` at `level`: the lowest grid
    /// voltage that passed, `None` if the core failed even at nominal.
    pub fn measured_vmin(&self, core: u8, level: FreqLevel) -> Option<f64> {
        self.records[core as usize * self.grid.num_levels() + level.0 as usize]
            .measured(self.grid.voltages(level))
    }

    /// Chip-level (worst-core) measured Min Vdd at `level`; `None` if any
    /// core lacks a measurement.
    pub fn measured_vmin_chip(&self, level: FreqLevel) -> Option<f64> {
        let voltages = self.grid.voltages(level);
        self.records
            .chunks(self.grid.num_levels())
            .map(|core| core[level.0 as usize].measured(voltages))
            .try_fold(0.0f64, |acc, v| v.map(|v| acc.max(v)))
    }
}

/// True once every record of a `cores × levels` block over `grid` is
/// resolved: no level of any core has a grid point left worth probing.
pub(crate) fn resolved(grid: &VoltageGrid, records: &[LevelRecord]) -> bool {
    records.chunks(grid.num_levels()).all(|core| {
        core.iter()
            .zip(&grid.steps)
            .all(|(r, voltages)| r.next_probe(voltages.len()).is_none())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Scanner, ScannerConfig};
    use iscope_dcsim::SimRng;
    use iscope_pvmodel::{Chip, ChipId, DvfsConfig, VariationParams};
    use proptest::prelude::*;

    fn paper_grid() -> VoltageGrid {
        VoltageGrid::paper_default(&DvfsConfig::paper_default())
    }

    /// A four-core chip over `grid` with nothing probed yet.
    fn setup(grid: &VoltageGrid) -> ChipScan<'_> {
        ChipScan {
            duration: SimDuration::ZERO,
            tests_run: 0,
            grid,
            records: vec![LevelRecord::default(); 4 * grid.num_levels()],
        }
    }

    impl ChipScan<'_> {
        fn record(&mut self, core: u8, level: FreqLevel) -> &mut LevelRecord {
            &mut self.records[core as usize * self.grid.num_levels() + level.0 as usize]
        }
    }

    #[test]
    fn grid_voltages_descend_from_nominal() {
        let dvfs = DvfsConfig::paper_default();
        let grid = VoltageGrid::paper_default(&dvfs);
        for l in dvfs.levels() {
            let vs = grid.voltages(l);
            assert!((vs[0] - dvfs.v_nom(l)).abs() < 1e-12, "starts at nominal");
            assert!(vs.windows(2).all(|w| w[0] > w[1]), "descending");
            assert!((vs[9] - dvfs.v_nom(l) * 0.85).abs() < 1e-9, "15 % depth");
        }
    }

    #[test]
    fn descending_scan_stops_at_first_fail() {
        let grid = paper_grid();
        let mut scan = setup(&grid);
        let l = FreqLevel(4);
        let n = grid.voltages(l).len();
        let rec = scan.record(0, l);
        // Probe order 0, 1, 2...; suppose the core fails at index 3.
        for idx in 0..3 {
            assert_eq!(rec.next_probe(n), Some(idx));
            rec.insert(idx, TestOutcome::Pass);
        }
        assert_eq!(rec.next_probe(n), Some(3));
        rec.insert(3, TestOutcome::Fail);
        assert_eq!(rec.next_probe(n), None, "stage-6: lower V forced fail");
        let vmin = scan.measured_vmin(0, l).unwrap();
        assert_eq!(vmin, grid.voltages(l)[2], "lowest pass is index 2");
    }

    #[test]
    fn all_pass_core_completes_at_grid_floor() {
        let grid = paper_grid();
        let mut scan = setup(&grid);
        let l = FreqLevel(0);
        let n = grid.voltages(l).len();
        for idx in 0..n {
            scan.record(1, l).insert(idx, TestOutcome::Pass);
        }
        assert_eq!(scan.record(1, l).next_probe(n), None);
        let vmin = scan.measured_vmin(1, l).unwrap();
        assert_eq!(vmin, *grid.voltages(l).last().unwrap());
    }

    #[test]
    fn chip_completion_requires_all_cores_all_levels() {
        let dvfs = DvfsConfig::paper_default();
        let grid = VoltageGrid::paper_default(&dvfs);
        let mut scan = setup(&grid);
        assert!(!resolved(&grid, &scan.records));
        for c in 0..4 {
            for l in dvfs.levels() {
                scan.record(c, l).insert(0, TestOutcome::Pass);
                if (c, l) != (3, dvfs.max_level()) {
                    scan.record(c, l).insert(1, TestOutcome::Fail);
                }
            }
        }
        assert!(!resolved(&grid, &scan.records), "one core-level still open");
        scan.record(3, dvfs.max_level())
            .insert(1, TestOutcome::Fail);
        assert!(resolved(&grid, &scan.records));
    }

    #[test]
    fn chip_vmin_is_worst_core() {
        let grid = paper_grid();
        let mut scan = setup(&grid);
        let l = FreqLevel(2);
        // Core 0 passes down to index 5; cores 1-3 down to index 7.
        for c in 0..4u8 {
            let lowest = if c == 0 { 5 } else { 7 };
            for idx in 0..=lowest {
                scan.record(c, l).insert(idx, TestOutcome::Pass);
            }
        }
        let chip_v = scan.measured_vmin_chip(l).unwrap();
        assert_eq!(chip_v, grid.voltages(l)[5], "limited by core 0");
    }

    #[test]
    fn chip_vmin_none_until_every_core_measured() {
        let grid = paper_grid();
        let mut scan = setup(&grid);
        let l = FreqLevel(1);
        scan.record(0, l).insert(0, TestOutcome::Pass);
        assert!(scan.measured_vmin_chip(l).is_none());
    }

    /// Every per-core test counts once. At a fault rate of 1 every
    /// unstable point fails, so a core runs one test per grid point it
    /// passes plus one for the first point it fails, if any.
    #[test]
    fn tests_run_counter() {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(5);
        let chip = Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng);
        let scanner = Scanner::new(ScannerConfig {
            fault_rate: 1.0,
            ..ScannerConfig::default()
        });
        let grid = scanner.config().grid(&dvfs);
        let mut expected = 0;
        for core in &chip.cores {
            for l in dvfs.levels() {
                let vs = grid.voltages(l);
                let passes = vs
                    .iter()
                    .take_while(|&&v| core.stable_at(l, v, false))
                    .count();
                expected += (passes + usize::from(passes < vs.len())) as u64;
            }
        }
        let scan = scanner.scan_chip(&chip, &grid, &mut rng);
        assert_eq!(scan.tests_run, expected);
    }

    #[test]
    fn immediate_fail_at_nominal_completes_without_vmin() {
        // A core that fails even at nominal voltage (defective unit): the
        // scan ends immediately and no Min Vdd is extractable.
        let grid = paper_grid();
        let mut scan = setup(&grid);
        let l = FreqLevel(3);
        scan.record(2, l).insert(0, TestOutcome::Fail);
        assert_eq!(scan.record(2, l).next_probe(grid.voltages(l).len()), None);
        assert!(scan.measured_vmin(2, l).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Arbitrary outcome sequences never leave a record inconsistent:
        /// the measured Min Vdd (if any) is always a voltage that passed,
        /// and next_probe never points at or below a recorded fail.
        #[test]
        fn records_stay_consistent_under_arbitrary_outcomes(
            outcomes in proptest::collection::vec(any::<bool>(), 1..40),
        ) {
            let grid = paper_grid();
            let voltages = grid.voltages(FreqLevel(0));
            let mut rec = LevelRecord::default();
            let mut lowest_pass: Option<usize> = None;
            for &pass in &outcomes {
                let Some(idx) = rec.next_probe(voltages.len()) else { break };
                let outcome = if pass { TestOutcome::Pass } else { TestOutcome::Fail };
                if pass {
                    lowest_pass = Some(lowest_pass.map_or(idx, |p| p.max(idx)));
                }
                rec.insert(idx, outcome);
            }
            prop_assert_eq!(rec.measured(voltages), lowest_pass.map(|idx| voltages[idx]));
        }
    }
}
