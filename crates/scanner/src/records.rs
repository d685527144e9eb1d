//! The profiling-records database (stage 2 and stage 6 of the Fig. 3 flow).
//!
//! For every core and frequency bin the database stores which grid
//! voltages passed or failed. The stage-6 inference rule is applied on
//! insert: a recorded *fail* forces all lower voltages at the same
//! frequency to *fail*, and a recorded *pass* implies all higher voltages
//! pass — so the extracted Min Vdd is the lowest passing grid point.

use crate::sbft::TestOutcome;
use iscope_pvmodel::{ChipId, CoreId, Fleet, FreqLevel};

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
}

/// Read view of one chip's scan state: a `cores × levels` block of level
/// records, core-major, over the grid it was scanned on. The scan kernel
/// fills this shape; fleet records lay one block per chip end to end.
pub(crate) struct ChipBlock<'a> {
    pub(crate) grid: &'a VoltageGrid,
    pub(crate) records: &'a [LevelRecord],
}

impl ChipBlock<'_> {
    fn record(&self, core: u8, level: FreqLevel) -> &LevelRecord {
        &self.records[core as usize * self.grid.num_levels() + level.0 as usize]
    }

    fn cores(&self) -> usize {
        self.records.len() / self.grid.num_levels()
    }

    /// Lowest passing grid voltage of `core` at `level`, if any passed.
    pub(crate) fn measured_vmin(&self, core: u8, level: FreqLevel) -> Option<f64> {
        self.record(core, level)
            .lowest_pass
            .map(|i| self.grid.voltages(level)[i])
    }

    /// Worst (max) measured Min Vdd over the cores at `level`; `None` if
    /// any core lacks a measurement.
    pub(crate) fn measured_vmin_chip(&self, level: FreqLevel) -> Option<f64> {
        (0..self.cores() as u8)
            .map(|c| self.measured_vmin(c, level))
            .try_fold(0.0f64, |acc, v| v.map(|v| acc.max(v)))
    }

    /// True once every level of every core is complete.
    fn complete(&self) -> bool {
        self.records.chunks(self.grid.num_levels()).all(|levels| {
            levels.iter().enumerate().all(|(l, r)| {
                r.next_probe(self.grid.voltages(FreqLevel(l as u8)).len())
                    .is_none()
            })
        })
    }
}

/// Profiling state for every core of a fleet.
#[derive(Debug, Clone)]
pub struct ProfilingRecords {
    grid: VoltageGrid,
    /// Chip `c`'s [`ChipBlock`] is `records[offsets[c]..offsets[c + 1]]`,
    /// so chips may differ in core count.
    offsets: Vec<usize>,
    /// Every chip's block in one allocation: `records[offsets[chip] +
    /// core * levels + level]`.
    records: Vec<LevelRecord>,
    /// Total stability tests executed (the overhead counter).
    tests_run: u64,
}

impl ProfilingRecords {
    /// Creates empty records for `num_chips` chips of `cores_per_chip`
    /// cores over `grid`.
    pub fn new(grid: VoltageGrid, num_chips: usize, cores_per_chip: usize) -> Self {
        Self::with_cores(grid, std::iter::repeat_n(cores_per_chip, num_chips))
    }

    /// Creates empty records covering every chip of `fleet`, each block
    /// sized by that chip's own core count.
    pub fn for_fleet(grid: VoltageGrid, fleet: &Fleet) -> Self {
        Self::with_cores(grid, fleet.chips.iter().map(|c| c.cores.len()))
    }

    /// Empty records for one chip per item of `cores`, of that many cores.
    fn with_cores(grid: VoltageGrid, cores: impl Iterator<Item = usize>) -> Self {
        let mut offsets = vec![0];
        for n in cores {
            offsets.push(offsets[offsets.len() - 1] + n * grid.num_levels());
        }
        ProfilingRecords {
            records: vec![LevelRecord::default(); offsets[offsets.len() - 1]],
            grid,
            offsets,
            tests_run: 0,
        }
    }

    /// The probe grid.
    pub fn grid(&self) -> &VoltageGrid {
        &self.grid
    }

    fn block_range(&self, chip: ChipId) -> std::ops::Range<usize> {
        let c = chip.0 as usize;
        self.offsets[c]..self.offsets[c + 1]
    }

    fn index(&self, core: CoreId, level: FreqLevel) -> usize {
        self.block_range(core.chip).start
            + core.core as usize * self.grid.num_levels()
            + level.0 as usize
    }

    /// Read view of one chip's block.
    pub(crate) fn chip(&self, chip: ChipId) -> ChipBlock<'_> {
        ChipBlock {
            grid: &self.grid,
            records: &self.records[self.block_range(chip)],
        }
    }

    /// The grid, one chip's block for the scan kernel to fill, and the
    /// test counter it adds to.
    pub(crate) fn chip_mut(
        &mut self,
        chip: ChipId,
    ) -> (&VoltageGrid, &mut [LevelRecord], &mut u64) {
        let range = self.block_range(chip);
        (&self.grid, &mut self.records[range], &mut self.tests_run)
    }

    /// Records one test outcome.
    pub fn record(
        &mut self,
        core: CoreId,
        level: FreqLevel,
        grid_idx: usize,
        outcome: TestOutcome,
    ) {
        self.tests_run += 1;
        let i = self.index(core, level);
        self.records[i].insert(grid_idx, outcome);
    }

    /// Next grid index the profiler should probe for this core/level
    /// (descending scan with stage-6 early stop), or `None` when done.
    pub fn next_probe(&self, core: CoreId, level: FreqLevel) -> Option<usize> {
        self.records[self.index(core, level)].next_probe(self.grid.voltages(level).len())
    }

    /// True once every level of every core of the chip is complete.
    pub fn chip_complete(&self, chip: ChipId) -> bool {
        self.chip(chip).complete()
    }

    /// Measured Min Vdd: the lowest grid voltage that passed. `None` until
    /// at least one pass is recorded. Conservative by construction
    /// (measured ≥ true Min Vdd, within one grid step when complete).
    pub fn measured_vmin(&self, core: CoreId, level: FreqLevel) -> Option<f64> {
        self.chip(core.chip).measured_vmin(core.core, level)
    }

    /// Chip-level measured Min Vdd at a level: worst (max) over cores.
    /// `None` if any core lacks a measurement.
    pub fn measured_vmin_chip(&self, chip: ChipId, level: FreqLevel) -> Option<f64> {
        self.chip(chip).measured_vmin_chip(level)
    }

    /// Total stability tests executed so far.
    pub fn tests_run(&self) -> u64 {
        self.tests_run
    }

    /// Number of chips tracked.
    pub fn num_chips(&self) -> usize {
        self.offsets.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_pvmodel::{ChipId, DvfsConfig};

    fn setup() -> (ProfilingRecords, DvfsConfig) {
        let dvfs = DvfsConfig::paper_default();
        let grid = VoltageGrid::paper_default(&dvfs);
        (ProfilingRecords::new(grid, 2, 4), dvfs)
    }

    fn cid(chip: u32, core: u8) -> CoreId {
        CoreId {
            chip: ChipId(chip),
            core,
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
        let (mut rec, _) = setup();
        let core = cid(0, 0);
        let l = FreqLevel(4);
        // Probe order 0, 1, 2...; suppose the core fails at index 3.
        for idx in 0..3 {
            assert_eq!(rec.next_probe(core, l), Some(idx));
            rec.record(core, l, idx, TestOutcome::Pass);
        }
        assert_eq!(rec.next_probe(core, l), Some(3));
        rec.record(core, l, 3, TestOutcome::Fail);
        assert_eq!(
            rec.next_probe(core, l),
            None,
            "stage-6: lower V forced fail"
        );
        let vmin = rec.measured_vmin(core, l).unwrap();
        assert_eq!(vmin, rec.grid().voltages(l)[2], "lowest pass is index 2");
    }

    #[test]
    fn all_pass_core_completes_at_grid_floor() {
        let (mut rec, _) = setup();
        let core = cid(0, 1);
        let l = FreqLevel(0);
        let n = rec.grid().voltages(l).len();
        for idx in 0..n {
            rec.record(core, l, idx, TestOutcome::Pass);
        }
        assert_eq!(rec.next_probe(core, l), None);
        let vmin = rec.measured_vmin(core, l).unwrap();
        assert_eq!(vmin, *rec.grid().voltages(l).last().unwrap());
    }

    #[test]
    fn chip_completion_requires_all_cores_all_levels() {
        let (mut rec, dvfs) = setup();
        assert!(!rec.chip_complete(ChipId(0)));
        for c in 0..4 {
            for l in dvfs.levels() {
                rec.record(cid(0, c), l, 0, TestOutcome::Pass);
                rec.record(cid(0, c), l, 1, TestOutcome::Fail);
            }
        }
        assert!(rec.chip_complete(ChipId(0)));
        assert!(!rec.chip_complete(ChipId(1)), "other chip untouched");
    }

    #[test]
    fn chip_vmin_is_worst_core() {
        let (mut rec, _) = setup();
        let l = FreqLevel(2);
        // Core 0 passes down to index 5; cores 1-3 down to index 7.
        for c in 0..4u8 {
            let lowest = if c == 0 { 5 } else { 7 };
            for idx in 0..=lowest {
                rec.record(cid(1, c), l, idx, TestOutcome::Pass);
            }
        }
        let chip_v = rec.measured_vmin_chip(ChipId(1), l).unwrap();
        assert_eq!(chip_v, rec.grid().voltages(l)[5], "limited by core 0");
    }

    #[test]
    fn chip_vmin_none_until_every_core_measured() {
        let (mut rec, _) = setup();
        let l = FreqLevel(1);
        rec.record(cid(0, 0), l, 0, TestOutcome::Pass);
        assert!(rec.measured_vmin_chip(ChipId(0), l).is_none());
    }

    #[test]
    fn tests_run_counter() {
        let (mut rec, _) = setup();
        assert_eq!(rec.tests_run(), 0);
        rec.record(cid(0, 0), FreqLevel(0), 0, TestOutcome::Pass);
        rec.record(cid(0, 0), FreqLevel(0), 1, TestOutcome::Fail);
        assert_eq!(rec.tests_run(), 2);
    }

    #[test]
    fn immediate_fail_at_nominal_completes_without_vmin() {
        // A core that fails even at nominal voltage (defective unit): the
        // scan ends immediately and no Min Vdd is extractable.
        let (mut rec, _) = setup();
        let core = cid(0, 2);
        let l = FreqLevel(3);
        rec.record(core, l, 0, TestOutcome::Fail);
        assert_eq!(rec.next_probe(core, l), None);
        assert!(rec.measured_vmin(core, l).is_none());
    }
}
