//! Operating plans: what the datacenter *believes* about each processor and
//! the voltage it consequently applies.
//!
//! The same fleet behaves very differently under the two knowledge regimes
//! of Table 2:
//!
//! * **Bin** — only the factory bin is known. Every chip applies its bin's
//!   worst-case voltage; the scheduler's power estimate is the bin's
//!   datasheet (representative) coefficients, so chips within a bin are
//!   indistinguishable.
//! * **Scan** — the iScope scanner measured each chip's Min Vdd grid (and
//!   server power metering yields per-chip power at the applied points).
//!   Every chip applies its own measured Min Vdd plus a small guardband,
//!   and the estimate tracks the true per-chip power.
//!
//! The simulator always charges *true* power (hidden chip coefficients at
//! the applied voltage); the estimate is only what the scheduler ranks by.

use crate::binning::Binning;
use crate::chip::ChipId;
use crate::freq::FreqLevel;
use crate::population::Fleet;

/// Guardband the scanner adds on top of a measured Min Vdd before using it
/// as the operating voltage.
pub const SCAN_GUARDBAND_V: f64 = 0.01;

/// Fixed-point power scale: one watt in integer microwatts.
///
/// Demand aggregates that must stay bit-identical whether they are
/// maintained incrementally or re-summed from scratch use integer µW:
/// integer addition is exactly order-independent, while float addition is
/// not associative. µW resolution keeps quantization (±0.5 µW per row) six
/// orders of magnitude below a single chip's draw while leaving headroom
/// for petawatt-scale sums in an `i64`.
pub const MICROWATTS_PER_WATT: f64 = 1e6;

/// Converts watts to fixed-point integer microwatts (nearest). Infinite
/// inputs saturate (`f64::INFINITY` → `i64::MAX`), which lets an unlimited
/// power budget flow through integer comparisons unchanged.
pub fn watts_to_microwatts(w: f64) -> i64 {
    (w * MICROWATTS_PER_WATT).round() as i64
}

/// Converts fixed-point integer microwatts back to watts — the ledger /
/// sampler boundary where floats re-enter.
pub fn microwatts_to_watts(uw: i64) -> f64 {
    uw as f64 / MICROWATTS_PER_WATT
}

/// Per-chip applied voltages and scheduler-visible power estimates.
#[derive(Debug, Clone)]
pub struct OperatingPlan {
    /// `voltages[chip][level]`: supply the chip actually applies.
    voltages: Vec<Vec<f64>>,
    /// `est_power[chip][level]`: what the scheduler believes the chip draws
    /// when busy at that level (W).
    est_power: Vec<Vec<f64>>,
    /// Chips sorted by estimated power at the top level, most efficient
    /// first (ties broken by id for determinism).
    ranking: Vec<ChipId>,
    /// `per_core[chip][core][level]`: per-core supplies when the plan uses
    /// per-core voltage domains; `None` for chip-wide supplies.
    per_core: Option<Vec<Vec<Vec<f64>>>>,
    /// Fleet-wide sum of `est_power[chip][top]` in chip-index order,
    /// cached at construction so the scheduler's surplus test does not
    /// re-sum the fleet on every arrival. Kept in sync by
    /// [`OperatingPlan::update_chip`] (the only post-construction
    /// mutation), and always recomputed as the full index-order sum so
    /// the value is bit-identical to the naive loop.
    est_power_top_sum: f64,
}

impl OperatingPlan {
    /// Plan under factory-bin knowledge (the `Bin*` schemes).
    pub fn from_binning(fleet: &Fleet, binning: &Binning) -> OperatingPlan {
        let pm = fleet.power_model();
        let voltages: Vec<Vec<f64>> = fleet
            .chips
            .iter()
            .map(|c| {
                fleet
                    .dvfs
                    .levels()
                    .map(|l| binning.voltage(c.id, l))
                    .collect()
            })
            .collect();
        let est_power: Vec<Vec<f64>> = fleet
            .chips
            .iter()
            .map(|c| {
                let bin = &binning.bins[binning.bin_of(c.id).0 as usize];
                fleet
                    .dvfs
                    .levels()
                    .map(|l| {
                        pm.power(
                            bin.repr_alpha,
                            bin.repr_beta,
                            fleet.dvfs.freq_ghz(l),
                            bin.voltage[l.0 as usize],
                        )
                    })
                    .collect()
            })
            .collect();
        Self::assemble(voltages, est_power)
    }

    /// Plan under scanned knowledge (the `Scan*` schemes).
    ///
    /// `measured_vmin[chip][level]` is the Min Vdd grid the scanner
    /// extracted (chip-level: worst core per chip). Power estimates equal
    /// true power at the applied voltage — scanned datacenters meter their
    /// servers, and the paper's CPU-trace power prediction is reported
    /// accurate (§IV.A, \[34\]).
    pub fn from_scanned(fleet: &Fleet, measured_vmin: &[Vec<f64>]) -> OperatingPlan {
        assert_eq!(measured_vmin.len(), fleet.len(), "one Min Vdd row per chip");
        let pm = fleet.power_model();
        let voltages: Vec<Vec<f64>> = measured_vmin
            .iter()
            .map(|row| {
                assert_eq!(row.len(), fleet.dvfs.num_levels());
                row.iter().map(|v| v + SCAN_GUARDBAND_V).collect()
            })
            .collect();
        let est_power: Vec<Vec<f64>> = fleet
            .chips
            .iter()
            .zip(&voltages)
            .map(|(c, vs)| {
                fleet
                    .dvfs
                    .levels()
                    .map(|l| pm.power(c.alpha, c.beta, fleet.dvfs.freq_ghz(l), vs[l.0 as usize]))
                    .collect()
            })
            .collect();
        Self::assemble(voltages, est_power)
    }

    /// Oracle plan from the fleet's true Min Vdd (perfect scanning) — used
    /// in tests and as the upper bound for scanner-accuracy ablations.
    pub fn oracle(fleet: &Fleet) -> OperatingPlan {
        let vmin: Vec<Vec<f64>> = fleet
            .chips
            .iter()
            .map(|c| fleet.dvfs.levels().map(|l| c.vmin_chip(l, false)).collect())
            .collect();
        Self::from_scanned(fleet, &vmin)
    }

    /// Plan under *per-core voltage domains* (§III.B): instead of one
    /// chip-wide supply pinned at the worst core's Min Vdd, every core
    /// runs at its own measured Min Vdd plus the guardband.
    ///
    /// `measured_vmin_cores[chip][core][level]` is the per-core grid from
    /// the scanner. Power is computed by splitting the chip's dynamic
    /// coefficient evenly across cores (each core then pays `V_core^2`)
    /// while leakage pays the per-core supply too — the LDO-based delivery
    /// of \[25\] with per-core domains. The chip-level "applied voltage"
    /// reported for such a plan is the worst core's (for safety queries);
    /// the power estimates carry the real per-core benefit.
    pub fn from_scanned_per_core(
        fleet: &Fleet,
        measured_vmin_cores: &[Vec<Vec<f64>>],
    ) -> OperatingPlan {
        assert_eq!(measured_vmin_cores.len(), fleet.len());
        let pm = fleet.power_model();
        let mut voltages = Vec::with_capacity(fleet.len());
        let mut est_power = Vec::with_capacity(fleet.len());
        for (chip, cores) in fleet.chips.iter().zip(measured_vmin_cores) {
            assert_eq!(cores.len(), chip.cores.len(), "one row per core");
            let ncores = cores.len() as f64;
            let mut chip_v = Vec::with_capacity(fleet.dvfs.num_levels());
            let mut chip_p = Vec::with_capacity(fleet.dvfs.num_levels());
            for l in fleet.dvfs.levels() {
                let f = fleet.dvfs.freq_ghz(l);
                let mut worst = 0.0f64;
                let mut power = 0.0;
                for core_vmin in cores {
                    let v = core_vmin[l.0 as usize] + SCAN_GUARDBAND_V;
                    worst = worst.max(v);
                    power += pm.dynamic_power(chip.alpha / ncores, f, v)
                        + pm.static_power(chip.beta / ncores, v);
                }
                chip_v.push(worst);
                chip_p.push(power);
            }
            voltages.push(chip_v);
            est_power.push(chip_p);
        }
        let per_core: Vec<Vec<Vec<f64>>> = measured_vmin_cores
            .iter()
            .map(|cores| {
                cores
                    .iter()
                    .map(|row| row.iter().map(|v| v + SCAN_GUARDBAND_V).collect())
                    .collect()
            })
            .collect();
        let mut plan = Self::assemble(voltages, est_power);
        plan.per_core = Some(per_core);
        plan
    }

    fn assemble(voltages: Vec<Vec<f64>>, est_power: Vec<Vec<f64>>) -> OperatingPlan {
        let top = voltages
            .first()
            .map(|v| v.len().saturating_sub(1))
            .unwrap_or(0);
        let mut ranking: Vec<ChipId> = (0..voltages.len() as u32).map(ChipId).collect();
        ranking.sort_by(|a, b| {
            let pa = est_power[a.0 as usize][top];
            let pb = est_power[b.0 as usize][top];
            pa.partial_cmp(&pb)
                .expect("estimates are finite")
                .then(a.cmp(b))
        });
        let est_power_top_sum = est_power.iter().map(|row| row[top]).sum();
        OperatingPlan {
            voltages,
            est_power,
            ranking,
            per_core: None,
            est_power_top_sum,
        }
    }

    /// Supply voltage the chip applies at `level`.
    pub fn applied_voltage(&self, chip: ChipId, level: FreqLevel) -> f64 {
        self.voltages[chip.0 as usize][level.0 as usize]
    }

    /// Scheduler-visible busy-power estimate (W) at `level`.
    pub fn estimated_power(&self, chip: ChipId, level: FreqLevel) -> f64 {
        self.est_power[chip.0 as usize][level.0 as usize]
    }

    /// Fleet-wide sum of the top-level busy-power estimates (W), equal to
    /// summing [`OperatingPlan::estimated_power`] at the top level over
    /// all chips in index order. Cached; O(1).
    pub fn estimated_power_top_sum(&self) -> f64 {
        self.est_power_top_sum
    }

    /// True power (W) the chip draws when busy at `level` under this plan.
    /// With per-core voltage domains each core pays its own supply;
    /// otherwise the chip-wide applied voltage is charged.
    pub fn true_power(&self, fleet: &Fleet, chip: ChipId, level: FreqLevel) -> f64 {
        let pm = fleet.power_model();
        let c = fleet.chip(chip);
        if let Some(per_core) = &self.per_core {
            let cores = &per_core[chip.0 as usize];
            let n = cores.len() as f64;
            let f = fleet.dvfs.freq_ghz(level);
            return cores
                .iter()
                .map(|row| {
                    let v = row[level.0 as usize];
                    pm.dynamic_power(c.alpha / n, f, v) + pm.static_power(c.beta / n, v)
                })
                .sum();
        }
        pm.chip_power(c, &fleet.dvfs, level, self.applied_voltage(chip, level))
    }

    /// True if the plan uses per-core voltage domains.
    pub fn is_per_core(&self) -> bool {
        self.per_core.is_some()
    }

    /// Replaces one chip's voltages and power estimates (the in-situ
    /// profiling path: a chip that just finished its scan moves from its
    /// factory-bin operating point to its measured one) and moves it to
    /// its new rank.
    pub fn update_chip(&mut self, chip: ChipId, voltages: Vec<f64>, est_power: Vec<f64>) {
        let ci = chip.0 as usize;
        assert_eq!(voltages.len(), self.voltages[ci].len());
        assert_eq!(est_power.len(), self.est_power[ci].len());
        assert!(
            self.per_core.is_none(),
            "per-core plans are rebuilt, not incrementally updated"
        );
        let top = self.voltages[ci].len() - 1;
        // `(est_power[top], id)` is a strict total order, so taking the
        // chip out and inserting it before the first chip that ranks
        // after it leaves exactly the full sort's order.
        let ranks_before = |est: &[Vec<f64>], a: ChipId, b: ChipId| {
            let (pa, pb) = (est[a.0 as usize][top], est[b.0 as usize][top]);
            let order = pa.partial_cmp(&pb).expect("estimates are finite");
            order.then(a.cmp(&b)).is_lt()
        };
        let at = self
            .ranking
            .partition_point(|&c| ranks_before(&self.est_power, c, chip));
        debug_assert_eq!(self.ranking[at], chip, "ranking out of order");
        self.ranking.remove(at);
        self.voltages[ci] = voltages;
        self.est_power[ci] = est_power;
        let at = self
            .ranking
            .partition_point(|&c| ranks_before(&self.est_power, c, chip));
        self.ranking.insert(at, chip);
        // Full index-order re-sum (not a delta fix-up): float addition is
        // not associative, and the cache must stay bit-identical to the
        // naive loop the scheduler used to run.
        self.est_power_top_sum = self.est_power.iter().map(|row| row[top]).sum();
    }

    /// Chips sorted most-efficient-first by the scheduler's estimate.
    pub fn ranking(&self) -> &[ChipId] {
        &self.ranking
    }

    /// The plan's per-chip rows, for checkpointing: `(voltages,
    /// est_power)`. The ranking and the cached top-level sum are *not*
    /// exposed — they are pure functions of these rows and are recomputed
    /// bit-identically on restore by [`OperatingPlan::from_rows`].
    pub fn rows(&self) -> (&[Vec<f64>], &[Vec<f64>]) {
        (&self.voltages, &self.est_power)
    }

    /// Rebuilds a chip-wide plan from captured rows (restore path).
    ///
    /// Runs the same assembly as the constructors: ranking sorted by
    /// `(est_power[chip][top], id)` and the top-level sum taken in chip
    /// index order, so the rebuilt plan is bit-identical to the captured
    /// one. Per-core plans are not restorable this way (checkpointing
    /// rejects them before it gets here).
    pub fn from_rows(voltages: Vec<Vec<f64>>, est_power: Vec<Vec<f64>>) -> OperatingPlan {
        assert_eq!(voltages.len(), est_power.len(), "one row pair per chip");
        Self::assemble(voltages, est_power)
    }

    /// Number of chips covered.
    pub fn len(&self) -> usize {
        self.voltages.len()
    }

    /// True if the plan covers no chips.
    pub fn is_empty(&self) -> bool {
        self.voltages.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::DvfsConfig;
    use crate::params::VariationParams;
    use proptest::prelude::*;

    fn fleet() -> Fleet {
        Fleet::generate(
            200,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            23,
        )
    }

    #[test]
    fn microwatt_conversions_round_trip_and_saturate() {
        assert_eq!(watts_to_microwatts(0.0), 0);
        assert_eq!(watts_to_microwatts(130.0), 130_000_000);
        assert_eq!(watts_to_microwatts(1e-6), 1);
        assert_eq!(watts_to_microwatts(f64::INFINITY), i64::MAX);
        assert_eq!(microwatts_to_watts(130_000_000), 130.0);
        // Sub-µW quantization stays sub-µW after a round trip.
        let w = 92.123_456_789;
        assert!((microwatts_to_watts(watts_to_microwatts(w)) - w).abs() < 1e-6);
    }

    #[test]
    fn bin_plan_applies_bin_voltage() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        let plan = OperatingPlan::from_binning(&f, &binning);
        for c in &f.chips {
            for l in f.dvfs.levels() {
                assert_eq!(plan.applied_voltage(c.id, l), binning.voltage(c.id, l));
                // Bin voltage is always safe.
                assert!(plan.applied_voltage(c.id, l) >= c.vmin_chip(l, false));
            }
        }
    }

    #[test]
    fn scan_plan_saves_power_vs_bin_plan_for_nearly_all_chips() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        let bin_plan = OperatingPlan::from_binning(&f, &binning);
        let scan_plan = OperatingPlan::oracle(&f);
        let top = f.dvfs.max_level();
        let mut saved = 0usize;
        let mut total_bin = 0.0;
        let mut total_scan = 0.0;
        for c in &f.chips {
            let pb = bin_plan.true_power(&f, c.id, top);
            let ps = scan_plan.true_power(&f, c.id, top);
            assert!(ps <= pb + 1e-9, "scan must never burn more than bin");
            if ps < pb - 1e-9 {
                saved += 1;
            }
            total_bin += pb;
            total_scan += ps;
        }
        assert!(saved > f.len() * 8 / 10, "most chips should save: {saved}");
        let fleet_saving = 1.0 - total_scan / total_bin;
        // The ~10 % Scan-vs-Bin gap of §VI.A at fleet level.
        assert!(
            (0.02..0.2).contains(&fleet_saving),
            "fleet-level scan saving {fleet_saving:.3}"
        );
    }

    #[test]
    fn scan_plan_is_always_safe() {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        for c in &f.chips {
            for l in f.dvfs.levels() {
                assert!(plan.applied_voltage(c.id, l) >= c.vmin_chip(l, false));
            }
        }
    }

    #[test]
    fn ranking_is_sorted_by_estimate_and_complete() {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        let top = f.dvfs.max_level();
        let rank = plan.ranking();
        assert_eq!(rank.len(), f.len());
        for w in rank.windows(2) {
            assert!(plan.estimated_power(w[0], top) <= plan.estimated_power(w[1], top));
        }
        let mut ids: Vec<u32> = rank.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..f.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn bin_estimates_are_identical_within_a_bin() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        let plan = OperatingPlan::from_binning(&f, &binning);
        let top = f.dvfs.max_level();
        for b in &binning.bins {
            let first = plan.estimated_power(b.members[0], top);
            for &id in &b.members {
                assert_eq!(
                    plan.estimated_power(id, top),
                    first,
                    "chips in a bin must be indistinguishable to a Bin scheduler"
                );
            }
        }
    }

    #[test]
    fn scan_estimates_equal_true_power() {
        let f = fleet();
        let plan = OperatingPlan::oracle(&f);
        for c in &f.chips {
            for l in f.dvfs.levels() {
                let est = plan.estimated_power(c.id, l);
                let truth = plan.true_power(&f, c.id, l);
                assert!((est - truth).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn top_sum_cache_matches_naive_sum_and_survives_updates() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        let mut plan = OperatingPlan::from_binning(&f, &binning);
        let top = f.dvfs.max_level();
        let naive = |p: &OperatingPlan| -> f64 {
            (0..f.len() as u32)
                .map(|i| p.estimated_power(ChipId(i), top))
                .sum()
        };
        assert_eq!(
            plan.estimated_power_top_sum().to_bits(),
            naive(&plan).to_bits()
        );
        // Upgrade one chip the way in-situ profiling does and re-check
        // bit-identity with the naive index-order loop.
        let scan = OperatingPlan::oracle(&f);
        let volts: Vec<f64> = f
            .dvfs
            .levels()
            .map(|l| scan.applied_voltage(ChipId(7), l))
            .collect();
        let est: Vec<f64> = f
            .dvfs
            .levels()
            .map(|l| scan.estimated_power(ChipId(7), l))
            .collect();
        plan.update_chip(ChipId(7), volts, est);
        assert_eq!(
            plan.estimated_power_top_sum().to_bits(),
            naive(&plan).to_bits()
        );
    }

    const LEVELS: usize = 3;

    /// A chip's rows: top-level estimate `top`, the lower levels below it.
    fn rows_with_top(top: f64, volt: f64) -> (Vec<f64>, Vec<f64>) {
        let est = (0..LEVELS).map(|l| top * (l + 1) as f64 / LEVELS as f64);
        (vec![volt; LEVELS], est.collect())
    }

    proptest! {
        /// Moving one chip to its new rank gives the ranking and the top
        /// sum (bit for bit) of a plan assembled from the same rows.
        /// Top estimates come from four values, so ties are common and
        /// the id tiebreak decides; an update sends its chip below every
        /// estimate, above every one, to its own estimate, or onto a tie.
        #[test]
        fn update_chip_matches_a_plan_from_the_same_rows(
            tops in prop::collection::vec(0u8..4, 1..40),
            updates in prop::collection::vec((0usize..64, 0u8..4, 0u8..4, 0.5f64..1.5), 1..6),
        ) {
            let ties = |k: u8| 60.0 + 12.7 * k as f64;
            let (mut voltages, mut est): (Vec<_>, Vec<_>) =
                tops.iter().map(|&k| rows_with_top(ties(k), 1.0)).unzip();
            let mut plan = OperatingPlan::from_rows(voltages.clone(), est.clone());
            for (pick, kind, k, volt) in updates {
                let ci = pick % tops.len();
                let top = match kind {
                    0 => 1.0,
                    1 => 1e3,
                    2 => est[ci][LEVELS - 1],
                    _ => ties(k),
                };
                let (v, e) = rows_with_top(top, volt);
                plan.update_chip(ChipId(ci as u32), v.clone(), e.clone());
                (voltages[ci], est[ci]) = (v, e);
                let full = OperatingPlan::from_rows(voltages.clone(), est.clone());
                prop_assert_eq!(plan.ranking(), full.ranking());
                prop_assert_eq!(
                    plan.estimated_power_top_sum().to_bits(),
                    full.estimated_power_top_sum().to_bits()
                );
                prop_assert_eq!(plan.rows(), full.rows());
            }
        }
    }

    #[test]
    fn scan_ranking_has_finer_resolution_than_bin_ranking() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        let bin_plan = OperatingPlan::from_binning(&f, &binning);
        let scan_plan = OperatingPlan::oracle(&f);
        let top = f.dvfs.max_level();
        let distinct = |plan: &OperatingPlan| {
            let mut est: Vec<u64> = (0..f.len() as u32)
                .map(|i| plan.estimated_power(ChipId(i), top).to_bits())
                .collect();
            est.sort_unstable();
            est.dedup();
            est.len()
        };
        assert_eq!(distinct(&bin_plan), 3);
        assert!(distinct(&scan_plan) > 100);
    }
}

#[cfg(test)]
mod per_core_tests {
    use super::*;
    use crate::freq::DvfsConfig;
    use crate::params::VariationParams;

    fn fleet() -> Fleet {
        Fleet::generate(
            80,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            29,
        )
    }

    fn true_core_vmin(fleet: &Fleet) -> Vec<Vec<Vec<f64>>> {
        fleet
            .chips
            .iter()
            .map(|c| {
                c.cores
                    .iter()
                    .map(|core| fleet.dvfs.levels().map(|l| core.vmin(l)).collect())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn per_core_plan_saves_power_over_chip_wide_plan() {
        // SIII.B: per-core voltage domains recover the margin the worst
        // core imposes on its siblings.
        let f = fleet();
        let chip_wide = OperatingPlan::oracle(&f);
        let per_core = OperatingPlan::from_scanned_per_core(&f, &true_core_vmin(&f));
        assert!(per_core.is_per_core() && !chip_wide.is_per_core());
        let top = f.dvfs.max_level();
        let mut total_wide = 0.0;
        let mut total_core = 0.0;
        for c in &f.chips {
            let pw = chip_wide.true_power(&f, c.id, top);
            let pc = per_core.true_power(&f, c.id, top);
            assert!(pc <= pw + 1e-9, "per-core must not draw more");
            total_wide += pw;
            total_core += pc;
        }
        let saving = 1.0 - total_core / total_wide;
        assert!(
            (0.001..0.1).contains(&saving),
            "per-core saving {saving:.4} out of plausible band"
        );
    }

    #[test]
    fn per_core_voltages_are_safe_per_core() {
        let f = fleet();
        let plan = OperatingPlan::from_scanned_per_core(&f, &true_core_vmin(&f));
        // The reported chip-level applied voltage is the worst core's.
        for c in &f.chips {
            for l in f.dvfs.levels() {
                assert!(plan.applied_voltage(c.id, l) >= c.vmin_chip(l, false));
            }
        }
    }

    #[test]
    fn per_core_estimates_match_true_power() {
        let f = fleet();
        let plan = OperatingPlan::from_scanned_per_core(&f, &true_core_vmin(&f));
        for c in &f.chips {
            for l in f.dvfs.levels() {
                let est = plan.estimated_power(c.id, l);
                let truth = plan.true_power(&f, c.id, l);
                assert!((est - truth).abs() < 1e-9);
            }
        }
    }
}
