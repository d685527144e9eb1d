//! Factory speed/efficiency binning (§II.B, Table 1).
//!
//! The factory runs rigorous binning tests and sorts processors into a
//! small number of bins by power efficiency. Every chip in a bin must apply
//! the voltage of the *worst-case* chip in that bin to guarantee correct
//! operation (§V.B) — that conservatism is precisely what iScope's in-cloud
//! scanning recovers.

use crate::chip::ChipId;
use crate::freq::FreqLevel;
use crate::population::Fleet;

/// Index of a factory bin; bin 0 is the most efficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BinId(pub u8);

/// One factory bin: membership plus worst-case voltage per level.
#[derive(Debug, Clone)]
pub struct Bin {
    /// Bin index (0 = most efficient).
    pub id: BinId,
    /// Member chips.
    pub members: Vec<ChipId>,
    /// Operating voltage per DVFS level: the max Min Vdd across members
    /// plus the bin guardband.
    pub voltage: Vec<f64>,
    /// Representative (mean) dynamic coefficient of the members — the
    /// datasheet-level power knowledge a Bin-only scheduler has.
    pub repr_alpha: f64,
    /// Representative (mean) static power of the members.
    pub repr_beta: f64,
}

/// Result of binning a fleet.
#[derive(Debug, Clone)]
pub struct Binning {
    /// The bins, most efficient first.
    pub bins: Vec<Bin>,
    /// Chip → bin lookup.
    bin_of: Vec<BinId>,
    /// Guardband (V) added on top of the worst-case member Min Vdd.
    pub guardband: f64,
}

/// Guardband the factory adds on top of the worst-case member voltage.
///
/// Deliberately larger than the scanner's guardband
/// ([`crate::plan::SCAN_GUARDBAND_V`]): a factory rating must hold for the
/// chip's whole lifetime under worst-case temperature, aging, and workload
/// viruses, while in-cloud profiling measures the chip in its actual
/// deployment environment and is refreshed periodically (SIII.C). This
/// asymmetry is the conservatism the paper's SII.B guardband discussion
/// targets.
pub const FACTORY_GUARDBAND_V: f64 = 0.045;

impl Binning {
    /// Bins a fleet into `num_bins` efficiency terciles (the paper uses 3
    /// bins, like the AMD Opteron 6300 series).
    ///
    /// Chips are ranked by their true power at the top level when run at
    /// their own Min Vdd (the quantity the factory's binning tests expose),
    /// then split into equal-size groups.
    pub fn by_efficiency(fleet: &Fleet, num_bins: usize) -> Binning {
        assert!(
            num_bins >= 1 && num_bins <= fleet.len().max(1),
            "invalid bin count"
        );
        let ranking = fleet.true_efficiency_ranking();
        let n = ranking.len();
        let mut bins = Vec::with_capacity(num_bins);
        let mut bin_of = vec![BinId(0); n];
        for b in 0..num_bins {
            let lo = b * n / num_bins;
            let hi = (b + 1) * n / num_bins;
            let members: Vec<ChipId> = ranking[lo..hi].to_vec();
            let voltage: Vec<f64> = fleet
                .dvfs
                .levels()
                .map(|l| {
                    members
                        .iter()
                        .map(|&id| fleet.chip(id).vmin_chip(l, false))
                        .fold(0.0, f64::max)
                        + FACTORY_GUARDBAND_V
                })
                .collect();
            let repr_alpha = members.iter().map(|&id| fleet.chip(id).alpha).sum::<f64>()
                / members.len().max(1) as f64;
            let repr_beta = members.iter().map(|&id| fleet.chip(id).beta).sum::<f64>()
                / members.len().max(1) as f64;
            for &id in &members {
                bin_of[id.0 as usize] = BinId(b as u8);
            }
            bins.push(Bin {
                id: BinId(b as u8),
                members,
                voltage,
                repr_alpha,
                repr_beta,
            });
        }
        Binning {
            bins,
            bin_of,
            guardband: FACTORY_GUARDBAND_V,
        }
    }

    /// The bin a chip landed in.
    pub fn bin_of(&self, chip: ChipId) -> BinId {
        self.bin_of[chip.0 as usize]
    }

    /// Operating voltage for a chip at a level under factory binning.
    pub fn voltage(&self, chip: ChipId, level: FreqLevel) -> f64 {
        self.bins[self.bin_of(chip).0 as usize].voltage[level.0 as usize]
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }
}

/// A row of Table 1: the AMD Opteron 6300 series bins.
#[derive(Debug, Clone, Copy)]
pub struct OpteronBin {
    /// Model number.
    pub model: u16,
    /// Core count.
    pub cores: u8,
    /// L3 cache in MB.
    pub cache_mb: u8,
    /// Nominal clock (GHz).
    pub nominal_ghz: f64,
    /// Max boost clock (GHz).
    pub max_ghz: f64,
    /// Launch price (USD).
    pub price_usd: u32,
}

/// Table 1 of the paper: three bins of the AMD Opteron 6300 CPU.
pub const OPTERON_6300_BINS: [OpteronBin; 3] = [
    OpteronBin {
        model: 6376,
        cores: 16,
        cache_mb: 16,
        nominal_ghz: 2.3,
        max_ghz: 3.2,
        price_usd: 703,
    },
    OpteronBin {
        model: 6378,
        cores: 16,
        cache_mb: 16,
        nominal_ghz: 2.4,
        max_ghz: 3.3,
        price_usd: 876,
    },
    OpteronBin {
        model: 6380,
        cores: 16,
        cache_mb: 16,
        nominal_ghz: 2.5,
        max_ghz: 3.4,
        price_usd: 1088,
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq::DvfsConfig;
    use crate::params::VariationParams;

    fn fleet() -> Fleet {
        Fleet::generate(
            300,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            17,
        )
    }

    #[test]
    fn every_chip_lands_in_exactly_one_bin() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        assert_eq!(binning.num_bins(), 3);
        let total: usize = binning.bins.iter().map(|b| b.members.len()).sum();
        assert_eq!(total, f.len());
        for b in &binning.bins {
            for &id in &b.members {
                assert_eq!(binning.bin_of(id), b.id);
            }
        }
    }

    #[test]
    fn bin_voltage_covers_every_member() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        for b in &binning.bins {
            for l in f.dvfs.levels() {
                let vbin = b.voltage[l.0 as usize];
                for &id in &b.members {
                    assert!(
                        vbin >= f.chip(id).vmin_chip(l, false),
                        "bin voltage below a member's Min Vdd"
                    );
                }
                // ...and never above the fully guard-banded nominal by much.
                assert!(vbin <= f.dvfs.v_nom(l) + FACTORY_GUARDBAND_V);
            }
        }
    }

    #[test]
    fn earlier_bins_are_more_efficient() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        // Representative power at the top level should increase bin by bin.
        let pm = f.power_model();
        let top = f.dvfs.max_level();
        let reps: Vec<f64> = binning
            .bins
            .iter()
            .map(|b| {
                pm.power(
                    b.repr_alpha,
                    b.repr_beta,
                    f.dvfs.f_max(),
                    b.voltage[top.0 as usize],
                )
            })
            .collect();
        assert!(
            reps.windows(2).all(|w| w[0] < w[1]),
            "bin representative power must rise: {reps:?}"
        );
    }

    #[test]
    fn binned_voltage_wastes_margin_vs_own_vmin() {
        // The whole point: most chips in a bin run above their own Min Vdd.
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 3);
        let top = f.dvfs.max_level();
        let wasted = f
            .chips
            .iter()
            .filter(|c| {
                binning.voltage(c.id, top) > c.vmin_chip(top, false) + FACTORY_GUARDBAND_V + 1e-9
            })
            .count();
        assert!(
            wasted > f.len() / 2,
            "expected most chips to carry wasted bin margin, got {wasted}/{}",
            f.len()
        );
    }

    #[test]
    fn single_bin_equals_global_worst_case() {
        let f = fleet();
        let binning = Binning::by_efficiency(&f, 1);
        let top = f.dvfs.max_level();
        let global_worst = f
            .chips
            .iter()
            .map(|c| c.vmin_chip(top, false))
            .fold(0.0, f64::max);
        assert!(
            (binning.bins[0].voltage[top.0 as usize] - global_worst - FACTORY_GUARDBAND_V).abs()
                < 1e-12
        );
    }

    #[test]
    fn table1_data_matches_paper() {
        assert_eq!(OPTERON_6300_BINS[0].price_usd, 703);
        assert_eq!(OPTERON_6300_BINS[2].model, 6380);
        assert!((OPTERON_6300_BINS[1].nominal_ghz - 2.4).abs() < 1e-12);
        // Higher bins are faster and pricier.
        for w in OPTERON_6300_BINS.windows(2) {
            assert!(w[0].nominal_ghz < w[1].nominal_ghz);
            assert!(w[0].price_usd < w[1].price_usd);
        }
    }

    #[test]
    fn more_bins_waste_less_margin() {
        let f = fleet();
        let top = f.dvfs.max_level();
        let waste = |nbins: usize| -> f64 {
            let binning = Binning::by_efficiency(&f, nbins);
            f.chips
                .iter()
                .map(|c| binning.voltage(c.id, top) - c.vmin_chip(top, false))
                .sum::<f64>()
        };
        let w1 = waste(1);
        let w3 = waste(3);
        let w10 = waste(10);
        assert!(
            w1 > w3 && w3 > w10,
            "waste must shrink with bin count: {w1} {w3} {w10}"
        );
    }
}
