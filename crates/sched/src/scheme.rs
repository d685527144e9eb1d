//! The five evaluated schemes (Table 2): a profiling strategy crossed with
//! a scheduling rule.

use crate::placement::{EfficiencyPlacement, FairPlacement, Placement, RandomPlacement};
use iscope_pvmodel::{Binning, Fleet, OperatingPlan};
use iscope_scanner::{Scanner, ScannerConfig};

/// How the datacenter learned about its processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Profiling {
    /// Factory binning only; no in-cloud profiling (the `Bin*` schemes).
    Bin,
    /// Dynamic in-cloud scanning with iScope (the `Scan*` schemes).
    Scan,
}

/// The five evaluated task-scheduling schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Factory bins + random placement.
    BinRan,
    /// Factory bins + minimize energy.
    BinEffi,
    /// Dynamic profiling + random placement.
    ScanRan,
    /// Dynamic profiling + minimize energy.
    ScanEffi,
    /// Dynamic profiling + minimize energy + balance utilization
    /// (the iScope default).
    ScanFair,
}

impl Scheme {
    /// All five, in the paper's Table 2 order.
    pub const ALL: [Scheme; 5] = [
        Scheme::BinRan,
        Scheme::BinEffi,
        Scheme::ScanRan,
        Scheme::ScanEffi,
        Scheme::ScanFair,
    ];

    /// Display name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::BinRan => "BinRan",
            Scheme::BinEffi => "BinEffi",
            Scheme::ScanRan => "ScanRan",
            Scheme::ScanEffi => "ScanEffi",
            Scheme::ScanFair => "ScanFair",
        }
    }

    /// The profiling strategy half of the scheme.
    pub fn profiling(self) -> Profiling {
        match self {
            Scheme::BinRan | Scheme::BinEffi => Profiling::Bin,
            _ => Profiling::Scan,
        }
    }

    /// The placement policy half of the scheme.
    pub fn placement(self) -> Box<dyn Placement> {
        match self {
            Scheme::BinRan | Scheme::ScanRan => Box::new(RandomPlacement),
            Scheme::BinEffi | Scheme::ScanEffi => Box::new(EfficiencyPlacement),
            Scheme::ScanFair => Box::new(FairPlacement),
        }
    }

    /// Builds the operating plan this scheme runs the fleet under.
    ///
    /// `Bin*`: three factory efficiency bins with worst-case voltages.
    /// `Scan*`: an iScope scan (descending-grid stress test by default)
    /// measured against the fleet's hidden ground truth: the chip-level
    /// rows of [`Scanner::profile_fleet`].
    pub fn build_plan(self, fleet: &Fleet, seed: u64) -> OperatingPlan {
        match self.profiling() {
            Profiling::Bin => {
                let binning = Binning::by_efficiency(fleet, 3);
                OperatingPlan::from_binning(fleet, &binning)
            }
            Profiling::Scan => {
                let scan = Scanner::new(ScannerConfig::default()).profile_fleet(fleet, seed);
                OperatingPlan::from_scanned(fleet, &scan.measured_vmin)
            }
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iscope_pvmodel::{DvfsConfig, VariationParams};

    fn fleet() -> Fleet {
        Fleet::generate(
            60,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            51,
        )
    }

    #[test]
    fn table2_mapping() {
        assert_eq!(Scheme::BinRan.profiling(), Profiling::Bin);
        assert_eq!(Scheme::BinEffi.profiling(), Profiling::Bin);
        assert_eq!(Scheme::ScanRan.profiling(), Profiling::Scan);
        assert_eq!(Scheme::ScanEffi.profiling(), Profiling::Scan);
        assert_eq!(Scheme::ScanFair.profiling(), Profiling::Scan);
        assert_eq!(Scheme::BinRan.placement().name(), "Ran");
        assert_eq!(Scheme::ScanEffi.placement().name(), "Effi");
        assert_eq!(Scheme::ScanFair.placement().name(), "Fair");
        assert_eq!(Scheme::ALL.len(), 5);
    }

    #[test]
    fn scan_plans_run_chips_at_lower_voltage_than_bin_plans() {
        let f = fleet();
        let bin = Scheme::BinRan.build_plan(&f, 1);
        let scan = Scheme::ScanRan.build_plan(&f, 1);
        let top = f.dvfs.max_level();
        let mean = |p: &OperatingPlan| {
            (0..f.len() as u32)
                .map(|i| p.applied_voltage(iscope_pvmodel::ChipId(i), top))
                .sum::<f64>()
                / f.len() as f64
        };
        assert!(
            mean(&scan) < mean(&bin),
            "scan voltages {} must undercut bin voltages {}",
            mean(&scan),
            mean(&bin)
        );
    }

    #[test]
    fn scan_plans_are_safe_despite_measurement_quantization() {
        let f = fleet();
        let scan = Scheme::ScanFair.build_plan(&f, 2);
        for chip in &f.chips {
            for l in f.dvfs.levels() {
                assert!(
                    scan.applied_voltage(chip.id, l) >= chip.vmin_chip(l, false),
                    "unsafe scanned voltage"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = Scheme::ALL.iter().map(|s| s.to_string()).collect();
        assert_eq!(
            names,
            vec!["BinRan", "BinEffi", "ScanRan", "ScanEffi", "ScanFair"]
        );
    }
}
