//! In-situ profiling experiment: the full §III story in one run — a fleet
//! that boots unprofiled (factory bins), scans itself opportunistically
//! during low-utilization windows, and converges toward the pre-scanned
//! energy point, with the profiling overhead accounted inside the same
//! energy ledger.

use crate::common::ExpConfig;
use iscope::prelude::*;
use iscope::{InSituConfig, RunReport};
use iscope_sched::Scheme;

/// Outcome of the in-situ experiment.
#[derive(Debug, Clone)]
pub struct InSitu {
    /// Never-profiled baseline (factory bins forever): total kWh.
    pub bin_kwh: f64,
    /// In-situ run: total kWh including profiling overhead.
    pub insitu_kwh: f64,
    /// In-situ profiling overhead alone, kWh.
    pub insitu_overhead_kwh: f64,
    /// Chips profiled during the run / fleet size.
    pub profiled: (usize, usize),
    /// Pre-scanned (profile already paid for): total kWh.
    pub prescanned_kwh: f64,
    /// Deadline miss rates: bin / in-situ / pre-scanned.
    pub miss_rates: [f64; 3],
}

iscope::to_val!(InSitu, |i| {
    "bin_kwh" => i.bin_kwh,
    "insitu_kwh" => i.insitu_kwh,
    "insitu_overhead_kwh" => i.insitu_overhead_kwh,
    "profiled" => i.profiled,
    "prescanned_kwh" => i.prescanned_kwh,
    "miss_rates" => i.miss_rates,
});

/// Runs the three variants with the 29-second SBFT scanner (the paper's
/// low-overhead option — a 10-minute stress grid would cost ~20x more
/// energy, §VI.E, and only amortizes over months of operation).
pub fn run(cfg: &ExpConfig) -> InSitu {
    let insitu_cfg = InSituConfig {
        scanner: ScannerConfig {
            test_kind: TestKind::Sbft,
            ..ScannerConfig::default()
        },
        ..InSituConfig::default()
    };
    let total = |r: &RunReport| r.utility_kwh() + r.wind_kwh();
    let bin = cfg.wind_sim(Scheme::BinRan, 1.0).build().run();
    let insitu = cfg
        .wind_sim(Scheme::ScanRan, 1.0)
        .in_situ_profiling(insitu_cfg)
        .build()
        .run();
    let prescanned = cfg.wind_sim(Scheme::ScanRan, 1.0).build().run();
    let stats = insitu.profiling.expect("in-situ stats");
    InSitu {
        bin_kwh: total(&bin),
        insitu_kwh: total(&insitu),
        insitu_overhead_kwh: stats.profiling_energy_kwh,
        profiled: (stats.chips_profiled, stats.fleet_size),
        prescanned_kwh: total(&prescanned),
        miss_rates: [bin.miss_rate(), insitu.miss_rate(), prescanned.miss_rate()],
    }
}

impl InSitu {
    /// Renders the convergence summary.
    pub fn render(&self) -> String {
        format!(
            "## insitu — opportunistic profiling during operation (SIII.C)\n\
             never profiled (BinRan):          {:>8.1} kWh  (misses {:.1} %)\n\
             in-situ scan   (ScanRan):         {:>8.1} kWh  (misses {:.1} %, {} of {} chips \
             profiled, overhead {:.2} kWh)\n\
             pre-scanned    (ScanRan):         {:>8.1} kWh  (misses {:.1} %)\n\
             The in-situ run starts on bin voltages and converges toward the\n\
             pre-scanned point as SBFT scans complete inside the same ledger.\n",
            self.bin_kwh,
            100.0 * self.miss_rates[0],
            self.insitu_kwh,
            100.0 * self.miss_rates[1],
            self.profiled.0,
            self.profiled.1,
            self.insitu_overhead_kwh,
            self.prescanned_kwh,
            100.0 * self.miss_rates[2],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpScale;

    #[test]
    fn insitu_converges_between_bin_and_prescanned() {
        let r = run(&ExpConfig::new(ExpScale::Fast));
        assert!(r.prescanned_kwh < r.bin_kwh, "scanning must save energy");
        let job_energy = r.insitu_kwh - r.insitu_overhead_kwh;
        assert!(
            job_energy <= r.bin_kwh * 1.01,
            "in-situ worse than never profiling"
        );
        assert!(
            job_energy >= r.prescanned_kwh * 0.95,
            "in-situ cannot beat a free scan"
        );
        assert!(r.profiled.0 > 0, "no chips were profiled");
        // QoS is preserved.
        assert!(r.miss_rates[1] <= r.miss_rates[0] + 0.05);
    }
}
