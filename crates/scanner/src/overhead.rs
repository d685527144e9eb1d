//! Profiling energy-overhead accounting (§VI.E).
//!
//! The paper's estimate sets every processor to the AMD Opteron 6300
//! series maximum TDP (115 W) and charges the full probe grid (5 frequency
//! bins × 10 voltage values) at the test duration: 230 USD on wind power
//! (598 USD on utility) for the 10-minute stress test over 4800
//! processors, and 11.2 / 28.9 USD for the 29-second SBFT. This module
//! reproduces that arithmetic and also prices *actual* scans (which run
//! fewer tests thanks to the stage-6 early stop).

use crate::sbft::TestKind;
use iscope_energy::{PriceBook, J_PER_KWH};

/// Assumptions of the §VI.E cost estimate.
#[derive(Debug, Clone, Copy)]
pub struct OverheadModel {
    /// Power drawn per processor under test (W). The paper uses the
    /// Opteron 6300 maximum TDP.
    pub tdp_w: f64,
    /// Frequency bins probed.
    pub freq_bins: usize,
    /// Voltage values probed per bin.
    pub voltage_points: usize,
}

impl Default for OverheadModel {
    fn default() -> Self {
        OverheadModel {
            tdp_w: 115.0,
            freq_bins: 5,
            voltage_points: 10,
        }
    }
}

/// A priced profiling campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilingCost {
    /// Total test energy, kWh.
    pub energy_kwh: f64,
    /// Cost if powered by wind, USD.
    pub cost_wind_usd: f64,
    /// Cost if powered by utility, USD.
    pub cost_utility_usd: f64,
}

impl OverheadModel {
    /// Full-grid cost for `num_procs` processors with the given test — the
    /// paper's upper-bound estimate ("all configuration points").
    pub fn full_grid_cost(
        &self,
        num_procs: usize,
        test: TestKind,
        prices: &PriceBook,
    ) -> ProfilingCost {
        let points = (self.freq_bins * self.voltage_points) as f64;
        let energy_j = num_procs as f64 * points * test.duration().as_secs_f64() * self.tdp_w;
        self.price(energy_j, prices)
    }

    /// Cost of an actual scan that executed `chip_test_seconds` of
    /// per-chip test time in total (early-stop scans cost less than the
    /// full grid).
    pub fn actual_cost(&self, total_chip_test_seconds: f64, prices: &PriceBook) -> ProfilingCost {
        self.price(total_chip_test_seconds * self.tdp_w, prices)
    }

    fn price(&self, energy_j: f64, prices: &PriceBook) -> ProfilingCost {
        let kwh = energy_j / J_PER_KWH;
        ProfilingCost {
            energy_kwh: kwh,
            cost_wind_usd: kwh * prices.wind_usd_per_kwh,
            cost_utility_usd: kwh * prices.utility_usd_per_kwh,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stress_test_reproduces_paper_dollars() {
        // §VI.E: 4800 processors, all configuration points, 10-minute
        // stress test: 230 USD wind / 598 USD utility.
        let cost = OverheadModel::default().full_grid_cost(
            4800,
            TestKind::Stress,
            &PriceBook::paper_default(),
        );
        assert!(
            (cost.energy_kwh - 4600.0).abs() < 1.0,
            "kWh {}",
            cost.energy_kwh
        );
        assert!(
            (cost.cost_wind_usd - 230.0).abs() < 1.0,
            "wind {}",
            cost.cost_wind_usd
        );
        assert!(
            (cost.cost_utility_usd - 598.0).abs() < 1.0,
            "utility {}",
            cost.cost_utility_usd
        );
    }

    #[test]
    fn sbft_reproduces_paper_dollars() {
        // §VI.E: 29-second SBFT: 11.2 USD wind / 28.9 USD utility.
        let cost = OverheadModel::default().full_grid_cost(
            4800,
            TestKind::Sbft,
            &PriceBook::paper_default(),
        );
        assert!(
            (cost.cost_wind_usd - 11.2).abs() < 0.1,
            "wind {}",
            cost.cost_wind_usd
        );
        assert!(
            (cost.cost_utility_usd - 28.9).abs() < 0.1,
            "utility {}",
            cost.cost_utility_usd
        );
    }

    #[test]
    fn actual_cost_scales_with_test_time() {
        let m = OverheadModel::default();
        let p = PriceBook::paper_default();
        let one_hour = m.actual_cost(3600.0, &p);
        assert!((one_hour.energy_kwh - 0.115).abs() < 1e-9);
        let two_hours = m.actual_cost(7200.0, &p);
        assert!((two_hours.energy_kwh - 2.0 * one_hour.energy_kwh).abs() < 1e-12);
    }

    #[test]
    fn sbft_is_about_20x_cheaper_than_stress() {
        let m = OverheadModel::default();
        let p = PriceBook::paper_default();
        let stress = m.full_grid_cost(4800, TestKind::Stress, &p);
        let sbft = m.full_grid_cost(4800, TestKind::Sbft, &p);
        let ratio = stress.cost_wind_usd / sbft.cost_wind_usd;
        assert!((ratio - 600.0 / 29.0).abs() < 1e-9);
    }
}
