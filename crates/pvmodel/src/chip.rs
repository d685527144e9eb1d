//! Chips and cores with their hidden (true) variation parameters.
//!
//! A [`Chip`] carries the ground truth the fabrication process imprinted:
//! its power coefficients and each core's minimum safe voltage curve. The
//! scheduler never reads these directly — it sees either the factory bin
//! (coarse) or the scanner's measurements (fine); see
//! [`crate::plan::OperatingPlan`].

use crate::freq::{DvfsConfig, FreqLevel};
use crate::params::VariationParams;
use iscope_dcsim::SimRng;

/// Index of a processor within a fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChipId(pub u32);

/// A core within a specific chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId {
    /// Owning chip.
    pub chip: ChipId,
    /// Core index within the chip.
    pub core: u8,
}

/// One physical core: its true minimum safe voltage at every DVFS level.
#[derive(Debug, Clone)]
pub struct Core {
    /// True Min Vdd (volts) per DVFS level, iGPU disabled. Monotone
    /// non-decreasing in frequency.
    pub vmin: Vec<f64>,
    /// Additional Min Vdd (volts) required when the integrated GPU is
    /// enabled (§II.B / Figure 4(B)).
    pub gpu_vmin_delta: f64,
}

impl Core {
    /// Min Vdd at `level` with the iGPU disabled.
    pub fn vmin(&self, level: FreqLevel) -> f64 {
        self.vmin[level.0 as usize]
    }

    /// Min Vdd at `level` with the iGPU enabled.
    pub fn vmin_gpu(&self, level: FreqLevel) -> f64 {
        self.vmin(level) + self.gpu_vmin_delta
    }

    /// Whether the core operates reliably at `(level, voltage)`.
    ///
    /// This is the ground-truth oracle the simulated stability tests probe.
    pub fn stable_at(&self, level: FreqLevel, voltage: f64, gpu_enabled: bool) -> bool {
        let need = if gpu_enabled {
            self.vmin_gpu(level)
        } else {
            self.vmin(level)
        };
        voltage >= need
    }
}

/// One processor: power coefficients plus its cores.
#[derive(Debug, Clone)]
pub struct Chip {
    /// Fleet-wide identifier.
    pub id: ChipId,
    /// Dynamic-power coefficient `alpha` of Eq-1 (`p = alpha f^3 + beta`).
    pub alpha: f64,
    /// Static power `beta` in watts at the reference voltage.
    pub beta: f64,
    /// The chip's cores.
    pub cores: Vec<Core>,
}

impl Chip {
    /// Chip-level Min Vdd at `level`: with a single shared voltage domain,
    /// the chip must satisfy its *worst* core.
    pub fn vmin_chip(&self, level: FreqLevel, gpu_enabled: bool) -> f64 {
        self.cores
            .iter()
            .map(|c| {
                if gpu_enabled {
                    c.vmin_gpu(level)
                } else {
                    c.vmin(level)
                }
            })
            .fold(0.0, f64::max)
    }

    /// Generates one chip from the variation model.
    ///
    /// The margin decomposes into a die-to-die component shared by the
    /// whole chip plus spatially correlated within-die components:
    /// `wid_i = sqrt(rho) * shared + sqrt(1 - rho) * independent_i`, which
    /// yields pairwise correlation `rho` between cores of the same die.
    pub fn generate(
        id: ChipId,
        dvfs: &DvfsConfig,
        params: &VariationParams,
        rng: &mut SimRng,
    ) -> Chip {
        let alpha = rng.normal(params.alpha_mean, params.alpha_sd).max(0.1);
        let beta = if params.alpha_sd == 0.0 && params.margin_d2d_sd == 0.0 {
            // Uniform control fleet: pin beta to its mean as well.
            params.beta_mean
        } else {
            rng.poisson(params.beta_mean) as f64
        };
        let d2d = rng.normal(0.0, params.margin_d2d_sd);
        let shared_wid = rng.normal(0.0, params.margin_wid_sd);
        let rho = params.wid_correlation;
        let cores = (0..params.cores_per_chip)
            .map(|_| {
                let indep = rng.normal(0.0, params.margin_wid_sd);
                let wid = rho.sqrt() * shared_wid + (1.0 - rho).sqrt() * indep;
                let margin_core =
                    (params.margin_mean + d2d + wid).clamp(params.margin_min, params.margin_max);
                // Per-level jitter, then enforce monotonicity in frequency
                // (a core can never need *less* voltage at a higher clock).
                let mut vmin: Vec<f64> = dvfs
                    .levels()
                    .map(|l| {
                        let jitter = rng.normal(0.0, params.level_jitter_sd);
                        let m = (margin_core + jitter).clamp(params.margin_min, params.margin_max);
                        dvfs.v_nom(l) * (1.0 - m)
                    })
                    .collect();
                for i in 1..vmin.len() {
                    vmin[i] = vmin[i].max(vmin[i - 1]);
                }
                let gpu_vmin_delta = rng
                    .normal(params.gpu_delta_mean, params.gpu_delta_sd)
                    .max(0.0);
                Core {
                    vmin,
                    gpu_vmin_delta,
                }
            })
            .collect();
        Chip {
            id,
            alpha,
            beta,
            cores,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make_chip(seed: u64) -> (Chip, DvfsConfig) {
        let dvfs = DvfsConfig::paper_default();
        let mut rng = SimRng::new(seed);
        let chip = Chip::generate(ChipId(0), &dvfs, &VariationParams::default(), &mut rng);
        (chip, dvfs)
    }

    #[test]
    fn vmin_is_monotone_in_frequency() {
        for seed in 0..50 {
            let (chip, dvfs) = make_chip(seed);
            for core in &chip.cores {
                for w in core.vmin.windows(2) {
                    assert!(w[0] <= w[1], "vmin not monotone: {:?}", core.vmin);
                }
                assert_eq!(core.vmin.len(), dvfs.num_levels());
            }
        }
    }

    #[test]
    fn vmin_stays_below_nominal() {
        for seed in 0..50 {
            let (chip, dvfs) = make_chip(seed);
            for core in &chip.cores {
                for l in dvfs.levels() {
                    assert!(core.vmin(l) < dvfs.v_nom(l), "no margin left at {l:?}");
                    assert!(core.vmin(l) > 0.0);
                }
            }
        }
    }

    #[test]
    fn chip_vmin_is_worst_core() {
        let (chip, dvfs) = make_chip(3);
        let top = dvfs.max_level();
        let worst = chip
            .cores
            .iter()
            .map(|c| c.vmin(top))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(chip.vmin_chip(top, false), worst);
        assert!(chip.vmin_chip(top, true) >= chip.vmin_chip(top, false));
    }

    #[test]
    fn stability_oracle_thresholds_at_vmin() {
        let (chip, dvfs) = make_chip(4);
        let core = &chip.cores[0];
        let l = dvfs.max_level();
        let v = core.vmin(l);
        assert!(core.stable_at(l, v, false));
        assert!(core.stable_at(l, v + 0.01, false));
        assert!(!core.stable_at(l, v - 0.001, false));
        // GPU raises the requirement.
        assert!(!core.stable_at(l, v, true) || core.gpu_vmin_delta == 0.0);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let (a, _) = make_chip(11);
        let (b, _) = make_chip(11);
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.beta, b.beta);
        assert_eq!(a.cores[0].vmin, b.cores[0].vmin);
    }

    #[test]
    fn alpha_beta_near_paper_means_in_aggregate() {
        let dvfs = DvfsConfig::paper_default();
        let params = VariationParams::default();
        let mut rng = SimRng::new(99);
        let chips: Vec<Chip> = (0..2000)
            .map(|i| Chip::generate(ChipId(i), &dvfs, &params, &mut rng))
            .collect();
        let mean_alpha = chips.iter().map(|c| c.alpha).sum::<f64>() / chips.len() as f64;
        let mean_beta = chips.iter().map(|c| c.beta).sum::<f64>() / chips.len() as f64;
        assert!((mean_alpha - 7.5).abs() < 0.1, "alpha mean {mean_alpha}");
        assert!((mean_beta - 65.0).abs() < 1.0, "beta mean {mean_beta}");
    }

    #[test]
    fn within_die_cores_are_positively_correlated() {
        // With rho = 0.5, cores of the same die should have visibly
        // correlated margins across a large fleet.
        let dvfs = DvfsConfig::paper_default();
        let params = VariationParams {
            margin_d2d_sd: 0.0, // isolate the WID component
            level_jitter_sd: 0.0,
            ..VariationParams::default()
        };
        let mut rng = SimRng::new(7);
        let top = dvfs.max_level();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..4000 {
            let chip = Chip::generate(ChipId(i), &dvfs, &params, &mut rng);
            xs.push(chip.cores[0].vmin(top));
            ys.push(chip.cores[1].vmin(top));
        }
        let n = xs.len() as f64;
        let mx = xs.iter().sum::<f64>() / n;
        let my = ys.iter().sum::<f64>() / n;
        let cov: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (x - mx) * (y - my))
            .sum::<f64>()
            / n;
        let sx = (xs.iter().map(|x| (x - mx).powi(2)).sum::<f64>() / n).sqrt();
        let sy = (ys.iter().map(|y| (y - my).powi(2)).sum::<f64>() / n).sqrt();
        let corr = cov / (sx * sy);
        assert!(corr > 0.3, "expected positive WID correlation, got {corr}");
    }

    #[test]
    fn uniform_params_produce_identical_chips() {
        let dvfs = DvfsConfig::paper_default();
        let params = VariationParams::uniform();
        let mut rng = SimRng::new(1);
        let a = Chip::generate(ChipId(0), &dvfs, &params, &mut rng);
        let b = Chip::generate(ChipId(1), &dvfs, &params, &mut rng);
        assert_eq!(a.alpha, b.alpha);
        assert_eq!(a.beta, b.beta);
        assert_eq!(a.cores[0].vmin, b.cores[0].vmin);
    }
}
