//! Statistical parameters of the process-variation model.
//!
//! Values follow §V.B of the paper: the VARIUS-style analytical model with
//! `alpha ~ Normal(7.5, 0.75)` and `beta ~ Poisson(65)` (means from Wang et
//! al. \[30\]); the Min Vdd margin statistics are calibrated so that a
//! 16-core profiling run reproduces the measured 1.19 V – 1.25 V band of
//! Figure 4 (nominal 1.375 V).

/// Parameters governing chip-to-chip and core-to-core variation.
#[derive(Debug, Clone)]
pub struct VariationParams {
    /// Mean of the dynamic-power coefficient `alpha` (Eq-1).
    pub alpha_mean: f64,
    /// Standard deviation of `alpha`.
    pub alpha_sd: f64,
    /// Mean of the static-power term `beta` in watts (Poisson-distributed).
    pub beta_mean: f64,
    /// Mean fractional Min Vdd margin below nominal voltage
    /// (0.105 ⇒ the average core runs at 10.5 % below nominal).
    pub margin_mean: f64,
    /// Die-to-die standard deviation of the margin.
    pub margin_d2d_sd: f64,
    /// Within-die (core-level) standard deviation of the margin.
    pub margin_wid_sd: f64,
    /// Spatial correlation of within-die margin components across cores of
    /// one chip, in `\[0, 1\]`. WID variation is spatially correlated and its
    /// chief impact manifests across cores (§II.B, \[15\]).
    pub wid_correlation: f64,
    /// Per-level margin jitter standard deviation (captures the fact that
    /// the safe-voltage curve is not a perfect scaling of the nominal one).
    pub level_jitter_sd: f64,
    /// Mean additional Min Vdd (volts) when the integrated GPU is enabled.
    /// Calibrated to the Figure 4(B) shift: 1.219 V → 1.232 V average.
    pub gpu_delta_mean: f64,
    /// Standard deviation of the iGPU Min Vdd penalty.
    pub gpu_delta_sd: f64,
    /// Cores per processor (the A10-5800K and the simulated fleet are
    /// quad-core).
    pub cores_per_chip: usize,
    /// Lower clamp on the margin (a chip can never run arbitrarily low).
    pub margin_min: f64,
    /// Upper clamp on the margin.
    pub margin_max: f64,
}

impl Default for VariationParams {
    fn default() -> Self {
        VariationParams {
            alpha_mean: 7.5,
            alpha_sd: 0.75,
            beta_mean: 65.0,
            margin_mean: 0.105,
            margin_d2d_sd: 0.012,
            margin_wid_sd: 0.006,
            wid_correlation: 0.5,
            level_jitter_sd: 0.002,
            gpu_delta_mean: 0.013,
            gpu_delta_sd: 0.003,
            cores_per_chip: 4,
            margin_min: 0.02,
            margin_max: 0.18,
        }
    }
}

impl VariationParams {
    /// Panics if any parameter is out of its mathematical domain.
    pub fn validate(&self) {
        assert!(self.alpha_mean > 0.0 && self.alpha_sd >= 0.0);
        assert!(self.beta_mean >= 0.0);
        assert!((0.0..1.0).contains(&self.margin_mean));
        assert!(self.margin_d2d_sd >= 0.0 && self.margin_wid_sd >= 0.0);
        assert!((0.0..=1.0).contains(&self.wid_correlation));
        assert!(self.level_jitter_sd >= 0.0);
        assert!(self.gpu_delta_sd >= 0.0);
        assert!(self.cores_per_chip >= 1);
        assert!(
            0.0 <= self.margin_min && self.margin_min <= self.margin_max && self.margin_max < 1.0,
            "margin clamps must satisfy 0 <= min <= max < 1"
        );
    }

    /// A variation-free control configuration: every chip identical at the
    /// mean parameters. Useful for ablations (what does ignoring PV cost?).
    pub fn uniform() -> Self {
        VariationParams {
            alpha_sd: 0.0,
            margin_d2d_sd: 0.0,
            margin_wid_sd: 0.0,
            level_jitter_sd: 0.0,
            gpu_delta_sd: 0.0,
            // beta stays Poisson-free by forcing the mean through a zero-sd
            // normal path at generation time when `deterministic_beta`.
            ..VariationParams::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        VariationParams::default().validate();
        VariationParams::uniform().validate();
    }

    #[test]
    fn default_margin_band_is_calibrated_to_figure_4() {
        let p = VariationParams::default();
        // Mean Min Vdd at 1.375 V nominal should sit near the measured
        // 1.219 V average: 1.375 * (1 - 0.105) = 1.2306.
        let mean_vmin = 1.375 * (1.0 - p.margin_mean);
        assert!((mean_vmin - 1.23).abs() < 0.015, "mean vmin {mean_vmin}");
        // Three-sigma band stays inside the measured 1.19–1.25 V range.
        let sigma = (p.margin_d2d_sd.powi(2) + p.margin_wid_sd.powi(2)).sqrt();
        let lo = 1.375 * (1.0 - p.margin_mean - 2.5 * sigma);
        let hi = 1.375 * (1.0 - p.margin_mean + 2.5 * sigma);
        assert!(lo > 1.17 && hi < 1.28, "band [{lo}, {hi}]");
    }

    #[test]
    #[should_panic]
    fn rejects_negative_alpha_mean() {
        let p = VariationParams {
            alpha_mean: -1.0,
            ..VariationParams::default()
        };
        p.validate();
    }

    #[test]
    #[should_panic]
    fn rejects_out_of_range_correlation() {
        let p = VariationParams {
            wid_correlation: 1.5,
            ..VariationParams::default()
        };
        p.validate();
    }
}
