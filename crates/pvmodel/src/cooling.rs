//! Cooling model (Eq-2): `E_total = (1 + 1/COP) * E_CPU`.
//!
//! COP is the ratio of computing power to cooling power. Greenberg et
//! al.'s datacenter benchmarking found COP distributed over `[0.6, 3.5]`;
//! the paper's evaluation pins COP = 2.5 (§V.C, after Garg et al.).

use iscope_dcsim::SimRng;

/// Coefficient-of-performance cooling model.
#[derive(Debug, Clone, Copy)]
pub struct CoolingModel {
    cop: f64,
}

impl Default for CoolingModel {
    /// The paper's evaluation setting, COP = 2.5.
    fn default() -> Self {
        CoolingModel::new(2.5)
    }
}

impl CoolingModel {
    /// Creates a model with the given COP (> 0).
    pub fn new(cop: f64) -> Self {
        assert!(cop > 0.0, "COP must be positive");
        CoolingModel { cop }
    }

    /// Samples a COP from the Greenberg et al. distribution: normal,
    /// truncated to `[0.6, 3.5]`, centred mid-range.
    pub fn sample_greenberg(rng: &mut SimRng) -> Self {
        let cop = rng.normal_clamped(2.05, 0.6, 0.6, 3.5);
        CoolingModel::new(cop)
    }

    /// The configured COP.
    pub fn cop(&self) -> f64 {
        self.cop
    }

    /// Facility power (W) for a given IT power draw: Eq-2 applied to power
    /// (energies integrate the same factor).
    pub fn facility_power(&self, it_power_w: f64) -> f64 {
        it_power_w * (1.0 + 1.0 / self.cop)
    }

    /// The multiplier `(1 + 1/COP)` itself.
    pub fn overhead_factor(&self) -> f64 {
        1.0 + 1.0 / self.cop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setting_gives_1_4x() {
        let c = CoolingModel::default();
        assert!((c.overhead_factor() - 1.4).abs() < 1e-12);
        assert!((c.facility_power(1000.0) - 1400.0).abs() < 1e-9);
    }

    #[test]
    fn facility_power_is_linear() {
        let c = CoolingModel::new(2.0);
        assert!(
            (c.facility_power(10.0) + c.facility_power(20.0) - c.facility_power(30.0)).abs() < 1e-9
        );
    }

    #[test]
    fn greenberg_samples_stay_in_range() {
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let c = CoolingModel::sample_greenberg(&mut rng);
            assert!((0.6..=3.5).contains(&c.cop()), "COP {}", c.cop());
        }
    }

    #[test]
    #[should_panic(expected = "COP must be positive")]
    fn rejects_nonpositive_cop() {
        CoolingModel::new(0.0);
    }
}
