//! Cooling model (Eq-2): `E_total = (1 + 1/COP) * E_CPU`.
//!
//! COP is the ratio of computing power to cooling power. Greenberg et
//! al.'s datacenter benchmarking found COP distributed over `[0.6, 3.5]`;
//! the paper's evaluation pins COP = 2.5 (§V.C, after Garg et al.).

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

    /// Facility power (W) for a given IT power draw: Eq-2 applied to power
    /// (energies integrate the same factor).
    pub fn facility_power(&self, it_power_w: f64) -> f64 {
        it_power_w * (1.0 + 1.0 / self.cop)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_setting_gives_1_4x() {
        let c = CoolingModel::default();
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
    #[should_panic(expected = "COP must be positive")]
    fn rejects_nonpositive_cop() {
        CoolingModel::new(0.0);
    }
}
