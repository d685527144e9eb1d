//! DVFS frequency levels and the nominal voltage curve.
//!
//! The paper's simulated processors expose 5 V/F scaling levels spanning
//! 750 MHz – 2 GHz (§V.B); the nominal voltage is a linear V(f) curve
//! calibrated so that the top level runs at 1.375 V — the measured nominal
//! of the AMD A10-5800K used for profiling (§V.A).

/// Index of a DVFS level; level 0 is the slowest, the last is f_max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FreqLevel(pub u8);

impl FreqLevel {
    /// One level slower, saturating at the bottom.
    pub fn down(self) -> FreqLevel {
        FreqLevel(self.0.saturating_sub(1))
    }

    /// One level faster (caller must not exceed the top level).
    pub fn up(self) -> FreqLevel {
        FreqLevel(self.0 + 1)
    }
}

/// The V/F operating-point table shared by every processor in a fleet.
///
/// All processors have the same frequency settings but need different
/// voltages (§V.B) — the per-chip voltages live in
/// [`crate::chip::Chip`] / [`crate::plan::OperatingPlan`], not here.
#[derive(Debug, Clone)]
pub struct DvfsConfig {
    /// Frequencies in GHz, strictly ascending.
    freqs_ghz: Vec<f64>,
    /// Nominal voltage curve intercept: V_nom(f) = v0 + k·f.
    v0: f64,
    /// Nominal voltage curve slope (V per GHz).
    k: f64,
}

impl DvfsConfig {
    /// The paper's configuration: 5 levels, 750 MHz – 2 GHz, nominal
    /// voltage 1.375 V at the top level.
    pub fn paper_default() -> Self {
        DvfsConfig::new(
            (0..5)
                .map(|i| 0.75 + (2.0 - 0.75) * i as f64 / 4.0)
                .collect(),
            0.6,
            0.3875,
        )
    }

    /// Single-point configuration used to reproduce the A10-5800K profiling
    /// experiment (3.8 GHz nominal, 1.375 V nominal).
    pub fn a10_5800k() -> Self {
        // 1.375 = v0 + k * 3.8 with the same intercept as the default curve.
        DvfsConfig::new(vec![3.8], 0.6, (1.375 - 0.6) / 3.8)
    }

    /// Builds a custom table. Frequencies must be positive, strictly
    /// ascending, and non-empty; the voltage curve must be positive over
    /// the frequency range.
    pub fn new(freqs_ghz: Vec<f64>, v0: f64, k: f64) -> Self {
        assert!(!freqs_ghz.is_empty(), "need at least one DVFS level");
        assert!(
            freqs_ghz.windows(2).all(|w| w[0] < w[1]),
            "frequencies must be strictly ascending"
        );
        assert!(freqs_ghz[0] > 0.0, "frequencies must be positive");
        assert!(
            v0 + k * freqs_ghz[0] > 0.0,
            "voltage curve must be positive"
        );
        DvfsConfig { freqs_ghz, v0, k }
    }

    /// Number of levels.
    pub fn num_levels(&self) -> usize {
        self.freqs_ghz.len()
    }

    /// The top (fastest) level.
    pub fn max_level(&self) -> FreqLevel {
        FreqLevel((self.freqs_ghz.len() - 1) as u8)
    }

    /// The bottom (slowest) level.
    pub fn min_level(&self) -> FreqLevel {
        FreqLevel(0)
    }

    /// Frequency of a level, in GHz.
    pub fn freq_ghz(&self, level: FreqLevel) -> f64 {
        self.freqs_ghz[level.0 as usize]
    }

    /// Maximum frequency, in GHz.
    pub fn f_max(&self) -> f64 {
        *self.freqs_ghz.last().expect("non-empty by construction")
    }

    /// Nominal (fully guard-banded) voltage at a level, in volts.
    pub fn v_nom(&self, level: FreqLevel) -> f64 {
        self.v0 + self.k * self.freq_ghz(level)
    }

    /// Nominal voltage at the top level — the reference for power scaling.
    pub fn v_ref(&self) -> f64 {
        self.v_nom(self.max_level())
    }

    /// Iterates all levels from slowest to fastest.
    pub fn levels(&self) -> impl DoubleEndedIterator<Item = FreqLevel> + Clone {
        (0..self.freqs_ghz.len() as u8).map(FreqLevel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_5b() {
        let d = DvfsConfig::paper_default();
        assert_eq!(d.num_levels(), 5);
        assert!((d.freq_ghz(FreqLevel(0)) - 0.75).abs() < 1e-12);
        assert!((d.f_max() - 2.0).abs() < 1e-12);
        // Nominal voltage at the top level is the measured A10 nominal.
        assert!((d.v_ref() - 1.375).abs() < 1e-12);
    }

    #[test]
    fn a10_config_reproduces_measured_nominal() {
        let d = DvfsConfig::a10_5800k();
        assert_eq!(d.num_levels(), 1);
        assert!((d.freq_ghz(FreqLevel(0)) - 3.8).abs() < 1e-12);
        assert!((d.v_nom(FreqLevel(0)) - 1.375).abs() < 1e-12);
    }

    #[test]
    fn voltage_curve_is_monotone_in_frequency() {
        let d = DvfsConfig::paper_default();
        let vs: Vec<f64> = d.levels().map(|l| d.v_nom(l)).collect();
        assert!(vs.windows(2).all(|w| w[0] < w[1]));
        assert!(vs.iter().all(|&v| v > 0.0));
    }

    #[test]
    fn level_stepping() {
        let d = DvfsConfig::paper_default();
        assert_eq!(FreqLevel(0).down(), FreqLevel(0));
        assert_eq!(FreqLevel(2).down(), FreqLevel(1));
        assert_eq!(FreqLevel(2).up(), FreqLevel(3));
        assert_eq!(d.max_level(), FreqLevel(4));
        assert_eq!(d.min_level(), FreqLevel(0));
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn rejects_unsorted_frequencies() {
        DvfsConfig::new(vec![1.0, 0.9], 0.6, 0.4);
    }

    #[test]
    fn levels_iterator_covers_all() {
        let d = DvfsConfig::paper_default();
        let ls: Vec<u8> = d.levels().map(|l| l.0).collect();
        assert_eq!(ls, vec![0, 1, 2, 3, 4]);
    }
}
