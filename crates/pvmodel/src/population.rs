//! Fleet generation: the population of processors a datacenter deploys.

use crate::chip::{Chip, ChipId};
use crate::freq::DvfsConfig;
use crate::params::VariationParams;
use crate::power::PowerModel;
use iscope_dcsim::SimRng;

/// A fleet of processors sharing one DVFS table, each with its own hidden
/// variation parameters.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// The shared V/F operating-point table.
    pub dvfs: DvfsConfig,
    /// All processors, indexed by [`ChipId`].
    pub chips: Vec<Chip>,
}

impl Fleet {
    /// Generates `n` processors from the variation model, deterministically
    /// from `seed`.
    pub fn generate(n: usize, dvfs: DvfsConfig, params: &VariationParams, seed: u64) -> Fleet {
        params.validate();
        let mut rng = SimRng::derive(seed, "fleet");
        let chips = (0..n)
            .map(|i| Chip::generate(ChipId(i as u32), &dvfs, params, &mut rng))
            .collect();
        Fleet { dvfs, chips }
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// True if the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// Access a chip by id.
    pub fn chip(&self, id: ChipId) -> &Chip {
        &self.chips[id.0 as usize]
    }

    /// A [`PowerModel`] for this fleet's DVFS table.
    pub fn power_model(&self) -> PowerModel {
        PowerModel::new(&self.dvfs)
    }

    /// True (hidden) power of every chip at its own scanned operating point
    /// at the top level — the oracle ranking used in tests.
    pub fn true_efficiency_ranking(&self) -> Vec<ChipId> {
        let pm = self.power_model();
        let top = self.dvfs.max_level();
        let mut ids: Vec<(f64, ChipId)> = self
            .chips
            .iter()
            .map(|c| {
                let v = c.vmin_chip(top, false);
                (pm.chip_power(c, &self.dvfs, top, v), c.id)
            })
            .collect();
        ids.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("power is finite")
                .then(a.1.cmp(&b.1))
        });
        ids.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_sizes_and_ids() {
        let fleet = Fleet::generate(
            100,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            1,
        );
        assert_eq!(fleet.len(), 100);
        for (i, c) in fleet.chips.iter().enumerate() {
            assert_eq!(c.id, ChipId(i as u32));
            assert_eq!(c.cores.len(), 4);
        }
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let a = Fleet::generate(
            20,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            9,
        );
        let b = Fleet::generate(
            20,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            9,
        );
        for (ca, cb) in a.chips.iter().zip(&b.chips) {
            assert_eq!(ca.alpha, cb.alpha);
            assert_eq!(ca.cores[3].vmin, cb.cores[3].vmin);
        }
        let c = Fleet::generate(
            20,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            10,
        );
        assert_ne!(a.chips[0].alpha, c.chips[0].alpha);
    }

    #[test]
    fn efficiency_ranking_is_a_permutation_sorted_by_power() {
        let fleet = Fleet::generate(
            64,
            DvfsConfig::paper_default(),
            &VariationParams::default(),
            4,
        );
        let rank = fleet.true_efficiency_ranking();
        assert_eq!(rank.len(), 64);
        let mut ids: Vec<u32> = rank.iter().map(|c| c.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..64).collect::<Vec<_>>());
        let pm = fleet.power_model();
        let top = fleet.dvfs.max_level();
        let powers: Vec<f64> = rank
            .iter()
            .map(|&id| {
                let c = fleet.chip(id);
                pm.chip_power(c, &fleet.dvfs, top, c.vmin_chip(top, false))
            })
            .collect();
        assert!(powers.windows(2).all(|w| w[0] <= w[1]));
    }
}
