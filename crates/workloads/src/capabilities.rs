//! Node-capability populations.

use simnet::SimRng;
use treep::NodeCharacteristics;

/// How the resource characteristics of the population are drawn.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum CapabilityDistribution {
    /// Every node gets exactly the same characteristics.
    Homogeneous(NodeCharacteristics),
    /// Characteristics are sampled from the heterogeneous mix of
    /// [`NodeCharacteristics::sample`] (a few server-class peers, a band of
    /// workstations, a long tail of weak desktops).
    #[default]
    Heterogeneous,
    /// A fixed fraction of strong peers, the rest weak — a caricature useful
    /// for tests that need a predictable capability ordering.
    Bimodal {
        /// Fraction of strong peers in `[0, 1]`.
        strong_fraction: f64,
    },
}

impl CapabilityDistribution {
    /// Draw the characteristics of one node.
    pub(crate) fn sample(&self, rng: &mut SimRng) -> NodeCharacteristics {
        match *self {
            CapabilityDistribution::Homogeneous(c) => c,
            CapabilityDistribution::Heterogeneous => NodeCharacteristics::sample(rng),
            CapabilityDistribution::Bimodal { strong_fraction } => {
                if rng.gen_bool(strong_fraction) {
                    NodeCharacteristics::strong()
                } else {
                    NodeCharacteristics::weak()
                }
            }
        }
    }

    /// Draw a whole population of `n` nodes.
    pub(crate) fn sample_population(&self, n: usize, rng: &mut SimRng) -> Vec<NodeCharacteristics> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_is_constant() {
        let mut rng = SimRng::seed_from(1);
        let dist = CapabilityDistribution::Homogeneous(NodeCharacteristics::default());
        let pop = dist.sample_population(10, &mut rng);
        assert!(pop.iter().all(|c| *c == NodeCharacteristics::default()));
    }

    #[test]
    fn heterogeneous_varies() {
        let mut rng = SimRng::seed_from(2);
        let pop = CapabilityDistribution::Heterogeneous.sample_population(100, &mut rng);
        let scores: Vec<f64> = pop.iter().map(|c| c.capability_score()).collect();
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max > min);
    }

    #[test]
    fn bimodal_respects_fraction_roughly() {
        let mut rng = SimRng::seed_from(3);
        let pop = CapabilityDistribution::Bimodal {
            strong_fraction: 0.2,
        }
        .sample_population(1000, &mut rng);
        let strong = pop
            .iter()
            .filter(|c| **c == NodeCharacteristics::strong())
            .count();
        assert!((100..330).contains(&strong), "strong = {strong}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = SimRng::seed_from(9);
        let mut b = SimRng::seed_from(9);
        let pa = CapabilityDistribution::Heterogeneous.sample_population(20, &mut a);
        let pb = CapabilityDistribution::Heterogeneous.sample_population(20, &mut b);
        assert_eq!(pa, pb);
    }
}
