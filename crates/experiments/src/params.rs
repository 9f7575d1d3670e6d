//! Parameters of one churn experiment.

use simnet::SimDuration;
use treep::TreePConfig;
use workloads::ChurnPlan;

/// Everything needed to run one Section-IV experiment. The population
/// draws `TopologyBuilder`'s default, heterogeneous capabilities.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentParams {
    /// Initial population size.
    pub nodes: usize,
    /// Seed for the whole run (topology, workload, failures).
    pub seed: u64,
    /// Protocol configuration, including the child policy under test.
    pub config: TreePConfig,
    /// Random lookups issued per churn step *per routing algorithm*.
    pub lookups_per_step: usize,
    /// The failure schedule.
    pub churn: ChurnPlan,
    /// Virtual time the network is given after each batch of failures, so
    /// keep-alives and entry expiry can react before measurements are taken.
    pub settle_per_step: SimDuration,
}

impl ExperimentParams {
    /// The paper's first configuration: fixed `nc = 4`, `h = 6`.
    pub fn paper_fixed(nodes: usize, seed: u64) -> Self {
        let mut config = TreePConfig::paper_case_fixed();
        config.lookup_timeout = SimDuration::from_secs(2);
        ExperimentParams {
            nodes,
            seed,
            config,
            lookups_per_step: 100,
            churn: ChurnPlan::paper(),
            settle_per_step: SimDuration::from_secs(3),
        }
    }

    /// A reduced configuration for unit tests and the rendered-suite pin: a
    /// small population, fewer lookups, and a coarser churn schedule (10 %
    /// per step, stop at 30 % survivors) so one run completes in well under
    /// a second.
    pub fn quick(nodes: usize, seed: u64) -> Self {
        let mut params = Self::paper_fixed(nodes, seed);
        params.lookups_per_step = 20;
        params.churn = ChurnPlan {
            fraction_per_step: 0.10,
            stop_at_surviving_fraction: 0.30,
        };
        params.settle_per_step = SimDuration::from_secs(2);
        params
    }

    /// Switch the run to the adaptive child policy, keeping every other knob:
    /// `paper_fixed(..).with_adaptive_policy()` is the paper's second
    /// configuration, capability-driven `nc` and `h = 6`.
    pub fn with_adaptive_policy(mut self) -> Self {
        let mut config = TreePConfig::paper_case_adaptive();
        config.lookup_timeout = self.config.lookup_timeout;
        self.config = config;
        self
    }

    /// Override the number of lookups per step per algorithm.
    pub fn with_lookups_per_step(mut self, lookups_per_step: usize) -> Self {
        self.lookups_per_step = lookups_per_step;
        self
    }

    /// Short label for reports ("nc=4" / "nc=variable").
    pub(crate) fn policy_label(&self) -> &'static str {
        match self.config.child_policy {
            treep::ChildPolicy::Fixed(_) => "nc=4",
            treep::ChildPolicy::Adaptive { .. } => "nc=variable",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::DRAIN_PER_STEP;

    #[test]
    fn paper_configurations_match_section_iv() {
        let fixed = ExperimentParams::paper_fixed(1000, 1);
        assert_eq!(fixed.config.height, 6);
        assert_eq!(fixed.config.child_policy, treep::ChildPolicy::Fixed(4));
        assert_eq!(fixed.policy_label(), "nc=4");
        assert_eq!(fixed.churn.fraction_per_step, 0.05);
        assert_eq!(fixed.churn.stop_at_surviving_fraction, 0.05);

        let adaptive = ExperimentParams::paper_fixed(1000, 1).with_adaptive_policy();
        assert!(matches!(
            adaptive.config.child_policy,
            treep::ChildPolicy::Adaptive { .. }
        ));
        assert_eq!(adaptive.policy_label(), "nc=variable");
    }

    #[test]
    fn drain_budget_exceeds_the_lookup_timeout() {
        for params in [
            ExperimentParams::paper_fixed(100, 1),
            ExperimentParams::paper_fixed(100, 1).with_adaptive_policy(),
            ExperimentParams::quick(100, 1),
        ] {
            assert!(DRAIN_PER_STEP.as_micros() > params.config.lookup_timeout.as_micros());
        }
    }

    #[test]
    fn builders_compose() {
        let p = ExperimentParams::quick(50, 3)
            .with_lookups_per_step(5)
            .with_adaptive_policy();
        assert_eq!(p.lookups_per_step, 5);
        assert_eq!(p.policy_label(), "nc=variable");
    }
}
