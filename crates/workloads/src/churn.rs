//! The failure (churn) schedule of Section IV.
//!
//! "We randomly disconnected some nodes at a rate of 5% and observed the
//! behaviour of these routing algorithms, until the number of the remaining
//! nodes reached a threshold of 5% of the initial topology."

use simnet::{NodeAddr, SimRng};

/// One step of the failure schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnStep {
    /// Step index (0 = the measurement taken before any failure).
    pub index: usize,
    /// Nodes removed so far, as a fraction of the initial population, at the
    /// moment the step's lookups are issued.
    pub failed_fraction: f64,
}

/// The full failure schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPlan {
    /// Fraction of the *initial* population removed per step.
    pub fraction_per_step: f64,
    /// Stop once the surviving fraction drops to (or below) this value.
    pub stop_at_surviving_fraction: f64,
}

impl Default for ChurnPlan {
    fn default() -> Self {
        ChurnPlan::paper()
    }
}

impl ChurnPlan {
    /// The schedule used in the paper: 5 % per step, down to 5 % survivors.
    pub fn paper() -> Self {
        ChurnPlan {
            fraction_per_step: 0.05,
            stop_at_surviving_fraction: 0.05,
        }
    }

    /// Number of nodes to remove in one step for an initial population of
    /// `initial` nodes.
    pub(crate) fn victims_per_step(&self, initial: usize) -> usize {
        ((initial as f64) * self.fraction_per_step).round().max(1.0) as usize
    }

    /// The sequence of measurement points: the fraction of failed nodes at
    /// each step, starting with 0 (the unperturbed steady state).
    pub fn steps(&self, initial: usize) -> Vec<ChurnStep> {
        assert!(initial > 0, "cannot plan churn for an empty network");
        let per_step = self.victims_per_step(initial);
        let mut steps = vec![ChurnStep {
            index: 0,
            failed_fraction: 0.0,
        }];
        let mut removed = 0usize;
        let mut index = 1usize;
        loop {
            let surviving = initial - removed;
            let next_surviving = surviving.saturating_sub(per_step);
            if (next_surviving as f64) < (initial as f64) * self.stop_at_surviving_fraction {
                break;
            }
            removed += per_step;
            steps.push(ChurnStep {
                index,
                failed_fraction: removed as f64 / initial as f64,
            });
            index += 1;
        }
        steps
    }

    /// Choose the victims of one step uniformly at random among `alive`.
    pub fn pick_victims(
        &self,
        alive: &[NodeAddr],
        initial: usize,
        rng: &mut SimRng,
    ) -> Vec<NodeAddr> {
        let k = self.victims_per_step(initial).min(alive.len());
        rng.sample_indices(alive.len(), k)
            .into_iter()
            .map(|i| alive[i])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_reaches_ninety_five_percent_failures() {
        let plan = ChurnPlan::paper();
        let steps = plan.steps(1000);
        assert_eq!(steps.first().unwrap().failed_fraction, 0.0);
        let last = steps.last().unwrap().failed_fraction;
        assert!(
            (0.90..=0.95).contains(&last),
            "last failed fraction = {last}"
        );
        // 5% per step -> 19 removal steps + the initial measurement.
        assert_eq!(steps.len(), 20);
        // Fractions increase monotonically.
        for w in steps.windows(2) {
            assert!(w[1].failed_fraction > w[0].failed_fraction);
        }
    }

    #[test]
    fn victims_per_step_rounds_and_never_is_zero() {
        let plan = ChurnPlan::paper();
        assert_eq!(plan.victims_per_step(1000), 50);
        assert_eq!(plan.victims_per_step(10), 1);
        assert_eq!(plan.victims_per_step(1), 1);
    }

    #[test]
    fn pick_victims_only_from_alive_and_distinct() {
        let plan = ChurnPlan::paper();
        let mut rng = SimRng::seed_from(4);
        let alive: Vec<NodeAddr> = (0..100).map(NodeAddr).collect();
        let victims = plan.pick_victims(&alive, 1000, &mut rng);
        assert_eq!(victims.len(), 50);
        let mut v = victims.clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 50);
        assert!(victims.iter().all(|a| alive.contains(a)));
        // Never more victims than alive nodes.
        let few: Vec<NodeAddr> = (0..10).map(NodeAddr).collect();
        assert_eq!(plan.pick_victims(&few, 1000, &mut rng).len(), 10);
    }

    #[test]
    #[should_panic(expected = "empty network")]
    fn steps_reject_empty_network() {
        ChurnPlan::paper().steps(0);
    }

    #[test]
    fn custom_plan() {
        let plan = ChurnPlan {
            fraction_per_step: 0.10,
            stop_at_surviving_fraction: 0.50,
        };
        let steps = plan.steps(100);
        assert_eq!(steps.len(), 6); // 0%,10%,20%,30%,40%,50% failed
        assert!((steps.last().unwrap().failed_fraction - 0.5).abs() < 1e-9);
    }
}
