//! Multicast / aggregation workload generation.
//!
//! The multicast counterpart of [`crate::lookups::LookupWorkload`]: each
//! step issues a batch of scoped multicasts and aggregation queries from
//! random surviving nodes over random contiguous identifier ranges, so the
//! dissemination subsystem is exercised under the same churn schedule as the
//! paper's lookup experiments.

use simnet::{NodeAddr, SimRng};
use treep::{AggregateQuery, IdSpace, KeyRange, NodeId};

/// What one multicast operation carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MulticastOp {
    /// A scoped payload dissemination.
    Data(Vec<u8>),
    /// A scoped aggregation query.
    Aggregate(AggregateQuery),
}

/// One scoped multicast to issue.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastBatch {
    /// The node that originates the multicast.
    pub source: NodeAddr,
    /// The target identifier range.
    pub range: KeyRange,
    /// Payload or query.
    pub op: MulticastOp,
}

/// Generator of multicast batches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MulticastWorkload {
    /// Number of operations issued per step.
    pub ops_per_step: usize,
    /// Fraction of the identifier space covered by each scoped range
    /// (clamped to `(0, 1]`).
    pub range_fraction: f64,
    /// Fraction of the operations that are aggregation queries rather than
    /// payload disseminations (clamped to `[0, 1]`).
    pub aggregate_fraction: f64,
}

impl Default for MulticastWorkload {
    fn default() -> Self {
        MulticastWorkload {
            ops_per_step: 20,
            range_fraction: 0.25,
            aggregate_fraction: 0.5,
        }
    }
}

impl MulticastWorkload {
    /// A workload issuing `ops_per_step` operations per step.
    pub(crate) fn new(ops_per_step: usize) -> Self {
        MulticastWorkload {
            ops_per_step,
            ..Default::default()
        }
    }

    /// A payload-only workload (no aggregation queries): what the coverage
    /// probes of the churn runner and the loss sweep issue, where every
    /// operation must leave a countable delivery at each covered node.
    pub fn data_only(ops_per_step: usize) -> Self {
        Self::new(ops_per_step).with_aggregate_fraction(0.0)
    }

    /// Override the scoped-range width as a fraction of the space.
    pub fn with_range_fraction(mut self, range_fraction: f64) -> Self {
        self.range_fraction = range_fraction.clamp(1e-6, 1.0);
        self
    }

    /// Override the share of aggregation queries.
    pub(crate) fn with_aggregate_fraction(mut self, aggregate_fraction: f64) -> Self {
        self.aggregate_fraction = aggregate_fraction.clamp(0.0, 1.0);
        self
    }

    /// Generate one batch over the currently alive nodes.
    pub fn generate(
        &self,
        space: IdSpace,
        alive: &[(NodeAddr, NodeId)],
        rng: &mut SimRng,
    ) -> Vec<MulticastBatch> {
        if alive.is_empty() {
            return Vec::new();
        }
        let width = ((space.size() as f64 * self.range_fraction) as u64).max(1);
        let mut batch = Vec::with_capacity(self.ops_per_step);
        for i in 0..self.ops_per_step {
            let source = alive[rng.gen_range_usize(0..alive.len())].0;
            let lo = rng.gen_range_u64(0..space.size().saturating_sub(width).max(1));
            let range = KeyRange::new(NodeId(lo), NodeId(lo + width - 1));
            let op = if rng.gen_bool(self.aggregate_fraction) {
                let query = match rng.gen_range_usize(0..3) {
                    0 => AggregateQuery::CountNodes,
                    1 => AggregateQuery::MaxCapability,
                    _ => AggregateQuery::DhtKeyDigest,
                };
                MulticastOp::Aggregate(query)
            } else {
                MulticastOp::Data(format!("payload-{i}").into_bytes())
            };
            batch.push(MulticastBatch { source, range, op });
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: u64) -> Vec<(NodeAddr, NodeId)> {
        (0..n).map(|i| (NodeAddr(i), NodeId(i * 1000))).collect()
    }

    #[test]
    fn generates_requested_count() {
        let wl = MulticastWorkload::new(15);
        let mut rng = SimRng::seed_from(1);
        let batch = wl.generate(IdSpace::default(), &population(20), &mut rng);
        assert_eq!(batch.len(), 15);
    }

    #[test]
    fn ranges_have_the_requested_width_and_fit_the_space() {
        let space = IdSpace::new(20);
        let wl = MulticastWorkload::new(200).with_range_fraction(0.1);
        let mut rng = SimRng::seed_from(2);
        let expected_width = (space.size() as f64 * 0.1) as u64;
        for b in wl.generate(space, &population(10), &mut rng) {
            assert_eq!(b.range.width(), expected_width);
            assert!(space.contains(b.range.lo) && space.contains(b.range.hi));
        }
    }

    #[test]
    fn aggregate_fraction_controls_the_mix() {
        let wl = MulticastWorkload::new(300).with_aggregate_fraction(1.0);
        let mut rng = SimRng::seed_from(3);
        let batch = wl.generate(IdSpace::default(), &population(10), &mut rng);
        assert!(batch
            .iter()
            .all(|b| matches!(b.op, MulticastOp::Aggregate(_))));

        let wl = MulticastWorkload::new(300).with_aggregate_fraction(0.0);
        let batch = wl.generate(IdSpace::default(), &population(10), &mut rng);
        assert!(batch.iter().all(|b| matches!(b.op, MulticastOp::Data(_))));

        let wl = MulticastWorkload::data_only(50);
        let batch = wl.generate(IdSpace::default(), &population(10), &mut rng);
        assert_eq!(batch.len(), 50);
        assert!(batch.iter().all(|b| matches!(b.op, MulticastOp::Data(_))));
    }

    #[test]
    fn sources_come_from_the_population_and_empty_is_empty() {
        let wl = MulticastWorkload::default();
        let mut rng = SimRng::seed_from(4);
        let pop = population(8);
        for b in wl.generate(IdSpace::default(), &pop, &mut rng) {
            assert!(pop.iter().any(|(a, _)| *a == b.source));
        }
        assert!(wl.generate(IdSpace::default(), &[], &mut rng).is_empty());
    }

    #[test]
    fn deterministic_for_a_given_seed() {
        let wl = MulticastWorkload::new(25);
        let pop = population(30);
        let a = wl.generate(IdSpace::default(), &pop, &mut SimRng::seed_from(7));
        let b = wl.generate(IdSpace::default(), &pop, &mut SimRng::seed_from(7));
        assert_eq!(a, b);
    }
}
