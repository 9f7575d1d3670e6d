//! Pub/sub workload generation: churning subscribers over a Zipf-skewed
//! topic catalogue.
//!
//! The pub/sub counterpart of [`crate::multicast::MulticastWorkload`]: a
//! fixed catalogue of named topics whose popularity follows a
//! [`crate::zipf::ZipfSampler`] rank distribution — popular topics attract
//! most subscriptions *and* most publishes, exactly the regime where
//! subscription-aware fan-out pruning either pays off (cold topics reach
//! almost nobody and should cost almost nothing) or degrades to flooding
//! (hot topics cover the tree anyway). Each step can also flip a fraction
//! of the subscriber population (churn), so filter summaries are exercised
//! while stale, not just at steady state.

use crate::zipf::ZipfSampler;
use simnet::{NodeAddr, SimRng};
use treep::{topic_key, IdSpace, NodeId};

/// One subscription-set change to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriptionOp {
    /// The node subscribes to the topic.
    Subscribe,
    /// The node drops the topic.
    Unsubscribe,
}

/// One subscriber action: `(node, topic coordinate, op)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionChange {
    /// The acting node.
    pub node: NodeAddr,
    /// Index of the topic in the catalogue.
    pub topic_index: usize,
    /// The topic's hashed coordinate.
    pub topic: NodeId,
    /// Subscribe or unsubscribe.
    pub op: SubscriptionOp,
}

/// One publish to issue: `(source, topic coordinate, payload)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishOp {
    /// The originating node (publishers need not subscribe).
    pub source: NodeAddr,
    /// Index of the topic in the catalogue.
    pub topic_index: usize,
    /// The topic's hashed coordinate.
    pub topic: NodeId,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Generator of pub/sub workload steps over a fixed topic catalogue.
#[derive(Debug, Clone)]
pub struct PubSubWorkload {
    topics: Vec<NodeId>,
    sampler: ZipfSampler,
}

impl PubSubWorkload {
    /// A catalogue of `topics` named topics with Zipf(`alpha`) popularity,
    /// hashed into `space`.
    ///
    /// # Panics
    ///
    /// Panics if `topics == 0` or `alpha` is negative or non-finite (the
    /// sampler's constraints).
    pub fn new(space: IdSpace, topics: usize, alpha: f64) -> Self {
        let topics: Vec<NodeId> = (0..topics)
            .map(|i| topic_key(space, &format!("topic-{i}")))
            .collect();
        let sampler = ZipfSampler::new(topics.len(), alpha);
        PubSubWorkload { topics, sampler }
    }

    /// The topic catalogue (index order = popularity rank order).
    pub fn topics(&self) -> &[NodeId] {
        &self.topics
    }

    /// Draw one topic index by popularity.
    pub fn sample_topic(&self, rng: &mut SimRng) -> usize {
        self.sampler.sample(rng)
    }

    /// Initial subscriber placement: each of `subscribers` randomly chosen
    /// alive nodes subscribes to one popularity-sampled topic (nodes may
    /// repeat across draws with a second distinct topic; exact duplicates
    /// are dropped).
    pub fn initial_subscriptions(
        &self,
        alive: &[(NodeAddr, NodeId)],
        subscribers: usize,
        rng: &mut SimRng,
    ) -> Vec<SubscriptionChange> {
        let mut out: Vec<SubscriptionChange> = Vec::with_capacity(subscribers);
        if alive.is_empty() {
            return out;
        }
        while out.len() < subscribers {
            let node = alive[rng.gen_range_usize(0..alive.len())].0;
            let topic_index = self.sample_topic(rng);
            let change = SubscriptionChange {
                node,
                topic_index,
                topic: self.topics[topic_index],
                op: SubscriptionOp::Subscribe,
            };
            if !out
                .iter()
                .any(|c| c.node == change.node && c.topic_index == topic_index)
            {
                out.push(change);
            }
            // Degenerate case: fewer (node, topic) pairs than requested.
            if out.len() >= alive.len() * self.topics.len() {
                break;
            }
        }
        out
    }

    /// Subscription churn: flip roughly `fraction` of `current` (drop
    /// them) and introduce the same number of fresh popularity-sampled
    /// subscriptions from random alive nodes.
    pub fn churn_subscriptions(
        &self,
        current: &[SubscriptionChange],
        alive: &[(NodeAddr, NodeId)],
        fraction: f64,
        rng: &mut SimRng,
    ) -> Vec<SubscriptionChange> {
        let fraction = fraction.clamp(0.0, 1.0);
        let flips = ((current.len() as f64) * fraction).round() as usize;
        let mut out = Vec::with_capacity(flips * 2);
        if flips == 0 || current.is_empty() {
            return out;
        }
        for &idx in &rng.sample_indices(current.len(), flips) {
            let dropped = current[idx];
            out.push(SubscriptionChange {
                op: SubscriptionOp::Unsubscribe,
                ..dropped
            });
        }
        if !alive.is_empty() {
            for _ in 0..flips {
                let node = alive[rng.gen_range_usize(0..alive.len())].0;
                let topic_index = self.sample_topic(rng);
                out.push(SubscriptionChange {
                    node,
                    topic_index,
                    topic: self.topics[topic_index],
                    op: SubscriptionOp::Subscribe,
                });
            }
        }
        out
    }

    /// One publish batch: `count` publishes from random alive sources on
    /// popularity-sampled topics.
    pub fn publishes(
        &self,
        alive: &[(NodeAddr, NodeId)],
        count: usize,
        rng: &mut SimRng,
    ) -> Vec<PublishOp> {
        if alive.is_empty() {
            return Vec::new();
        }
        (0..count)
            .map(|i| {
                let source = alive[rng.gen_range_usize(0..alive.len())].0;
                let topic_index = self.sample_topic(rng);
                PublishOp {
                    source,
                    topic_index,
                    topic: self.topics[topic_index],
                    payload: format!("pub-{i}").into_bytes(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population(n: u64) -> Vec<(NodeAddr, NodeId)> {
        (0..n).map(|i| (NodeAddr(i), NodeId(i * 1000))).collect()
    }

    #[test]
    fn catalogue_is_deterministic_and_hashed_into_space() {
        let space = IdSpace::default();
        let a = PubSubWorkload::new(space, 16, 1.0);
        let b = PubSubWorkload::new(space, 16, 1.0);
        assert_eq!(a.topics(), b.topics());
        assert!(a.topics().iter().all(|t| space.contains(*t)));
    }

    #[test]
    fn zipf_popularity_skews_toward_low_ranks() {
        let wl = PubSubWorkload::new(IdSpace::default(), 32, 1.2);
        let mut rng = SimRng::seed_from(5);
        let mut counts = vec![0usize; 32];
        for _ in 0..4000 {
            counts[wl.sample_topic(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[16].max(1) * 3, "rank 0 dominates");
    }

    #[test]
    fn initial_subscriptions_are_distinct_pairs_from_the_population() {
        let wl = PubSubWorkload::new(IdSpace::default(), 8, 1.0);
        let mut rng = SimRng::seed_from(6);
        let pop = population(20);
        let subs = wl.initial_subscriptions(&pop, 15, &mut rng);
        assert_eq!(subs.len(), 15);
        for (i, s) in subs.iter().enumerate() {
            assert!(pop.iter().any(|(a, _)| *a == s.node));
            assert_eq!(s.op, SubscriptionOp::Subscribe);
            assert_eq!(s.topic, wl.topics()[s.topic_index]);
            assert!(!subs[..i]
                .iter()
                .any(|p| p.node == s.node && p.topic_index == s.topic_index));
        }
        assert!(wl.initial_subscriptions(&[], 5, &mut rng).is_empty());
    }

    #[test]
    fn churn_flips_the_requested_fraction() {
        let wl = PubSubWorkload::new(IdSpace::default(), 8, 1.0);
        let mut rng = SimRng::seed_from(7);
        let pop = population(30);
        let current = wl.initial_subscriptions(&pop, 20, &mut rng);
        let changes = wl.churn_subscriptions(&current, &pop, 0.25, &mut rng);
        let drops = changes
            .iter()
            .filter(|c| c.op == SubscriptionOp::Unsubscribe)
            .count();
        let adds = changes
            .iter()
            .filter(|c| c.op == SubscriptionOp::Subscribe)
            .count();
        assert_eq!(drops, 5);
        assert_eq!(adds, 5);
        // Every drop targets an existing subscription.
        for c in changes
            .iter()
            .filter(|c| c.op == SubscriptionOp::Unsubscribe)
        {
            assert!(current
                .iter()
                .any(|s| s.node == c.node && s.topic_index == c.topic_index));
        }
    }

    #[test]
    fn publishes_are_deterministic_for_a_seed() {
        let wl = PubSubWorkload::new(IdSpace::default(), 8, 1.0);
        let pop = population(10);
        let a = wl.publishes(&pop, 12, &mut SimRng::seed_from(9));
        let b = wl.publishes(&pop, 12, &mut SimRng::seed_from(9));
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert!(wl.publishes(&[], 12, &mut SimRng::seed_from(9)).is_empty());
    }
}
