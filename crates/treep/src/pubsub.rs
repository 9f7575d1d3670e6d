//! Topic-based publish/subscribe and range queries on the scoped-multicast
//! spine.
//!
//! TreeP's dissemination spine (scoped multicast with exact subtree-span
//! pruning, optional hop-by-hop reliability) is infrastructure waiting for a
//! workload; this module turns it into a serving subsystem. The design
//! follows the prefix-search formulation of "Optimally Efficient Prefix
//! Search and Multicast in Structured P2P Networks" (TUD-CS-2008-103): the
//! same descent machinery that routes a multicast to an identifier range
//! answers topic publishes and range queries nearly for free.
//!
//! ## Topic hashing
//!
//! A topic name hashes onto the 1-D identifier space with
//! [`crate::id::hash_key`] (FNV-1a folded through SplitMix64), exactly like
//! a DHT key: [`topic_key`]. The coordinate only names the topic in
//! subscriptions, filters and publishes. No node stores anything under it:
//! there is no subscriber directory, and a DHT value put under the same
//! coordinate is an ordinary value like any other.
//!
//! ## Filter summaries
//!
//! Delivery needs no list of a topic's subscribers (one would funnel every
//! publish through one subtree). Instead each node tracks the topics it
//! subscribes to locally, and summarises the topics present in its **whole
//! subtree** up the tree as a [`TopicFilter`] — sent to the parent as a
//! [`crate::messages::TreePMessage::FilterReport`] next to the existing
//! `ChildReport` span, both periodically and immediately whenever the
//! summary changes (subscribe, unsubscribe, a child's filter update). A
//! filter lists at most [`MAX_FILTER_TOPICS`] topics exactly; past that bound
//! it degrades to `overflow = true`, which means "assume every topic" —
//! over-approximation is always safe, under-approximation never is.
//!
//! ## Pruning rules
//!
//! A publish ascends to the initiator's root and descends as an ordinary
//! scoped multicast carrying a [`crate::MulticastPayload::Topic`] payload.
//! During the descent fan-out a branch is **skipped** exactly when the
//! parent holds a current filter for that child and the filter provably
//! excludes the topic (`!may_contain`). No filter recorded, or an
//! overflowed filter, means the branch is forwarded — correctness never
//! depends on pruning. The bus walk itself is never pruned: filters
//! summarise *own subtrees* only, so a top-level node cannot speak for its
//! bus neighbours' branches. Delivery at a node requires a local
//! subscription, so exactly-once per live subscriber is inherited
//! structurally from the multicast spine (one parent per node, directional
//! bus walk, seen-window dedup under churn).
//!
//! ## Range queries
//!
//! [`crate::AggregateQuery::KeysInRange`] rides the same descent: the
//! multicast's scoped [`crate::KeyRange`] prunes fan-out to the subtrees
//! whose recorded spans, widened by one level-1 radius, intersect the
//! range, every reached node contributes the DHT keys it stores inside the
//! range, and the partials fold back through the `AggregateUp`
//! convergecast as a deduplicated, bounded
//! [`crate::AggregatePartial::Keys`] list. The slack is the key digest's:
//! a key is stored at the node closest to it, which can sit just outside
//! the range, so a fan-out scoped to the range alone misses it.

use crate::entry::PeerInfo;
use crate::id::{hash_key, IdSpace, NodeId};
use crate::lookup::RequestId;
use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::collections::BTreeSet;

/// Hash a topic name onto the identifier space, exactly like a DHT key.
/// The coordinate names the topic; nothing is stored under it.
pub fn topic_key(space: IdSpace, topic: &str) -> NodeId {
    hash_key(space, topic.as_bytes())
}

/// Upper bound on the number of keys one [`crate::AggregatePartial::Keys`]
/// partial carries. A fold that would exceed it is truncated (and flagged
/// as such through the existing `truncated` convergecast bit), bounding
/// both datagram size and fold memory.
pub(crate) const MAX_RANGE_KEYS: usize = 4096;

/// Largest number of topics a per-child subscription filter lists exactly;
/// beyond it the filter degrades to "assume every topic" (overflow),
/// trading pruning for bounded summary size.
pub(crate) const MAX_FILTER_TOPICS: usize = 64;

/// The topics present in one subtree, summarised for fan-out pruning.
///
/// Exact while small: `topics` lists every topic subscribed to anywhere in
/// the subtree. Once the set would exceed the configured bound the filter
/// degrades to `overflow = true` and `TopicFilter::may_contain` answers
/// `true` for everything — an over-approximation that disables pruning for
/// the branch but can never lose a delivery.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TopicFilter {
    /// Topic coordinates present in the subtree (exact unless `overflow`).
    pub topics: BTreeSet<NodeId>,
    /// True when the subtree holds more topics than the summary bound; the
    /// filter then excludes nothing.
    pub overflow: bool,
}

impl TopicFilter {
    /// An empty filter: the subtree provably holds no subscribers.
    pub(crate) fn empty() -> Self {
        TopicFilter::default()
    }

    /// Build a filter from an iterator of topics, degrading to `overflow`
    /// past `max_topics`.
    pub fn from_topics<I: IntoIterator<Item = NodeId>>(topics: I, max_topics: usize) -> Self {
        let mut filter = TopicFilter::empty();
        for t in topics {
            if filter.topics.len() >= max_topics {
                filter.overflow = true;
                filter.topics.clear();
                return filter;
            }
            filter.topics.insert(t);
        }
        filter
    }

    /// True when the subtree may hold a subscriber of `topic`. Pruning a
    /// branch is allowed only when this answers `false`.
    pub(crate) fn may_contain(&self, topic: NodeId) -> bool {
        self.overflow || self.topics.contains(&topic)
    }

    /// Fold another filter into this one, respecting the summary bound.
    pub(crate) fn merge(&mut self, other: &TopicFilter, max_topics: usize) {
        if self.overflow {
            return;
        }
        if other.overflow {
            self.overflow = true;
            self.topics.clear();
            return;
        }
        for &t in &other.topics {
            self.topics.insert(t);
            if self.topics.len() > max_topics {
                self.overflow = true;
                self.topics.clear();
                return;
            }
        }
    }
}

/// One payload delivery recorded at a subscriber covered by a publish.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopicDelivery {
    /// The node that published.
    pub origin: PeerInfo,
    /// Identifier of the publish at its origin.
    pub request_id: RequestId,
    /// The topic coordinate published to.
    pub topic: NodeId,
    /// The delivered payload.
    pub payload: Vec<u8>,
    /// Overlay hops the payload travelled to reach this subscriber.
    pub hops: u32,
    /// When the delivery happened.
    pub at: SimTime,
}

#[cfg(test)]
impl TopicFilter {
    /// True when the filter provably excludes every topic (prune always).
    pub(crate) fn is_empty(&self) -> bool {
        !self.overflow && self.topics.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topic_keys_are_deterministic_and_in_space() {
        let space = IdSpace::new(16);
        let a = topic_key(space, "alerts/eu");
        let b = topic_key(space, "alerts/eu");
        let c = topic_key(space, "alerts/us");
        assert_eq!(a, b);
        assert_ne!(a, c, "distinct names should land on distinct coordinates");
        assert!(space.contains(a));
        assert!(space.contains(c));
    }

    #[test]
    fn filter_exact_membership_and_pruning() {
        let f = TopicFilter::from_topics([NodeId(3), NodeId(9)], 8);
        assert!(f.may_contain(NodeId(3)));
        assert!(f.may_contain(NodeId(9)));
        assert!(!f.may_contain(NodeId(4)), "exact filters prune");
        assert!(!f.is_empty());
        assert!(TopicFilter::empty().is_empty());
        assert!(!TopicFilter::empty().may_contain(NodeId(1)));
    }

    #[test]
    fn filter_overflow_excludes_nothing() {
        let f = TopicFilter::from_topics((0..10).map(NodeId), 4);
        assert!(f.overflow);
        assert!(f.topics.is_empty(), "overflowed filters drop the list");
        assert!(f.may_contain(NodeId(999)));
        assert!(!f.is_empty());
    }

    #[test]
    fn filter_merge_respects_the_bound() {
        let mut acc = TopicFilter::from_topics([NodeId(1), NodeId(2)], 4);
        acc.merge(&TopicFilter::from_topics([NodeId(2), NodeId(3)], 4), 4);
        assert_eq!(acc.topics.len(), 3, "merge unions and dedups");
        assert!(!acc.overflow);
        acc.merge(&TopicFilter::from_topics([NodeId(8), NodeId(9)], 4), 4);
        assert!(acc.overflow, "exceeding the bound degrades to overflow");
        let mut from_overflow = TopicFilter::empty();
        from_overflow.merge(&TopicFilter::from_topics((0..9).map(NodeId), 4), 4);
        assert!(from_overflow.overflow, "overflow is contagious");
    }
}
