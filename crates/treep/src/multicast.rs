//! Tree-scoped multicast and subtree aggregation (convergecast).
//!
//! TreeP's hierarchy tessellates the 1-D identifier space: a level-k node's
//! subtree covers a contiguous run of the space. That makes the tree a
//! natural dissemination and aggregation spine, which the flat baselines
//! (Chord, Gnutella flooding) lack. This module provides the data types of
//! that subsystem; the protocol behaviour lives in
//! [`crate::node::TreePNode`]:
//!
//! * **Scoped multicast** — a payload addressed to a contiguous
//!   [`KeyRange`] of the identifier space travels *up* the initiator's
//!   ancestor chain to its root, then *down* the spanning forest: the root
//!   walks the top-level bus in both directions (each top-level node is
//!   visited at most once per direction) and every visited node fans out to
//!   its own children. Because every non-root node has exactly one parent
//!   and the bus walk is directional, **every live node receives the
//!   payload at most once** — duplicate suppression is structural, not
//!   state-based, mirroring the zero-duplicate delegation argument of
//!   "Optimally Efficient Prefix Search and Multicast in Structured P2P
//!   Networks" (TUD-CS-2008-103).
//! * **Subtree aggregation** — the same spanning tree run in reverse: an
//!   [`AggregateQuery`] is multicast down, every node contributes an
//!   [`AggregatePartial`], and partials are folded *per hop* on the way back
//!   up (convergecast), so the initiator receives one combined answer
//!   instead of `n` point responses.

use crate::entry::PeerInfo;
use crate::id::{IdSpace, NodeId};
use crate::lookup::RequestId;
use serde::{Deserialize, Serialize};
use simnet::{NodeAddr, SimDuration, SimTime, TraceCtx};

/// A contiguous, inclusive range `[lo, hi]` of the 1-D identifier space —
/// the scope of a multicast or aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KeyRange {
    /// Lowest identifier in the range.
    pub lo: NodeId,
    /// Highest identifier in the range (inclusive).
    pub hi: NodeId,
}

impl KeyRange {
    /// Range between two identifiers (order-normalised).
    pub fn new(a: NodeId, b: NodeId) -> Self {
        if a.0 <= b.0 {
            KeyRange { lo: a, hi: b }
        } else {
            KeyRange { lo: b, hi: a }
        }
    }

    /// The whole identifier space.
    pub fn full(space: IdSpace) -> Self {
        KeyRange {
            lo: NodeId::MIN,
            hi: space.max_id(),
        }
    }

    /// True when `id` falls inside the range.
    pub fn contains(&self, id: NodeId) -> bool {
        self.lo.0 <= id.0 && id.0 <= self.hi.0
    }

    /// Number of identifiers covered.
    pub fn width(&self) -> u64 {
        self.hi.0 - self.lo.0 + 1
    }

    /// True when this range overlaps `[lo, hi]` (inclusive, saturating).
    pub(crate) fn overlaps_interval(&self, lo: u64, hi: u64) -> bool {
        self.lo.0 <= hi && lo <= self.hi.0
    }
}

/// Direction / stage of a [`crate::messages::TreePMessage::MulticastDown`]
/// message inside the dissemination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MulticastPhase {
    /// Climbing the initiator's ancestor chain toward its root (no
    /// deliveries happen in this phase).
    Up,
    /// Walking the bus leftward (decreasing identifiers) at the walk level.
    BusLeft,
    /// Walking the bus rightward (increasing identifiers) at the walk level.
    BusRight,
    /// Descending a subtree through own-children links.
    Down,
}

/// What a multicast carries: an opaque payload to deliver, or an aggregation
/// query whose answers convergecast back to the initiator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MulticastPayload {
    /// Application payload delivered to every live node in the range.
    Data(Vec<u8>),
    /// Aggregation query; every node in the range contributes a partial.
    Aggregate(AggregateQuery),
    /// Topic publish (see `crate::pubsub`): delivered only to nodes in
    /// the range holding a local subscription of `topic`, and pruned during
    /// the descent out of branches whose recorded subscription filter
    /// provably excludes the topic.
    Topic {
        /// The topic coordinate ([`crate::pubsub::topic_key`]).
        topic: NodeId,
        /// The published payload.
        data: Vec<u8>,
    },
}

/// The aggregation queries the subsystem answers over a [`KeyRange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregateQuery {
    /// Number of live nodes in the range.
    CountNodes,
    /// Maximum capability score (milli-units) among live nodes in the range
    /// — "which subtree has the strongest free machine".
    MaxCapability,
    /// Digest (XOR of key hashes + count) of the DHT keys stored by nodes in
    /// the range — a cheap anti-entropy / key-census primitive.
    DhtKeyDigest,
    /// The DHT keys stored inside the multicast's scoped range — the range
    /// query of `crate::pubsub`: the fan-out visits only subtrees whose
    /// spans, widened as for [`AggregateQuery::DhtKeyDigest`], intersect
    /// the range, and the matching keys fold back up as a deduplicated
    /// [`AggregatePartial::Keys`] list.
    KeysInRange,
}

impl AggregateQuery {
    /// Short, stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            AggregateQuery::CountNodes => "count_nodes",
            AggregateQuery::MaxCapability => "max_capability",
            AggregateQuery::DhtKeyDigest => "dht_key_digest",
            AggregateQuery::KeysInRange => "keys_in_range",
        }
    }
}

/// A partial aggregation result, combined hop by hop on the way up.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AggregatePartial {
    /// Running node count.
    Count(u64),
    /// Running maximum capability score in milli-units.
    MaxCapability(u16),
    /// Running XOR-of-hashes digest plus stored-key count.
    Digest {
        /// XOR of SplitMix64-mixed key coordinates.
        xor: u64,
        /// Number of keys folded in.
        count: u64,
    },
    /// Running deduplicated list of DHT keys found inside the range, in key
    /// order. Bounded by `crate::pubsub::MAX_RANGE_KEYS`: a fold that
    /// reaches the bound may have dropped keys, which callers can detect
    /// through `AggregatePartial::keys_at_capacity`.
    Keys(Vec<NodeId>),
}

impl AggregatePartial {
    /// Fold `other` into `self`. Mismatched kinds (possible only with a
    /// corrupted or adversarial message) leave `self` unchanged.
    pub(crate) fn combine(&mut self, other: &AggregatePartial) {
        match (self, other) {
            (AggregatePartial::Count(a), AggregatePartial::Count(b)) => *a += b,
            (AggregatePartial::MaxCapability(a), AggregatePartial::MaxCapability(b)) => {
                *a = (*a).max(*b)
            }
            (
                AggregatePartial::Digest { xor: ax, count: ac },
                AggregatePartial::Digest { xor: bx, count: bc },
            ) => {
                *ax ^= bx;
                *ac += bc;
            }
            (AggregatePartial::Keys(a), AggregatePartial::Keys(b)) => {
                // Sorted-merge dedup: both sides are in key order, and a key
                // can legitimately arrive from several branches (replicated
                // copies live on registry neighbours of the responsible
                // node), so the union — not the concatenation — is the
                // correct fold. Bounded at MAX_RANGE_KEYS.
                let mut merged =
                    Vec::with_capacity((a.len() + b.len()).min(crate::pubsub::MAX_RANGE_KEYS));
                let (mut i, mut j) = (0, 0);
                while merged.len() < crate::pubsub::MAX_RANGE_KEYS {
                    let next = match (a.get(i), b.get(j)) {
                        (Some(x), Some(y)) => {
                            if x <= y {
                                if x == y {
                                    j += 1;
                                }
                                i += 1;
                                *x
                            } else {
                                j += 1;
                                *y
                            }
                        }
                        (Some(x), None) => {
                            i += 1;
                            *x
                        }
                        (None, Some(y)) => {
                            j += 1;
                            *y
                        }
                        (None, None) => break,
                    };
                    if merged.last() != Some(&next) {
                        merged.push(next);
                    }
                }
                *a = merged;
            }
            _ => {}
        }
    }

    /// The count carried by a [`AggregatePartial::Count`], if that is the
    /// kind.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            AggregatePartial::Count(n) => Some(*n),
            _ => None,
        }
    }

    /// The key list carried by a [`AggregatePartial::Keys`], if that is the
    /// kind.
    pub fn as_keys(&self) -> Option<&[NodeId]> {
        match self {
            AggregatePartial::Keys(keys) => Some(keys),
            _ => None,
        }
    }

    /// True when a [`AggregatePartial::Keys`] fold reached the
    /// [`crate::pubsub::MAX_RANGE_KEYS`] bound — later merges may have
    /// dropped keys, so the result must be treated like a truncated
    /// convergecast, not an exhaustive answer.
    pub(crate) fn keys_at_capacity(&self) -> bool {
        matches!(self, AggregatePartial::Keys(keys) if keys.len() >= crate::pubsub::MAX_RANGE_KEYS)
    }
}

/// One payload delivery recorded at a node covered by a scoped multicast.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MulticastDelivery {
    /// The node that initiated the multicast.
    pub origin: PeerInfo,
    /// Identifier of the multicast at its origin.
    pub request_id: RequestId,
    /// The scoped range.
    pub range: KeyRange,
    /// The delivered payload.
    pub payload: Vec<u8>,
    /// Overlay hops the payload travelled to reach this node.
    pub hops: u32,
    /// When the delivery happened.
    pub at: SimTime,
}

/// How an aggregation concluded, recorded at the origin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggregateOutcome {
    /// The folded answer arrived.
    Completed {
        /// The request.
        request_id: RequestId,
        /// The query that was asked.
        query: AggregateQuery,
        /// The combined result over the whole reached range.
        partial: AggregatePartial,
        /// True when at least one delegated branch never reported before its
        /// relay's hold timer fired, or the hop budget ran out above a
        /// subtree: the partial covers only part of the range and must not
        /// be treated as authoritative (loss / churn).
        truncated: bool,
        /// When the answer arrived.
        completed_at: SimTime,
    },
    /// The origin gave up waiting (loss or a partitioned range).
    TimedOut {
        /// The request.
        request_id: RequestId,
        /// The query that was asked.
        query: AggregateQuery,
        /// When the timeout fired.
        completed_at: SimTime,
    },
}

impl AggregateOutcome {
    /// The request this outcome belongs to.
    pub fn request_id(&self) -> RequestId {
        match self {
            AggregateOutcome::Completed { request_id, .. }
            | AggregateOutcome::TimedOut { request_id, .. } => *request_id,
        }
    }

    /// True unless the request timed out.
    pub fn is_success(&self) -> bool {
        matches!(self, AggregateOutcome::Completed { .. })
    }

    /// True only for a completed answer that covered every delegated branch
    /// (no relay hold timer fired anywhere in the convergecast).
    pub fn is_complete(&self) -> bool {
        matches!(
            self,
            AggregateOutcome::Completed {
                truncated: false,
                ..
            }
        )
    }

    /// The combined partial, when the aggregation completed.
    pub fn partial(&self) -> Option<AggregatePartial> {
        match self {
            AggregateOutcome::Completed { partial, .. } => Some(partial.clone()),
            AggregateOutcome::TimedOut { .. } => None,
        }
    }
}

/// Hop budget of a scoped multicast (ascent + bus walk + descent): what an
/// origin sets out with and every forwarding hop spends one of. It
/// comfortably exceeds the hierarchy height plus the expected top-level bus
/// length; a node that receives a message with none left delivers it and
/// forwards nothing.
pub(crate) const MULTICAST_HOP_BUDGET: u32 = 512;
const _: () = assert!(MULTICAST_HOP_BUDGET > crate::tables::MAX_BUS_LEVEL);

/// How long a convergecast relay waits for the partials of its delegated
/// branches before folding up whatever has arrived (bounds the damage of
/// a lost `AggregateUp` under churn).
pub(crate) const AGGREGATE_RELAY_TIMEOUT: SimDuration = SimDuration::from_millis(700);

/// Where a completed relay fold should be reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplyTo {
    /// Fold upward to the node this branch was delegated by.
    Upstream(NodeAddr),
    /// This node is the descent root: send the final answer straight to the
    /// (remote) origin.
    Origin(NodeAddr),
    /// This node is the descent root *and* the origin: record the outcome
    /// locally.
    SelfOrigin,
}

/// One node's branch of a convergecast: what it has folded so far and where
/// the fold goes. A node that delegated the aggregation to children / bus
/// neighbours holds it (keyed by the round its hold timer carries) until
/// their partials are in or the timer fires; a node with nobody to delegate
/// to reports it at once with `expected == 0`.
#[derive(Debug, Clone)]
pub(crate) struct AggregateRelay {
    /// The aggregation origin (its address scopes `request_id`).
    pub origin: PeerInfo,
    /// The origin-local request identifier.
    pub request_id: RequestId,
    /// The query being folded.
    pub query: AggregateQuery,
    /// Where the folded result goes when the relay completes.
    pub reply_to: ReplyTo,
    /// Partials folded so far (starts at this node's own contribution).
    pub acc: AggregatePartial,
    /// Delegations still outstanding.
    pub expected: usize,
    /// True once any folded branch was itself truncated; propagated upward
    /// so the origin can tell a full answer from a lossy one.
    pub truncated: bool,
}

/// Bounded insertion-ordered set of identification keys — the per-node
/// duplicate guard of the multicast descent and, in a window of its own, of
/// the ascent (both keyed by `(origin address, request id)`) and, when the
/// reliability layer retransmits, of the convergecast fold (keyed by
/// `(sender, origin address, request id)`).
///
/// Delegation is structural (one parent per node, directional bus walk), so
/// in steady state no node is ever visited twice. Under churn, however, a
/// child can transiently sit in two parents' children tables (the old
/// parent's entry has not expired yet) and be fanned out twice — and with
/// acks enabled, a lost ack makes the sender retransmit a copy the receiver
/// already processed. This window turns both races into a suppressed
/// duplicate instead of a broken exactly-once guarantee. Bounded so
/// long-running nodes cannot leak.
#[derive(Debug, Clone)]
pub(crate) struct SeenWindow<K: Ord + Copy = (NodeAddr, RequestId)> {
    set: std::collections::BTreeSet<K>,
    order: std::collections::VecDeque<K>,
}

/// Keys remembered per window for duplicate suppression.
const SEEN_WINDOW_CAP: usize = 1024;

impl<K: Ord + Copy> Default for SeenWindow<K> {
    fn default() -> Self {
        SeenWindow {
            set: std::collections::BTreeSet::new(),
            order: std::collections::VecDeque::new(),
        }
    }
}

impl<K: Ord + Copy> SeenWindow<K> {
    /// Record `key`; returns false when it was already present (duplicate).
    pub(crate) fn insert(&mut self, key: K) -> bool {
        if !self.set.insert(key) {
            return false;
        }
        self.order.push_back(key);
        while self.order.len() > SEEN_WINDOW_CAP {
            if let Some(old) = self.order.pop_front() {
                self.set.remove(&old);
            }
        }
        true
    }
}

// ---- reliability layer state ------------------------------------------------

/// Base retransmission timeout of the reliability layer; doubled after
/// every unacknowledged attempt (exponential backoff). Comfortably exceeds
/// one round-trip time. Only armed when `max_retransmits > 0`.
pub(crate) const RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_millis(120);

/// One unacknowledged reliable transmission, waiting in a node's bounded
/// retransmission queue (see the state machine in
/// [`crate::node`]'s multicast layer). An ack names the sender it comes
/// from, the kind it acknowledges and an `(origin, request)`; the entry it
/// ends is the one whose `dest`, `msg.kind()` and `msg.hop_acked_as()` are
/// those. A node never sends the same multicast (or fold) twice to the same
/// peer, so that is at most one entry — but the kind is part of the key:
/// one peer can owe acks for a delegated descent
/// ([`crate::messages::TreePMessage::MulticastDown`]) *and* a convergecast
/// report ([`crate::messages::TreePMessage::AggregateUp`]) of the same
/// multicast, e.g. a descent root reached by its own child's ascent fans
/// the descent out to that child and later reports the final fold to it
/// when the child is the origin.
#[derive(Debug, Clone)]
pub(crate) struct PendingRetx {
    /// The peer whose ack is awaited.
    pub dest: NodeAddr,
    /// The destination's overlay identifier, when the sender knows it (it
    /// always does for dissemination hops, which are routed by registry
    /// entries). Used to aim the re-route once the hop is declared dead.
    pub dest_id: Option<NodeId>,
    /// The exact message to retransmit.
    pub msg: crate::messages::TreePMessage,
    /// Retransmissions still allowed before the hop is declared dead.
    pub attempts_left: u32,
    /// Delay until the next retransmission; doubled after every attempt.
    pub backoff: SimDuration,
    /// True once this transmission is itself a re-route of a dead hop; a
    /// rerouted hop that dies too is abandoned (one detour per delegation
    /// bounds the work a pathological registry can cause).
    pub rerouted: bool,
    /// Trace context of the dispatch that originated the transmission.
    /// Retransmissions (and re-routes) fired later from the backoff timer
    /// restore it, so a retransmit chain stays attributed to the op that
    /// caused it. `None` outside telemetry runs — costs one `Option` copy.
    pub trace: Option<TraceCtx>,
}

#[cfg(test)]
impl KeyRange {
    /// The range centred on `center` with the given radius, clamped to the
    /// space.
    pub(crate) fn around(space: IdSpace, center: NodeId, radius: u64) -> Self {
        KeyRange {
            lo: NodeId(center.0.saturating_sub(radius)),
            hi: NodeId(center.0.saturating_add(radius).min(space.max_id().0)),
        }
    }
}

#[cfg(test)]
impl<K: Ord + Copy> SeenWindow<K> {
    /// Number of remembered keys.
    pub(crate) fn len(&self) -> usize {
        self.set.len()
    }

    /// True when nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.set.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_range_normalises_and_contains() {
        let r = KeyRange::new(NodeId(50), NodeId(10));
        assert_eq!(r.lo, NodeId(10));
        assert_eq!(r.hi, NodeId(50));
        assert!(r.contains(NodeId(10)));
        assert!(r.contains(NodeId(50)));
        assert!(r.contains(NodeId(30)));
        assert!(!r.contains(NodeId(9)));
        assert!(!r.contains(NodeId(51)));
        assert_eq!(r.width(), 41);
    }

    #[test]
    fn key_range_full_and_around() {
        let space = IdSpace::new(16);
        let full = KeyRange::full(space);
        assert_eq!(full.lo, NodeId(0));
        assert_eq!(full.hi, NodeId(65535));

        let r = KeyRange::around(space, NodeId(100), 500);
        assert_eq!(r.lo, NodeId(0), "saturates at the lower bound");
        assert_eq!(r.hi, NodeId(600));
        let r2 = KeyRange::around(space, NodeId(65_500), 100);
        assert_eq!(r2.hi, NodeId(65535), "clamped to the space");
    }

    #[test]
    fn overlap_test_is_inclusive() {
        let r = KeyRange::new(NodeId(100), NodeId(200));
        assert!(r.overlaps_interval(200, 300));
        assert!(r.overlaps_interval(0, 100));
        assert!(!r.overlaps_interval(201, 300));
        assert!(!r.overlaps_interval(0, 99));
        assert!(r.overlaps_interval(150, 160));
        assert!(r.overlaps_interval(0, u64::MAX));
    }

    #[test]
    fn partial_identity_and_combine() {
        let mut c = AggregatePartial::Count(0);
        c.combine(&AggregatePartial::Count(3));
        c.combine(&AggregatePartial::Count(4));
        assert_eq!(c, AggregatePartial::Count(7));
        assert_eq!(c.as_count(), Some(7));

        let mut m = AggregatePartial::MaxCapability(0);
        m.combine(&AggregatePartial::MaxCapability(250));
        m.combine(&AggregatePartial::MaxCapability(100));
        assert_eq!(m, AggregatePartial::MaxCapability(250));

        let mut d = AggregatePartial::Digest { xor: 0, count: 0 };
        d.combine(&AggregatePartial::Digest {
            xor: 0b1010,
            count: 2,
        });
        d.combine(&AggregatePartial::Digest {
            xor: 0b0110,
            count: 1,
        });
        assert_eq!(
            d,
            AggregatePartial::Digest {
                xor: 0b1100,
                count: 3
            }
        );

        // XOR digests cancel: folding the same key set twice detects parity.
        let mut e = AggregatePartial::Digest { xor: 7, count: 1 };
        e.combine(&AggregatePartial::Digest { xor: 7, count: 1 });
        assert_eq!(e, AggregatePartial::Digest { xor: 0, count: 2 });
    }

    #[test]
    fn mismatched_partials_are_ignored() {
        let mut c = AggregatePartial::Count(5);
        c.combine(&AggregatePartial::MaxCapability(900));
        assert_eq!(c, AggregatePartial::Count(5));
        assert_eq!(c.as_count(), Some(5));
        assert_eq!(AggregatePartial::MaxCapability(1).as_count(), None);
    }

    #[test]
    fn outcome_accessors() {
        let done = AggregateOutcome::Completed {
            request_id: RequestId(4),
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(12),
            truncated: false,
            completed_at: SimTime::ZERO,
        };
        assert!(done.is_success());
        assert!(done.is_complete());
        assert_eq!(done.request_id(), RequestId(4));
        assert_eq!(done.partial(), Some(AggregatePartial::Count(12)));

        let partial_only = AggregateOutcome::Completed {
            request_id: RequestId(6),
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(3),
            truncated: true,
            completed_at: SimTime::ZERO,
        };
        assert!(partial_only.is_success());
        assert!(
            !partial_only.is_complete(),
            "a truncated fold is not authoritative"
        );

        let lost = AggregateOutcome::TimedOut {
            request_id: RequestId(5),
            query: AggregateQuery::MaxCapability,
            completed_at: SimTime::ZERO,
        };
        assert!(!lost.is_success());
        assert!(!lost.is_complete());
        assert_eq!(lost.partial(), None);
    }

    #[test]
    fn seen_window_dedupes_and_stays_bounded() {
        let mut w = SeenWindow::default();
        assert!(w.is_empty());
        let key = (NodeAddr(7), RequestId(1));
        assert!(w.insert(key));
        assert!(!w.insert(key), "second insert is a duplicate");
        // Push past the capacity: the oldest entries are evicted and can be
        // inserted again.
        for i in 0..(SEEN_WINDOW_CAP as u64 + 10) {
            w.insert((NodeAddr(100 + i), RequestId(i)));
        }
        assert_eq!(w.len(), SEEN_WINDOW_CAP);
        assert!(w.insert(key), "evicted entries are forgotten");
    }

    #[test]
    fn seen_window_supports_convergecast_keys() {
        // The reliability layer dedups folds by (sender, origin, request).
        let mut w: SeenWindow<(NodeAddr, NodeAddr, RequestId)> = SeenWindow::default();
        assert!(w.insert((NodeAddr(1), NodeAddr(2), RequestId(3))));
        assert!(!w.insert((NodeAddr(1), NodeAddr(2), RequestId(3))));
        assert!(w.insert((NodeAddr(4), NodeAddr(2), RequestId(3))));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn query_labels_are_stable() {
        assert_eq!(AggregateQuery::CountNodes.label(), "count_nodes");
        assert_eq!(AggregateQuery::MaxCapability.label(), "max_capability");
        assert_eq!(AggregateQuery::DhtKeyDigest.label(), "dht_key_digest");
        assert_eq!(AggregateQuery::KeysInRange.label(), "keys_in_range");
    }

    #[test]
    fn keys_partials_merge_sorted_and_deduped() {
        let mut a = AggregatePartial::Keys(Vec::new());
        assert_eq!(a.as_keys(), Some(&[][..]));
        a.combine(&AggregatePartial::Keys(vec![NodeId(3), NodeId(9)]));
        a.combine(&AggregatePartial::Keys(vec![NodeId(1), NodeId(3)]));
        assert_eq!(a.as_keys(), Some(&[NodeId(1), NodeId(3), NodeId(9)][..]));
        assert!(!a.keys_at_capacity());
        // Replica duplicates across branches fold to one key.
        a.combine(&AggregatePartial::Keys(vec![NodeId(1), NodeId(9)]));
        assert_eq!(a.as_keys().unwrap().len(), 3);
        assert_eq!(AggregatePartial::Count(1).as_keys(), None);
    }

    #[test]
    fn keys_merge_is_bounded() {
        use crate::pubsub::MAX_RANGE_KEYS;
        let left: Vec<NodeId> = (0..MAX_RANGE_KEYS as u64).map(NodeId).collect();
        let right: Vec<NodeId> = (MAX_RANGE_KEYS as u64..MAX_RANGE_KEYS as u64 + 10)
            .map(NodeId)
            .collect();
        let mut a = AggregatePartial::Keys(left);
        a.combine(&AggregatePartial::Keys(right));
        assert_eq!(a.as_keys().unwrap().len(), MAX_RANGE_KEYS);
        assert!(a.keys_at_capacity(), "capped folds are flagged");
        // The survivors are the lowest keys (both inputs sorted).
        assert_eq!(a.as_keys().unwrap()[0], NodeId(0));
    }
}
