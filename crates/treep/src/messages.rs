//! Protocol messages exchanged between TreeP peers.
//!
//! TreeP is a UDP-style overlay: every interaction is a single datagram, no
//! connection state is assumed by the wire protocol, and loss is tolerated
//! (missed keep-alives simply age the corresponding routing-table entries).

use crate::entry::PeerInfo;
use crate::id::NodeId;
use crate::lookup::{LookupRequest, RequestId};
use crate::multicast::{
    AggregatePartial, AggregateQuery, KeyRange, MulticastPayload, MulticastPhase,
};
use crate::readpath::{ReadSource, StampedValue, VersionStamp};
use crate::replication::ReplicaEntry;
use crate::routing::RoutingAlgorithm;
use serde::{Deserialize, Serialize};
use simnet::NodeAddr;

/// A piece of routing information piggy-backed on maintenance traffic
/// (Section III.d: after the initial synchronisation peers "only exchange
/// information concerning the out of dated data").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RoutingUpdate {
    /// `peer` is a member of the level-`level` bus.
    LevelMember {
        /// Bus level (`> 0`).
        level: u32,
        /// The member.
        peer: PeerInfo,
    },
    /// `peer` is the sender's immediate parent.
    ParentOf {
        /// The parent.
        peer: PeerInfo,
    },
    /// `peer` is one of the sender's children.
    ChildOf {
        /// The child.
        peer: PeerInfo,
    },
    /// `peer` is an ancestor / superior the receiver should replicate
    /// ("Superior Node List").
    Superior {
        /// The superior node.
        peer: PeerInfo,
    },
    /// `peer` is an ordinary level-0 contact.
    Contact {
        /// The contact.
        peer: PeerInfo,
    },
}

/// The TreeP wire protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TreePMessage {
    // ---- membership -------------------------------------------------------
    /// A joining node contacts a peer it learned out of band (bootstrap).
    JoinRequest {
        /// The joining node.
        joiner: PeerInfo,
    },
    /// Response to a join: level-0 contacts near the joiner and, when the
    /// responder (or its hierarchy) covers the joiner, a parent to report to.
    JoinAck {
        /// The responding node.
        responder: PeerInfo,
        /// Suggested level-0 neighbours for the joiner.
        contacts: Vec<PeerInfo>,
        /// A parent for the joiner, when known.
        parent: Option<PeerInfo>,
    },

    // ---- maintenance ------------------------------------------------------
    /// Periodic keep-alive between direct neighbours (level 0 and level-i
    /// buses), carrying piggy-backed routing updates: one per peer and
    /// round, and none between a parent and its own child, whose reports
    /// refresh that link.
    KeepAlive {
        /// The sender.
        sender: PeerInfo,
        /// Out-of-date information being refreshed.
        updates: Vec<RoutingUpdate>,
    },
    /// Reply to a keep-alive with the receiver's own updates — sent only
    /// when the sender does not hear from the receiver every round anyway
    /// (it is neither a level-0 neighbour, a direct bus neighbour, the
    /// parent nor an own child of the receiver), so the ack is that edge's
    /// only refresh. The receiver decides this before it learns the sender,
    /// because learning makes every sender a level-0 neighbour (see the
    /// membership layer's module documentation).
    KeepAliveAck {
        /// The sender of the ack.
        sender: PeerInfo,
        /// Out-of-date information being refreshed.
        updates: Vec<RoutingUpdate>,
    },
    /// Periodic report from a child to its parent ("if they do not report
    /// regularly they will simply be deleted from its routing table").
    ChildReport {
        /// The reporting child.
        child: PeerInfo,
        /// Exact extent of the child's subtree in the identifier space (its
        /// own coordinate joined with its children's reported extents). The
        /// parent records it and uses it to prune multicast fan-outs
        /// exactly instead of by the tessellation-radius estimate.
        span: KeyRange,
    },
    /// Parent's answer to a child report: refreshes the parent entry and
    /// replicates the ancestor chain + the parent's bus neighbours into the
    /// child's superior list.
    ChildReportAck {
        /// The parent.
        parent: PeerInfo,
        /// Superiors the child should replicate.
        superiors: Vec<PeerInfo>,
    },

    // ---- hierarchy formation ------------------------------------------------
    /// A node that reached degree 2 without a parent calls an election among
    /// its neighbours (Section III.b).
    ElectionCall {
        /// Level being filled (the new parent will sit at this level).
        level: u32,
        /// The calling node.
        caller: PeerInfo,
    },
    /// The election winner announces itself as the new parent at `level`.
    ParentAnnounce {
        /// Level of the new parent.
        level: u32,
        /// The new parent.
        parent: PeerInfo,
    },
    /// A node accepts `parent` and registers as its child.
    ParentAccept {
        /// The accepting child.
        child: PeerInfo,
    },
    /// A parent with fewer than two children demotes itself back to level 0
    /// and tells its children / neighbours to drop it.
    Demotion {
        /// The demoting node.
        node: PeerInfo,
        /// The level it is leaving.
        from_level: u32,
    },

    // ---- lookup -------------------------------------------------------------
    /// A routed lookup request.
    Lookup(LookupRequest),
    /// Successful resolution sent straight back to the origin.
    LookupFound {
        /// Request being answered.
        request_id: RequestId,
        /// The resolved target.
        target: NodeId,
        /// Contact information of the resolved node.
        result: PeerInfo,
        /// Number of overlay hops the request travelled.
        hops: u32,
        /// Algorithm that carried the request.
        algorithm: RoutingAlgorithm,
    },
    /// Negative answer sent back to the origin (dead end).
    LookupNotFound {
        /// Request being answered.
        request_id: RequestId,
        /// The unresolved target.
        target: NodeId,
        /// Hops travelled before giving up.
        hops: u32,
        /// Algorithm that carried the request.
        algorithm: RoutingAlgorithm,
    },

    // ---- DHT / resource discovery -------------------------------------------
    /// Store `value` at the node responsible for `key` (routed greedily
    /// toward the key's coordinate).
    DhtPut {
        /// Request identifier (for the origin's bookkeeping).
        request_id: RequestId,
        /// Origin of the request.
        origin: PeerInfo,
        /// Key coordinate.
        key: NodeId,
        /// Opaque value.
        value: Vec<u8>,
        /// Remaining TTL.
        ttl: u32,
    },
    /// Acknowledgement of a [`TreePMessage::DhtPut`], sent by the node that
    /// stored the value.
    DhtPutAck {
        /// Request identifier.
        request_id: RequestId,
        /// Key coordinate.
        key: NodeId,
        /// The node that stored the value.
        stored_at: PeerInfo,
    },
    /// Retrieve the value stored under `key`.
    DhtGet {
        /// Request identifier.
        request_id: RequestId,
        /// Origin of the request.
        origin: PeerInfo,
        /// Key coordinate.
        key: NodeId,
        /// Remaining TTL.
        ttl: u32,
    },
    /// Answer to a [`TreePMessage::DhtGet`].
    DhtGetReply {
        /// Request identifier.
        request_id: RequestId,
        /// Key coordinate.
        key: NodeId,
        /// The stored value, if the responsible node had one.
        value: Option<Vec<u8>>,
        /// The node that answered.
        responder: PeerInfo,
    },

    // ---- replication ---------------------------------------------------------
    /// Push one replicated `(key, value)` copy to a member of the key's
    /// replica set (the k nearest registry neighbours of the key
    /// coordinate). Sent by the responsible node when a `DhtPut` lands, by
    /// the anti-entropy round when a partner's `want` list requests it, and
    /// as the handoff before a node drops a key it is no longer responsible
    /// for. Fire-and-forget: a lost copy is repaired by the next sync round.
    ReplicaPut {
        /// The pushing node.
        sender: PeerInfo,
        /// The key coordinate.
        key: NodeId,
        /// The replicated value.
        value: Vec<u8>,
    },
    /// Pairwise anti-entropy: "these are the keys I hold in `range` — send
    /// me what I lack, ask for what you lack." The answer to a
    /// [`TreePMessage::ReplicaDigest`] that did not match.
    ReplicaSyncRequest {
        /// The syncing node (the reply goes back to it).
        sender: PeerInfo,
        /// The key-space interval being reconciled (the one the mismatching
        /// digest covered).
        range: KeyRange,
        /// Every key the sender stores inside `range`, in key order.
        keys: Vec<NodeId>,
    },
    /// Answer to a [`TreePMessage::ReplicaSyncRequest`]: the values the
    /// requester was missing, plus the keys the responder is missing (which
    /// the requester answers with [`TreePMessage::ReplicaPut`]s).
    ReplicaSyncReply {
        /// The responding node.
        sender: PeerInfo,
        /// The reconciled interval (echoed from the request).
        range: KeyRange,
        /// Values the responder holds in `range` that the requester lacked.
        entries: Vec<ReplicaEntry>,
        /// Keys the requester listed that the responder lacks.
        want: Vec<NodeId>,
    },
    /// Steady-state anti-entropy between two replicas: "over `range` — the
    /// keys both of us must hold — my store digests to `(xor, count)`".
    /// Sent once per round to each of the sender's `k - 1` nearest registry
    /// successors, so every replica pair is compared once, from its lower
    /// member. A receiver whose own [`crate::dht::DhtStore::digest_range`]
    /// agrees stays silent; one that differs answers with a
    /// [`TreePMessage::ReplicaSyncRequest`] over the same `range`.
    /// Fire-and-forget: the next round repeats a lost one.
    ReplicaDigest {
        /// The comparing node (a mismatch is answered to it).
        sender: PeerInfo,
        /// The interval of keys both ends belong to the replica set of
        /// (see `crate::tables::RoutingTables::replica_pair_range`).
        range: KeyRange,
        /// XOR of the mixed key coordinates the sender stores in `range`.
        xor: u64,
        /// Number of keys the sender stores in `range`.
        count: u64,
    },

    // ---- multicast / aggregation --------------------------------------------
    /// A scoped multicast travelling through the hierarchy: up the
    /// initiator's ancestor chain, along the top-level bus, and down the
    /// own-children links of every visited node. Range delegation is
    /// structural (one parent per node, directional bus walk), so every live
    /// node in `range` receives the payload at most once.
    MulticastDown {
        /// The initiating node (aggregation answers return straight to it).
        origin: PeerInfo,
        /// Identifier of the multicast at its origin.
        request_id: RequestId,
        /// The contiguous identifier range being addressed.
        range: KeyRange,
        /// Payload to deliver, or aggregation query to fold.
        payload: MulticastPayload,
        /// Remaining hop budget; the message is discarded at zero.
        budget: u32,
        /// Hops travelled so far.
        hops: u32,
        /// Current phase of the dissemination.
        phase: MulticastPhase,
        /// Bus level of the walk (meaningful in the bus phases; the walk
        /// visits every node whose maximum level is at least this).
        bus_level: u32,
    },
    /// Convergecast step of an aggregation: a node (or whole delegated
    /// branch) reports its folded partial to the node that delegated it —
    /// or, from the descent root, the final fold to the origin.
    AggregateUp {
        /// The initiating node (scopes `request_id`).
        origin: PeerInfo,
        /// Identifier of the aggregation at its origin.
        request_id: RequestId,
        /// The query being folded.
        query: AggregateQuery,
        /// Partial result folded over the reporting branch.
        partial: AggregatePartial,
        /// True when the reporting branch lost at least one delegated
        /// sub-branch (its relay hold timer fired) or left one unvisited
        /// (the hop budget ran out): the partial is a lower bound, not an
        /// authoritative answer. Propagated by OR on the way up.
        truncated: bool,
        /// True only on the descent root's final fold to the origin. The
        /// discriminant matters when the origin is itself a relay of its own
        /// aggregation: a branch partial folds into the relay, the final
        /// answer resolves the pending request — without the flag the two
        /// are indistinguishable.
        final_answer: bool,
    },
    /// Per-hop acknowledgement of a received
    /// [`TreePMessage::MulticastDown`], sent back to the forwarding peer the
    /// moment the message arrives (before any duplicate suppression, so a
    /// retransmitted copy is re-acked and the sender's retransmission state
    /// drains). Only exchanged when the reliability layer is enabled
    /// (`max_retransmits > 0` in the configuration); the `(origin,
    /// request_id)` pair identifies the pending transmission at the sender,
    /// which never sends the same multicast twice to the same peer.
    MulticastAck {
        /// Address of the multicast's initiator (scopes `request_id`).
        origin: NodeAddr,
        /// Identifier of the multicast at its origin.
        request_id: RequestId,
    },
    /// Per-hop acknowledgement of a received
    /// [`TreePMessage::AggregateUp`], the convergecast counterpart of
    /// [`TreePMessage::MulticastAck`]. Only exchanged when the reliability
    /// layer is enabled.
    AggregateAck {
        /// Address of the aggregation's initiator (scopes `request_id`).
        origin: NodeAddr,
        /// Identifier of the aggregation at its origin.
        request_id: RequestId,
    },

    // ---- read path -----------------------------------------------------------
    /// A versioned get, routed greedily toward the key's coordinate but
    /// servable by any node on the route holding a satisfying copy (see
    /// `crate::readpath`).
    GetVersioned {
        /// Request identifier (scoped by `origin` — identifiers are
        /// per-node counters).
        request_id: RequestId,
        /// Origin of the request.
        origin: PeerInfo,
        /// Key coordinate.
        key: NodeId,
        /// Remaining TTL.
        ttl: u32,
        /// The highest stamp the client has already observed for the key:
        /// replica / cache copies with a staler stamp are treated as misses
        /// (monotonic reads per client). `None` accepts any copy.
        min_stamp: Option<VersionStamp>,
        /// Addresses of the caching hops the request traversed, origin
        /// first. The reply walks this path backwards, filling each hop's
        /// hot-key cache; hops with the cache disabled never append
        /// themselves, so a cacheless deployment gets a direct reply.
        path: Vec<NodeAddr>,
    },
    /// Answer to a [`TreePMessage::GetVersioned`], walking the recorded
    /// caching path backwards toward the origin.
    GetVersionedReply {
        /// Request identifier.
        request_id: RequestId,
        /// Address of the request's origin. Required on the walk-back:
        /// request identifiers are per-node counters, so a relay must not
        /// mistake a passing reply for one of its own requests.
        origin: NodeAddr,
        /// Key coordinate.
        key: NodeId,
        /// The stamped value, if any node on the route had a satisfying
        /// copy.
        value: Option<StampedValue>,
        /// Which serving tier answered.
        source: ReadSource,
        /// Overlay hops the request travelled before being served.
        hops: u32,
        /// The node that answered.
        responder: PeerInfo,
        /// Remaining walk-back path; each relay pops itself off the tail.
        path: Vec<NodeAddr>,
    },
    /// A versioned put: store `(stamp, value)` at the node responsible for
    /// `key`, last-write-wins against whatever stamp it already holds.
    PutVersioned {
        /// Request identifier.
        request_id: RequestId,
        /// Origin of the request.
        origin: PeerInfo,
        /// Key coordinate.
        key: NodeId,
        /// The write stamp (version + writer identifier).
        stamp: VersionStamp,
        /// Opaque value.
        value: Vec<u8>,
        /// Remaining TTL.
        ttl: u32,
    },
    /// Acknowledgement of a [`TreePMessage::PutVersioned`], sent by the
    /// responsible node whether or not the write won its last-write-wins
    /// comparison (a losing write is still durably resolved).
    PutVersionedAck {
        /// Request identifier.
        request_id: RequestId,
        /// Key coordinate.
        key: NodeId,
        /// The stamp the put carried (echoed for the origin's bookkeeping).
        stamp: VersionStamp,
        /// The responsible node.
        stored_at: PeerInfo,
    },
    /// Push one fresh stamped copy to a node holding (or about to hold) a
    /// stale or missing one: sent by the responsible node to repair a
    /// lagging server after a [`TreePMessage::ReadVerify`] mismatch, and as
    /// the stamped replica placement of versioned puts. Receivers apply it
    /// last-write-wins to their store and refresh any matching hot-key
    /// cache line. Fire-and-forget.
    ReadRepair {
        /// The pushing node.
        sender: PeerInfo,
        /// The key coordinate.
        key: NodeId,
        /// The stamp of the pushed value.
        stamp: VersionStamp,
        /// The fresh value.
        value: Vec<u8>,
    },
    /// Probe sent onward to the responsible node after a replica served a
    /// versioned get (`replica_reads` enabled): "I answered with this stamp —
    /// was it fresh?" A responsible node holding a strictly fresher copy
    /// answers the server (and the key's replica set) with
    /// [`TreePMessage::ReadRepair`]; one holding none does nothing and gets
    /// the copy when it next compares digests with that replica, and one
    /// holding a staler copy keeps it until a stamped write or repair
    /// reaches it (digests cover keys, not stamps).
    ReadVerify {
        /// The node that served the get (the repair target).
        server: PeerInfo,
        /// The key coordinate.
        key: NodeId,
        /// The stamp the server answered with.
        served_stamp: VersionStamp,
        /// Remaining TTL of the probe's descent.
        ttl: u32,
    },

    // ---- pub/sub -------------------------------------------------------------
    /// Topic-subscription summary of a child's whole subtree, reported to
    /// the parent next to the [`TreePMessage::ChildReport`] span — both
    /// periodically and immediately when the summary changes. The parent
    /// records it and prunes topic-publish fan-outs into branches whose
    /// summary provably excludes the topic.
    FilterReport {
        /// The reporting child.
        child: PeerInfo,
        /// Topics present in the child's subtree (exact unless `overflow`),
        /// in identifier order.
        topics: Vec<NodeId>,
        /// True when the subtree holds more topics than the summary bound:
        /// the filter excludes nothing and the branch is never pruned.
        overflow: bool,
    },
}

/// The one table behind [`MessageKind`]: a row per [`TreePMessage`]
/// variant, in index order, with its snake_case report name and whether it
/// counts as overlay maintenance. It expands to the enum, `ALL`, `COUNT`,
/// `name()`, `is_maintenance()` and [`TreePMessage::kind`], so the five
/// cannot disagree.
macro_rules! message_kinds {
    ($($variant:ident $name:literal $class:ident,)*) => {
        /// Static index of every [`TreePMessage`] variant.
        ///
        /// Per-node statistics key send/receive counters by this enum — a
        /// dense array index on the hot path where a `BTreeMap<String, u64>`
        /// used to allocate a `String` per recorded message. The snake_case
        /// wire of the old string keys survives as [`MessageKind::name`]
        /// (and `Display`) for reports.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        #[allow(missing_docs)]
        pub enum MessageKind {
            $($variant,)*
        }

        impl MessageKind {
            /// Every kind, in index order.
            pub const ALL: [MessageKind; MessageKind::COUNT] = [$(MessageKind::$variant,)*];

            /// Number of message kinds (the length of a per-kind counter
            /// array).
            pub const COUNT: usize = [$($name,)*].len();

            /// Dense array index of this kind.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// Short, stable snake_case name (the report/display form,
            /// identical to the string keys the per-node statistics used
            /// historically).
            pub fn name(self) -> &'static str {
                match self {
                    $(MessageKind::$variant => $name,)*
                }
            }

            /// True for kinds that belong to overlay maintenance rather than
            /// user traffic; the maintenance-overhead ablation counts these.
            pub fn is_maintenance(self) -> bool {
                match self {
                    $(MessageKind::$variant => message_kinds!(@maintenance $class),)*
                }
            }
        }

        impl TreePMessage {
            /// The message's kind index (used by per-node statistics and
            /// tracing; `kind().name()` recovers the historical string form).
            pub fn kind(&self) -> MessageKind {
                match self {
                    $(TreePMessage::$variant { .. } => MessageKind::$variant,)*
                }
            }
        }
    };
    (@maintenance maintenance) => { true };
    (@maintenance user) => { false };
}

message_kinds! {
    JoinRequest "join_request" maintenance,
    JoinAck "join_ack" maintenance,
    KeepAlive "keep_alive" maintenance,
    KeepAliveAck "keep_alive_ack" maintenance,
    ChildReport "child_report" maintenance,
    ChildReportAck "child_report_ack" maintenance,
    ElectionCall "election_call" maintenance,
    ParentAnnounce "parent_announce" maintenance,
    ParentAccept "parent_accept" maintenance,
    Demotion "demotion" maintenance,
    Lookup "lookup" user,
    LookupFound "lookup_found" user,
    LookupNotFound "lookup_not_found" user,
    DhtPut "dht_put" user,
    DhtPutAck "dht_put_ack" user,
    DhtGet "dht_get" user,
    DhtGetReply "dht_get_reply" user,
    ReplicaPut "replica_put" maintenance,
    ReplicaSyncRequest "replica_sync_request" maintenance,
    ReplicaSyncReply "replica_sync_reply" maintenance,
    ReplicaDigest "replica_digest" maintenance,
    MulticastDown "multicast_down" user,
    AggregateUp "aggregate_up" user,
    MulticastAck "multicast_ack" user,
    AggregateAck "aggregate_ack" user,
    GetVersioned "get_versioned" user,
    GetVersionedReply "get_versioned_reply" user,
    PutVersioned "put_versioned" user,
    PutVersionedAck "put_versioned_ack" user,
    ReadRepair "read_repair" maintenance,
    ReadVerify "read_verify" user,
    FilterReport "filter_report" maintenance,
}

impl std::fmt::Display for MessageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl TreePMessage {
    /// The request this message ends at its origin, when it is one of the
    /// seven reply kinds. A branch partial of a convergecast (an
    /// `AggregateUp` that is not the final fold) answers no request: it
    /// belongs to a relay.
    pub(crate) fn answers(&self) -> Option<RequestId> {
        match self {
            TreePMessage::LookupFound { request_id, .. }
            | TreePMessage::LookupNotFound { request_id, .. }
            | TreePMessage::DhtPutAck { request_id, .. }
            | TreePMessage::DhtGetReply { request_id, .. }
            | TreePMessage::GetVersionedReply { request_id, .. }
            | TreePMessage::PutVersionedAck { request_id, .. }
            | TreePMessage::AggregateUp {
                request_id,
                final_answer: true,
                ..
            } => Some(*request_id),
            _ => None,
        }
    }

    /// The `(origin address, request)` the per-hop ack of this message
    /// names, when it is one of the two kinds the reliability layer sends
    /// hop by hop. With the destination and [`TreePMessage::kind`] it
    /// identifies one unacknowledged transmission.
    pub(crate) fn hop_acked_as(&self) -> Option<(NodeAddr, RequestId)> {
        match self {
            TreePMessage::MulticastDown {
                origin, request_id, ..
            }
            | TreePMessage::AggregateUp {
                origin, request_id, ..
            } => Some((origin.addr, *request_id)),
            _ => None,
        }
    }

    /// The key coordinate this message is routed toward and its hop
    /// counter, when it is one of the kinds that descend greedily toward a
    /// key.
    pub(crate) fn key_route_mut(&mut self) -> Option<(NodeId, &mut u32)> {
        match self {
            TreePMessage::DhtPut { key, ttl, .. }
            | TreePMessage::DhtGet { key, ttl, .. }
            | TreePMessage::GetVersioned { key, ttl, .. }
            | TreePMessage::PutVersioned { key, ttl, .. }
            | TreePMessage::ReadVerify { key, ttl, .. } => Some((*key, ttl)),
            _ => None,
        }
    }

    /// Ask the CPU to start loading the heap parts of this message that
    /// its handler reads first (a hint: it changes nothing, see
    /// [`simnet::prefetch`]). Only the kinds that come by the hundred
    /// thousand, or that a lookup storm carries, are worth it.
    pub(crate) fn prefetch(&self) {
        match self {
            TreePMessage::KeepAlive { updates, .. }
            | TreePMessage::KeepAliveAck { updates, .. } => simnet::prefetch(updates),
            TreePMessage::ChildReportAck { superiors, .. } => simnet::prefetch(superiors),
            TreePMessage::Lookup(request) => {
                simnet::prefetch(&request.visited);
                simnet::prefetch(&request.fallbacks);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
impl RoutingUpdate {
    /// The peer carried by the update.
    pub(crate) fn peer(&self) -> PeerInfo {
        match *self {
            RoutingUpdate::LevelMember { peer, .. }
            | RoutingUpdate::ParentOf { peer }
            | RoutingUpdate::ChildOf { peer }
            | RoutingUpdate::Superior { peer }
            | RoutingUpdate::Contact { peer } => peer,
        }
    }
}

#[cfg(test)]
impl TreePMessage {
    /// True for messages that belong to overlay maintenance rather than user
    /// traffic; the maintenance-overhead ablation counts these.
    pub(crate) fn is_maintenance(&self) -> bool {
        self.kind().is_maintenance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
    use crate::config::ChildPolicy;

    fn peer(id: u64) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(id),
            max_level: 0,
            summary: CharacteristicsSummary::of(
                &NodeCharacteristics::default(),
                ChildPolicy::Fixed(4),
            ),
        }
    }

    #[test]
    fn update_peer_accessor() {
        let p = peer(5);
        assert_eq!(
            RoutingUpdate::LevelMember { level: 2, peer: p }.peer().id,
            NodeId(5)
        );
        assert_eq!(RoutingUpdate::ParentOf { peer: p }.peer().addr, NodeAddr(5));
        assert_eq!(RoutingUpdate::Contact { peer: p }.peer().id, NodeId(5));
    }

    #[test]
    fn maintenance_classification() {
        let ka = TreePMessage::KeepAlive {
            sender: peer(1),
            updates: vec![],
        };
        assert!(ka.is_maintenance());
        assert_eq!(ka.kind().name(), "keep_alive");
        let nf = TreePMessage::LookupNotFound {
            request_id: RequestId(1),
            target: NodeId(5),
            hops: 3,
            algorithm: RoutingAlgorithm::Greedy,
        };
        assert!(!nf.is_maintenance());
        assert_eq!(nf.kind().name(), "lookup_not_found");
    }

    #[test]
    fn multicast_messages_are_user_traffic() {
        use crate::multicast::{
            AggregatePartial, AggregateQuery, KeyRange, MulticastPayload, MulticastPhase,
        };
        let down = TreePMessage::MulticastDown {
            origin: peer(1),
            request_id: RequestId(7),
            range: KeyRange::new(NodeId(10), NodeId(90)),
            payload: MulticastPayload::Data(vec![1, 2, 3]),
            budget: 32,
            hops: 0,
            phase: MulticastPhase::Up,
            bus_level: 0,
        };
        assert_eq!(down.kind().name(), "multicast_down");
        assert!(!down.is_maintenance());

        let up = TreePMessage::AggregateUp {
            origin: peer(2),
            request_id: RequestId(8),
            query: AggregateQuery::CountNodes,
            partial: AggregatePartial::Count(5),
            truncated: false,
            final_answer: true,
        };
        assert_eq!(up.kind().name(), "aggregate_up");
        assert!(!up.is_maintenance());
    }

    #[test]
    fn acks_are_user_traffic_without_peer_origin() {
        let mack = TreePMessage::MulticastAck {
            origin: NodeAddr(3),
            request_id: RequestId(9),
        };
        assert_eq!(mack.kind().name(), "multicast_ack");
        assert!(
            !mack.is_maintenance(),
            "ack overhead is accounted to the multicast, not to maintenance"
        );
        let aack = TreePMessage::AggregateAck {
            origin: NodeAddr(4),
            request_id: RequestId(10),
        };
        assert_eq!(aack.kind().name(), "aggregate_ack");
        assert!(!aack.is_maintenance());
    }

    #[test]
    fn replica_messages_are_maintenance() {
        use crate::replication::ReplicaEntry;
        let put = TreePMessage::ReplicaPut {
            sender: peer(3),
            key: NodeId(9),
            value: vec![1, 2],
        };
        assert_eq!(put.kind().name(), "replica_put");
        assert!(put.is_maintenance(), "repair traffic is maintenance");
        let req = TreePMessage::ReplicaSyncRequest {
            sender: peer(3),
            range: KeyRange::new(NodeId(0), NodeId(10)),
            keys: vec![NodeId(9)],
        };
        assert_eq!(req.kind().name(), "replica_sync_request");
        assert!(req.is_maintenance());
        let reply = TreePMessage::ReplicaSyncReply {
            sender: peer(4),
            range: KeyRange::new(NodeId(0), NodeId(10)),
            entries: vec![ReplicaEntry {
                key: NodeId(5),
                value: vec![7],
            }],
            want: vec![NodeId(9)],
        };
        assert_eq!(reply.kind().name(), "replica_sync_reply");
        assert!(reply.is_maintenance());
        let digest = TreePMessage::ReplicaDigest {
            sender: peer(3),
            range: KeyRange::new(NodeId(0), NodeId(10)),
            xor: 0xD1,
            count: 1,
        };
        assert_eq!(digest.kind().name(), "replica_digest");
        assert!(digest.is_maintenance(), "its cost shows as maintenance");
    }

    #[test]
    fn read_path_messages_classify_correctly() {
        let stamp = VersionStamp {
            version: 3,
            origin: NodeId(7),
        };
        let get = TreePMessage::GetVersioned {
            request_id: RequestId(1),
            origin: peer(9),
            key: NodeId(5),
            ttl: 0,
            min_stamp: Some(stamp),
            path: vec![NodeAddr(9)],
        };
        assert_eq!(get.kind().name(), "get_versioned");
        assert!(!get.is_maintenance(), "versioned gets are user traffic");

        let reply = TreePMessage::GetVersionedReply {
            request_id: RequestId(1),
            origin: NodeAddr(9),
            key: NodeId(5),
            value: Some(StampedValue {
                stamp,
                value: vec![1],
            }),
            source: ReadSource::Replica,
            hops: 2,
            responder: peer(4),
            path: vec![NodeAddr(9)],
        };
        assert_eq!(reply.kind().name(), "get_versioned_reply");
        assert!(!reply.is_maintenance());

        let put = TreePMessage::PutVersioned {
            request_id: RequestId(2),
            origin: peer(9),
            key: NodeId(5),
            stamp,
            value: vec![2],
            ttl: 0,
        };
        assert_eq!(put.kind().name(), "put_versioned");
        assert!(!put.is_maintenance());

        let ack = TreePMessage::PutVersionedAck {
            request_id: RequestId(2),
            key: NodeId(5),
            stamp,
            stored_at: peer(4),
        };
        assert_eq!(ack.kind().name(), "put_versioned_ack");
        assert!(!ack.is_maintenance());

        let repair = TreePMessage::ReadRepair {
            sender: peer(4),
            key: NodeId(5),
            stamp,
            value: vec![3],
        };
        assert_eq!(repair.kind().name(), "read_repair");
        assert!(repair.is_maintenance(), "repair traffic is maintenance");

        let verify = TreePMessage::ReadVerify {
            server: peer(4),
            key: NodeId(5),
            served_stamp: stamp,
            ttl: 1,
        };
        assert_eq!(verify.kind().name(), "read_verify");
        assert!(
            !verify.is_maintenance(),
            "verify probes are accounted to the get that caused them"
        );
    }

    #[test]
    fn pubsub_messages_classify_correctly() {
        let report = TreePMessage::FilterReport {
            child: peer(3),
            topics: vec![NodeId(5)],
            overflow: false,
        };
        assert_eq!(report.kind().name(), "filter_report");
        assert!(
            report.is_maintenance(),
            "filter summaries ride the maintenance cycle like child reports"
        );
    }
}
