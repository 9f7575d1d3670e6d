//! The TreeP node: a layered protocol engine.
//!
//! [`TreePNode`] implements [`simnet::Protocol`], so the exact same code is
//! driven by the discrete-event simulator (for the paper's experiments) and
//! by the real UDP transport in `treep-net`. The behaviour of Section III is
//! decomposed into focused protocol layers, each owning its handlers and
//! timers, behind the thin dispatch in this file:
//!
//! * `membership` — joining, keep-alives, child reports, the periodic
//!   maintenance tick and routing-table gossip; and the three ages of a
//!   table entry (fresh, suspect, expired) every other layer forwards by.
//! * `promotion` — countdown elections, promotions and demotions (the
//!   hierarchy-formation layer).
//! * `inflight` — the origin side of every request: the one table of what
//!   this node is waiting on, how an entry is opened, matched to its reply
//!   and ended by that reply or by its deadline; and the greedy key descent
//!   the put/get, versioned and read-verify requests ride.
//! * `lookup` — the three lookup algorithms' request handling and the DHT
//!   put/get routing built on them.
//! * `multicast` — tree-scoped multicast dissemination and convergecast
//!   aggregation.
//! * `replication` — k-way DHT replica placement, pairwise-digest
//!   anti-entropy repair and key handoff (see [`crate::replication`]).
//! * `readpath` — versioned puts/gets, replica-first serving, read-repair
//!   and the per-hop hot-key cache (see [`crate::readpath`]).
//! * `pubsub` — topic subscriptions, filter reports and topic publishes
//!   (see [`crate::pubsub`]).
//!
//! This file owns only construction, the public accessors, the shared
//! plumbing (request IDs, timer tokens, send accounting) and the
//! [`Protocol`] dispatch that routes every message and timer to the layer
//! that handles it. All state lives in one struct — the layers are modules,
//! not objects — so handlers freely cooperate through `&mut self` while the
//! file layout keeps each protocol concern reviewable in isolation. The
//! state only the feature layers (DHT store, multicast, read path, pub/sub)
//! touch sits in one `Features` box that the first write allocates, so a
//! node that only maintains the overlay and answers lookups never holds it.

mod inflight;
mod lookup;
mod membership;
mod multicast;
mod promotion;
mod pubsub;
mod readpath;
mod replication;

#[cfg(test)]
mod tests;

use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
use crate::config::TreePConfig;
use crate::dht::{DhtOutcome, DhtStore};
use crate::distance::HierarchicalDistance;
use crate::election::ElectionState;
use crate::entry::PeerInfo;
use crate::id::NodeId;
use crate::lookup::{LookupOutcome, RequestId};
use crate::messages::{MessageKind, TreePMessage};
use crate::multicast::{
    AggregateOutcome, AggregateRelay, KeyRange, MulticastDelivery, PendingRetx, SeenWindow,
};
use crate::pubsub::{TopicDelivery, TopicFilter};
use crate::readpath::{HotKeyCache, ReadOutcome, VersionStamp};
use crate::routing::RouterView;
use crate::stats::NodeStats;
use crate::tables::RoutingTables;
use simnet::{Context, NodeAddr, Protocol, SimDuration, SimTime, TimerToken};
use std::collections::{BTreeMap, BTreeSet};

// ---- timer token encoding ---------------------------------------------------
//
// Seven kinds. Each layer owns the timers listed next to it; the `on_timer`
// dispatch below routes a decoded token to the owning layer. The values
// enter every pinned event digest (the engine hashes the token of each
// timer it fires), so a kind keeps its number and the gaps stay gaps.

/// Maintenance tick (`membership`).
const TIMER_KEEPALIVE: u64 = 0;
/// Election countdown (`promotion`).
const TIMER_ELECTION: u64 = 1;
/// Demotion countdown (`promotion`).
const TIMER_DEMOTION: u64 = 2;
/// Deadline of the oldest open origin-side request, of any kind; at most
/// one pending per node (`inflight`).
const TIMER_REQUEST: u64 = 3;
/// Aggregation relay hold timer (`multicast`).
const TIMER_AGG_RELAY: u64 = 6;
/// Anti-entropy round (`replication`).
const TIMER_REPLICA: u64 = 7;
/// Retransmission backoff of one pending reliable hop (`multicast`).
const TIMER_RETX: u64 = 8;

fn encode_timer(kind: u64, payload: u64) -> TimerToken {
    TimerToken(kind | (payload << 4))
}

fn decode_timer(token: TimerToken) -> (u64, u64) {
    (token.0 & 0b1111, token.0 >> 4)
}

/// A TreeP peer.
pub struct TreePNode {
    config: TreePConfig,
    dist: HierarchicalDistance,
    id: NodeId,
    addr: Option<NodeAddr>,
    characteristics: NodeCharacteristics,
    max_level: u32,
    tables: RoutingTables,
    bootstrap: Vec<PeerInfo>,
    election: ElectionState,
    next_request_id: u64,
    /// Every request this node originated and still waits on, of any kind,
    /// with its deadline, in identifier order (owned by the `inflight`
    /// layer).
    pending: Vec<(RequestId, SimTime, inflight::Pending)>,
    lookup_outcomes: Vec<LookupOutcome>,
    /// `None` until a feature layer first writes (see `Features`).
    features: Option<Box<Features>>,
    stats: NodeStats,
    last_tick: Option<SimTime>,
    /// A [`TIMER_REQUEST`] is pending (`inflight`). It sits in the
    /// struct's tail padding.
    deadline_armed: bool,
}

const _: () = assert!(std::mem::size_of::<TreePNode>() == 920);

/// Per-node state that only the feature layers read: the DHT store, the
/// dissemination engine, the read path and pub/sub. About a third of a
/// node's size, boxed and allocated by the first write that needs it
/// (`TreePNode::features`) — a node that only maintains the overlay and
/// answers lookups never allocates it. Reads of an absent box see the
/// empty state it would start from.
#[derive(Default)]
struct Features {
    dht_outcomes: Vec<DhtOutcome>,
    store: DhtStore,
    multicast_deliveries: Vec<MulticastDelivery>,
    multicast_seen: SeenWindow,
    /// Ascent dedup, same key as `multicast_seen` but a window of its own:
    /// an ancestor forwards the ascent and later legitimately receives the
    /// descent of the same multicast.
    ascent_seen: SeenWindow,
    /// Convergecast fold dedup (sender, origin, request): only populated
    /// when the reliability layer is on, where a lost ack can make a relay
    /// retransmit a partial the receiver already folded.
    aggregate_seen: SeenWindow<(NodeAddr, NodeAddr, RequestId)>,
    aggregate_outcomes: Vec<AggregateOutcome>,
    relays: BTreeMap<u64, AggregateRelay>,
    next_relay_round: u64,
    /// The bounded retransmission queue of the reliability layer: one entry
    /// per unacknowledged reliable hop, keyed by the retransmission id its
    /// backoff timer carries. Always empty when `max_retransmits == 0`.
    retx_pending: BTreeMap<u64, PendingRetx>,
    next_retx_id: u64,
    /// Read path: highest stamp this node has observed per key as a
    /// *client* — sent as `min_stamp` on its gets (monotonic reads) and
    /// bumped to produce fresh put stamps.
    observed: BTreeMap<NodeId, VersionStamp>,
    /// Read path: the per-hop hot-key cache (inert at capacity 0).
    cache: HotKeyCache,
    read_outcomes: Vec<ReadOutcome>,
    /// Pub/sub: topics this node is locally subscribed to (drives both
    /// delivery and the subtree filter; empty while the layer is off).
    local_topics: BTreeSet<NodeId>,
    topic_deliveries: Vec<TopicDelivery>,
    /// Pub/sub: the last subtree filter reported to the parent, so
    /// unchanged summaries are not re-sent event-driven (the periodic
    /// report still refreshes the parent's entry).
    last_reported_filter: Option<TopicFilter>,
}

impl TreePNode {
    /// Create a node with the given configuration, identifier and resource
    /// characteristics. The transport address is learned when the node is
    /// started (or set explicitly with [`TreePNode::with_addr`]).
    pub fn new(config: TreePConfig, id: NodeId, characteristics: NodeCharacteristics) -> Self {
        config.validate().expect("invalid TreeP configuration");
        let dist = HierarchicalDistance::new(config.space, config.height);
        TreePNode {
            config,
            dist,
            id,
            addr: None,
            characteristics,
            max_level: 0,
            tables: RoutingTables::new(),
            bootstrap: Vec::new(),
            election: ElectionState::new(),
            next_request_id: 0,
            pending: Vec::new(),
            lookup_outcomes: Vec::new(),
            features: None,
            stats: NodeStats::default(),
            last_tick: None,
            deadline_armed: false,
        }
    }

    /// Provide bootstrap contacts the node will join through at start-up.
    pub fn with_bootstrap(mut self, contacts: Vec<PeerInfo>) -> Self {
        self.bootstrap = contacts;
        self
    }

    /// Set the transport address up front (used by the UDP transport, where
    /// the address is known before the node starts).
    pub fn with_addr(mut self, addr: NodeAddr) -> Self {
        self.addr = Some(addr);
        self
    }

    // ---- accessors -----------------------------------------------------------

    /// The node's overlay identifier.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The highest level this node currently belongs to.
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// The protocol configuration.
    pub(crate) fn config(&self) -> &TreePConfig {
        &self.config
    }

    /// The routing tables (read-only).
    pub fn tables(&self) -> &RoutingTables {
        &self.tables
    }

    /// Protocol statistics.
    pub fn stats(&self) -> &NodeStats {
        &self.stats
    }

    /// The local DHT store.
    pub fn dht_store(&self) -> &DhtStore {
        static EMPTY: DhtStore = DhtStore::new();
        self.features.as_ref().map_or(&EMPTY, |f| &f.store)
    }

    /// Drain the completed lookup outcomes recorded at this origin.
    pub fn drain_lookup_outcomes(&mut self) -> Vec<LookupOutcome> {
        std::mem::take(&mut self.lookup_outcomes)
    }

    /// Drain the completed DHT outcomes recorded at this origin.
    pub fn drain_dht_outcomes(&mut self) -> Vec<DhtOutcome> {
        self.drain(|f| &mut f.dht_outcomes)
    }

    /// Drain the multicast payload deliveries recorded at this node.
    pub fn drain_multicast_deliveries(&mut self) -> Vec<MulticastDelivery> {
        self.drain(|f| &mut f.multicast_deliveries)
    }

    /// Drain the completed aggregation outcomes recorded at this origin.
    pub fn drain_aggregate_outcomes(&mut self) -> Vec<AggregateOutcome> {
        self.drain(|f| &mut f.aggregate_outcomes)
    }

    /// Drain the completed versioned read/write outcomes recorded at this
    /// origin.
    pub fn drain_read_outcomes(&mut self) -> Vec<ReadOutcome> {
        self.drain(|f| &mut f.read_outcomes)
    }

    /// Number of live lines in this node's hot-key cache.
    pub fn hot_cache_len(&self) -> usize {
        self.features.as_ref().map_or(0, |f| f.cache.len())
    }

    /// The topics this node is locally subscribed to (read-only).
    pub(crate) fn subscribed_topics(&self) -> &BTreeSet<NodeId> {
        static NONE: BTreeSet<NodeId> = BTreeSet::new();
        self.features.as_ref().map_or(&NONE, |f| &f.local_topics)
    }

    /// Drain the topic-publish deliveries recorded at this subscriber.
    pub fn drain_topic_deliveries(&mut self) -> Vec<TopicDelivery> {
        self.drain(|f| &mut f.topic_deliveries)
    }

    /// Number of reliable hops whose acknowledgement is still outstanding —
    /// the size of the reliability layer's retransmission queue. Always `0`
    /// when `max_retransmits == 0`, and drains back to `0` after quiescence
    /// (every entry is removed by an ack, a give-up or a re-route).
    pub fn pending_retransmit_count(&self) -> usize {
        self.features.as_ref().map_or(0, |f| f.retx_pending.len())
    }

    /// This node's contact information as carried in protocol messages.
    ///
    /// Panics if the node has not learned its transport address yet.
    pub fn peer_info(&self) -> PeerInfo {
        PeerInfo {
            id: self.id,
            addr: self
                .addr
                .expect("peer_info() before the node learned its address"),
            max_level: self.max_level,
            summary: CharacteristicsSummary::of(&self.characteristics, self.config.child_policy),
        }
    }

    /// Number of actively maintained connections (Section III.e accounting).
    pub fn active_connections(&self) -> usize {
        self.tables.active_connections(self.id, self.max_level)
    }

    /// The maximum number of children this node accepts under the configured
    /// policy.
    pub(crate) fn max_children(&self) -> u32 {
        self.characteristics.max_children(self.config.child_policy)
    }

    /// The exact extent of this node's subtree in the identifier space: its
    /// own coordinate joined with its children's reported extents. Carried
    /// on every `ChildReport` so the parent can prune multicast fan-outs
    /// exactly.
    pub(crate) fn subtree_span(&self) -> KeyRange {
        self.tables
            .own_subtree_extent(self.id, self.config.space, self.config.height)
    }

    // ---- seeding (used by the steady-state topology builder and tests) -------

    /// Force the node's maximum level (topology seeding).
    pub fn seed_max_level(&mut self, level: u32) {
        self.max_level = level;
    }

    /// Seed a level-0 neighbour.
    pub fn seed_level0_neighbor(&mut self, peer: PeerInfo, now: SimTime) {
        self.tables.upsert_level0(peer.into_entry(now));
    }

    /// Seed a bus neighbour at `level > 0`.
    pub fn seed_level_neighbor(&mut self, level: u32, peer: PeerInfo, now: SimTime) {
        self.tables.upsert_level(level, peer.into_entry(now));
    }

    /// Seed a child (own tessellation when `own` is true).
    pub fn seed_child(&mut self, peer: PeerInfo, own: bool, now: SimTime) {
        self.tables.upsert_child(peer.into_entry(now), own);
    }

    /// Seed the immediate parent.
    pub fn seed_parent(&mut self, peer: PeerInfo, now: SimTime) {
        self.tables.set_parent(peer.into_entry(now));
    }

    /// Seed a superior-list entry.
    pub fn seed_superior(&mut self, peer: PeerInfo, now: SimTime) {
        self.tables.upsert_superior(peer.into_entry(now));
    }

    // ---- shared plumbing -----------------------------------------------------

    /// Tell the registry what time it is, so that it knows which entries
    /// have gone quiet (`membership`, "the three ages of an entry"). Every
    /// function that reads suspicion calls this first — the router view, the
    /// key descent, the reply walk-back, replica placement, the digest
    /// round — and nothing on the maintenance path does: a keep-alive costs
    /// what it cost before.
    fn keep_time(&mut self, now: SimTime) {
        let quiet = self.suspect_after().as_micros();
        self.tables
            .set_suspect_before(SimTime::from_micros(now.as_micros().saturating_sub(quiet)));
    }

    /// The feature-layer state, allocated by its first use.
    fn features(&mut self) -> &mut Features {
        let config = &self.config;
        self.features.get_or_insert_with(|| {
            Box::new(Features {
                cache: HotKeyCache::new(config.cache_capacity, config.cache_ttl),
                ..Features::default()
            })
        })
    }

    /// Take one of the feature layers' outcome queues (empty while the box
    /// was never allocated).
    fn drain<T>(&mut self, queue: impl FnOnce(&mut Features) -> &mut Vec<T>) -> Vec<T> {
        self.features
            .as_deref_mut()
            .map(|f| std::mem::take(queue(f)))
            .unwrap_or_default()
    }

    fn fresh_request_id(&mut self) -> RequestId {
        let id = RequestId(self.next_request_id);
        self.next_request_id += 1;
        id
    }

    /// The view the next-hop selection routes by, as of `now`.
    fn router_view(&mut self, now: SimTime) -> RouterView<'_> {
        self.keep_time(now);
        RouterView {
            tables: &self.tables,
            dist: &self.dist,
            self_id: self.id,
            self_level: self.max_level,
            self_addr: self.addr.expect("node not started"),
            max_ttl: self.config.max_ttl,
        }
    }

    /// Write `(stamp, value)` to the local store by its one rule
    /// ([`DhtStore::merge`]): a copy pushed here, a put this node is
    /// responsible for and a repair are all this call. An applied write also
    /// refreshes a hot-key cache line this node holds for the key, so a get
    /// served from that line does not return what the store has just
    /// replaced. Returns true when the write was applied.
    fn apply_write(
        &mut self,
        key: NodeId,
        stamp: VersionStamp,
        value: Vec<u8>,
        now: SimTime,
    ) -> bool {
        let f = self.features();
        let applied = f.store.merge(key, stamp, value);
        if applied {
            let held = f.store.get(key).expect("just merged");
            f.cache.repair(key, stamp, held, now);
        }
        applied
    }

    fn send(&mut self, ctx: &mut Context<'_, TreePMessage>, dest: NodeAddr, msg: TreePMessage) {
        let kind = msg.kind();
        self.stats.record_sent(kind);
        ctx.send_labeled(dest, msg, kind.name());
    }
}

impl Protocol for TreePNode {
    type Message = TreePMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        self.addr = Some(ctx.self_addr());
        self.last_tick = Some(ctx.now());
        // Desynchronise the periodic tick across nodes.
        let jitter = ctx
            .rng()
            .gen_range_u64(0..self.config.keepalive_interval.as_micros().max(1));
        ctx.set_timer(
            SimDuration::from_micros(jitter),
            encode_timer(TIMER_KEEPALIVE, 0),
        );
        // Anti-entropy rounds run only when replication is on, so `k = 1`
        // deployments stay byte-identical to the unreplicated protocol
        // (no extra timers, no extra RNG draws).
        if self.config.replication_factor > 1 {
            let interval = crate::replication::REPLICA_SYNC_INTERVAL.as_micros();
            let replica_jitter = ctx.rng().gen_range_u64(0..interval);
            ctx.set_timer(
                SimDuration::from_micros(interval + replica_jitter),
                encode_timer(TIMER_REPLICA, 0),
            );
        }
        let me = self.peer_info();
        let bootstrap = std::mem::take(&mut self.bootstrap);
        for contact in bootstrap {
            if contact.addr != me.addr {
                self.tables.upsert_level0(contact.into_entry(ctx.now()));
                self.send(ctx, contact.addr, TreePMessage::JoinRequest { joiner: me });
            }
        }
    }

    fn on_message(
        &mut self,
        from: NodeAddr,
        msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        self.stats.record_received(msg.kind());
        let now = ctx.now();
        match msg {
            // ---- membership layer --------------------------------------
            TreePMessage::JoinRequest { joiner } => self.handle_join_request(joiner, ctx),
            TreePMessage::JoinAck {
                responder,
                contacts,
                parent,
            } => self.handle_join_ack(responder, contacts, parent, ctx),
            TreePMessage::KeepAlive { sender, updates } => {
                self.handle_keep_alive(sender, updates, true, ctx)
            }
            TreePMessage::KeepAliveAck { sender, updates } => {
                self.handle_keep_alive(sender, updates, false, ctx)
            }
            TreePMessage::ChildReport { child, span } => self.handle_child_report(child, span, ctx),
            TreePMessage::ChildReportAck { parent, superiors } => {
                self.handle_child_report_ack(parent, superiors, ctx, now)
            }
            // ---- promotion layer ---------------------------------------
            TreePMessage::ElectionCall { level, caller } => {
                self.handle_election_call(level, caller, ctx)
            }
            TreePMessage::ParentAnnounce { level, parent } => {
                self.handle_parent_announce(level, parent, ctx)
            }
            TreePMessage::ParentAccept { child } => self.handle_parent_accept(child, ctx, now),
            TreePMessage::Demotion { node, from_level } => {
                self.handle_demotion(node, from_level, now)
            }
            // ---- lookup / DHT layer ------------------------------------
            TreePMessage::Lookup(req) => self.handle_lookup(req, ctx),
            TreePMessage::DhtPut { .. } | TreePMessage::DhtGet { .. } => {
                self.route_dht(msg, ctx);
            }
            // ---- in-flight layer: replies that end a request here -------
            TreePMessage::LookupFound { .. }
            | TreePMessage::LookupNotFound { .. }
            | TreePMessage::DhtPutAck { .. }
            | TreePMessage::DhtGetReply { .. }
            | TreePMessage::PutVersionedAck { .. } => self.on_reply(msg, now),
            // ---- replication layer -------------------------------------
            TreePMessage::ReplicaPut { sender, key, value } => {
                self.handle_replica_put(sender, key, value, ctx)
            }
            TreePMessage::ReplicaSyncRequest {
                sender,
                range,
                keys,
            } => self.handle_replica_sync_request(sender, range, keys, ctx),
            TreePMessage::ReplicaSyncReply {
                sender,
                range,
                entries,
                want,
            } => self.handle_replica_sync_reply(sender, range, entries, want, ctx),
            TreePMessage::ReplicaDigest {
                sender,
                range,
                xor,
                count,
            } => self.handle_replica_digest(sender, range, xor, count, ctx),
            // ---- multicast / aggregation layer -------------------------
            TreePMessage::MulticastDown { .. } => self.dispatch_multicast(from, msg, ctx),
            TreePMessage::AggregateUp { .. } => self.handle_aggregate_up(from, msg, ctx),
            TreePMessage::MulticastAck { origin, request_id } => {
                self.hop_acked(MessageKind::MulticastDown, from, origin, request_id)
            }
            TreePMessage::AggregateAck { origin, request_id } => {
                self.hop_acked(MessageKind::AggregateUp, from, origin, request_id)
            }
            // ---- read-path layer ---------------------------------------
            TreePMessage::GetVersioned { .. } => self.route_get_versioned(msg, ctx),
            TreePMessage::GetVersionedReply { .. } => self.handle_get_versioned_reply(msg, ctx),
            TreePMessage::PutVersioned { .. } => self.route_put_versioned(msg, ctx),
            TreePMessage::ReadRepair {
                sender,
                key,
                stamp,
                value,
            } => self.handle_read_repair(sender, key, stamp, value, ctx),
            TreePMessage::ReadVerify { .. } => self.handle_read_verify(msg, ctx),
            // ---- pub/sub layer -----------------------------------------
            TreePMessage::FilterReport {
                child,
                topics,
                overflow,
            } => self.handle_filter_report(child, topics, overflow, ctx),
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, TreePMessage>) {
        let (kind, payload) = decode_timer(token);
        match kind {
            TIMER_KEEPALIVE => self.maintenance_tick(ctx),
            TIMER_ELECTION => self.election_timer_fired(payload, ctx),
            TIMER_DEMOTION => self.demotion_timer_fired(payload, ctx),
            TIMER_REQUEST => self.request_timer_fired(ctx),
            TIMER_AGG_RELAY => self.relay_timer_fired(payload, ctx),
            TIMER_REPLICA => self.replication_tick(ctx),
            TIMER_RETX => self.retransmit_timer_fired(payload, ctx),
            _ => {}
        }
    }

    /// Every event starts with a probe of the registry, which is cold by
    /// the time a node's turn comes round, and a delivery then walks its
    /// message's vectors: start loading both one event early.
    fn prefetch(&self, next: Option<&TreePMessage>) {
        self.tables.prefetch();
        if let Some(msg) = next {
            msg.prefetch();
        }
    }
}

#[cfg(test)]
impl TreePNode {
    /// The node's transport address, once known.
    pub(crate) fn addr(&self) -> Option<NodeAddr> {
        self.addr
    }

    /// The multicast payload deliveries recorded at this node (read-only).
    pub(crate) fn multicast_deliveries(&self) -> &[MulticastDelivery] {
        self.features
            .as_ref()
            .map_or(&[], |f| &f.multicast_deliveries)
    }
}
