//! Membership layer: joining, keep-alives, child reports and the periodic
//! maintenance tick.
//!
//! This layer owns everything that keeps the overlay's *edges* alive:
//! the join handshake ([`TreePMessage::JoinRequest`] /
//! [`TreePMessage::JoinAck`]), the periodic keep-alives with piggy-backed
//! [`RoutingUpdate`] gossip, the child → parent report cycle
//! ([`TreePMessage::ChildReport`] / [`TreePMessage::ChildReportAck`]) and
//! the [`TIMER_KEEPALIVE`] maintenance tick that expires stale registry
//! entries, prunes the gossip-learned level-0 contacts and re-arms itself.
//!
//! # One liveness proof per link, direction and round
//!
//! Every round a node is in touch with its **round partners**
//! ([`crate::tables::RoutingTables::round_partners`], one registry pass):
//! its level-0 neighbours, its direct bus neighbours at each of its levels,
//! its parent and its own children. Each hears from it exactly once:
//!
//! * the parent by the [`TreePMessage::ChildReport`] and an own child by the
//!   [`TreePMessage::ChildReportAck`] answering its report — both ends of
//!   that link are refreshed at the keep-alive cadence already, so the tick
//!   sends them no [`TreePMessage::KeepAlive`];
//! * every other partner by one keep-alive, however many roles it holds (a
//!   level-0 neighbour that is also a bus neighbour, a bus neighbour at two
//!   levels is one slot, so one ping).
//!
//! A keep-alive is answered with a [`TreePMessage::KeepAliveAck`] **only
//! when its sender is not one of our round partners**. A partner survived
//! our last prune and hears from us directly once per interval, so an ack
//! would only repeat that (four messages per link and interval where two
//! prove liveness both ways). A sender outside the set — an asymmetric edge
//! (it keeps us among its nearest, we pruned it), a first contact, a
//! one-sided bus link — is acknowledged, because the ack is the only
//! refresh that edge gets. The tick walks the set and the ack rule asks it
//! of one sender ([`crate::tables::RoutingTables::is_round_partner`]), a
//! point query of the same rule: the ack rule runs on every keep-alive
//! (~557 k in a 10 s `maint` window at n = 10⁴, seed 2005), the tick 80 k
//! times, and only the tick needs the list. The unit test
//! `tables::tests::the_point_query_answers_what_the_walk_answered` holds
//! the two equal. The test runs *before* the sender is learned:
//! learning makes every sender a level-0 neighbour until the next prune,
//! which would make the test vacuous.
//!
//! Child reports carry the reporting child's **exact subtree span**
//! ([`TreePNode::subtree_span`]); the parent records it in the registry so
//! the multicast layer can prune fan-outs by exact extents instead of
//! tessellation-radius estimates.

use super::*;
use crate::messages::RoutingUpdate;
use crate::tables::{MAX_LEVEL0_CONNECTIONS, MIN_LEVEL0_CONNECTIONS};

impl TreePNode {
    /// Register with a freshly adopted parent: the `ParentAccept` handshake
    /// plus an immediate, event-driven `ChildReport` carrying this node's
    /// exact subtree span. Without the report the parent would learn the
    /// span only at the next periodic report round — a one-round-per-level
    /// churn window in which a narrow multicast (or a replica placement
    /// probing the subtree) could miss a freshly adopted branch.
    pub(super) fn register_with_parent(
        &mut self,
        parent_addr: NodeAddr,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let me = self.peer_info();
        self.send(ctx, parent_addr, TreePMessage::ParentAccept { child: me });
        let span = self.subtree_span();
        self.send(
            ctx,
            parent_addr,
            TreePMessage::ChildReport { child: me, span },
        );
        // A freshly adopted child's subscription summary must reach the new
        // parent before the periodic tick, or publishes into this subtree
        // could be pruned on a stale (absent) filter.
        self.report_filter_to_parent(ctx);
    }

    // ---- gossip freshness -------------------------------------------------------
    //
    // Knowledge arrives through two channels: **direct contact** (the peer
    // itself sent us a message — stamped `now`) and **gossip** (a third
    // party mentioned the peer). Gossip must not extend a peer's liveness:
    // if it did, a dead peer's entry could bounce between registries
    // forever, each hop re-stamping it fresh — an immortal ghost that
    // attracts routed traffic and defeats the expiry sweep entirely. Two
    // rules break the echo chamber:
    //
    // 1. gossiped entries are stamped `gossip_penalty` in the past, so they
    //    expire unless re-gossiped (or directly heard from) soon;
    // 2. only entries heard from *directly* within `gossip_penalty` are
    //    advertised onward, so second-hand knowledge never re-enters the
    //    gossip stream — after a death, only the peer's own neighbours keep
    //    advertising it, and only for one penalty window.
    //
    // Net effect: a dead peer vanishes from every registry within roughly
    // `entry_ttl` of its death, while live peers (directly refreshed by
    // their own neighbours every keep-alive round) circulate unhindered.
    //
    // # The three ages of an entry
    //
    // | silent for | the entry is |
    // |---|---|
    // | < `gossip_penalty` (2 rounds) | heard directly and lately: advertised onward |
    // | ≤ `suspect_after` (3.5 rounds) | fresh: chosen like any other |
    // | > `suspect_after` | a **suspect**: pinged and kept in every role, but passed over by whatever hands a request, a reply or a copy to a peer |
    // | > `entry_ttl`, at the next tick | expired: forgotten |
    //
    // The first row is one comparison against the **gossip horizon**
    // `now − gossip_penalty` (`gossip_time`), the very stamp rule 1 gives a
    // gossiped entry: only a stamp strictly after the horizon is advertised.
    // An entry learned second-hand sits *on* the horizon the instant it is
    // learned — in the `KeepAliveAck` of the handler that has just applied
    // the gossip, too — and behind it ever after, so it is never advertised
    // however often it is re-learned. During a run's first `gossip_penalty`
    // the horizon saturates at time zero: gossip is stamped zero, and so is
    // every entry the topology builder seeds at start-up. Neither is
    // advertised until the peer is heard from directly, which is what keeps
    // rule 2 from lapsing in the first second — admitting a stamp *at* the
    // horizon there made every second-hand entry look first-hand, and the
    // echo doubled the superior lists of a settling 10⁴-node overlay (4.5
    // seeded, a peak of 49.6 against 24.5 without it, 12.6 settled).
    //
    // Suspicion costs no message because the two rules above already keep
    // the invariant it needs: a timestamp is either the arrival of a message
    // the peer itself sent, or `gossip_penalty` before the arrival of an
    // advertisement by somebody who had heard the peer within that penalty.
    // So in every table of the network a crashed peer's `last_seen` is at
    // most the instant its last message arrived somewhere, and "silent for
    // longer than `suspect_after`" is a sound *local* test for "has missed
    // its rounds". `suspect_after` is the age a live peer's entry can reach
    // when it is known through gossip only — the penalty, plus the round
    // until it is advertised again — and half a round of slack; any lower
    // and a bus neighbour's children or the superiors would be suspected on
    // a network where nobody died. It is derived here and configured
    // nowhere; `entry_ttl` keeps meaning *forget*.
    //
    // A false suspicion costs a detour and never a link: the suspect is
    // still pinged, and the first message from it ends the suspicion. When
    // *every* candidate is a suspect the node acts as if they had expired
    // already — a lookup takes the escape hatches or ends not found, a
    // key-routed request is answered here. Using suspects as a last resort
    // instead was measured and lost, narrowly, on seven `stack_churn` runs
    // of ten: a request sent to a peer five rounds silent is most often a
    // request lost, while the node next to it holds a replica. A key stored here
    // under a false suspicion reaches its replica set through the handoff
    // sweep of the next anti-entropy round.
    //
    // Who consults it: `routing::route` (all three algorithms, the escape
    // hatches and "the target is in my table"), the key descent
    // (`inflight::key_hop`), the walk back of a versioned-get reply
    // (`readpath`), replica placement, handoff targets and digest partners
    // (`replication`). Who does not: everything in this layer — keep-alives,
    // reports, gossip, elections and expiry treat a suspect like any entry —
    // and `multicast`, where the peer a copy goes to *is* its destination
    // (parent, child, next bus member) and not one of several ways to it:
    // passing over a live peer whose keep-alives were merely lost would
    // lose the deliveries behind it, where the retransmission budget of the
    // reliability layer loses none.

    /// The age stamped onto gossiped entries, and the freshness bar an entry
    /// must clear to be advertised onward (two keep-alive rounds).
    fn gossip_penalty(&self) -> SimDuration {
        self.config.keepalive_interval.saturating_mul(2)
    }

    /// The silence after which an entry is a suspect: the age a live peer's
    /// entry reaches when it is known through gossip only (`gossip_penalty`,
    /// plus the round until it is gossiped again), and half a round on top.
    pub(super) fn suspect_after(&self) -> SimDuration {
        let round = self.config.keepalive_interval.as_micros();
        SimDuration::from_micros(
            self.gossip_penalty()
                .as_micros()
                .saturating_add(round.saturating_mul(3) / 2),
        )
    }

    /// The gossip horizon: the timestamp given to entries learned through
    /// gossip (time zero during a run's first `gossip_penalty`).
    fn gossip_time(&self, now: SimTime) -> SimTime {
        SimTime::from_micros(
            now.as_micros()
                .saturating_sub(self.gossip_penalty().as_micros()),
        )
    }

    /// True when `entry` was heard from directly since the gossip horizon,
    /// and so may be advertised to other peers. A stamp on the horizon is
    /// second-hand knowledge and never is.
    fn advertisable(&self, entry: &crate::entry::RoutingEntry, now: SimTime) -> bool {
        entry.last_seen > self.gossip_time(now)
    }

    /// Record (or refresh) knowledge about a peer we just heard from.
    pub(super) fn learn_peer(&mut self, peer: PeerInfo, now: SimTime) {
        // If we share a level (> 0) with the sender, it is also a bus contact.
        let shared = if peer.max_level <= self.max_level {
            peer.max_level
        } else {
            0
        };
        self.tables.upsert_heard(shared, peer.into_entry(now));
    }

    fn apply_update(&mut self, update: RoutingUpdate, now: SimTime, ring: &mut RingRadius) {
        // Third-party knowledge: stamped in the past so it expires unless
        // the peer is heard from (directly, or through fresh gossip) again.
        let at = self.gossip_time(now);
        match update {
            RoutingUpdate::Contact { peer } => {
                if peer.id != self.id && ring.tightened_by(self, peer.id) {
                    self.tables.upsert_level0(peer.into_entry(at));
                }
            }
            RoutingUpdate::LevelMember { level, peer } => {
                if peer.id == self.id {
                    return;
                }
                if level <= self.max_level && level > 0 {
                    self.tables.upsert_level(level, peer.into_entry(at));
                } else {
                    self.tables.upsert_superior(peer.into_entry(at));
                }
            }
            RoutingUpdate::ParentOf { peer } => {
                if peer.id == self.id {
                    return;
                }
                self.tables.upsert_superior(peer.into_entry(at));
            }
            RoutingUpdate::ChildOf { peer } => {
                if peer.id == self.id {
                    return;
                }
                if self.max_level > 0 {
                    self.tables.upsert_child(peer.into_entry(at), false);
                } else {
                    self.tables.upsert_level0(peer.into_entry(at));
                }
            }
            RoutingUpdate::Superior { peer } => {
                if peer.id != self.id {
                    self.tables.upsert_superior(peer.into_entry(at));
                }
            }
        }
    }

    /// The updates this node piggy-backs on keep-alives: its parent, its own
    /// level membership, and (for parents) a sample of its children — but
    /// only entries heard from *directly* within the gossip-freshness
    /// window, so second-hand knowledge (and with it any dead peer) never
    /// re-enters the gossip stream.
    fn my_updates(&self, now: SimTime) -> Vec<RoutingUpdate> {
        // Sized once for the most a node advertises: parent, own level,
        // and four each of children, superiors and ring contacts.
        let mut updates = Vec::with_capacity(14);
        if let Some(p) = self.tables.parent().filter(|p| self.advertisable(p, now)) {
            updates.push(RoutingUpdate::ParentOf {
                peer: PeerInfo::from_entry(p),
            });
        }
        if self.max_level > 0 {
            if self.addr.is_some() {
                updates.push(RoutingUpdate::LevelMember {
                    level: self.max_level,
                    peer: self.peer_info(),
                });
            }
            for child in self
                .tables
                .own_children()
                .filter(|c| self.advertisable(c, now))
                .take(4)
            {
                updates.push(RoutingUpdate::ChildOf {
                    peer: PeerInfo::from_entry(child),
                });
            }
        }
        self.push_superiors_in_turn(&mut updates, 4, now, |peer| RoutingUpdate::Superior {
            peer,
        });
        // Ring repair: advertise the identifier-nearest peers we have heard
        // from directly, so the neighbours of a failed peer stitch the
        // level-0 ring back together within a few rounds instead of waiting
        // for a shared parent's child gossip. Without this, a ring gap left
        // by churn can make greedy DHT routing bottom out at a node that
        // never learns its new predecessor.
        if let Some(addr) = self.addr {
            for near in self
                .tables
                .nearest_walk(self.id, addr)
                .take(4)
                .filter(|e| self.advertisable(e, now))
            {
                updates.push(RoutingUpdate::Contact {
                    peer: PeerInfo::from_entry(near),
                });
            }
        }
        updates
    }

    /// Append up to `count` advertisable superiors to `out`, the window
    /// moving on by `count` every keep-alive round. A fixed window in
    /// identifier order would advertise the same first `count` for ever: a
    /// node's fifth superior would be refreshed at its neighbours only by
    /// accident, live on the edge of expiry there and — read as a suspect —
    /// cost lookups a detour on a network where nobody died.
    fn push_superiors_in_turn<T>(
        &self,
        out: &mut Vec<T>,
        count: usize,
        now: SimTime,
        wrap: impl Fn(PeerInfo) -> T,
    ) {
        let from = out.len();
        let fresh = self
            .tables
            .superiors()
            .filter(|s| self.advertisable(s, now));
        out.extend(fresh.map(|s| wrap(PeerInfo::from_entry(s))));
        let known = out.len() - from;
        if known > count {
            out[from..].rotate_left(self.stats.keepalive_rounds as usize * count % known);
            out.truncate(from + count);
        }
    }

    /// Superiors advertised to children in a [`TreePMessage::ChildReportAck`]:
    /// our own parent, our ancestors, and our direct bus neighbours —
    /// gated by the same directly-heard freshness bar as every other
    /// advertisement.
    fn superiors_for_children(&self, now: SimTime) -> Vec<PeerInfo> {
        let mut sup: Vec<PeerInfo> = Vec::new();
        if let Some(p) = self.tables.parent().filter(|p| self.advertisable(p, now)) {
            sup.push(PeerInfo::from_entry(p));
        }
        self.push_superiors_in_turn(&mut sup, 6, now, |peer| peer);
        if self.max_level > 0 {
            let (l, r) = self.tables.bus_neighbors(self.max_level, self.id);
            for e in [l, r].into_iter().flatten() {
                if self.advertisable(e, now) {
                    sup.push(PeerInfo::from_entry(e));
                }
            }
        }
        sup
    }

    /// True when `peer` hears from this node every round without an ack: by
    /// keep-alive or, as parent or own child, by report. It is membership
    /// in the set step 4 of [`TreePNode::maintenance_tick`] walks, asked as
    /// a point query of the same rule, because it runs on every keep-alive
    /// (see the module documentation; a unit test of `tables` holds the
    /// query equal to the walk).
    fn hears_from_us(&self, peer: NodeId) -> bool {
        self.tables.is_round_partner(self.id, self.max_level, peer)
    }

    // ---- maintenance tick ------------------------------------------------------

    pub(super) fn maintenance_tick(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let now = ctx.now();
        if let Some(last) = self.last_tick {
            self.characteristics
                .add_uptime(now.saturating_since(last).as_secs());
        }
        self.last_tick = Some(now);
        self.stats.keepalive_rounds += 1;

        // 1. Expire stale entries (one canonical registry sweep), then prune
        //    gossip-learned level-0 contacts beyond the configured budget so
        //    the keep-alive fan-out stays bounded regardless of the network
        //    size.
        let expired = self.tables.expire(now, self.config.entry_ttl);
        self.stats.entries_expired += expired.len() as u64;
        let pruned = self
            .tables
            .prune_level0(self.config.space, self.id, MAX_LEVEL0_CONNECTIONS);
        self.stats.entries_pruned += pruned as u64;

        // 2. The parent link. A parent sits strictly above its child: one
        //    recorded at or below our own level has demoted since we adopted
        //    it. It ignores our reports, yet its keep-alives refresh the one
        //    timestamp the `PARENT` role shares with the peer's other roles,
        //    so the link would never expire — and its own new parent can sit
        //    below us, closing a cycle that no root absorbs. Drop the role
        //    and keep the peer as a level-0 contact. Then trigger an
        //    election when we have degree >= 2 and no parent. Nodes already
        //    sitting at the top of the hierarchy (the root) do not need a
        //    parent and never call one.
        if let Some(demoted) = self
            .tables
            .parent()
            .filter(|p| p.max_level <= self.max_level)
            .copied()
        {
            self.tables.clear_parent();
            self.tables.upsert_level0(demoted);
        }
        if self.tables.parent().is_none()
            && self.max_level < self.config.height
            && self.tables.level0_degree() >= MIN_LEVEL0_CONNECTIONS
            && self.election.election().is_none()
        {
            self.trigger_election(ctx);
        }

        // 3. Parents with fewer than two children run the demotion countdown.
        if self.max_level > 0 {
            if self.tables.own_children_count() < 2 {
                if self.election.demotion().is_none() {
                    let (delay, round) = self.election.start_demotion(
                        &self.characteristics,
                        self.config.demotion_base,
                        now,
                    );
                    ctx.set_timer(delay, encode_timer(TIMER_DEMOTION, round));
                }
            } else {
                self.election.cancel_demotion();
            }
        }

        // 4. One keep-alive to each level-0 neighbour and each direct bus
        //    neighbour at the levels we belong to, and none to the parent or
        //    an own child, whose link step 5's report refreshes. The round's
        //    partners come off one registry pass, a peer in several roles
        //    once; `tables` (read) and `stats` (write) are disjoint field
        //    borrows, so no target buffer is allocated per tick (the only
        //    per-message allocation is the keep-alive's `updates` payload).
        let updates = self.my_updates(now);
        let me = self.peer_info();
        let stats = &mut self.stats;
        for (entry, by_report) in self.tables.round_partners(self.id, self.max_level) {
            if by_report || entry.addr == me.addr {
                continue;
            }
            let msg = TreePMessage::KeepAlive {
                sender: me,
                updates: updates.clone(),
            };
            stats.record_sent(msg.kind());
            ctx.send(entry.addr, msg);
        }

        // 5. Report to the parent ("if they do not report regularly they
        //    will simply be deleted from its routing table"), carrying the
        //    exact extent of this node's subtree for fan-out pruning.
        if let Some(parent) = self.tables.parent().map(|p| p.addr) {
            let span = self.subtree_span();
            self.send(ctx, parent, TreePMessage::ChildReport { child: me, span });
            // The subscription summary refreshes on the same cadence, so a
            // lost event-driven report heals within one tick.
            self.report_filter_to_parent(ctx);
        }

        // 6. Re-arm the tick.
        ctx.set_timer(
            self.config.keepalive_interval,
            encode_timer(TIMER_KEEPALIVE, 0),
        );
    }

    // ---- message handlers ------------------------------------------------------

    pub(super) fn handle_join_request(
        &mut self,
        joiner: PeerInfo,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let now = ctx.now();
        self.tables.upsert_level0(joiner.into_entry(now));
        let me = self.peer_info();
        // Suggest up to three existing contacts close to the joiner's ID —
        // only directly-fresh ones, so a joiner is never pointed at a ghost.
        let mut contacts: Vec<PeerInfo> = self
            .tables
            .level0()
            .filter(|e| e.id != joiner.id && self.advertisable(e, now))
            .map(PeerInfo::from_entry)
            .collect();
        contacts.sort_by_key(|p| self.dist.euclidean(p.id, joiner.id));
        contacts.truncate(3);
        // Offer ourselves as a parent when we cover the joiner and have
        // capacity; otherwise pass along our own parent as a hint.
        let parent = if self.max_level > 0
            && self.dist.covers(self.id, self.max_level, joiner.id)
            && (self.tables.own_children_count() as u32) < self.max_children()
        {
            self.tables.upsert_child(joiner.into_entry(now), true);
            Some(me)
        } else {
            self.tables
                .parent()
                .filter(|p| self.advertisable(p, now))
                .map(PeerInfo::from_entry)
        };
        self.send(
            ctx,
            joiner.addr,
            TreePMessage::JoinAck {
                responder: me,
                contacts,
                parent,
            },
        );
    }

    pub(super) fn handle_join_ack(
        &mut self,
        responder: PeerInfo,
        contacts: Vec<PeerInfo>,
        parent: Option<PeerInfo>,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let now = ctx.now();
        self.learn_peer(responder, now);
        let at = self.gossip_time(now);
        for c in contacts {
            if c.id != self.id {
                self.tables.upsert_level0(c.into_entry(at));
            }
        }
        if let Some(p) = parent {
            if self.tables.parent().is_none() && p.id != self.id {
                // Direct when the responder adopted us itself, gossip when
                // it only passed its own parent along as a hint.
                let stamp = if p.id == responder.id { now } else { at };
                self.tables.set_parent(p.into_entry(stamp));
                self.register_with_parent(p.addr, ctx);
            }
        }
    }

    pub(super) fn handle_keep_alive(
        &mut self,
        sender: PeerInfo,
        updates: Vec<RoutingUpdate>,
        reply: bool,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let now = ctx.now();
        // Decided before `learn_peer`, which makes every sender a level-0
        // neighbour and would make the test vacuous. Asked on an ack too,
        // whose answer is dropped: it is the handler's opening read, a
        // count that streams a cold registry in for the bisecting upserts
        // below (see the `tables` module documentation).
        let reply = !self.hears_from_us(sender.id) && reply;
        self.learn_peer(sender, now);
        let mut ring = RingRadius::default();
        for u in updates {
            self.apply_update(u, now, &mut ring);
        }
        // A parentless node adopts a suitable advertised parent straight
        // away (cheap healing path; the full election still exists for the
        // case where no parent is advertised at all).
        if self.tables.parent().is_none() {
            let candidate = self
                .tables
                .superiors()
                .filter(|s| s.max_level == self.max_level + 1)
                .min_by_key(|s| self.dist.euclidean(s.id, self.id))
                .copied();
            if let Some(p) = candidate {
                self.tables.set_parent(p);
                self.election.cancel_election();
                self.register_with_parent(p.addr, ctx);
            }
        }
        // One liveness proof per link, direction and round: a sender that
        // hears from us every round anyway, by keep-alive or by report, gets
        // no ack; only the others — whose sole refresh this is — do.
        if reply {
            let me = self.peer_info();
            let my_updates = self.my_updates(now);
            self.send(
                ctx,
                sender.addr,
                TreePMessage::KeepAliveAck {
                    sender: me,
                    updates: my_updates,
                },
            );
        }
    }

    pub(super) fn handle_child_report(
        &mut self,
        child: PeerInfo,
        span: KeyRange,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let now = ctx.now();
        if self.max_level == 0 {
            // We are not a parent (any more); ignore — the child's parent
            // entry will expire and it will look for a new one.
            self.tables.upsert_level0(child.into_entry(now));
            return;
        }
        let already_mine = self.tables.is_own_child(child.id);
        let capacity_left = (self.tables.own_children_count() as u32) < self.max_children();
        if already_mine || capacity_left {
            self.tables.upsert_child(child.into_entry(now), true);
            // Exact subtree-span bookkeeping: remember how far this child's
            // branch extends so multicast fan-outs prune exactly.
            self.tables.record_child_span(child.id, span);
        } else {
            self.tables.upsert_child(child.into_entry(now), false);
        }
        if self.tables.own_children_count() >= 2 {
            self.election.cancel_demotion();
        }
        let me = self.peer_info();
        let superiors = self.superiors_for_children(now);
        self.send(
            ctx,
            child.addr,
            TreePMessage::ChildReportAck {
                parent: me,
                superiors,
            },
        );
    }

    pub(super) fn handle_child_report_ack(
        &mut self,
        parent: PeerInfo,
        superiors: Vec<PeerInfo>,
        _ctx: &mut Context<'_, TreePMessage>,
        now: SimTime,
    ) {
        self.tables.set_parent(parent.into_entry(now));
        self.election.cancel_election();
        let at = self.gossip_time(now);
        for s in superiors {
            if s.id != self.id {
                self.tables.upsert_superior(s.into_entry(at));
            }
        }
    }
}

/// The radius of a node's ring neighbourhood, as a keep-alive's `Contact`
/// updates are filed against it: the distance to the fourth
/// identifier-nearest peer known. It is read at the first `Contact` and
/// again only after the slot count has changed: the update loop only ever
/// inserts slots, so an unchanged count is an unchanged registry walk.
#[derive(Default)]
struct RingRadius {
    /// The slot count the radius was read at; `None` before the first read.
    read_at: Option<usize>,
    /// `None` when there is no fourth peer (or the node has no address
    /// yet): then every candidate tightens the ring.
    fourth: Option<u64>,
}

impl RingRadius {
    /// True when adopting `candidate` as a level-0 contact would tighten
    /// `node`'s ring neighbourhood: it is closer than (or completes) the
    /// four identifier-nearest peers already known. Keeps gossiped contacts
    /// at ring scale — a gap left by a failed neighbour is re-stitched, but
    /// the level-0 table does not accumulate every contact the gossip
    /// stream ever mentions (the Section III.e connection bound).
    fn tightened_by(&mut self, node: &TreePNode, candidate: NodeId) -> bool {
        let space = node.config.space;
        let slots = node.tables.len();
        if self.read_at != Some(slots) {
            self.read_at = Some(slots);
            // The walk is nearest-first, so the fourth peer is the farthest
            // of the four.
            self.fourth = node
                .addr
                .and_then(|addr| node.tables.nearest_walk(node.id, addr).nth(3))
                .map(|fourth| space.distance(fourth.id, node.id));
        }
        self.fourth
            .is_none_or(|radius| space.distance(candidate, node.id) < radius)
    }
}
