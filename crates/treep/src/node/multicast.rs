//! Multicast / aggregation layer: tree-scoped dissemination and
//! convergecast folding, with an optional per-hop reliability layer.
//!
//! A payload addressed to a contiguous identifier range climbs the
//! initiator's ancestor chain ([`MulticastPhase::Up`]), walks the top-level
//! bus in both directions, and descends the own-children links of every
//! visited node — structural delegation (one parent per node, directional
//! bus walk) delivers to each covered node at most once. Fan-outs are
//! pruned by each child's **exact reported subtree span** when one is known
//! (see the membership layer's child reports), falling back to the generous
//! tessellation-radius estimate. Aggregation queries ride the same descent
//! and convergecast back up with per-hop combining
//! ([`TreePMessage::AggregateUp`]); this layer owns the
//! [`super::TIMER_AGG_RELAY`] per-relay hold timer that folds up truncated
//! branches, while the origin's wait for the final fold is a request of the
//! `inflight` layer like any other.
//!
//! A dissemination is its message: every origin builds one
//! [`TreePMessage::MulticastDown`] (`originate`), and the engine hands that
//! message on from hop to hop, changing only what a hop changes. A node's
//! part in the descent is the `phase` the message arrives in — an `Up` that
//! ends here (no parent, no budget left, or a parent declared dead) makes
//! the node the descent root, which walks its top bus both ways and answers
//! an aggregation's origin directly; `BusLeft` / `BusRight` a node the walk
//! reached, which continues it one way at `bus_level`; `Down` a node
//! reached through its parent, which fans out to its own children only.
//!
//! # Reliability layer (`max_retransmits > 0`)
//!
//! With the default `max_retransmits = 0` every hop is one unacknowledged
//! datagram: at 10 % per-hop loss roughly a quarter of multicasts die on
//! the ascent alone. Setting `max_retransmits = r` arms a hop-by-hop
//! ack/retransmit state machine around the exact same dissemination:
//!
//! * **Acks.** Every received [`TreePMessage::MulticastDown`] /
//!   [`TreePMessage::AggregateUp`] is acknowledged to the forwarding peer
//!   *on receipt, before duplicate suppression* — a retransmitted copy is
//!   re-acked, so a lost ack can delay but never wedge the sender.
//! * **Retransmission queue.** Each reliable send registers a
//!   [`PendingRetx`] in a per-node queue and arms a [`super::TIMER_RETX`]
//!   backoff timer ([`RETRANSMIT_TIMEOUT`], doubled after every attempt —
//!   exponential backoff). An entry is identified by its destination, the
//!   kind of the message it holds and the `(origin, request)` that message
//!   carries ([`TreePMessage::hop_acked_as`]) — nothing is stored beside the
//!   message to say so. An arriving ack names exactly those three and
//!   removes the entry (`hop_acked`); a firing timer retransmits until `r`
//!   attempts are spent. The queue provably drains:
//!   every entry is removed by exactly one of ack, re-route or
//!   abandonment, and an orphaned timer finds no entry and does nothing.
//! * **Re-route rule.** A hop that exhausts its budget is declared dead
//!   (for this dissemination only — the peer is *not* evicted, since at
//!   high loss a live peer can lose every ack by chance, and severing a
//!   live link would damage every later dissemination; a genuinely dead
//!   peer expires via `entry_ttl` as usual), and
//!   * a dead **parent** mid-ascent makes the sender a *degraded descent
//!     root* — it starts the bus walk / fan-out itself, so the subtree
//!     below it still gets the payload (folds from a degraded root are
//!     marked truncated, since the range above it may be uncovered);
//!   * a dead **descent or bus hop** is retried once through the
//!     registry's next-nearest peer of the dead peer's coordinate
//!     ([`RoutingTables::closest_peer`], which prefers a sibling whose
//!     recorded subtree span covers the orphaned interval); a re-routed
//!     hop that dies too is abandoned;
//!   * a dead **convergecast upstream** is abandoned — its delegator's
//!     relay hold timer already accounts the branch as truncated.
//! * **Exactly-once.** Retransmission introduces duplicate *transport*
//!   deliveries, never duplicate *application* deliveries: descent copies
//!   are deduplicated by the per-node seen-window (as churn races always
//!   were), and convergecast folds by an equivalent `(sender, origin,
//!   request)` window, so a partial is folded into a relay at most once.
//!   Ascent copies have a seen-window of their own — an ancestor forwards
//!   the ascent and later legitimately receives the descent, so the two
//!   cannot share one — which is what keeps a retransmitted copy from
//!   climbing a second time (and, in a parent cycle, from circling for the
//!   whole hop budget while every lost ack adds another).
//!
//! With `max_retransmits = 0` none of this state exists: no acks are sent,
//! no timers armed, no entries queued — the wire traffic is byte-identical
//! to the unacknowledged protocol.

use super::inflight::Pending;
use super::*;
use crate::multicast::{
    AggregatePartial, AggregateQuery, MulticastPayload, MulticastPhase, PendingRetx, ReplyTo,
    AGGREGATE_RELAY_TIMEOUT, MULTICAST_HOP_BUDGET, RETRANSMIT_TIMEOUT,
};

impl TreePNode {
    /// Multicast `payload` to every live node whose identifier falls in
    /// `range`. The message climbs to this node's root, walks the top-level
    /// bus, and descends the spanning forest; structural delegation (one
    /// parent per node, directional bus walk) delivers the payload to each
    /// covered node **at most once** with zero duplicate messages. Covered
    /// nodes record the payload in their
    /// [`TreePNode::drain_multicast_deliveries`] queue.
    pub fn start_multicast(
        &mut self,
        range: KeyRange,
        payload: Vec<u8>,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        ctx.start_trace("multicast");
        let request_id = self.fresh_request_id();
        self.stats.multicasts_initiated += 1;
        self.originate(request_id, range, MulticastPayload::Data(payload), ctx)
    }

    /// Fold `query` over every live node in `range` with one scoped
    /// multicast + convergecast instead of `n` point lookups. The combined
    /// answer (or a timeout) is recorded at this origin — see
    /// [`TreePNode::drain_aggregate_outcomes`].
    pub fn start_aggregate(
        &mut self,
        range: KeyRange,
        query: AggregateQuery,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        ctx.start_trace("aggregate");
        let request_id = self.begin(Pending::Aggregate { query }, ctx);
        self.originate(request_id, range, MulticastPayload::Aggregate(query), ctx)
    }

    // ---- dissemination engine ---------------------------------------------------

    /// Start a dissemination here: the message every origin (multicast,
    /// aggregation, publish) hands to the engine, at the foot of its ascent.
    pub(super) fn originate(
        &mut self,
        request_id: RequestId,
        range: KeyRange,
        payload: MulticastPayload,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        let origin = self.peer_info();
        let msg = TreePMessage::MulticastDown {
            origin,
            request_id,
            range,
            payload,
            budget: MULTICAST_HOP_BUDGET,
            hops: 0,
            phase: MulticastPhase::Up,
            bus_level: 0,
        };
        self.dispatch_multicast(origin.addr, msg, ctx);
        request_id
    }

    /// Central multicast state machine, shared by the origin (`from` is the
    /// node's own address) and by the message dispatch. `msg` is a
    /// [`TreePMessage::MulticastDown`].
    pub(super) fn dispatch_multicast(
        &mut self,
        from: NodeAddr,
        mut msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let TreePMessage::MulticastDown {
            origin,
            request_id,
            budget,
            hops,
            phase,
            bus_level,
            ..
        } = &mut msg
        else {
            unreachable!("dispatch_multicast only handles MulticastDown")
        };
        let (origin, request_id) = (origin.addr, *request_id);
        // Reliability: acknowledge every network-received copy on receipt —
        // *before* any duplicate suppression — so the sender's pending
        // transmission drains even when its previous copy (or our previous
        // ack) was lost. `from == self` marks a locally initiated dispatch.
        if self.reliability_enabled() && from != self.addr.expect("node not started") {
            let ack = TreePMessage::MulticastAck { origin, request_id };
            self.send(ctx, from, ack);
        }
        if *phase != MulticastPhase::Up {
            return self.descend(from, msg, false, ctx);
        }
        // Ascent duplicate guard. A second climbing copy is a
        // retransmission whose predecessor arrived (it was re-acked above)
        // or the same copy back around a parent cycle, where no root exists
        // to absorb it: forwarded again, every lost ack would add a copy per
        // hop for the whole hop budget.
        if !self.features().ascent_seen.insert((origin, request_id)) {
            self.stats.multicast_duplicates_suppressed += 1;
            return;
        }
        // An exhausted budget ends the ascent early: the node acts as a
        // descent root so the message still delivers locally instead of
        // silently vanishing.
        let parent = self.tables.parent().map(|p| (p.addr, p.id));
        match parent.filter(|_| *budget > 0) {
            Some((parent_addr, parent_id)) => {
                *budget -= 1;
                *hops += 1;
                *bus_level = 0;
                self.send_reliable(parent_addr, Some(parent_id), msg, false, ctx);
            }
            // No parent: this node is the root of its tree, and the ascent
            // ends here.
            None => self.descend(from, msg, false, ctx),
        }
    }

    /// Deliver locally, fan out to the selected children, continue the bus
    /// walk, and (for aggregations) set up the convergecast relay.
    ///
    /// `msg` is the [`TreePMessage::MulticastDown`] as it arrived; its `phase`
    /// is this node's part in the descent (an `Up` that ends here: the
    /// descent root — see the module documentation).
    ///
    /// `degraded` marks a descent started by the reliability layer after the
    /// ascent died (the parent was declared dead): the fold of such a
    /// descent covers only this node's reach, so aggregations start out
    /// truncated.
    fn descend(
        &mut self,
        from: NodeAddr,
        msg: TreePMessage,
        degraded: bool,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let TreePMessage::MulticastDown {
            origin,
            request_id,
            range,
            payload,
            budget,
            hops,
            phase,
            bus_level,
        } = msg
        else {
            unreachable!("descend only handles MulticastDown")
        };
        let me_addr = self.addr.expect("node not started");
        // Duplicate guard. Delegation is structural, so a second descending
        // visit for the same multicast can only be a churn race (a child
        // transiently in two parents' tables) or a reliability-layer
        // retransmission whose predecessor did arrive. Suppress it entirely:
        // no delivery, no forwarding (a duplicate delegator's relay recovers
        // through its hold timer; a retransmitting sender was already
        // re-acked before this guard ran).
        if !self
            .features()
            .multicast_seen
            .insert((origin.addr, request_id))
        {
            self.stats.multicast_duplicates_suppressed += 1;
            return;
        }
        // Collect the outgoing edges first (bus continuation + children), so
        // the aggregate relay knows how many partials to expect.
        let mut edges: Vec<(NodeAddr, NodeId, MulticastPhase)> = Vec::new();

        // 1. Bus walk. The descent root starts the walk in both directions
        //    at its own top level; a bus-visited node continues in the
        //    direction it was reached from; subtree nodes never walk. The
        //    walk is not range-pruned: the top bus is short and walking it
        //    fully is what guarantees every tree of the forest is reached.
        let (walk_level, walking): (u32, &[MulticastPhase]) = match phase {
            MulticastPhase::Up => (
                self.max_level,
                &[MulticastPhase::BusLeft, MulticastPhase::BusRight],
            ),
            MulticastPhase::BusLeft => (bus_level, &[MulticastPhase::BusLeft]),
            MulticastPhase::BusRight => (bus_level, &[MulticastPhase::BusRight]),
            MulticastPhase::Down => (bus_level, &[]),
        };
        if walk_level > 0 {
            let (left, right) = self.tables.bus_neighbors(walk_level, self.id);
            for &dir in walking {
                let next = match dir {
                    MulticastPhase::BusLeft => left,
                    _ => right,
                };
                if let Some(next) = next.filter(|e| e.addr != me_addr && e.addr != from) {
                    edges.push((next.addr, next.id, dir));
                }
            }
        }

        // 2. Children fan-out: own children whose subtree (exact reported
        //    span, or the generous estimate) can intersect the range.
        //    Children at or above the walk level are on the bus and are
        //    reached by the walk itself — fanning them out too would be the
        //    one way to create a duplicate, so they are excluded.
        // Note: `from` is deliberately NOT excluded here. When the descent
        // root is reached by its own child's ascent, that child is exactly
        // the branch the origin lives in — skipping it would sever it. A
        // child can never be the delegating parent or a bus neighbour, so
        // including it cannot bounce a message back where it came from.
        //
        // Aggregations over stored DHT keys (the key digest and the range
        // query) widen the filter by one level-1 tessellation radius: a key
        // inside the range is stored at the node *closest* to it, which can
        // sit just outside the range. Visiting such a node is one extra
        // message and never a duplicate; its own contribution is still
        // clipped to `range` by the store
        // ([`crate::dht::DhtStore::digest_range`], `keys_in_range`).
        let level0_slack = match &payload {
            MulticastPayload::Aggregate(
                AggregateQuery::DhtKeyDigest | AggregateQuery::KeysInRange,
            ) => self.config.space.coverage_radius(self.config.height, 1),
            _ => 0,
        };
        let mut fanout: Vec<(NodeAddr, NodeId)> = self
            .tables
            .multicast_fanout(self.config.space, self.config.height, range, level0_slack)
            .into_iter()
            .filter(|c| c.max_level < walk_level || walk_level == 0)
            .map(|c| (c.addr, c.id))
            .filter(|(a, _)| *a != me_addr)
            .collect();
        // Subscription-aware pruning: a topic publish skips a branch whose
        // recorded filter provably excludes the topic. No filter on record,
        // or an overflowed one, forwards conservatively — pruning is an
        // optimisation, never a correctness dependency. Bus edges are never
        // pruned (filters summarise own subtrees only).
        if let MulticastPayload::Topic { topic, .. } = &payload {
            let before = fanout.len();
            let tables = &self.tables;
            fanout.retain(|(_, id)| {
                tables
                    .child_filter(*id)
                    .is_none_or(|f| f.may_contain(*topic))
            });
            self.stats.pubsub_branches_pruned += (before - fanout.len()) as u64;
        }
        for (addr, id) in fanout {
            edges.push((addr, id, MulticastPhase::Down));
        }

        // The hop budget limits *forwarding*, never receipt: an arriving
        // message always delivers locally. An exhausted budget prunes the
        // outgoing edges (for aggregates the empty edge set completes the
        // branch immediately with the local contribution — a fold that
        // skipped every subtree below this node, so it goes up truncated).
        let cut_short = budget == 0 && !edges.is_empty();
        if cut_short {
            self.stats.multicast_budget_dropped += 1;
            edges.clear();
        }

        // 3. Local delivery / contribution.
        let in_range = range.contains(self.id);
        match &payload {
            MulticastPayload::Data(data) => {
                if in_range {
                    self.stats.multicast_deliveries += 1;
                    self.features()
                        .multicast_deliveries
                        .push(MulticastDelivery {
                            origin,
                            request_id,
                            range,
                            payload: data.clone(),
                            hops,
                            at: ctx.now(),
                        });
                }
            }
            MulticastPayload::Topic { topic, data } => {
                if in_range && self.subscribed_topics().contains(topic) {
                    self.stats.pubsub_deliveries += 1;
                    self.features().topic_deliveries.push(TopicDelivery {
                        origin,
                        request_id,
                        topic: *topic,
                        payload: data.clone(),
                        hops,
                        at: ctx.now(),
                    });
                }
            }
            MulticastPayload::Aggregate(query) => {
                let relay = AggregateRelay {
                    origin,
                    request_id,
                    query: *query,
                    reply_to: match phase {
                        // The descent root reports the final fold straight to
                        // the origin (`from` is an ascent hop, not a delegator).
                        MulticastPhase::Up if origin.addr == me_addr => ReplyTo::SelfOrigin,
                        MulticastPhase::Up => ReplyTo::Origin(origin.addr),
                        _ => ReplyTo::Upstream(from),
                    },
                    acc: self.aggregate_contribution(*query, range),
                    expected: edges.len(),
                    truncated: degraded || cut_short,
                };
                if edges.is_empty() {
                    self.finish_aggregate_branch(relay, ctx);
                } else {
                    let f = self.features();
                    let round = f.next_relay_round;
                    f.next_relay_round += 1;
                    f.relays.insert(round, relay);
                    ctx.set_timer(
                        AGGREGATE_RELAY_TIMEOUT,
                        encode_timer(TIMER_AGG_RELAY, round),
                    );
                }
            }
        }

        // 4. Forward along the collected edges.
        for (dest, dest_id, phase) in edges {
            let msg = TreePMessage::MulticastDown {
                origin,
                request_id,
                range,
                payload: payload.clone(),
                budget: budget - 1,
                hops: hops + 1,
                phase,
                bus_level: walk_level,
            };
            self.send_reliable(dest, Some(dest_id), msg, false, ctx);
        }
    }

    // ---- convergecast ----------------------------------------------------------

    /// This node's own contribution to an aggregation over `range`.
    fn aggregate_contribution(&self, query: AggregateQuery, range: KeyRange) -> AggregatePartial {
        let in_range = range.contains(self.id);
        match query {
            AggregateQuery::CountNodes => AggregatePartial::Count(u64::from(in_range)),
            AggregateQuery::MaxCapability => AggregatePartial::MaxCapability(if in_range {
                CharacteristicsSummary::of(&self.characteristics, self.config.child_policy)
                    .score_milli
            } else {
                0
            }),
            AggregateQuery::DhtKeyDigest => {
                // Keys in range can be stored at a node just outside it (the
                // responsible node is the *closest* to the key), so the
                // store is consulted regardless of the node's own position.
                let (xor, count) = self.dht_store().digest_range(range);
                AggregatePartial::Digest { xor, count }
            }
            AggregateQuery::KeysInRange => {
                // Same store-regardless-of-position rule as the digest; the
                // ordered store iteration keeps the list sorted, as the
                // merge fold requires.
                let mut keys = self.dht_store().keys_in_range(range);
                keys.truncate(crate::pubsub::MAX_RANGE_KEYS);
                AggregatePartial::Keys(keys)
            }
        }
    }

    /// Report a completed (or truncated) convergecast branch.
    fn finish_aggregate_branch(
        &mut self,
        relay: AggregateRelay,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let AggregateRelay {
            origin,
            request_id,
            query,
            reply_to,
            acc,
            truncated,
            ..
        } = relay;
        // A key list that filled up may have dropped keys in the merge:
        // surface it exactly like a lossy convergecast, so the origin never
        // mistakes a capped range query for an exhaustive one.
        let truncated = truncated || acc.keys_at_capacity();
        let msg = TreePMessage::AggregateUp {
            origin,
            request_id,
            query,
            partial: acc,
            truncated,
            final_answer: !matches!(reply_to, ReplyTo::Upstream(_)),
        };
        let (dest, dest_id) = match reply_to {
            ReplyTo::SelfOrigin => return self.on_reply(msg, ctx.now()),
            ReplyTo::Origin(addr) => (addr, Some(origin.id)),
            // The delegator's overlay id is not tracked through the relay;
            // a dead upstream is abandoned (its own hold timer marks the
            // branch truncated), so no id is needed.
            ReplyTo::Upstream(addr) => (addr, None),
        };
        self.send_reliable(dest, dest_id, msg, false, ctx);
    }

    pub(super) fn handle_aggregate_up(
        &mut self,
        from: NodeAddr,
        msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let TreePMessage::AggregateUp {
            origin,
            request_id,
            ref partial,
            truncated,
            final_answer,
            ..
        } = msg
        else {
            unreachable!("handle_aggregate_up only handles AggregateUp")
        };
        // Reliability: ack the fold on receipt, then suppress retransmitted
        // copies — a partial folded twice would corrupt the relay's
        // accumulator and expected-count, breaking the exactly-once fold.
        if self.reliability_enabled() {
            self.send(
                ctx,
                from,
                TreePMessage::AggregateAck {
                    origin: origin.addr,
                    request_id,
                },
            );
            let fold = (from, origin.addr, request_id);
            if !self.features().aggregate_seen.insert(fold) {
                return;
            }
        }
        // The descent root's final fold resolves the pending request at the
        // origin; it must never be confused with a branch partial (the
        // origin can simultaneously be a relay of its own aggregation).
        if final_answer {
            if origin.addr == self.addr.expect("node not started") {
                self.on_reply(msg, ctx.now());
            }
            return;
        }
        // A relay waiting on this branch folds the partial in. A branch
        // partial with no matching relay is one that arrived after the
        // relay's hold timer already folded up without it: nothing to do.
        let relays = &mut self.features().relays;
        let Some((&round, relay)) = relays
            .iter_mut()
            .find(|(_, r)| r.origin.addr == origin.addr && r.request_id == request_id)
        else {
            return;
        };
        relay.acc.combine(partial);
        relay.truncated |= truncated;
        relay.expected = relay.expected.saturating_sub(1);
        let finished = (relay.expected == 0).then(|| relays.remove(&round).expect("found above"));
        if let Some(relay) = finished {
            self.finish_aggregate_branch(relay, ctx);
        }
    }

    // ---- timers ----------------------------------------------------------------

    pub(super) fn relay_timer_fired(&mut self, payload: u64, ctx: &mut Context<'_, TreePMessage>) {
        // A delegated branch never reported: fold up whatever arrived so the
        // rest of the convergecast can complete, marked truncated so the
        // origin knows the answer is a lower bound.
        if let Some(mut relay) = self.features().relays.remove(&payload) {
            relay.truncated |= relay.expected > 0;
            self.finish_aggregate_branch(relay, ctx);
        }
    }

    // ---- reliability layer -----------------------------------------------------

    fn reliability_enabled(&self) -> bool {
        self.config.max_retransmits > 0
    }

    /// Send `msg` to `dest`; when the reliability layer is on, additionally
    /// register the transmission in the retransmission queue and arm its
    /// backoff timer. With `max_retransmits = 0` this is a plain send — no
    /// state, no timer, no clone.
    fn send_reliable(
        &mut self,
        dest: NodeAddr,
        dest_id: Option<NodeId>,
        msg: TreePMessage,
        rerouted: bool,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        if !self.reliability_enabled() {
            self.send(ctx, dest, msg);
            return;
        }
        self.send(ctx, dest, msg.clone());
        let entry = PendingRetx {
            dest,
            dest_id,
            msg,
            attempts_left: self.config.max_retransmits,
            backoff: RETRANSMIT_TIMEOUT,
            rerouted,
            trace: ctx.trace_ctx(),
        };
        let f = self.features();
        let retx_id = f.next_retx_id;
        f.next_retx_id += 1;
        f.retx_pending.insert(retx_id, entry);
        ctx.set_timer(RETRANSMIT_TIMEOUT, encode_timer(TIMER_RETX, retx_id));
    }

    /// `from` acknowledged the `acked_kind` message of `(origin,
    /// request_id)` this node sent it: drop that pending transmission, if
    /// it is still queued (late acks after a give-up find nothing —
    /// harmless).
    pub(super) fn hop_acked(
        &mut self,
        acked_kind: MessageKind,
        from: NodeAddr,
        origin: NodeAddr,
        request_id: RequestId,
    ) {
        let acked = Some((origin, request_id));
        let pending = &mut self.features().retx_pending;
        let key = pending
            .iter()
            .find(|(_, p)| {
                p.dest == from && p.msg.kind() == acked_kind && p.msg.hop_acked_as() == acked
            })
            .map(|(id, _)| *id);
        if let Some(id) = key {
            pending.remove(&id);
        }
    }

    /// Backoff timer of one pending transmission: retransmit while attempts
    /// remain, declare the hop dead once they are spent. A timer whose
    /// entry was already acked (or abandoned) finds nothing and does
    /// nothing — timers are never re-armed for a removed entry, so the
    /// queue always drains.
    pub(super) fn retransmit_timer_fired(
        &mut self,
        retx_id: u64,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let pending = &mut self.features().retx_pending;
        let Some(entry) = pending.get_mut(&retx_id) else {
            return; // acked in the meantime
        };
        if entry.attempts_left == 0 {
            let entry = pending.remove(&retx_id).expect("entry checked above");
            ctx.set_trace(entry.trace);
            self.hop_declared_dead(entry, ctx);
            return;
        }
        entry.attempts_left -= 1;
        let backoff = SimDuration::from_micros(entry.backoff.as_micros().saturating_mul(2).max(1));
        entry.backoff = backoff;
        let dest = entry.dest;
        let msg = entry.msg.clone();
        ctx.set_trace(entry.trace);
        if msg.kind() != MessageKind::AggregateUp {
            self.stats.multicast_retransmits += 1;
        }
        ctx.trace_note("retransmit");
        self.send(ctx, dest, msg);
        ctx.set_timer(backoff, encode_timer(TIMER_RETX, retx_id));
    }

    /// A hop exhausted its retransmission budget: apply the re-route rule
    /// (see the module documentation). The unresponsive peer is *not*
    /// evicted from the tables — at high loss a live peer whose acks were
    /// all unlucky would be declared dead every so often, and severing a
    /// live parent/child link damages every later dissemination. A falsely
    /// declared peer costs one redundant (duplicate-suppressed) re-route;
    /// a genuinely dead one stops refreshing and expires via `entry_ttl`
    /// like everywhere else in the protocol.
    fn hop_declared_dead(&mut self, entry: PendingRetx, ctx: &mut Context<'_, TreePMessage>) {
        let PendingRetx {
            dest,
            dest_id,
            msg,
            rerouted,
            ..
        } = entry;
        let me = self.addr.expect("node not started");
        match msg {
            TreePMessage::MulticastDown {
                phase: MulticastPhase::Up,
                ..
            } => {
                // Dead parent mid-ascent: the ascent ends here, and this
                // node becomes a degraded descent root so the reachable part
                // of the range is still served.
                self.stats.multicast_reroutes += 1;
                self.descend(me, msg, true, ctx);
            }
            TreePMessage::MulticastDown { .. } => {
                // Dead descent / bus hop: retry once through the registry's
                // next-nearest peer of the dead peer's coordinate — with the
                // dead peer's address excluded, `closest_peer` lands on the
                // sibling whose recorded span sits closest to the orphaned
                // interval.
                let alt = (!rerouted)
                    .then_some(dest_id)
                    .flatten()
                    .and_then(|coord| self.tables.closest_peer(self.config.space, coord, dest))
                    .filter(|e| e.addr != me)
                    .map(|e| (e.addr, e.id));
                if let Some((alt_addr, alt_id)) = alt {
                    self.stats.multicast_reroutes += 1;
                    self.send_reliable(alt_addr, Some(alt_id), msg, true, ctx);
                }
            }
            // A convergecast report with a dead upstream: the delegator's
            // relay hold timer already folds the branch up as truncated;
            // there is nothing useful to re-route to.
            _ => {}
        }
    }
}
