//! In-flight layer: the origin side of every request, and the key descent
//! that carries most of them.
//!
//! Whatever an application asks of a node — a lookup, a put or get, a
//! versioned read or write, an aggregation — is a request with one
//! lifecycle: the origin opens it ([`TreePNode::begin`]: identifier, table
//! entry, deadline), some node answers it
//! ([`TreePNode::answer`]: over the wire, or on the spot when the answering
//! node is the origin), and it ends exactly once, as the reply
//! ([`TreePNode::on_reply`]) or at its deadline
//! ([`TreePNode::request_timer_fired`]) — whichever finds the entry first
//! removes it, and the other finds nothing. The other layers say *what* is
//! asked and what a responsible node does with it; how a request begins, is
//! matched to its reply and ends is written here once, as two adjacent
//! matches over [`Pending`].
//!
//! # One deadline timer per node
//!
//! The open requests are one vector in identifier order. Identifiers only
//! grow and every request waits the node's one `lookup_timeout`, so that
//! order is also deadline order, and the oldest open request is always the
//! next to time out. A node therefore keeps at most one
//! [`super::TIMER_REQUEST`] pending, armed for the oldest open deadline:
//! when it fires it ends every request whose deadline has passed, in
//! identifier order, and re-arms for the oldest one left. A request
//! answered in time costs no timer event of its own.
//!
//! A reply resolves an entry only when their kinds agree. Request
//! identifiers are one per-node counter shared by every kind, so a stray or
//! forged reply of another kind can carry the identifier of a live request;
//! it must find that request untouched.
//!
//! The second half is the greedy descent toward a key coordinate that DHT
//! puts and gets, their versioned counterparts and read-verify probes all
//! ride: [`TreePNode::key_hop`] decides one step of it and
//! [`TreePNode::pass_on`] takes it. The step goes to the nearest
//! closer peer that is not a suspect (see the membership layer, "the three
//! ages of an entry"), so two seconds after a crash a put or get already
//! reaches the live next-nearest peer — a replica — instead of the corpse;
//! a node that knows only suspects nearer to the key answers for it.

use super::*;
use crate::lookup::LookupStatus;
use crate::multicast::AggregateQuery;
use crate::routing::RoutingAlgorithm;

/// What an origin keeps about a request it is waiting on, one variant per
/// kind of request (four): exactly what the timeout outcome has to name.
#[derive(Debug, Clone, Copy)]
pub(super) enum Pending {
    Lookup {
        target: NodeId,
        algorithm: RoutingAlgorithm,
        started_at: SimTime,
    },
    /// An unversioned put or get.
    Dht {
        key: NodeId,
    },
    /// A versioned put or get.
    Read {
        key: NodeId,
    },
    Aggregate {
        query: AggregateQuery,
    },
}

/// One step of the greedy descent toward a key coordinate.
pub(super) enum KeyHop {
    /// The hop budget is spent; the origin times out.
    Drop,
    /// This peer is strictly closer to the key.
    Forward(NodeAddr),
    /// No known peer is closer: this node is responsible for the key.
    Responsible,
}

impl TreePNode {
    /// Number of requests this node has originated and not yet resolved,
    /// of every kind.
    pub fn pending_request_count(&self) -> usize {
        self.pending.len()
    }

    /// Open a request: identifier, table entry and deadline, the deadline
    /// timer armed before the first message leaves unless an older open
    /// request's already is.
    pub(super) fn begin(
        &mut self,
        what: Pending,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        let request_id = self.fresh_request_id();
        let timeout = self.config.lookup_timeout;
        self.pending.push((request_id, ctx.now() + timeout, what));
        if !self.deadline_armed {
            self.arm_deadline(timeout, ctx);
        }
        request_id
    }

    /// Arm the node's one deadline timer to fire `delay` from now.
    fn arm_deadline(&mut self, delay: SimDuration, ctx: &mut Context<'_, TreePMessage>) {
        self.deadline_armed = true;
        ctx.set_timer(delay, encode_timer(TIMER_REQUEST, 0));
    }

    /// Where the open request `request_id` sits in the table, if it is open.
    fn open_slot(&self, request_id: RequestId) -> Option<usize> {
        self.pending
            .binary_search_by_key(&request_id, |&(id, ..)| id)
            .ok()
    }

    /// Send `reply` on its way to the request's origin — `dest` is the
    /// origin itself or, for a versioned get, the first caching hop of the
    /// walk back to it — or hand it straight to [`TreePNode::on_reply`]
    /// when that is this node.
    pub(super) fn answer(
        &mut self,
        dest: NodeAddr,
        reply: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        if dest == self.addr.expect("node not started") {
            self.on_reply(reply, ctx.now());
        } else {
            self.send(ctx, dest, reply);
        }
    }

    /// A reply reached its origin: end the request it answers. A reply
    /// whose request is gone (answered or timed out already), or is of
    /// another kind, resolves nothing.
    pub(super) fn on_reply(&mut self, reply: TreePMessage, now: SimTime) {
        let Some(request_id) = reply.answers() else {
            return;
        };
        let Some(slot) = self.open_slot(request_id) else {
            return;
        };
        let (_, _, pending) = self.pending[slot];
        match (reply, pending) {
            (TreePMessage::LookupFound { hops, .. }, Pending::Lookup { .. }) => {
                self.record_lookup(request_id, pending, LookupStatus::Found, hops, now);
            }
            (TreePMessage::LookupNotFound { hops, .. }, Pending::Lookup { .. }) => {
                self.record_lookup(request_id, pending, LookupStatus::NotFound, hops, now);
            }
            (TreePMessage::DhtPutAck { key, stored_at, .. }, Pending::Dht { .. }) => {
                self.features().dht_outcomes.push(DhtOutcome::PutAcked {
                    request_id,
                    key,
                    stored_at,
                    completed_at: now,
                });
            }
            (
                TreePMessage::DhtGetReply {
                    key,
                    value,
                    responder,
                    ..
                },
                Pending::Dht { .. },
            ) => {
                self.features().dht_outcomes.push(DhtOutcome::GetAnswered {
                    request_id,
                    key,
                    value,
                    responder,
                    completed_at: now,
                });
            }
            (
                TreePMessage::GetVersionedReply {
                    key,
                    value,
                    source,
                    hops,
                    responder,
                    ..
                },
                Pending::Read { .. },
            ) => {
                if let Some(sv) = &value {
                    self.observe_stamp(key, sv.stamp);
                }
                self.features().read_outcomes.push(ReadOutcome::Got {
                    request_id,
                    key,
                    value,
                    source,
                    hops,
                    responder: responder.addr,
                    completed_at: now,
                });
            }
            (
                TreePMessage::PutVersionedAck {
                    key,
                    stamp,
                    stored_at,
                    ..
                },
                Pending::Read { .. },
            ) => {
                self.observe_stamp(key, stamp);
                self.features().read_outcomes.push(ReadOutcome::PutAcked {
                    request_id,
                    key,
                    stamp,
                    stored_at: stored_at.addr,
                    completed_at: now,
                });
            }
            (
                TreePMessage::AggregateUp {
                    query,
                    partial,
                    truncated,
                    ..
                },
                Pending::Aggregate { .. },
            ) => {
                self.features()
                    .aggregate_outcomes
                    .push(AggregateOutcome::Completed {
                        request_id,
                        query,
                        partial,
                        truncated,
                        completed_at: now,
                    });
            }
            _ => return,
        }
        self.pending.remove(slot);
    }

    /// The deadline timer fired: end every request whose deadline has
    /// passed as a timeout, in identifier order (the ones answered in time
    /// are gone already), and re-arm for the oldest request still open.
    pub(super) fn request_timer_fired(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let completed_at = ctx.now();
        let overdue = self
            .pending
            .partition_point(|&(_, deadline, _)| deadline <= completed_at);
        for slot in 0..overdue {
            let (request_id, _, pending) = self.pending[slot];
            match pending {
                Pending::Lookup { .. } => {
                    self.record_lookup(request_id, pending, LookupStatus::TimedOut, 0, completed_at)
                }
                Pending::Dht { key } => self.features().dht_outcomes.push(DhtOutcome::TimedOut {
                    request_id,
                    key,
                    completed_at,
                }),
                Pending::Read { key } => {
                    self.features().read_outcomes.push(ReadOutcome::TimedOut {
                        request_id,
                        key,
                        completed_at,
                    })
                }
                Pending::Aggregate { query } => {
                    self.features()
                        .aggregate_outcomes
                        .push(AggregateOutcome::TimedOut {
                            request_id,
                            query,
                            completed_at,
                        })
                }
            }
        }
        self.pending.drain(..overdue);
        self.deadline_armed = false;
        if let Some(&(_, deadline, _)) = self.pending.first() {
            self.arm_deadline(deadline - completed_at, ctx);
        }
    }

    /// End the open lookup `request_id` with `status`: the origin that
    /// resolves its own lookup without a hop.
    pub(super) fn complete_lookup(
        &mut self,
        request_id: RequestId,
        status: LookupStatus,
        hops: u32,
        now: SimTime,
    ) {
        if let Some(slot) = self.open_slot(request_id) {
            let (_, _, pending) = self.pending.remove(slot);
            self.record_lookup(request_id, pending, status, hops, now);
        }
    }

    /// The one [`LookupOutcome`] constructor, shared by the reply, the
    /// deadline and the origin that resolves its own lookup: record how the
    /// lookup `pending` ended. The caller takes it out of the table.
    fn record_lookup(
        &mut self,
        request_id: RequestId,
        pending: Pending,
        status: LookupStatus,
        hops: u32,
        now: SimTime,
    ) {
        if let Pending::Lookup {
            target,
            algorithm,
            started_at,
        } = pending
        {
            self.lookup_outcomes.push(LookupOutcome {
                request_id,
                target,
                algorithm,
                status,
                hops,
                started_at,
                completed_at: now,
            });
        }
    }

    // ---- the key descent -------------------------------------------------------

    /// Decide this node's step of `msg`'s descent toward its key. `msg`
    /// must be one of the key-routed kinds.
    ///
    /// The next hop is the nearest peer strictly closer (Euclidean) to the
    /// key than this node **that is not a suspect** — an ordered neighbour
    /// probe on the registry, not a scan. When every closer peer is a
    /// suspect this node answers as responsible, exactly as it will once
    /// they have expired.
    pub(super) fn key_hop(&mut self, msg: &mut TreePMessage, now: SimTime) -> KeyHop {
        let (key, ttl) = msg.key_route_mut().expect("a key-routed message");
        if *ttl >= self.config.max_ttl {
            return KeyHop::Drop;
        }
        self.keep_time(now);
        let self_addr = self.addr.expect("node not started");
        let own = self.dist.euclidean(self.id, key);
        let mut passed_suspect = false;
        let next = self
            .tables
            .nearest_walk(key, self_addr)
            .take_while(|p| self.dist.euclidean(p.id, key) < own)
            .find(|p| {
                let suspect = self.tables.is_suspect(p);
                passed_suspect |= suspect;
                !suspect
            })
            .map(|p| p.addr);
        match next {
            Some(next) => {
                self.stats.forwards_suspect_skipped += u64::from(passed_suspect);
                KeyHop::Forward(next)
            }
            None => {
                self.stats.responsible_by_suspicion += u64::from(passed_suspect);
                KeyHop::Responsible
            }
        }
    }

    /// Take the step [`TreePNode::key_hop`] decided: one hop further from
    /// the origin, one closer to the key.
    pub(super) fn pass_on(
        &mut self,
        next: NodeAddr,
        mut msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let (_, ttl) = msg.key_route_mut().expect("a key-routed message");
        *ttl += 1;
        self.send(ctx, next, msg);
    }
}
