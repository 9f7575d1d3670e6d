//! Lookup / DHT layer: routed lookups and the key-value extension.
//!
//! This layer owns the origination and handling of
//! [`TreePMessage::Lookup`] requests (routed by the three Section III.f
//! algorithms via [`crate::routing::route`]), their answers, and the DHT
//! put/get requests that ride the same greedy routing toward a key's
//! coordinate. How a request is opened, answered and ended at its origin,
//! and the key descent itself, are the `inflight` layer's.

use super::inflight::{KeyHop, Pending};
use super::*;
use crate::id::hash_key;
use crate::lookup::{LookupRequest, LookupStatus};
use crate::routing::{route, RouteDecision, RoutingAlgorithm};

impl TreePNode {
    /// Originate a lookup for `target` using `algorithm`. The outcome is
    /// recorded locally (see [`TreePNode::drain_lookup_outcomes`]) when an
    /// answer arrives or the timeout expires.
    pub fn start_lookup(
        &mut self,
        target: NodeId,
        algorithm: RoutingAlgorithm,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        ctx.start_trace("lookup");
        let request_id = self.begin(
            Pending::Lookup {
                target,
                algorithm,
                started_at: ctx.now(),
            },
            ctx,
        );

        let mut req = LookupRequest::new(request_id, self.peer_info(), target, algorithm);
        if target == self.id {
            self.complete_lookup(request_id, LookupStatus::Found, 0, ctx.now());
            return request_id;
        }
        let decision = route(&self.router_view(ctx.now()), &mut req);
        match decision {
            // In the table and heard of lately: resolved without a hop.
            RouteDecision::Found(_) => {
                self.complete_lookup(request_id, LookupStatus::Found, 0, ctx.now());
            }
            RouteDecision::Forward(next) => {
                self.note_suspects_passed(target, next.id);
                req.advance(self.addr.expect("node not started"));
                self.send(ctx, next.addr, TreePMessage::Lookup(req));
            }
            RouteDecision::NotFound | RouteDecision::Drop => {
                self.complete_lookup(request_id, LookupStatus::NotFound, 0, ctx.now());
            }
        }
        request_id
    }

    /// Store `value` in the DHT under an application key.
    pub fn dht_put(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        ctx.start_trace("dht_put");
        let coord = hash_key(self.config.space, key);
        let request_id = self.begin(Pending::Dht { key: coord }, ctx);
        let msg = TreePMessage::DhtPut {
            request_id,
            origin: self.peer_info(),
            key: coord,
            value,
            ttl: 0,
        };
        self.route_dht(msg, ctx);
        request_id
    }

    /// Retrieve the value stored in the DHT under an application key.
    pub fn dht_get(&mut self, key: &[u8], ctx: &mut Context<'_, TreePMessage>) -> RequestId {
        ctx.start_trace("dht_get");
        let coord = hash_key(self.config.space, key);
        let request_id = self.begin(Pending::Dht { key: coord }, ctx);
        let msg = TreePMessage::DhtGet {
            request_id,
            origin: self.peer_info(),
            key: coord,
            ttl: 0,
        };
        self.route_dht(msg, ctx);
        request_id
    }

    // ---- lookup internals ------------------------------------------------------

    pub(super) fn handle_lookup(
        &mut self,
        mut req: LookupRequest,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let me = self.peer_info();
        self.stats.lookups_forwarded += 1;

        // The target might be this very node.
        if req.target == self.id {
            let answer = TreePMessage::LookupFound {
                request_id: req.request_id,
                target: req.target,
                result: me,
                hops: req.hops(),
                algorithm: req.algorithm,
            };
            self.answer(req.origin.addr, answer, ctx);
            return;
        }

        let decision = route(&self.router_view(ctx.now()), &mut req);
        match decision {
            RouteDecision::Found(entry) => {
                let answer = TreePMessage::LookupFound {
                    request_id: req.request_id,
                    target: req.target,
                    result: PeerInfo::from_entry(&entry),
                    hops: req.hops(),
                    algorithm: req.algorithm,
                };
                self.answer(req.origin.addr, answer, ctx);
            }
            RouteDecision::Forward(next) => {
                self.note_suspects_passed(req.target, next.id);
                req.advance(me.addr);
                self.send(ctx, next.addr, TreePMessage::Lookup(req));
            }
            RouteDecision::NotFound => {
                self.stats.lookups_dead_ended += 1;
                let answer = TreePMessage::LookupNotFound {
                    request_id: req.request_id,
                    target: req.target,
                    hops: req.hops(),
                    algorithm: req.algorithm,
                };
                self.answer(req.origin.addr, answer, ctx);
            }
            RouteDecision::Drop => {} // the TTL ran out; the origin times out
        }
    }

    /// Count a lookup forward that went to `chosen` although the known peer
    /// nearest to `target` is nearer than that, and a suspect.
    fn note_suspects_passed(&mut self, target: NodeId, chosen: NodeId) {
        let reach = self.dist.euclidean(chosen, target);
        let passed = self
            .tables
            .peers_outward_from(target)
            .next()
            .is_some_and(|p| {
                self.tables.is_suspect(p) && self.dist.euclidean(p.id, target) < reach
            });
        self.stats.forwards_suspect_skipped += u64::from(passed);
    }

    // ---- DHT internals ---------------------------------------------------------

    pub(super) fn route_dht(&mut self, mut msg: TreePMessage, ctx: &mut Context<'_, TreePMessage>) {
        match self.key_hop(&mut msg, ctx.now()) {
            KeyHop::Drop => {} // the origin times out
            KeyHop::Forward(next) => self.pass_on(next, msg, ctx),
            KeyHop::Responsible => self.answer_dht_locally(msg, ctx),
        }
    }

    fn answer_dht_locally(&mut self, msg: TreePMessage, ctx: &mut Context<'_, TreePMessage>) {
        let me = self.peer_info();
        match msg {
            TreePMessage::DhtPut {
                request_id,
                origin,
                key,
                value,
                ..
            } => {
                // Responsible node: store locally and place the k-1 replica
                // copies on the key's nearest registry neighbours. Like a
                // copy arriving at a replica, the put is an unstamped write
                // and loses to a stamped value held; it is acknowledged
                // either way, as a losing `PutVersioned` is.
                if self.apply_write(key, VersionStamp::LEGACY, value, ctx.now()) {
                    self.push_replicas(key, ctx);
                }
                let ack = TreePMessage::DhtPutAck {
                    request_id,
                    key,
                    stored_at: me,
                };
                self.answer(origin.addr, ack, ctx);
            }
            TreePMessage::DhtGet {
                request_id,
                origin,
                key,
                ..
            } => {
                let reply = TreePMessage::DhtGetReply {
                    request_id,
                    key,
                    value: self.dht_store().get(key).cloned(),
                    responder: me,
                };
                self.answer(origin.addr, reply, ctx);
            }
            _ => unreachable!("answer_dht_locally only handles DHT requests"),
        }
    }
}
