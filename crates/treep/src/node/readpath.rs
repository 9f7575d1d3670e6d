//! Read-path layer: versioned puts/gets, replica-first serving, read-repair
//! and the per-hop hot-key cache.
//!
//! The data types, the serving-tier priority and the invariants (monotonic
//! reads per client, stamps never regress, defaults-off wire compatibility)
//! are documented in [`crate::readpath`]; this layer implements them on the
//! greedy DHT descent of the lookup layer:
//!
//! * [`TreePNode::dht_put_versioned`] / [`TreePNode::dht_get_versioned`]
//!   originate stamped requests; outcomes land in the queue drained by
//!   [`TreePNode::drain_read_outcomes`], resolved by an answer or the
//!   request deadline (the `inflight` layer).
//! * Every hop of a `GetVersioned` tries, in order: its hot-key cache, its
//!   replica store (`replica_reads`), then forwards toward the key; the
//!   node with no closer peer answers from its authoritative store. A
//!   replica serve sends a `ReadVerify` probe onward to the responsible
//!   node (read-repair); a cache serve does not — its staleness is
//!   bounded by `cache_ttl` and repaired in place by passing `ReadRepair`s.
//! * The reply walks the request's recorded caching path backwards, each
//!   relay version-check-filling its own cache, so the cacheless
//!   configuration (empty path) gets a direct reply and identical wire
//!   behaviour.

use super::inflight::{KeyHop, Pending};
use super::*;
use crate::id::hash_key;
use crate::readpath::{ReadSource, StampedValue, VersionStamp};

impl TreePNode {
    /// Store `value` in the DHT under an application key with a fresh
    /// last-write-wins stamp (one past the highest stamp this node has
    /// observed for the key, tiebroken by this node's identifier).
    pub fn dht_put_versioned(
        &mut self,
        key: &[u8],
        value: Vec<u8>,
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        ctx.start_trace("put_versioned");
        let coord = hash_key(self.config.space, key);
        let observed = self.features().observed.get(&coord).copied();
        let stamp = VersionStamp::next(observed, self.id);
        self.observe_stamp(coord, stamp);
        let request_id = self.begin(Pending::Read { key: coord }, ctx);
        let msg = TreePMessage::PutVersioned {
            request_id,
            origin: self.peer_info(),
            key: coord,
            stamp,
            value,
            ttl: 0,
        };
        self.route_put_versioned(msg, ctx);
        request_id
    }

    /// Retrieve the value stored under an application key through the
    /// read-path serving tiers, demanding a stamp at least as fresh as the
    /// highest this node has observed for the key (monotonic reads).
    pub fn dht_get_versioned(
        &mut self,
        key: &[u8],
        ctx: &mut Context<'_, TreePMessage>,
    ) -> RequestId {
        ctx.start_trace("get_versioned");
        let coord = hash_key(self.config.space, key);
        let request_id = self.begin(Pending::Read { key: coord }, ctx);
        let msg = TreePMessage::GetVersioned {
            request_id,
            origin: self.peer_info(),
            key: coord,
            ttl: 0,
            min_stamp: self.features().observed.get(&coord).copied(),
            path: Vec::new(),
        };
        self.route_get_versioned(msg, ctx);
        request_id
    }

    /// Merge `stamp` into the highest-observed table (monotonic-reads
    /// bookkeeping at the origin).
    pub(super) fn observe_stamp(&mut self, key: NodeId, stamp: VersionStamp) {
        let slot = self.features().observed.entry(key).or_insert(stamp);
        if stamp > *slot {
            *slot = stamp;
        }
    }

    // ---- request routing -------------------------------------------------------

    pub(super) fn route_get_versioned(
        &mut self,
        mut msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let hop = self.key_hop(&mut msg, ctx.now());
        let TreePMessage::GetVersioned {
            key,
            ttl,
            min_stamp,
            ref mut path,
            ..
        } = msg
        else {
            unreachable!("route_get_versioned only handles GetVersioned")
        };
        let now = ctx.now();
        let satisfies = |stamp: VersionStamp| min_stamp.is_none_or(|m| stamp >= m);
        let next = match hop {
            KeyHop::Drop => return, // the origin times out
            KeyHop::Forward(next) => next,
            KeyHop::Responsible => {
                // The store is authoritative here, so the cache (which
                // could lag it) is not consulted.
                let value = self.dht_store().stamped(key).cloned();
                return self.serve_read(msg, value, ReadSource::Responsible, ctx);
            }
        };
        let hit = self.features().cache.get(key, now);
        if let Some((stamp, value)) = hit.filter(|(stamp, _)| satisfies(*stamp)) {
            let value = Some(StampedValue {
                stamp,
                value: value.clone(),
            });
            self.stats.cache_hits += 1;
            ctx.trace_note("cache_hit");
            return self.serve_read(msg, value, ReadSource::Cache, ctx);
        }
        if self.config.replica_reads {
            if let Some(sv) = self.dht_store().stamped(key).cloned() {
                if satisfies(sv.stamp) {
                    self.stats.replica_served_gets += 1;
                    ctx.trace_note("replica_serve");
                    let served_stamp = sv.stamp;
                    self.serve_read(msg, Some(sv), ReadSource::Replica, ctx);
                    let verify = TreePMessage::ReadVerify {
                        server: self.peer_info(),
                        key,
                        served_stamp,
                        ttl,
                    };
                    self.pass_on(next, verify, ctx);
                    return;
                }
            }
        }
        // Miss: record this hop on the caching path (only if it can
        // actually cache) and forward toward the key.
        if self.config.cache_capacity > 0 {
            path.push(self.addr.expect("node not started"));
        }
        self.pass_on(next, msg, ctx);
    }

    pub(super) fn route_put_versioned(
        &mut self,
        mut msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let hop = self.key_hop(&mut msg, ctx.now());
        let TreePMessage::PutVersioned {
            request_id,
            origin,
            key,
            stamp,
            ref value,
            ..
        } = msg
        else {
            unreachable!("route_put_versioned only handles PutVersioned")
        };
        match hop {
            KeyHop::Drop => {} // the origin times out
            KeyHop::Forward(next) => {
                // Write-through: a forwarding hop that caches this key must
                // refresh its line now, or a get served here between the
                // pass-through and the line's expiry would return the
                // pre-write version (`repair` never grants new slots, so
                // uncached hops stay untouched).
                self.features().cache.repair(key, stamp, value, ctx.now());
                self.pass_on(next, msg, ctx);
            }
            KeyHop::Responsible => {
                // Apply last-write-wins, place the replica copies, and
                // acknowledge either way (a losing write is still durably
                // resolved).
                if self.apply_write(key, stamp, value.clone(), ctx.now()) {
                    self.push_replicas(key, ctx);
                }
                let ack = TreePMessage::PutVersionedAck {
                    request_id,
                    key,
                    stamp,
                    stored_at: self.peer_info(),
                };
                self.answer(origin.addr, ack, ctx);
            }
        }
    }

    // ---- reply path ------------------------------------------------------------

    /// Answer the `GetVersioned` `request` from this node: start the reply
    /// down the recorded caching path, or straight to the origin — which may
    /// be this very node — when no hop on the way can cache.
    fn serve_read(
        &mut self,
        request: TreePMessage,
        value: Option<StampedValue>,
        source: ReadSource,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let TreePMessage::GetVersioned {
            request_id,
            origin,
            key,
            ttl,
            mut path,
            ..
        } = request
        else {
            unreachable!("serve_read only answers GetVersioned")
        };
        let dest = self.previous_live_hop(&mut path, origin.addr, ctx.now());
        let reply = TreePMessage::GetVersionedReply {
            request_id,
            origin: origin.addr,
            key,
            value,
            source,
            hops: ttl,
            responder: self.peer_info(),
            path,
        };
        self.answer(dest, reply, ctx);
    }

    /// The next stop of a reply walking its recorded caching `path` back to
    /// `origin`: the most recent hop that is not a suspect — a relay that
    /// has gone quiet since it passed the request on is skipped, and with
    /// it only the cache fill it would have made — or the origin itself.
    fn previous_live_hop(
        &mut self,
        path: &mut Vec<NodeAddr>,
        origin: NodeAddr,
        now: SimTime,
    ) -> NodeAddr {
        self.keep_time(now);
        while let Some(hop) = path.pop() {
            if !self.tables.is_suspect_addr(hop) {
                return hop;
            }
            self.stats.replies_rerouted += 1;
        }
        origin
    }

    /// A reply on its walk back to the origin: fill this hop's cache, then
    /// consume it (origin) or relay it to the previous hop.
    pub(super) fn handle_get_versioned_reply(
        &mut self,
        mut msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let TreePMessage::GetVersionedReply {
            origin,
            key,
            value,
            path,
            ..
        } = &mut msg
        else {
            unreachable!("handle_get_versioned_reply only handles GetVersionedReply")
        };
        let origin = *origin;
        if let Some(sv) = value {
            let fill = self
                .features()
                .cache
                .fill(*key, sv.stamp, &sv.value, ctx.now());
            self.stats.cache_fills += u64::from(fill.stored);
            self.stats.cache_evictions += u64::from(fill.evicted);
        }
        if origin == self.addr.expect("node not started") {
            self.on_reply(msg, ctx.now());
        } else {
            let dest = self.previous_live_hop(path, origin, ctx.now());
            self.send(ctx, dest, msg);
        }
    }

    // ---- repair ----------------------------------------------------------------

    /// A fresh stamped copy pushed at this node: refresh any matching cache
    /// line in place, and apply it to the store last-write-wins — but only
    /// if this node already holds the key or belongs to its replica set, so
    /// repairing a far-away cache server never plants a misplaced store
    /// copy.
    pub(super) fn handle_read_repair(
        &mut self,
        sender: PeerInfo,
        key: NodeId,
        stamp: VersionStamp,
        value: Vec<u8>,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let now = ctx.now();
        self.learn_peer(sender, now);
        self.features().cache.repair(key, stamp, &value, now);
        let me_addr = self.addr.expect("node not started");
        if self.dht_store().contains(key) || self.in_replica_set(key, self.id, me_addr) {
            self.stats.replica_values_received += 1;
            self.apply_write(key, stamp, value, now);
        }
    }

    /// A replica-serve probe arriving at (or routing through) this node:
    /// forward toward the key, or — as the responsible node — compare the
    /// served stamp against the authoritative copy and repair whichever
    /// side lags.
    pub(super) fn handle_read_verify(
        &mut self,
        mut msg: TreePMessage,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        let hop = self.key_hop(&mut msg, ctx.now());
        let TreePMessage::ReadVerify {
            server,
            key,
            served_stamp,
            ..
        } = msg
        else {
            unreachable!("handle_read_verify only handles ReadVerify")
        };
        match hop {
            KeyHop::Drop => {}
            KeyHop::Forward(next) => self.pass_on(next, msg, ctx),
            KeyHop::Responsible => {
                // Equal stamps are healthy. A copy the responsible node
                // lacks reaches it through the next digest it exchanges
                // with that replica; an older one is overwritten by the
                // next stamped write or repair that reaches it.
                let held = self.dht_store().stamped(key);
                if let Some(fresh) = held.filter(|h| h.stamp > served_stamp).cloned() {
                    // The server answered stale: push the authoritative copy
                    // to it and re-place it on the replica set, so one stale
                    // observation repairs every lagging replica.
                    self.stats.read_repairs_issued += 1;
                    self.send(ctx, server.addr, self.copy_message(key, fresh));
                    self.push_replicas(key, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
impl TreePNode {
    /// The stamp of the locally stored copy of `key`, if any (values stored
    /// by the unversioned paths carry [`VersionStamp::LEGACY`]).
    pub(crate) fn stored_stamp(&self, key: NodeId) -> Option<VersionStamp> {
        self.dht_store().stamp(key)
    }
}
