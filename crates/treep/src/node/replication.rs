//! Replication layer: k-way replica placement, digest-probed anti-entropy
//! repair and key handoff.
//!
//! The placement rule, the digest hierarchy and the repair state machine
//! are documented in [`crate::replication`]; this layer implements them:
//!
//! * [`TreePNode::push_replicas`] places `k - 1` copies the moment a
//!   `DhtPut` lands at the responsible node.
//! * The [`super::TIMER_REPLICA`] round alternates between the cheap
//!   subtree [`AggregateQuery::DhtKeyDigest`] probe over the node's primary
//!   range (clean state) and pairwise
//!   [`TreePMessage::ReplicaSyncRequest`] range reconciliation (dirty
//!   state), and every round hands off keys with at least `2k` known
//!   strictly-closer peers — pushing the value to the key's whole replica
//!   set *before* dropping it, so a responsibility transfer never reduces
//!   the number of live copies.
//! * A digest probe is an in-flight request kind of its own
//!   (`Pending::DigestProbe`, entered before the aggregation is
//!   dispatched), so its answer ends in
//!   [`TreePNode::digest_probe_ended`] and never reaches the embedder's
//!   aggregate-outcome queue: a mismatching, truncated or timed-out probe
//!   marks the node dirty.
//!
//! The digest probe is a `DhtKeyDigest` convergecast, so with
//! `max_retransmits > 0` it automatically rides the multicast reliability
//! layer (per-hop acks, retransmission, re-route — see the multicast
//! layer's module documentation): on lossy links the probe's dissemination
//! and fold no longer die to a single dropped datagram, which means far
//! fewer spurious truncated outcomes — and a truncated outcome marks the
//! node dirty, so reliability directly cuts needless pairwise-sync rounds.
//!
//! The whole layer is inert when `replication_factor <= 1`: no timer is
//! armed, no message is ever sent, and the node behaves exactly like the
//! paper's single-copy DHT.

use super::inflight::Pending;
use super::*;
use crate::multicast::AggregateQuery;
use crate::replication::ReplicaEntry;

impl TreePNode {
    fn replication_enabled(&self) -> bool {
        self.config.replication_factor > 1
    }

    /// The interval of the key space this node can be responsible for
    /// replicating: keys for which it is among the `k` nearest peers all lie
    /// between its `k`-th registry neighbour below and above (unbounded
    /// sides extend to the edge of the identifier space).
    pub fn replica_range(&self) -> KeyRange {
        let k = self.config.replication_factor as usize;
        let (below, above) = self.tables.kth_neighbor_ids(self.id, k);
        KeyRange::new(
            below.unwrap_or(NodeId::MIN),
            above.unwrap_or(self.config.space.max_id()),
        )
    }

    /// The interval of keys this node is *primary* (closest known peer)
    /// for: from just past the midpoint to its nearest registry neighbour
    /// below, to the midpoint to its nearest neighbour above. Midpoint ties
    /// prefer the smaller identifier, matching the ordered-probe tie-break
    /// everywhere else in the routing.
    fn primary_range(&self) -> KeyRange {
        let space = self.config.space;
        let (below, above) = self.tables.kth_neighbor_ids(self.id, 1);
        let lo = below
            .map(|p| NodeId(space.midpoint(p, self.id).0 + 1))
            .unwrap_or(NodeId::MIN);
        let hi = above
            .map(|s| space.midpoint(self.id, s))
            .unwrap_or(space.max_id());
        KeyRange::new(lo, hi)
    }

    /// Number of known peers strictly closer (Euclidean) to `key` than the
    /// peer with identifier `subject_id` at `subject_addr`, counted up to
    /// `cap`. When judging a remote subject, this node itself counts too —
    /// it knows its own position even though it is absent from its registry.
    fn replica_rank(
        &self,
        key: NodeId,
        subject_id: NodeId,
        subject_addr: NodeAddr,
        cap: usize,
    ) -> usize {
        let space = self.config.space;
        let subject_dist = space.distance(subject_id, key);
        let mut rank = self
            .tables
            .nearest_peers(space, key, cap, subject_addr)
            .iter()
            .filter(|e| space.distance(e.id, key) < subject_dist)
            .count();
        if subject_id != self.id && space.distance(self.id, key) < subject_dist {
            rank += 1;
        }
        rank.min(cap)
    }

    /// True when, as far as this node knows, the peer `(subject_id,
    /// subject_addr)` belongs to `key`'s replica set (fewer than `k` known
    /// peers are strictly closer). Imperfect knowledge errs toward `true`:
    /// an extra copy is always safe, a missing one never is.
    pub(super) fn in_replica_set(
        &self,
        key: NodeId,
        subject_id: NodeId,
        subject_addr: NodeAddr,
    ) -> bool {
        let k = self.config.replication_factor as usize;
        self.replica_rank(key, subject_id, subject_addr, k) < k
    }

    /// Push one copy of `(key, value)` to each of the `k - 1` nearest known
    /// peers of the key coordinate. Called by the responsible node when a
    /// `DhtPut` lands; fire-and-forget, the anti-entropy rounds repair any
    /// lost copy.
    pub(super) fn push_replicas(
        &mut self,
        key: NodeId,
        value: &[u8],
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        if !self.replication_enabled() {
            return;
        }
        let me = self.peer_info();
        let targets: Vec<NodeAddr> = self
            .tables
            .nearest_peers(
                self.config.space,
                key,
                self.config.replication_factor as usize - 1,
                me.addr,
            )
            .into_iter()
            .map(|e| e.addr)
            .collect();
        for addr in targets {
            self.send(
                ctx,
                addr,
                TreePMessage::ReplicaPut {
                    sender: me,
                    key,
                    value: value.to_vec(),
                },
            );
        }
        // Storing a fresh put marks the node dirty: the placement pushes
        // are fire-and-forget, so the next round verifies them with a
        // pairwise sync instead of waiting for a probe to notice a loss.
        self.replica_dirty = true;
    }

    // ---- message handlers ------------------------------------------------------

    pub(super) fn handle_replica_put(
        &mut self,
        sender: PeerInfo,
        key: NodeId,
        value: Vec<u8>,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        self.learn_peer(sender, ctx.now());
        self.stats.replica_values_received += 1;
        // An unstamped copy never replaces a versioned one: the stamped
        // value is the read path's last-write-wins winner, and this push
        // carries no stamp to beat it with (see `crate::readpath`).
        if self
            .stored_stamp(key)
            .is_some_and(|s| s > crate::readpath::VersionStamp::LEGACY)
        {
            return;
        }
        // Otherwise stored unconditionally: the sender chose this node as a
        // replica target, and a misplaced copy is corrected by the handoff
        // sweep, while a rejected copy could be the key's last. A *new*
        // value means repair is in flight — go dirty so the next round
        // spreads it with a pairwise sync.
        if self.store.get(key) != Some(&value) {
            self.replica_dirty = true;
        }
        self.store.put(key, value);
        self.stats.dht_values_stored = self.store.len() as u64;
    }

    pub(super) fn handle_replica_sync_request(
        &mut self,
        sender: PeerInfo,
        range: KeyRange,
        keys: Vec<NodeId>,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        self.learn_peer(sender, ctx.now());
        let me = self.peer_info();
        let offered: std::collections::BTreeSet<NodeId> = keys.iter().copied().collect();
        // Values the requester lacks — but only those it is actually a
        // replica of, so copies do not creep beyond the placement rule.
        // Stamped values travel separately as `ReadRepair` so the version
        // survives the transfer; only unstamped (legacy) values ride in
        // the reply's entry list, keeping the pre-versioning wire bytes.
        let mut entries: Vec<ReplicaEntry> = Vec::new();
        let mut stamped: Vec<(NodeId, crate::readpath::VersionStamp, Vec<u8>)> = Vec::new();
        for (k, v) in self
            .store
            .entries_in_range(range)
            .filter(|(k, _)| !offered.contains(k))
            .filter(|(k, _)| self.in_replica_set(**k, sender.id, sender.addr))
        {
            match self.versions.get(k).copied().filter(|s| s.version > 0) {
                Some(stamp) => stamped.push((*k, stamp, v.clone())),
                None => entries.push(ReplicaEntry {
                    key: *k,
                    value: v.clone(),
                }),
            }
        }
        for (key, stamp, value) in stamped {
            self.send(
                ctx,
                sender.addr,
                TreePMessage::ReadRepair {
                    sender: me,
                    key,
                    stamp,
                    value,
                },
            );
        }
        // Keys the requester offered that this node lacks and should hold.
        let want: Vec<NodeId> = keys
            .into_iter()
            .filter(|k| !self.store.contains(*k))
            .filter(|k| self.in_replica_set(*k, self.id, me.addr))
            .collect();
        if !entries.is_empty() || !want.is_empty() {
            self.send(
                ctx,
                sender.addr,
                TreePMessage::ReplicaSyncReply {
                    sender: me,
                    range,
                    entries,
                    want,
                },
            );
        }
    }

    pub(super) fn handle_replica_sync_reply(
        &mut self,
        sender: PeerInfo,
        _range: KeyRange,
        entries: Vec<ReplicaEntry>,
        want: Vec<NodeId>,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        self.learn_peer(sender, ctx.now());
        for entry in entries {
            self.stats.replica_values_received += 1;
            // Same guard as `handle_replica_put`: unstamped sync entries
            // never replace a versioned value.
            if self
                .stored_stamp(entry.key)
                .is_some_and(|s| s > crate::readpath::VersionStamp::LEGACY)
            {
                continue;
            }
            if self.store.get(entry.key) != Some(&entry.value) {
                self.replica_dirty = true;
            }
            self.store.put(entry.key, entry.value);
        }
        self.stats.dht_values_stored = self.store.len() as u64;
        let me = self.peer_info();
        for key in want {
            if let Some(value) = self.store.get(key).cloned() {
                // A stamped copy travels as `ReadRepair` so the stamp
                // survives the transfer; unstamped values keep the legacy
                // wire message.
                let msg = match self.stored_stamp(key).filter(|s| s.version > 0) {
                    Some(stamp) => TreePMessage::ReadRepair {
                        sender: me,
                        key,
                        stamp,
                        value,
                    },
                    None => TreePMessage::ReplicaPut {
                        sender: me,
                        key,
                        value,
                    },
                };
                self.send(ctx, sender.addr, msg);
            }
        }
    }

    // ---- the anti-entropy round -------------------------------------------------

    pub(super) fn replication_tick(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        if !self.replication_enabled() {
            return;
        }
        self.stats.replica_sync_rounds += 1;
        self.handoff_misplaced_keys(ctx);
        // A probe still unanswered after a whole interval is as good as a
        // mismatch: fall back to pairwise sync rather than stalling. Its
        // late answer still ends at the replication layer.
        let probe_in_flight = self
            .pending
            .values()
            .any(|p| matches!(p, Pending::DigestProbe { .. }));
        if self.replica_dirty || probe_in_flight {
            self.run_pairwise_sync(ctx);
            // Optimistically clean: the next round's digest probe verifies.
            self.replica_dirty = false;
        } else {
            self.start_digest_probe(ctx);
        }
        ctx.set_timer(
            self.config.replica_sync_interval,
            encode_timer(TIMER_REPLICA, 0),
        );
    }

    /// Steady-state divergence detection: fold one `DhtKeyDigest`
    /// convergecast over this node's **primary range** — the subinterval of
    /// keys it is the closest peer of, where its own store is authoritative
    /// (it must hold *every* key there, each replicated `k` times
    /// network-wide). A healthy fold therefore answers exactly
    /// `k · |own keys in range|` with the own XOR repeated `k` times
    /// (`own_xor` for odd `k`, `0` for even — XOR self-cancels pairwise).
    /// Every key in the space lies in exactly one node's primary range, so
    /// the probes tile the whole key space with no false mismatch from
    /// overlap: a wider range (e.g. the full replica range) would fold in
    /// keys the prober legitimately does not hold and never match.
    fn start_digest_probe(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let range = self.primary_range();
        let k = u64::from(self.config.replication_factor);
        let (own_xor, own_count) = self.store.digest_range(range);
        let xor = if k % 2 == 1 { own_xor } else { 0 };
        let count = k * own_count;
        self.stats.replica_digest_probes += 1;
        // The entry exists before the dispatch: a prober with no parent and
        // an empty fan-out folds its own probe inside this call.
        let probe = Pending::DigestProbe { xor, count };
        self.start_aggregate_as(probe, range, AggregateQuery::DhtKeyDigest, ctx);
    }

    /// A digest probe ended. Anything but a complete, exactly-matching
    /// fold — a mismatch, a truncated convergecast, a timeout — marks the
    /// node dirty.
    pub(super) fn digest_probe_ended(&mut self, healthy: bool) {
        if !healthy {
            self.stats.replica_digest_mismatches += 1;
            self.replica_dirty = true;
        }
    }

    /// Reconcile the replica range with the replica partners: the `2k`
    /// nearest registry neighbours of this node's own coordinate, which
    /// together cover the replica set of every key this node can be
    /// responsible for.
    fn run_pairwise_sync(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let me = self.peer_info();
        let range = self.replica_range();
        let keys = self.store.keys_in_range(range);
        let partner_count = 2 * self.config.replication_factor as usize;
        let partners: Vec<NodeAddr> = self
            .tables
            .nearest_peers(self.config.space, self.id, partner_count, me.addr)
            .into_iter()
            .map(|e| e.addr)
            .collect();
        for addr in partners {
            self.stats.replica_syncs_sent += 1;
            self.send(
                ctx,
                addr,
                TreePMessage::ReplicaSyncRequest {
                    sender: me,
                    range,
                    keys: keys.clone(),
                },
            );
        }
    }

    /// Hand off stored keys this node has clearly left the replica set of —
    /// at least `2k` known peers strictly closer: push the value to the
    /// key's whole replica set first, then drop the local copy, so the
    /// transfer itself can only *increase* the number of live copies. The
    /// `2k` slack (not `k`) is deliberate: right after a failure batch the
    /// registry can still hold up-to-`entry_ttl`-stale entries for dead
    /// closer peers, and a `k` threshold could push a key's **last** copy
    /// to k corpses and delete it. Over-retention is always safe,
    /// under-retention never is; unknown closer peers only ever delay a
    /// handoff.
    fn handoff_misplaced_keys(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let me = self.peer_info();
        let k = self.config.replication_factor as usize;
        let space = self.config.space;
        let victims: Vec<(NodeId, Vec<u8>)> = self
            .store
            .iter()
            .filter(|(key, _)| self.replica_rank(**key, self.id, me.addr, 2 * k) >= 2 * k)
            .map(|(key, value)| (*key, value.clone()))
            .collect();
        for (key, value) in victims {
            let targets: Vec<NodeAddr> = self
                .tables
                .nearest_peers(space, key, k, me.addr)
                .into_iter()
                .map(|e| e.addr)
                .collect();
            if targets.is_empty() {
                continue; // nowhere to hand off to: keep the copy
            }
            self.stats.replica_handoffs += 1;
            // Hand stamped keys off as `ReadRepair` so the responsibility
            // transfer preserves the last-write-wins stamp.
            let stamp = self.stored_stamp(key).filter(|s| s.version > 0);
            for addr in targets {
                let msg = match stamp {
                    Some(stamp) => TreePMessage::ReadRepair {
                        sender: me,
                        key,
                        stamp,
                        value: value.clone(),
                    },
                    None => TreePMessage::ReplicaPut {
                        sender: me,
                        key,
                        value: value.clone(),
                    },
                };
                self.send(ctx, addr, msg);
            }
            self.store.remove(key);
            self.versions.remove(&key);
        }
        self.stats.dht_values_stored = self.store.len() as u64;
    }
}
