//! Replication layer: k-way replica placement, pairwise-digest anti-entropy
//! repair and key handoff.
//!
//! The placement rule, the digest exchange and the repair round are
//! documented in [`crate::replication`]; this layer implements them:
//!
//! * [`TreePNode::push_replicas`] places `k - 1` copies the moment a write
//!   lands at the responsible node; [`TreePNode::copy_message`] decides
//!   which wire message carries a copy, for placement and for every other
//!   transfer of a stored value between two nodes.
//! * Every [`super::TIMER_REPLICA`] round hands off keys with at least `2k`
//!   known strictly-closer peers — the local copy leaves only together with
//!   a push to the key's whole replica set, so a responsibility transfer
//!   never reduces the number of live copies — and then sends one
//!   [`TreePMessage::ReplicaDigest`] to each of the node's `k - 1` nearest
//!   registry successors, over the interval of keys the two must both hold
//!   ([`crate::tables::RoutingTables::replica_pair_range`]).
//! * A digest that matches the receiver's own store is not answered. One
//!   that differs is answered with a [`TreePMessage::ReplicaSyncRequest`]
//!   over the same interval, and the request → reply → copy exchange
//!   converges the two stores.
//!
//! Every message of the layer travels one hop between two replicas and
//! none is awaited: there is no in-flight entry, no timer besides the
//! round's own, and nothing rides the tree. A lost digest, request or copy
//! is made good by the next round, which compares again.
//!
//! The whole layer is inert when `replication_factor <= 1`: no timer is
//! armed, no message is ever sent, and the node behaves exactly like the
//! paper's single-copy DHT.

use super::*;
use crate::readpath::StampedValue;
use crate::replication::{ReplicaEntry, REPLICA_SYNC_INTERVAL};

impl TreePNode {
    fn replication_enabled(&self) -> bool {
        self.config.replication_factor > 1
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

    /// Where copies of `key` go: the `count` known peers nearest its
    /// coordinate, suspects passed over — a copy sent to a peer that has
    /// gone quiet is most likely a copy lost, and the live peer behind it
    /// is the one that takes its place in the replica set when it expires.
    pub(super) fn copy_targets(
        &mut self,
        key: NodeId,
        count: usize,
        now: SimTime,
    ) -> Vec<NodeAddr> {
        self.keep_time(now);
        let me = self.addr.expect("node not started");
        let live = self.tables.nearest_live_walk(key, me);
        live.take(count).map(|e| e.addr).collect()
    }

    /// The message that carries a copy of `key` to another holder. A
    /// stamped value travels as `ReadRepair`, which keeps the stamp that
    /// orders it; an unversioned one keeps the pre-versioning `ReplicaPut`,
    /// so a deployment that never calls the versioned API stays
    /// byte-identical on the wire.
    pub(super) fn copy_message(&self, key: NodeId, copy: StampedValue) -> TreePMessage {
        let StampedValue { stamp, value } = copy;
        let sender = self.peer_info();
        if stamp.is_stamped() {
            TreePMessage::ReadRepair {
                sender,
                key,
                stamp,
                value,
            }
        } else {
            TreePMessage::ReplicaPut { sender, key, value }
        }
    }

    /// Push one copy of what this node holds under `key` to each of the
    /// `k - 1` nearest known peers of the key coordinate. Called by the
    /// responsible node when a write has landed or a read-verify finds a
    /// replica behind; fire-and-forget, the anti-entropy rounds repair any
    /// lost copy.
    pub(super) fn push_replicas(&mut self, key: NodeId, ctx: &mut Context<'_, TreePMessage>) {
        if !self.replication_enabled() {
            return;
        }
        let Some(held) = self.dht_store().stamped(key).cloned() else {
            return;
        };
        let targets =
            self.copy_targets(key, self.config.replication_factor as usize - 1, ctx.now());
        for addr in targets {
            self.send(ctx, addr, self.copy_message(key, held.clone()));
        }
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
        // Not checked against the placement rule: the sender chose this
        // node as a replica target, and a misplaced copy is corrected by
        // the handoff sweep, while a rejected copy could be the key's last.
        self.apply_write(key, VersionStamp::LEGACY, value, ctx.now());
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
        // Stamped values travel one copy message each, so the version
        // survives the transfer; only unstamped (legacy) values ride in
        // the reply's entry list, keeping the pre-versioning wire bytes.
        let (stamped, unstamped): (Vec<_>, Vec<_>) = self
            .dht_store()
            .entries_in_range(range)
            .filter(|(k, _)| !offered.contains(k))
            .filter(|(k, _)| self.in_replica_set(**k, sender.id, sender.addr))
            .map(|(k, held)| (*k, held.clone()))
            .partition(|(_, held)| held.stamp.is_stamped());
        for (key, held) in stamped {
            self.send(ctx, sender.addr, self.copy_message(key, held));
        }
        let entries: Vec<ReplicaEntry> = unstamped
            .into_iter()
            .map(|(key, held)| ReplicaEntry {
                key,
                value: held.value,
            })
            .collect();
        // Keys the requester offered that this node lacks and should hold.
        let want: Vec<NodeId> = keys
            .into_iter()
            .filter(|k| !self.dht_store().contains(*k))
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
            self.apply_write(entry.key, VersionStamp::LEGACY, entry.value, ctx.now());
        }
        for key in want {
            if let Some(held) = self.dht_store().stamped(key).cloned() {
                self.send(ctx, sender.addr, self.copy_message(key, held));
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
        self.send_replica_digests(ctx);
        ctx.set_timer(REPLICA_SYNC_INTERVAL, encode_timer(TIMER_REPLICA, 0));
    }

    /// Steady-state divergence detection: tell each of the `k - 1` nearest
    /// registry successors what this node's store digests to over the keys
    /// the two must both hold. Every unordered replica pair is thus compared
    /// once per round, from its lower member; the primary of a key is paired
    /// with all `k - 1` other members of the key's replica window, so a
    /// missing copy anywhere in the window shows in at least one pair.
    fn send_replica_digests(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        self.keep_time(ctx.now());
        let me = self.peer_info();
        let k = self.config.replication_factor as usize;
        for j in 1..k {
            let Some((partner, range)) =
                self.tables
                    .replica_pair_range(self.config.space, self.id, k, j)
            else {
                continue; // no j-th successor, or no key the two share
            };
            if self.tables.is_suspect(partner) {
                continue; // gone quiet: nothing to compare with this round
            }
            let partner = partner.addr;
            let (xor, count) = self.dht_store().digest_range(range);
            self.send(
                ctx,
                partner,
                TreePMessage::ReplicaDigest {
                    sender: me,
                    range,
                    xor,
                    count,
                },
            );
        }
    }

    /// A replica partner's digest over the keys we share: silence when this
    /// store digests the same, otherwise open the pairwise reconciliation of
    /// exactly that interval.
    pub(super) fn handle_replica_digest(
        &mut self,
        sender: PeerInfo,
        range: KeyRange,
        xor: u64,
        count: u64,
        ctx: &mut Context<'_, TreePMessage>,
    ) {
        self.learn_peer(sender, ctx.now());
        if self.dht_store().digest_range(range) == (xor, count) {
            return;
        }
        self.stats.replica_digest_mismatches += 1;
        let request = TreePMessage::ReplicaSyncRequest {
            sender: self.peer_info(),
            range,
            keys: self.dht_store().keys_in_range(range),
        };
        self.send(ctx, sender.addr, request);
    }

    /// Hand off stored keys this node has clearly left the replica set of —
    /// at least `2k` known peers strictly closer: the local copy is dropped
    /// only in the same step that pushes it, stamp and all, to the key's
    /// whole replica set, so the transfer itself can only *increase* the
    /// number of live copies. The
    /// `2k` slack (not `k`) is deliberate: right after a failure batch the
    /// registry can still hold up-to-`entry_ttl`-stale entries for dead
    /// closer peers, and a `k` threshold could push a key's **last** copy
    /// to k corpses and delete it. Over-retention is always safe,
    /// under-retention never is; unknown closer peers only ever delay a
    /// handoff.
    fn handoff_misplaced_keys(&mut self, ctx: &mut Context<'_, TreePMessage>) {
        let me = self.addr.expect("node not started");
        let k = self.config.replication_factor as usize;
        let victims: Vec<NodeId> = self
            .dht_store()
            .iter()
            .map(|(key, _)| *key)
            .filter(|key| self.replica_rank(*key, self.id, me, 2 * k) >= 2 * k)
            .collect();
        for key in victims {
            let targets = self.copy_targets(key, k, ctx.now());
            if targets.is_empty() {
                continue; // nowhere to hand off to: keep the copy
            }
            self.stats.replica_handoffs += 1;
            let held = self
                .features()
                .store
                .remove(key)
                .expect("victims are stored keys");
            for addr in targets {
                self.send(ctx, addr, self.copy_message(key, held.clone()));
            }
        }
    }
}
