//! Per-node protocol statistics.

use crate::messages::MessageKind;
use serde::{Deserialize, Serialize};

/// Per-[`MessageKind`] counters: a dense `u32` array indexed by the kind's
/// static discriminant.
///
/// This replaces the historical `BTreeMap<String, u64>` keying — recording
/// a message is now one array add instead of a `String` allocation plus a
/// tree probe on the hot path. [`KindCounters::iter`] yields
/// `(kind, count)` pairs for reports, which name a kind by
/// [`MessageKind::name`].
///
/// Every node holds two of these, so the width is memory on every node: a
/// `u32` per kind keeps them at 256 bytes instead of 512. One node would
/// need to send 4.3 × 10⁹ messages of one kind to reach the top, and a
/// count there saturates rather than wraps; every reading widens to `u64`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCounters([u32; MessageKind::COUNT]);

impl Default for KindCounters {
    fn default() -> Self {
        KindCounters([0; MessageKind::COUNT])
    }
}

impl KindCounters {
    /// Count of messages of `kind`.
    #[inline]
    pub fn get(&self, kind: MessageKind) -> u64 {
        u64::from(self.0[kind.index()])
    }

    /// Record one message of `kind` (saturating at `u32::MAX`).
    #[inline]
    pub(crate) fn record(&mut self, kind: MessageKind) {
        let count = &mut self.0[kind.index()];
        *count = count.saturating_add(1);
    }

    /// Sum over all kinds.
    pub fn total(&self) -> u64 {
        self.0.iter().map(|n| u64::from(*n)).sum()
    }

    /// `(kind, count)` for every kind with a nonzero count, in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (MessageKind, u64)> + '_ {
        MessageKind::ALL
            .iter()
            .map(|k| (*k, self.get(*k)))
            .filter(|(_, n)| *n > 0)
    }
}

/// Counters maintained by every TreeP node. Experiments aggregate these to
/// measure maintenance overhead, promotion/demotion churn and lookup load.
/// The scalar counters stay `u64`: readers sum them into `u64` totals.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeStats {
    /// Messages received, counted per kind.
    pub received: KindCounters,
    /// Messages sent, counted per kind.
    pub sent: KindCounters,
    /// Lookup requests this node forwarded on behalf of others.
    pub lookups_forwarded: u64,
    /// Lookup requests that dead-ended here (not-found replies sent).
    pub lookups_dead_ended: u64,
    /// Elections this node participated in.
    pub elections_joined: u64,
    /// Elections this node won (promotions).
    pub promotions: u64,
    /// Demotions back to level 0.
    pub demotions: u64,
    /// Keep-alive rounds executed.
    pub keepalive_rounds: u64,
    /// Routing-table entries expired by the timestamp sweep.
    pub entries_expired: u64,
    /// Level-0 entries dropped by the per-tick pruning that bounds the
    /// keep-alive fan-out.
    pub entries_pruned: u64,
    /// Hand-overs (a lookup forward, a step of the key descent) that passed
    /// over a suspect — a peer silent past the suspicion age — placed
    /// better than the peer they went to.
    pub forwards_suspect_skipped: u64,
    /// Key-routed requests this node answered as responsible although it
    /// knew closer peers, every one of them a suspect.
    pub responsible_by_suspicion: u64,
    /// Versioned-get replies that skipped a suspect hop of their recorded
    /// path on the walk back to the origin.
    pub replies_rerouted: u64,
    /// Scoped multicasts this node originated.
    pub multicasts_initiated: u64,
    /// Multicast payloads delivered to this node (exactly-once by
    /// construction; a value above the number of distinct multicasts seen
    /// indicates a duplicate).
    pub multicast_deliveries: u64,
    /// Multicast messages discarded because their hop budget ran out.
    pub multicast_budget_dropped: u64,
    /// Duplicate descending multicast visits suppressed by the per-node
    /// seen-window (non-zero only under churn races).
    pub multicast_duplicates_suppressed: u64,
    /// Reliable dissemination hops (`MulticastDown`) this node
    /// retransmitted after a missing acknowledgement (non-zero only with
    /// `max_retransmits > 0`). Convergecast (`AggregateUp`) retransmissions
    /// are not counted, so overhead ratios against `multicast_down` send
    /// counts stay well-defined.
    pub multicast_retransmits: u64,
    /// Dissemination hops re-routed through another covering peer after the
    /// original destination exhausted its retransmission budget.
    pub multicast_reroutes: u64,
    /// Anti-entropy rounds this node executed.
    pub replica_sync_rounds: u64,
    /// Replicated values received (`ReplicaPut` and sync-reply entries).
    pub replica_values_received: u64,
    /// `ReplicaDigest`s received whose range digested differently here;
    /// each is answered by one `ReplicaSyncRequest`.
    pub replica_digest_mismatches: u64,
    /// Keys handed off (pushed to the replica set, then dropped locally)
    /// because this node left the key's replica set.
    pub replica_handoffs: u64,
    /// Versioned gets this node answered from its hot-key cache.
    pub cache_hits: u64,
    /// Hot-key cache lines filled (inserted or refreshed) on the reply
    /// path of versioned gets.
    pub cache_fills: u64,
    /// Hot-key cache lines evicted to make room for a fill.
    pub cache_evictions: u64,
    /// Versioned gets this node answered from its replica store while not
    /// being the responsible node.
    pub replica_served_gets: u64,
    /// Read-repairs this node issued as the responsible node after a
    /// `ReadVerify` probe revealed a stale serve.
    pub read_repairs_issued: u64,
    /// Topic publishes delivered to this node (it held a local
    /// subscription; exactly-once per publish by construction).
    pub pubsub_deliveries: u64,
    /// Fan-out branches skipped because the child's recorded subscription
    /// filter provably excluded the published topic.
    pub pubsub_branches_pruned: u64,
}

// Every node carries one: growing it shows in every node's resident size.
const _: () = assert!(std::mem::size_of::<NodeStats>() <= 480);

impl NodeStats {
    /// Record a received message of the given kind.
    #[inline]
    pub(crate) fn record_received(&mut self, kind: MessageKind) {
        self.received.record(kind);
    }

    /// Record a sent message of the given kind.
    #[inline]
    pub(crate) fn record_sent(&mut self, kind: MessageKind) {
        self.sent.record(kind);
    }

    /// Total messages received.
    pub fn total_received(&self) -> u64 {
        self.received.total()
    }

    /// Total messages sent.
    pub fn total_sent(&self) -> u64 {
        self.sent.total()
    }

    /// Total *maintenance* messages sent (everything except lookup / DHT /
    /// multicast / aggregation / read-path / pub-sub traffic); the quantity
    /// the maintenance-overhead ablation reports.
    pub fn maintenance_sent(&self) -> u64 {
        self.sent
            .iter()
            .filter(|(k, _)| k.is_maintenance())
            .map(|(_, n)| n)
            .sum()
    }
}

#[cfg(test)]
impl KindCounters {
    /// True when nothing has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|n| *n == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = NodeStats::default();
        s.record_received(MessageKind::KeepAlive);
        s.record_received(MessageKind::KeepAlive);
        s.record_received(MessageKind::Lookup);
        s.record_sent(MessageKind::KeepAliveAck);
        assert_eq!(s.total_received(), 3);
        assert_eq!(s.total_sent(), 1);
        assert_eq!(s.received.get(MessageKind::KeepAlive), 2);
    }

    #[test]
    fn maintenance_excludes_user_traffic() {
        let mut s = NodeStats::default();
        s.record_sent(MessageKind::KeepAlive);
        s.record_sent(MessageKind::ChildReport);
        s.record_sent(MessageKind::Lookup);
        s.record_sent(MessageKind::LookupFound);
        s.record_sent(MessageKind::DhtPut);
        s.record_sent(MessageKind::MulticastDown);
        s.record_sent(MessageKind::AggregateUp);
        s.record_sent(MessageKind::GetVersioned);
        s.record_sent(MessageKind::GetVersionedReply);
        s.record_sent(MessageKind::PutVersionedAck);
        s.record_sent(MessageKind::ReadVerify);
        // Repair pushes are maintenance, like the rest of the replication
        // repair traffic.
        s.record_sent(MessageKind::ReadRepair);
        assert_eq!(s.maintenance_sent(), 3);
        assert_eq!(s.total_sent(), 12);
    }

    #[test]
    fn kind_iter_matches_display_names() {
        let mut c = KindCounters::default();
        assert!(c.is_empty());
        c.record(MessageKind::FilterReport);
        c.record(MessageKind::JoinRequest);
        let pairs: Vec<(String, u64)> = c.iter().map(|(k, n)| (k.to_string(), n)).collect();
        assert_eq!(
            pairs,
            vec![
                ("join_request".to_string(), 1),
                ("filter_report".to_string(), 1)
            ]
        );
        assert_eq!(c.total(), 2);
    }

    #[test]
    fn kind_counters_saturate_and_total_exactly() {
        let mut c = KindCounters([u32::MAX; MessageKind::COUNT]);
        c.record(MessageKind::KeepAlive);
        assert_eq!(c.get(MessageKind::KeepAlive), u64::from(u32::MAX));
        assert_eq!(
            c.total(),
            MessageKind::COUNT as u64 * u64::from(u32::MAX),
            "the sum widens before it adds"
        );
    }

    #[test]
    fn all_kinds_have_unique_names_and_indexes() {
        let mut seen = std::collections::BTreeSet::new();
        for (i, k) in MessageKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
            assert!(seen.insert(k.name()), "duplicate name {}", k.name());
        }
        assert_eq!(seen.len(), MessageKind::COUNT);
    }
}
