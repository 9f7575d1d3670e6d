//! k-way DHT replication and digest-driven anti-entropy repair.
//!
//! The Section-III DHT stores each key at exactly one responsible node — the
//! peer closest to the key coordinate — so a single failure silently loses
//! data. This subsystem keeps **k copies** of every value alive and repairs
//! divergence continuously, layered on the registry's ordered successor
//! queries and the multicast spine's `DhtKeyDigest` convergecast. The
//! protocol behaviour lives in the `node/replication` layer of
//! [`crate::node::TreePNode`]; this module holds the wire/data types and the
//! reference auditor the tests and experiments check convergence with.
//!
//! ## Placement rule
//!
//! The replica set of key `x` is the responsible node plus its `k - 1`
//! nearest known peers of the coordinate `x`, found by an ordered registry
//! probe ([`crate::tables::RoutingTables::nearest_peers`]) — two cursors
//! walking outward from `x`, ties preferring the smaller identifier. The
//! responsible node pushes [`crate::messages::TreePMessage::ReplicaPut`]
//! copies to the set the moment a `DhtPut` lands; every later repair
//! converges toward the same rule, so replica sets are deterministic
//! functions of the live membership, not per-put state.
//!
//! ## Digest hierarchy
//!
//! Anti-entropy rounds are cheap in the steady state because divergence is
//! *detected* before any key list is exchanged:
//!
//! 1. **Subtree digest probe** — a clean node folds one
//!    [`crate::multicast::AggregateQuery::DhtKeyDigest`] convergecast over
//!    its **primary range**: the interval of keys it is the closest peer
//!    of (midpoint to its nearest registry neighbour on each side), where
//!    its own store is authoritative. If every key there has exactly `k`
//!    live copies, the folded count is `k · |own keys|` and the folded XOR
//!    is the own XOR repeated `k` times (`own_xor` for odd `k`, `0` for
//!    even `k`) — one scoped aggregation replacing `n` point checks.
//!    Primary ranges tile the key space, so every key is probed by exactly
//!    one node and a healthy network probes clean everywhere. At the prober
//!    the probe is an in-flight request kind of its own, entered before the
//!    aggregation is dispatched: its fold (or its timeout) ends at the
//!    replication layer and never appears among the aggregate outcomes an
//!    embedder drains — including when a solitary root folds its own probe
//!    inside the call that starts it.
//! 2. **Pairwise range sync** — only when the probe mismatches (or times
//!    out, or the local store changed) does the node fall back to
//!    [`crate::messages::TreePMessage::ReplicaSyncRequest`]: it sends its
//!    per-range key list to each replica partner; the partner replies with
//!    the values the sender lacks and a `want` list of the keys it lacks
//!    itself, which the sender answers with `ReplicaPut`s. Two messages per
//!    partner converge both stores over the range.
//!
//! ## Repair state machine
//!
//! Each node runs one timer-driven round per `replica_sync_interval`:
//!
//! ```text
//!          ┌────────────┐   digest matches    ┌───────────┐
//!  puts /  │   DIRTY    │ ◄────────────────┐  │   CLEAN   │
//!  churn ─►│ (pairwise  │                  └──│ (digest   │◄─┐ probe ok
//!          │  sync now) │ ─────────────────►  │  probe)   │──┘
//!          └────────────┘   syncs sent        └───────────┘
//!                │                                  │ mismatch / timeout
//!                ▼                                  ▼
//!          handoff & GC                       mark DIRTY
//! ```
//!
//! * A node starts DIRTY; receiving a replica value, storing a put, or a
//!   failed probe marks it DIRTY again.
//! * A DIRTY round sends pairwise syncs to the replica partners and
//!   optimistically returns to CLEAN; the next probe verifies.
//! * Every round also **hands off**: a stored key with at least `2k` known
//!   peers strictly closer than this node is outside any plausible replica
//!   set — the value is pushed to the key's closest peer (so responsibility
//!   transfer never drops a copy) and dropped locally. The `2k` slack
//!   tolerates stale registry knowledge: over-retention is always safe,
//!   under-retention never is.
//! * Joins need no special case: a fresh node's empty-key-list syncs pull
//!   everything in its replica range, and its partners' syncs push to it as
//!   soon as gossip makes it a registry neighbour.

use crate::dht::DhtStore;
use crate::id::NodeId;
use serde::{Deserialize, Serialize};

/// One replicated `(key, value)` pair as carried by a
/// [`crate::messages::TreePMessage::ReplicaSyncReply`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReplicaEntry {
    /// The key coordinate.
    pub key: NodeId,
    /// The stored value.
    pub value: Vec<u8>,
}

/// Global replica-health report over the live nodes' stores — the reference
/// model the property tests and the durability experiment check the
/// protocol against. Computed from full knowledge (every live store), which
/// no node has; the protocol must converge to what this audit accepts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationAudit {
    /// Configured replication factor.
    pub k: u32,
    /// Live nodes inspected.
    pub live_nodes: usize,
    /// Distinct keys with at least one live copy ("surviving keys").
    pub keys: usize,
    /// Surviving keys whose `min(k, live_nodes)` closest live nodes all
    /// store the same value — the placement rule fully satisfied.
    pub fully_replicated: usize,
    /// Surviving keys stored with two or more distinct values anywhere.
    pub divergent: usize,
    /// Total live copies across all keys.
    pub total_copies: usize,
    /// Copies of the worst-replicated surviving key.
    pub min_copies: usize,
}

impl ReplicationAudit {
    /// True when every surviving key is fully replicated and no two copies
    /// disagree — the fixed point the anti-entropy rounds must reach.
    pub fn is_converged(&self) -> bool {
        self.fully_replicated == self.keys && self.divergent == 0
    }

    /// Fraction of surviving keys fully replicated, in percent (100 for an
    /// empty key set).
    pub fn fully_replicated_pct(&self) -> f64 {
        if self.keys == 0 {
            100.0
        } else {
            self.fully_replicated as f64 * 100.0 / self.keys as f64
        }
    }
}

/// Audit the replica placement over the live nodes' stores: for every key
/// stored anywhere, check that the `min(k, live)` live nodes closest to the
/// key coordinate (by `(distance, id)`, the protocol's own tie-break) all
/// hold byte-identical copies.
pub fn audit_replication<'a>(
    views: impl IntoIterator<Item = (NodeId, &'a DhtStore)>,
    k: u32,
) -> ReplicationAudit {
    let views: Vec<(NodeId, &DhtStore)> = views.into_iter().collect();
    let node_ids: Vec<NodeId> = views.iter().map(|(id, _)| *id).collect();
    let mut keys: std::collections::BTreeMap<NodeId, Vec<(NodeId, &Vec<u8>)>> =
        std::collections::BTreeMap::new();
    for (node, store) in &views {
        for (key, value) in store.iter() {
            keys.entry(*key).or_default().push((*node, value));
        }
    }

    let mut audit = ReplicationAudit {
        k,
        live_nodes: node_ids.len(),
        keys: keys.len(),
        min_copies: usize::MAX,
        ..ReplicationAudit::default()
    };
    let need = (k as usize).min(node_ids.len());
    for (key, holders) in &keys {
        audit.total_copies += holders.len();
        audit.min_copies = audit.min_copies.min(holders.len());
        let reference = holders[0].1;
        if holders.iter().any(|(_, v)| *v != reference) {
            audit.divergent += 1;
            continue;
        }
        let mut closest: Vec<NodeId> = node_ids.clone();
        closest.sort_by_key(|id| (id.0.abs_diff(key.0), id.0));
        closest.truncate(need);
        if closest
            .iter()
            .all(|id| holders.iter().any(|(holder, _)| holder == id))
        {
            audit.fully_replicated += 1;
        }
    }
    if audit.keys == 0 {
        audit.min_copies = 0;
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store(pairs: &[(u64, &[u8])]) -> DhtStore {
        let mut s = DhtStore::new();
        for (k, v) in pairs {
            s.put(NodeId(*k), v.to_vec());
        }
        s
    }

    #[test]
    fn audit_accepts_a_fully_replicated_placement() {
        // Nodes at 100/200/300/400; key 210's three closest are 200/300/100.
        let s100 = store(&[(210, b"v")]);
        let s200 = store(&[(210, b"v")]);
        let s300 = store(&[(210, b"v")]);
        let s400 = store(&[]);
        let audit = audit_replication(
            [
                (NodeId(100), &s100),
                (NodeId(200), &s200),
                (NodeId(300), &s300),
                (NodeId(400), &s400),
            ],
            3,
        );
        assert_eq!(audit.keys, 1);
        assert_eq!(audit.fully_replicated, 1);
        assert_eq!(audit.divergent, 0);
        assert_eq!(audit.total_copies, 3);
        assert_eq!(audit.min_copies, 3);
        assert!(audit.is_converged());
        assert_eq!(audit.fully_replicated_pct(), 100.0);
    }

    #[test]
    fn audit_flags_missing_and_misplaced_copies() {
        // Key 210 held only by the *fourth*-closest node: neither fully
        // replicated nor converged, even though a copy survives.
        let s100 = store(&[]);
        let s200 = store(&[]);
        let s300 = store(&[]);
        let s400 = store(&[(210, b"v")]);
        let audit = audit_replication(
            [
                (NodeId(100), &s100),
                (NodeId(200), &s200),
                (NodeId(300), &s300),
                (NodeId(400), &s400),
            ],
            3,
        );
        assert_eq!(audit.keys, 1);
        assert_eq!(audit.fully_replicated, 0);
        assert!(!audit.is_converged());
        assert_eq!(audit.min_copies, 1);
    }

    #[test]
    fn audit_flags_divergent_values() {
        let s100 = store(&[(210, b"old")]);
        let s200 = store(&[(210, b"new")]);
        let audit = audit_replication([(NodeId(100), &s100), (NodeId(200), &s200)], 2);
        assert_eq!(audit.divergent, 1);
        assert!(!audit.is_converged());
    }

    #[test]
    fn audit_caps_the_requirement_at_the_live_population() {
        // k = 3 but only two nodes alive: two copies suffice.
        let s100 = store(&[(210, b"v")]);
        let s200 = store(&[(210, b"v")]);
        let audit = audit_replication([(NodeId(100), &s100), (NodeId(200), &s200)], 3);
        assert_eq!(audit.fully_replicated, 1);
        assert!(audit.is_converged());
    }

    #[test]
    fn empty_views_are_trivially_converged() {
        let audit = audit_replication(std::iter::empty(), 3);
        assert_eq!(audit.keys, 0);
        assert_eq!(audit.min_copies, 0);
        assert!(audit.is_converged());
        assert_eq!(audit.fully_replicated_pct(), 100.0);
    }
}
