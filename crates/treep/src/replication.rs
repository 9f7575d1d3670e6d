//! k-way DHT replication and digest-driven anti-entropy repair.
//!
//! The Section-III DHT stores each key at exactly one responsible node — the
//! peer closest to the key coordinate — so a single failure silently loses
//! data. This subsystem keeps **k copies** of every value alive and repairs
//! divergence continuously, layered on nothing but the registry's ordered
//! neighbour queries: every message of it travels one hop, between two
//! replicas. The protocol behaviour lives in the `node/replication` layer of
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
//! *detected* before any key list is exchanged, and detected where it can
//! occur — between two replicas:
//!
//! 1. **Pairwise digest** — once per round a node sends one
//!    [`crate::messages::TreePMessage::ReplicaDigest`] to each of its
//!    `k - 1` nearest registry successors: the XOR-and-count
//!    [`crate::dht::DhtStore::digest_range`] of its store over the
//!    **shared interval**, the keys both ends belong to the replica set
//!    of. The `k` nearest peers of a key are `k` adjacent identifiers, so
//!    with `L_i` / `R_i` the sender's `i`-th registry neighbour below /
//!    above, the interval it shares with its `j`-th successor `R_j`
//!    (`1 <= j < k`) has the closed form
//!    `[midpoint(L_{k-j}, R_j) + 1, midpoint(self, R_k)]`
//!    ([`crate::tables::RoutingTables::replica_pair_range`]; a missing
//!    neighbour runs the interval to that edge of the space, midpoint ties
//!    go to the smaller identifier as in every ordered probe). The receiver
//!    digests its own store over the interval it was given: equal means
//!    silence. `k - 1` small messages per node and round, no
//!    acknowledgement, nothing in flight, nothing through the tree.
//! 2. **Pairwise range sync** — a receiver whose digest differs answers
//!    with a [`crate::messages::TreePMessage::ReplicaSyncRequest`] carrying
//!    its key list of that interval; the digest's sender replies with the
//!    values the receiver lacks and a `want` list of the keys it lacks
//!    itself, which the receiver answers with `ReplicaPut`s (`ReadRepair`s
//!    for stamped values, so the version survives). That converges both
//!    stores over the interval; the replier offers only keys the requester
//!    is, by the replier's registry, a replica of, and asks only for keys
//!    it is a replica of itself.
//!
//! **Why successors are enough.** Each unordered pair of nodes at most
//! `k - 1` registry positions apart is compared exactly once per round, by
//! its lower member. The replica set of a key is a window of `k` adjacent
//! nodes, so its primary — the closest node — is paired with all `k - 1`
//! others, and the key lies in the shared interval of every such pair. A
//! copy missing anywhere in the window therefore shows in at least one
//! pair: if the primary holds the key, every member that lacks it
//! disagrees with the primary; if it does not, it disagrees with any member
//! that does, obtains the key, and disagrees with the rest one round
//! later.
//!
//! ## Repair round
//!
//! Each node runs one timer-driven round per [`REPLICA_SYNC_INTERVAL`], and
//! the round is the whole state of the repair machine — there is no mode,
//! and no message is awaited:
//!
//! ```text
//!   every REPLICA_SYNC_INTERVAL
//!        │
//!        ▼
//!   handoff & GC ──► ReplicaDigest to each of the k-1 successors
//!                          │ receiver's digest_range(range)
//!                 equal ◄──┴──► differs
//!                (silence)      ReplicaSyncRequest ─► ReplicaSyncReply
//!                                                     ─► ReplicaPut / ReadRepair
//! ```
//!
//! * Placement pushes, digests, sync requests and repair copies are all
//!   fire-and-forget. Whatever a lost one leaves undone is a disagreement
//!   the next round's digest sees again.
//! * Every round first **hands off**: a stored key with at least `2k` known
//!   peers strictly closer than this node is outside any plausible replica
//!   set — the value is pushed to the key's replica set (so responsibility
//!   transfer never drops a copy) and dropped locally. The `2k` slack
//!   tolerates stale registry knowledge: over-retention is always safe,
//!   under-retention never is.
//! * Joins need no special case: as soon as gossip makes a fresh node a
//!   registry neighbour, its predecessors' digests mismatch against its
//!   empty store and it pulls what they hold for it, and its own digests
//!   mismatch at its successors, which push the rest through its `want`
//!   list.
//! * Two registries that disagree on who lies between them name different
//!   intervals and may find a difference no transfer removes (the
//!   per-key replica-set filter above is applied to each side's own
//!   view); the cost is one request per round until gossip aligns the
//!   registries, counted in `replica_digest_mismatches`.

use crate::dht::DhtStore;
use crate::id::NodeId;
use serde::{Deserialize, Serialize};
use simnet::SimDuration;

/// Interval between anti-entropy rounds of the replication subsystem
/// (handoff / garbage collection, then one digest per replica partner; a
/// pairwise range sync where one disagrees). Only armed when
/// `replication_factor > 1`.
pub const REPLICA_SYNC_INTERVAL: SimDuration = SimDuration::from_millis(900);

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
