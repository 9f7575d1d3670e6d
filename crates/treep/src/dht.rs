//! Distributed-hash-table extension.
//!
//! Section III promises that TreeP "can be easily modified to provide
//! Distributed Hash Table (DHT) functionality": keys are hashed onto the 1-D
//! identifier space and a put/get request is routed toward the key's
//! coordinate exactly like a lookup; the node that finds no live peer closer
//! to the coordinate than itself is *responsible* for the key and stores (or
//! answers for) it.

use crate::entry::PeerInfo;
use crate::id::{splitmix64, NodeId};
use crate::lookup::RequestId;
use crate::multicast::KeyRange;
use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::collections::BTreeMap;

/// Local key/value storage of one node.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DhtStore {
    values: BTreeMap<NodeId, Vec<u8>>,
}

impl DhtStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store `value` under the key coordinate, returning the previous value
    /// if one existed.
    pub fn put(&mut self, key: NodeId, value: Vec<u8>) -> Option<Vec<u8>> {
        self.values.insert(key, value)
    }

    /// Retrieve the value stored under `key`.
    pub fn get(&self, key: NodeId) -> Option<&Vec<u8>> {
        self.values.get(&key)
    }

    /// Remove the value stored under `key`.
    pub fn remove(&mut self, key: NodeId) -> Option<Vec<u8>> {
        self.values.remove(&key)
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterate over the stored `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&NodeId, &Vec<u8>)> {
        self.values.iter()
    }

    /// True when a value is stored under `key`.
    pub fn contains(&self, key: NodeId) -> bool {
        self.values.contains_key(&key)
    }

    /// The key coordinates stored inside `range`, in key order. This is the
    /// key list a [`crate::messages::TreePMessage::ReplicaSyncRequest`]
    /// carries.
    pub fn keys_in_range(&self, range: KeyRange) -> Vec<NodeId> {
        self.values
            .range(range.lo..=range.hi)
            .map(|(k, _)| *k)
            .collect()
    }

    /// The `(key, value)` pairs stored inside `range`, in key order.
    pub fn entries_in_range(&self, range: KeyRange) -> impl Iterator<Item = (&NodeId, &Vec<u8>)> {
        self.values.range(range.lo..=range.hi)
    }

    /// Digest of the keys stored inside `range`: XOR of the SplitMix64-mixed
    /// key coordinates plus their count. This is what a
    /// [`crate::messages::TreePMessage::ReplicaDigest`] carries, and the
    /// local contribution of the
    /// [`crate::multicast::AggregateQuery::DhtKeyDigest`] aggregation — one
    /// scoped multicast folds these into a key census of a whole identifier
    /// range, replacing `n` point lookups.
    pub fn digest_range(&self, range: KeyRange) -> (u64, u64) {
        let mut xor = 0u64;
        let mut count = 0u64;
        for key in self.values.range(range.lo..=range.hi).map(|(k, _)| *k) {
            xor ^= splitmix64(key.0);
            count += 1;
        }
        (xor, count)
    }
}

/// How a DHT request concluded, recorded at the origin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DhtOutcome {
    /// A put was acknowledged by the responsible node.
    PutAcked {
        /// The request.
        request_id: RequestId,
        /// The key coordinate.
        key: NodeId,
        /// The node that stored the value.
        stored_at: PeerInfo,
        /// When the acknowledgement arrived.
        completed_at: SimTime,
    },
    /// A get was answered.
    GetAnswered {
        /// The request.
        request_id: RequestId,
        /// The key coordinate.
        key: NodeId,
        /// The stored value, if any.
        value: Option<Vec<u8>>,
        /// The responsible node that answered.
        responder: PeerInfo,
        /// When the answer arrived.
        completed_at: SimTime,
    },
    /// The origin gave up waiting.
    TimedOut {
        /// The request.
        request_id: RequestId,
        /// The key coordinate.
        key: NodeId,
        /// When the timeout fired.
        completed_at: SimTime,
    },
}

impl DhtOutcome {
    /// The request this outcome belongs to.
    pub fn request_id(&self) -> RequestId {
        match self {
            DhtOutcome::PutAcked { request_id, .. }
            | DhtOutcome::GetAnswered { request_id, .. }
            | DhtOutcome::TimedOut { request_id, .. } => *request_id,
        }
    }

    /// True unless the request timed out.
    pub fn is_success(&self) -> bool {
        !matches!(self, DhtOutcome::TimedOut { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_round_trip() {
        let mut s = DhtStore::new();
        assert!(s.is_empty());
        assert_eq!(s.put(NodeId(1), b"a".to_vec()), None);
        assert_eq!(s.put(NodeId(1), b"b".to_vec()), Some(b"a".to_vec()));
        assert_eq!(s.get(NodeId(1)), Some(&b"b".to_vec()));
        assert_eq!(s.get(NodeId(2)), None);
        assert_eq!(s.len(), 1);
        assert_eq!(s.remove(NodeId(1)), Some(b"b".to_vec()));
        assert!(s.is_empty());
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut s = DhtStore::new();
        s.put(NodeId(5), vec![5]);
        s.put(NodeId(1), vec![1]);
        s.put(NodeId(3), vec![3]);
        let keys: Vec<u64> = s.iter().map(|(k, _)| k.0).collect();
        assert_eq!(keys, vec![1, 3, 5]);
    }

    #[test]
    fn digest_range_folds_only_keys_in_range() {
        let mut s = DhtStore::new();
        s.put(NodeId(10), vec![]);
        s.put(NodeId(20), vec![]);
        s.put(NodeId(30), vec![]);
        let (_, count_all) = s.digest_range(KeyRange::new(NodeId(0), NodeId(100)));
        assert_eq!(count_all, 3);
        let (xor_mid, count_mid) = s.digest_range(KeyRange::new(NodeId(15), NodeId(25)));
        assert_eq!(count_mid, 1);
        assert_eq!(xor_mid, splitmix64(20));
        let (xor_none, count_none) = s.digest_range(KeyRange::new(NodeId(40), NodeId(50)));
        assert_eq!((xor_none, count_none), (0, 0));
        // The digest of two disjoint sub-ranges XORs to the full digest.
        let (xor_lo, _) = s.digest_range(KeyRange::new(NodeId(0), NodeId(15)));
        let (xor_hi, _) = s.digest_range(KeyRange::new(NodeId(16), NodeId(100)));
        let (xor_all, _) = s.digest_range(KeyRange::new(NodeId(0), NodeId(100)));
        assert_eq!(xor_lo ^ xor_hi, xor_all);
    }

    #[test]
    fn range_helpers_clip_to_the_range() {
        let mut s = DhtStore::new();
        s.put(NodeId(10), vec![1]);
        s.put(NodeId(20), vec![2]);
        s.put(NodeId(30), vec![3]);
        assert!(s.contains(NodeId(20)));
        assert!(!s.contains(NodeId(21)));
        assert_eq!(
            s.keys_in_range(KeyRange::new(NodeId(15), NodeId(30))),
            vec![NodeId(20), NodeId(30)]
        );
        let entries: Vec<(u64, u8)> = s
            .entries_in_range(KeyRange::new(NodeId(0), NodeId(20)))
            .map(|(k, v)| (k.0, v[0]))
            .collect();
        assert_eq!(entries, vec![(10, 1), (20, 2)]);
    }

    #[test]
    fn outcome_accessors() {
        let out = DhtOutcome::TimedOut {
            request_id: RequestId(9),
            key: NodeId(1),
            completed_at: SimTime::ZERO,
        };
        assert_eq!(out.request_id(), RequestId(9));
        assert!(!out.is_success());
    }
}
