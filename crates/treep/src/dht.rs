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
use crate::readpath::{StampedValue, VersionStamp};
use serde::{Deserialize, Serialize};
use simnet::SimTime;
use std::collections::BTreeMap;

/// Local key/value storage of one node. Every value is held with the
/// [`VersionStamp`] that orders it against other writes of its key; values
/// written through the unversioned paths carry [`VersionStamp::LEGACY`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DhtStore {
    values: BTreeMap<NodeId, StampedValue>,
}

impl DhtStore {
    /// Empty store.
    pub const fn new() -> Self {
        DhtStore {
            values: BTreeMap::new(),
        }
    }

    /// Store `value` under the key coordinate whatever is held there, as an
    /// unversioned write, returning the previous value if one existed.
    pub fn put(&mut self, key: NodeId, value: Vec<u8>) -> Option<Vec<u8>> {
        let stamp = VersionStamp::LEGACY;
        self.values
            .insert(key, StampedValue { stamp, value })
            .map(|old| old.value)
    }

    /// The one write rule of every copy of a key, last-write-wins: `(stamp,
    /// value)` replaces what is held unless that carries a strictly greater
    /// stamp. So stamps never regress; an unversioned write
    /// ([`VersionStamp::LEGACY`]) replaces an unversioned value but never a
    /// versioned one, having no stamp to beat it with; and two holders that
    /// have seen the same writes, in whatever order, hold the same pair
    /// (equal stamps are byte-identical writes, see [`crate::readpath`]).
    /// Returns true when the write was applied.
    pub(crate) fn merge(&mut self, key: NodeId, stamp: VersionStamp, value: Vec<u8>) -> bool {
        if self.stamp(key).is_some_and(|held| held > stamp) {
            return false;
        }
        self.values.insert(key, StampedValue { stamp, value });
        true
    }

    /// Retrieve the value stored under `key`.
    pub(crate) fn get(&self, key: NodeId) -> Option<&Vec<u8>> {
        self.values.get(&key).map(|held| &held.value)
    }

    /// The value stored under `key` together with its stamp.
    pub fn stamped(&self, key: NodeId) -> Option<&StampedValue> {
        self.values.get(&key)
    }

    /// The stamp of the value stored under `key`.
    pub(crate) fn stamp(&self, key: NodeId) -> Option<VersionStamp> {
        self.values.get(&key).map(|held| held.stamp)
    }

    /// Remove the value stored under `key`.
    pub(crate) fn remove(&mut self, key: NodeId) -> Option<StampedValue> {
        self.values.remove(&key)
    }

    /// Iterate over the stored `(key, value)` pairs in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&NodeId, &Vec<u8>)> {
        self.values.iter().map(|(key, held)| (key, &held.value))
    }

    /// True when a value is stored under `key`.
    pub(crate) fn contains(&self, key: NodeId) -> bool {
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

    /// The keys stored inside `range` with their stamped values, in key
    /// order.
    pub(crate) fn entries_in_range(
        &self,
        range: KeyRange,
    ) -> impl Iterator<Item = (&NodeId, &StampedValue)> {
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
    /// True unless the request timed out.
    pub fn is_success(&self) -> bool {
        !matches!(self, DhtOutcome::TimedOut { .. })
    }
}

#[cfg(test)]
impl DhtStore {
    /// Number of stored values.
    pub(crate) fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

#[cfg(test)]
impl DhtOutcome {
    /// The request this outcome belongs to.
    pub(crate) fn request_id(&self) -> RequestId {
        match self {
            DhtOutcome::PutAcked { request_id, .. }
            | DhtOutcome::GetAnswered { request_id, .. }
            | DhtOutcome::TimedOut { request_id, .. } => *request_id,
        }
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
        // An unversioned write is held under the floor stamp.
        assert_eq!(s.stamp(NodeId(1)), Some(VersionStamp::LEGACY));
        assert_eq!(s.stamp(NodeId(2)), None);
        // A greater stamp replaces it, and then refuses the floor stamp and
        // anything else below itself, but not `put`.
        let v2 = VersionStamp::next(None, NodeId(9));
        assert!(s.merge(NodeId(1), v2, b"c".to_vec()));
        assert!(!s.merge(NodeId(1), VersionStamp::LEGACY, b"d".to_vec()));
        assert!(
            s.merge(NodeId(1), v2, b"c".to_vec()),
            "an equal stamp rewrites"
        );
        let held = s.stamped(NodeId(1)).expect("held");
        assert_eq!((held.stamp, held.value.as_slice()), (v2, &b"c"[..]));
        assert_eq!(s.put(NodeId(1), b"b".to_vec()), Some(b"c".to_vec()));
        assert_eq!(s.stamp(NodeId(1)), Some(VersionStamp::LEGACY));
        assert_eq!(
            s.remove(NodeId(1)).map(|held| held.value),
            Some(b"b".to_vec())
        );
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

    /// Every order of `n` writes, as index lists.
    fn permutations(n: usize) -> Vec<Vec<usize>> {
        let Some(last) = n.checked_sub(1) else {
            return vec![Vec::new()];
        };
        let mut out = Vec::new();
        for shorter in permutations(last) {
            for at in 0..=last {
                let mut order = shorter.clone();
                order.insert(at, last);
                out.push(order);
            }
        }
        out
    }

    /// The convergence replicas rely on: copies of a key reach its holders
    /// in any order, and every order must leave the same pair — the greatest
    /// stamp's.
    #[test]
    fn merge_leaves_the_greatest_stamp_under_every_order_of_writes() {
        let mut rng = simnet::SimRng::seed_from(23);
        for _ in 0..60 {
            // A small stamp alphabet, so that sets repeat stamps and hold
            // the floor stamp and other zero versions; a value is a function
            // of its stamp (equal stamps are byte-identical writes).
            let writes: Vec<StampedValue> = (0..rng.gen_range_u64(1..6))
                .map(|_| {
                    let version = rng.gen_range_u64(0..3);
                    let origin = NodeId(rng.gen_range_u64(0..3));
                    StampedValue {
                        stamp: VersionStamp { version, origin },
                        value: vec![version as u8, origin.0 as u8],
                    }
                })
                .collect();
            let expected = writes
                .iter()
                .fold(None, |best: Option<&StampedValue>, w| match best {
                    Some(b) if w.stamp <= b.stamp => Some(b),
                    _ => Some(w),
                });
            for order in permutations(writes.len()) {
                let mut s = DhtStore::new();
                for w in order.iter().map(|&i| &writes[i]) {
                    s.merge(NodeId(7), w.stamp, w.value.clone());
                }
                assert_eq!(s.stamped(NodeId(7)), expected, "{writes:?} in {order:?}");
            }
        }
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
            .map(|(k, held)| (k.0, held.value[0]))
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
