//! Read-path serving layer: value versioning, replica-first reads,
//! read-repair and the per-hop hot-key cache.
//!
//! The Section-III DHT terminates every `get` at the single responsible
//! node, so under a skewed workload one leaf absorbs the whole storm even
//! when `replication_factor = k` keeps `k` copies alive — replication buys
//! durability, not throughput. This module holds the data types of the
//! serving layer that fixes that; the protocol behaviour lives in the
//! `node/readpath` layer of [`crate::node::TreePNode`].
//!
//! ## Design
//!
//! * **Value versioning** — every versioned put carries a
//!   [`VersionStamp`]: a `(version, origin-id)` pair ordered
//!   lexicographically, so divergent replicas reconcile with a
//!   deterministic last-write-wins tiebreak (strictly greater stamp wins;
//!   equal stamps are byte-identical writes). Values stored by the
//!   unversioned paths (legacy `DhtPut`, anti-entropy sync) carry the
//!   [`VersionStamp::LEGACY`] floor stamp, which any versioned write
//!   supersedes.
//! * **Replica-first reads** (`replica_reads` in
//!   [`crate::config::TreePConfig`]) — a routed `GetVersioned` is answered
//!   by the *first* node on the route holding a copy of the key whose stamp
//!   satisfies the client's `min_stamp`, not only by the responsible node.
//!   The PR 3 replica placement puts `k` copies on the registry neighbours
//!   of the key coordinate, exactly the nodes a greedy descent funnels
//!   through, so hot keys are served one or two hops early and the
//!   responsible node sheds load.
//! * **Read-repair** (part of `replica_reads`) — a replica-served get sends a
//!   lightweight `ReadVerify` probe onward to the responsible node carrying
//!   the served stamp. A responsible node holding a fresher stamp answers
//!   with `ReadRepair` (the full stamped value) to the serving node *and*
//!   re-pushes the fresh copy to the key's replica set, so one stale
//!   observation repairs every lagging replica. A responsible node that
//!   lacks the key gets it when it next compares digests with that replica;
//!   one that holds a staler copy keeps it until a stamped write or repair
//!   reaches it, since the digests cover keys, not stamps.
//! * **Hot-key cache** (`cache_capacity` / `cache_ttl`) — every routing hop
//!   keeps a bounded LRU of recently served values ([`HotKeyCache`]). A
//!   `GetVersioned` records its route; the reply walks back hop by hop,
//!   version-check-filling each hop's cache, so the *next* get for the same
//!   key is served at (or near) its origin. Cache lines expire after
//!   `cache_ttl`, fills never replace a fresher line with a staler one, and
//!   a passing `ReadRepair` refreshes matching lines in place — which is
//!   why cache hits do not send `ReadVerify` probes: their staleness is
//!   bounded by the TTL, and probing on every hit would re-concentrate the
//!   very load the cache exists to spread.
//!
//! ## Invariants
//!
//! * **Monotonic reads per client.** The origin tracks the highest stamp it
//!   has observed per key and sends it as `min_stamp`; a replica or cache
//!   line with a staler stamp is treated as a miss and the request routes
//!   onward. A client therefore never reads backwards through a cache.
//! * **Stamps never regress.** A value is stored together with its stamp,
//!   and [`crate::dht::DhtStore::merge`] is the one function that decides
//!   whether a write replaces what a store holds: it refuses only a stamp
//!   strictly below the held one, so an unstamped legacy value — which
//!   carries no stamp to win with — never replaces a stamped one, whichever
//!   message brought it. [`HotKeyCache::fill`] and [`HotKeyCache::repair`]
//!   apply the same comparison to a cache line.
//! * **Defaults off, wire-identical.** `replica_reads` and
//!   `cache_capacity` default to off/zero; a deployment that never calls
//!   the versioned API sends no new message and stays byte-identical on the
//!   wire (the codec's golden checksum pins this).

use crate::id::NodeId;
use serde::{Deserialize, Serialize};
use simnet::{NodeAddr, SimDuration, SimTime};
use std::collections::BTreeMap;

use crate::lookup::RequestId;

/// A `(version, origin-id)` write stamp with deterministic last-write-wins
/// ordering: stamps compare lexicographically, version first, origin
/// identifier as the tiebreak, and the strictly greater stamp wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VersionStamp {
    /// Monotonic per-key counter: one more than the highest version the
    /// writer had observed for the key.
    pub version: u64,
    /// Identifier of the writing node (the deterministic tiebreak between
    /// concurrent writers picking the same version).
    pub origin: NodeId,
}

impl VersionStamp {
    /// The floor stamp carried by values stored through the unversioned
    /// paths (legacy `DhtPut`, anti-entropy sync). Any versioned write
    /// supersedes it.
    pub const LEGACY: VersionStamp = VersionStamp {
        version: 0,
        origin: NodeId(0),
    };

    /// True for every stamp but the [`VersionStamp::LEGACY`] floor: the value
    /// under it was written through the versioned API, so a copy of it must
    /// travel with the stamp (as a `ReadRepair`) to keep its place in the
    /// last-write-wins order.
    pub(crate) fn is_stamped(self) -> bool {
        self > Self::LEGACY
    }

    /// The stamp a writer with identifier `origin` uses after having
    /// observed `observed` (or nothing) for the key.
    pub fn next(observed: Option<VersionStamp>, origin: NodeId) -> VersionStamp {
        VersionStamp {
            version: observed.map_or(0, |s| s.version) + 1,
            origin,
        }
    }
}

/// A stored value together with its write stamp, as carried by
/// `GetVersionedReply`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StampedValue {
    /// The write stamp.
    pub stamp: VersionStamp,
    /// The value bytes.
    pub value: Vec<u8>,
}

/// Which tier of the serving layer answered a versioned get.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReadSource {
    /// The node responsible for the key (the unaccelerated path).
    Responsible,
    /// A replica on the route, ahead of the responsible node.
    Replica,
    /// A hot-key cache line on the route.
    Cache,
}

/// How a versioned read/write concluded, recorded at the origin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ReadOutcome {
    /// A versioned get was answered.
    Got {
        /// The request.
        request_id: RequestId,
        /// The key coordinate.
        key: NodeId,
        /// The stamped value, if any node on the route had one.
        value: Option<StampedValue>,
        /// Which serving tier answered.
        source: ReadSource,
        /// Overlay hops the request travelled before being served.
        hops: u32,
        /// Address of the serving node.
        responder: NodeAddr,
        /// When the answer arrived.
        completed_at: SimTime,
    },
    /// A versioned put was acknowledged by the responsible node.
    PutAcked {
        /// The request.
        request_id: RequestId,
        /// The key coordinate.
        key: NodeId,
        /// The stamp the put carried.
        stamp: VersionStamp,
        /// Address of the node that stored the value.
        stored_at: NodeAddr,
        /// When the acknowledgement arrived.
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

impl ReadOutcome {
    /// The request this outcome belongs to.
    pub fn request_id(&self) -> RequestId {
        match self {
            ReadOutcome::Got { request_id, .. }
            | ReadOutcome::PutAcked { request_id, .. }
            | ReadOutcome::TimedOut { request_id, .. } => *request_id,
        }
    }
}

/// The result of offering a value to a [`HotKeyCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFill {
    /// True when the value was inserted or refreshed a line (false when the
    /// cache is disabled or already held a strictly fresher stamp).
    pub stored: bool,
    /// True when storing evicted the least-recently-used line.
    pub evicted: bool,
}

#[derive(Debug, Clone)]
struct CacheLine {
    stamp: VersionStamp,
    value: Vec<u8>,
    expires_at: SimTime,
    last_used: u64,
}

/// A bounded, TTL'd, version-checked LRU of hot keys, kept by every node on
/// the routing path of versioned gets.
///
/// * `capacity = 0` disables the cache entirely: every operation is a no-op
///   and no memory is held.
/// * A line expires `ttl` after its last fill; an expired line is treated
///   (and reaped) as a miss.
/// * Fills are version-checked: a line is only replaced by an equal or
///   fresher stamp, so a late stale reply can never shadow a repair that
///   already passed through.
///
/// Eviction scans for the least-recently-used line; capacities are small
/// (tens to a few hundred lines), so the scan is cheaper than maintaining
/// an intrusive list.
#[derive(Debug, Clone, Default)]
pub struct HotKeyCache {
    capacity: usize,
    ttl: SimDuration,
    lines: BTreeMap<NodeId, CacheLine>,
    clock: u64,
}

impl HotKeyCache {
    /// A cache of at most `capacity` lines, each valid for `ttl` after its
    /// fill. `capacity = 0` disables the cache.
    pub fn new(capacity: usize, ttl: SimDuration) -> Self {
        HotKeyCache {
            capacity,
            ttl,
            lines: BTreeMap::new(),
            clock: 0,
        }
    }

    /// Number of live lines (expired lines may still be counted until the
    /// next touch reaps them).
    pub(crate) fn len(&self) -> usize {
        self.lines.len()
    }

    /// Look up `key` at `now`: a fresh line bumps its LRU position and is
    /// returned; an expired line is reaped and reported as a miss.
    pub fn get(&mut self, key: NodeId, now: SimTime) -> Option<(VersionStamp, &Vec<u8>)> {
        if self.capacity == 0 {
            return None;
        }
        match self.lines.get(&key) {
            Some(line) if line.expires_at > now => {
                self.clock += 1;
                let line = self.lines.get_mut(&key).expect("present");
                line.last_used = self.clock;
                Some((line.stamp, &line.value))
            }
            Some(_) => {
                self.lines.remove(&key);
                None
            }
            None => None,
        }
    }

    /// Offer `(stamp, value)` for `key` at `now`. Version-checked: an
    /// existing line with a strictly fresher stamp is kept (the offer is
    /// rejected); otherwise the line is inserted or refreshed and its TTL
    /// restarts. Inserting into a full cache evicts the
    /// least-recently-used line.
    pub fn fill(
        &mut self,
        key: NodeId,
        stamp: VersionStamp,
        value: &[u8],
        now: SimTime,
    ) -> CacheFill {
        if self.capacity == 0 {
            return CacheFill {
                stored: false,
                evicted: false,
            };
        }
        if let Some(line) = self.lines.get(&key) {
            if line.expires_at > now && line.stamp > stamp {
                return CacheFill {
                    stored: false,
                    evicted: false,
                };
            }
        }
        let mut evicted = false;
        if !self.lines.contains_key(&key) && self.lines.len() >= self.capacity {
            // Evict the expired-or-least-recently-used line.
            let victim = self
                .lines
                .iter()
                .min_by_key(|(_, line)| (line.expires_at > now, line.last_used))
                .map(|(k, _)| *k)
                .expect("cache is non-empty when full");
            self.lines.remove(&victim);
            evicted = true;
        }
        self.clock += 1;
        self.lines.insert(
            key,
            CacheLine {
                stamp,
                value: value.to_vec(),
                expires_at: now + self.ttl,
                last_used: self.clock,
            },
        );
        CacheFill {
            stored: true,
            evicted,
        }
    }

    /// Refresh the line for `key` in place if one exists and `stamp` is at
    /// least as fresh — how a passing `ReadRepair` invalidates stale cache
    /// lines without granting the key a new cache slot. Returns true when a
    /// line was refreshed.
    pub(crate) fn repair(
        &mut self,
        key: NodeId,
        stamp: VersionStamp,
        value: &[u8],
        now: SimTime,
    ) -> bool {
        if self.capacity == 0 || !self.lines.contains_key(&key) {
            return false;
        }
        let line = self.lines.get_mut(&key).expect("present");
        if line.stamp > stamp {
            return false;
        }
        self.clock += 1;
        line.stamp = stamp;
        line.value = value.to_vec();
        line.expires_at = now + self.ttl;
        line.last_used = self.clock;
        true
    }
}

#[cfg(test)]
impl ReadOutcome {
    /// True unless the request timed out.
    pub(crate) fn is_success(&self) -> bool {
        !matches!(self, ReadOutcome::TimedOut { .. })
    }
}

#[cfg(test)]
impl HotKeyCache {
    /// True when no line is held.
    pub(crate) fn is_empty(&self) -> bool {
        self.lines.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(version: u64, origin: u64) -> VersionStamp {
        VersionStamp {
            version,
            origin: NodeId(origin),
        }
    }

    #[test]
    fn stamps_order_lexicographically_version_first() {
        assert!(stamp(2, 1) > stamp(1, 9));
        assert!(stamp(2, 5) > stamp(2, 3));
        assert_eq!(stamp(2, 5), stamp(2, 5));
        assert!(VersionStamp::LEGACY < stamp(1, 0));
        // Only the floor itself is unstamped, a zero version included.
        assert!(!VersionStamp::LEGACY.is_stamped());
        assert!(stamp(0, 5).is_stamped() && stamp(1, 0).is_stamped());
        // `next` bumps past whatever was observed.
        let n = VersionStamp::next(Some(stamp(7, 3)), NodeId(5));
        assert_eq!(n, stamp(8, 5));
        assert_eq!(VersionStamp::next(None, NodeId(5)), stamp(1, 5));
        assert!(n > stamp(7, u64::MAX), "version dominates origin");
    }

    #[test]
    fn disabled_cache_is_inert() {
        let mut cache = HotKeyCache::new(0, SimDuration::from_millis(100));
        let fill = cache.fill(NodeId(1), stamp(1, 1), b"v", SimTime::ZERO);
        assert!(!fill.stored && !fill.evicted);
        assert!(cache.get(NodeId(1), SimTime::ZERO).is_none());
        assert!(!cache.repair(NodeId(1), stamp(2, 1), b"w", SimTime::ZERO));
        assert!(cache.is_empty());
    }

    #[test]
    fn fill_get_and_ttl_expiry() {
        let mut cache = HotKeyCache::new(4, SimDuration::from_millis(100));
        let t0 = SimTime::ZERO;
        assert!(cache.fill(NodeId(1), stamp(1, 1), b"v", t0).stored);
        let (s, v) = cache.get(NodeId(1), t0).expect("fresh line hits");
        assert_eq!(s, stamp(1, 1));
        assert_eq!(v, &b"v".to_vec());
        // At exactly the expiry instant the line is dead.
        let t_expired = t0 + SimDuration::from_millis(100);
        assert!(cache.get(NodeId(1), t_expired).is_none());
        assert!(cache.is_empty(), "expired line is reaped on touch");
    }

    #[test]
    fn fills_are_version_checked_and_never_downgrade() {
        let mut cache = HotKeyCache::new(4, SimDuration::from_millis(100));
        let t0 = SimTime::ZERO;
        cache.fill(NodeId(1), stamp(5, 1), b"new", t0);
        let stale = cache.fill(NodeId(1), stamp(4, 9), b"old", t0);
        assert!(!stale.stored, "a staler fill must be rejected");
        assert_eq!(cache.get(NodeId(1), t0).unwrap().0, stamp(5, 1));
        // An equal stamp refreshes (restarts the TTL), a fresher one wins.
        assert!(cache.fill(NodeId(1), stamp(5, 1), b"new", t0).stored);
        assert!(cache.fill(NodeId(1), stamp(6, 1), b"newer", t0).stored);
        assert_eq!(cache.get(NodeId(1), t0).unwrap().1, &b"newer".to_vec());
    }

    #[test]
    fn lru_eviction_picks_the_coldest_line() {
        let mut cache = HotKeyCache::new(2, SimDuration::from_secs(10));
        let t0 = SimTime::ZERO;
        cache.fill(NodeId(1), stamp(1, 1), b"a", t0);
        cache.fill(NodeId(2), stamp(1, 1), b"b", t0);
        // Touch key 1 so key 2 is the LRU victim.
        cache.get(NodeId(1), t0);
        let fill = cache.fill(NodeId(3), stamp(1, 1), b"c", t0);
        assert!(fill.stored && fill.evicted);
        assert!(cache.get(NodeId(2), t0).is_none(), "LRU line evicted");
        assert!(cache.get(NodeId(1), t0).is_some());
        assert!(cache.get(NodeId(3), t0).is_some());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn expired_lines_are_preferred_eviction_victims() {
        let mut cache = HotKeyCache::new(2, SimDuration::from_millis(10));
        let t0 = SimTime::ZERO;
        cache.fill(NodeId(1), stamp(1, 1), b"a", t0);
        let t1 = t0 + SimDuration::from_millis(20);
        cache.fill(NodeId(2), stamp(1, 1), b"b", t1); // key 1 now expired
        let fill = cache.fill(NodeId(3), stamp(1, 1), b"c", t1);
        assert!(fill.evicted);
        assert!(cache.get(NodeId(2), t1).is_some(), "live line survives");
        assert!(cache.get(NodeId(3), t1).is_some());
    }

    #[test]
    fn repair_refreshes_in_place_but_grants_no_slot() {
        let mut cache = HotKeyCache::new(4, SimDuration::from_millis(100));
        let t0 = SimTime::ZERO;
        assert!(
            !cache.repair(NodeId(1), stamp(3, 1), b"w", t0),
            "repair of an uncached key is a no-op"
        );
        assert!(cache.is_empty());
        cache.fill(NodeId(1), stamp(3, 1), b"old", t0);
        assert!(cache.repair(NodeId(1), stamp(4, 1), b"new", t0));
        assert_eq!(cache.get(NodeId(1), t0).unwrap().1, &b"new".to_vec());
        assert!(
            !cache.repair(NodeId(1), stamp(2, 1), b"older", t0),
            "repair never downgrades"
        );
    }

    #[test]
    fn outcome_accessors() {
        let got = ReadOutcome::Got {
            request_id: RequestId(1),
            key: NodeId(2),
            value: Some(StampedValue {
                stamp: stamp(3, 4),
                value: vec![1],
            }),
            source: ReadSource::Replica,
            hops: 2,
            responder: NodeAddr(9),
            completed_at: SimTime::ZERO,
        };
        assert_eq!(got.request_id(), RequestId(1));
        assert!(got.is_success());
        let timeout = ReadOutcome::TimedOut {
            request_id: RequestId(5),
            key: NodeId(2),
            completed_at: SimTime::ZERO,
        };
        assert!(!timeout.is_success());
    }
}
