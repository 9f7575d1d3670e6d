//! Lookup requests and origin-side bookkeeping.

use crate::entry::PeerInfo;
use crate::id::NodeId;
use crate::routing::RoutingAlgorithm;
use serde::{Deserialize, Serialize};
use simnet::{NodeAddr, SimTime};

/// Identifier of a lookup / DHT request, unique per origin node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RequestId(pub u64);

/// The path length [`LookupRequest::new`] sizes `visited` for. Lookups on
/// a settled 10⁴-node overlay pass 6.3 nodes at the median and 12.5 at the
/// 99th percentile; a path up to this long is recorded in the one buffer
/// its origin allocates, a longer one regrows once.
const TYPICAL_PATH: usize = 8;

/// A routed lookup request (the payload of [`crate::messages::TreePMessage::Lookup`]).
///
/// The request moves from hop to hop by value. `visited` is allocated once,
/// at the origin, for a path of eight nodes; NGSA reserves its three
/// `fallbacks` once, at the first it records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LookupRequest {
    /// Identifier assigned by the origin.
    pub request_id: RequestId,
    /// The node that issued the request (answers are sent straight back to
    /// it, as in the paper's "transmit back the result").
    pub origin: PeerInfo,
    /// The identifier being resolved (a node ID or an object/resource ID).
    pub target: NodeId,
    /// The routing algorithm carrying this request.
    pub algorithm: RoutingAlgorithm,
    /// Hops travelled so far (compared against the TTL limit of 255).
    pub ttl: u32,
    /// Addresses already visited, recorded for hop accounting and used by
    /// the NGSA variant to avoid bouncing between the same nodes.
    pub visited: Vec<NodeAddr>,
    /// Alternative next hops accumulated by the NGSA algorithm ("these
    /// additional routing paths are provided at the expense of adding data
    /// to the request").
    pub fallbacks: Vec<PeerInfo>,
}

impl LookupRequest {
    /// Create a fresh request originating at `origin`, with room on its
    /// path for a typical lookup.
    pub fn new(
        request_id: RequestId,
        origin: PeerInfo,
        target: NodeId,
        algorithm: RoutingAlgorithm,
    ) -> Self {
        LookupRequest {
            request_id,
            origin,
            target,
            algorithm,
            ttl: 0,
            visited: Vec::with_capacity(TYPICAL_PATH),
            fallbacks: Vec::new(),
        }
    }

    /// Record a hop through `addr`, incrementing the TTL.
    pub fn advance(&mut self, addr: NodeAddr) {
        self.ttl += 1;
        self.visited.push(addr);
    }

    /// Number of overlay hops travelled so far.
    pub(crate) fn hops(&self) -> u32 {
        self.ttl
    }

    /// True when `addr` already appears on the path.
    pub(crate) fn has_visited(&self, addr: NodeAddr) -> bool {
        self.visited.contains(&addr)
    }
}

/// How a lookup concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LookupStatus {
    /// The target was resolved.
    Found,
    /// A dead end replied "not found".
    NotFound,
    /// No answer arrived before the origin's timeout (lost request, dead
    /// next hop, or TTL exhaustion mid-path).
    TimedOut,
}

impl LookupStatus {
    /// True only for [`LookupStatus::Found`].
    pub fn is_success(self) -> bool {
        matches!(self, LookupStatus::Found)
    }
}

/// The origin-side record of a completed lookup; experiments drain these to
/// build the paper's figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LookupOutcome {
    /// The request identifier.
    pub request_id: RequestId,
    /// The identifier that was being resolved.
    pub target: NodeId,
    /// The algorithm used.
    pub algorithm: RoutingAlgorithm,
    /// Final status.
    pub status: LookupStatus,
    /// Hops travelled (as reported by the answering node; for timeouts this
    /// is 0 because the origin never hears back).
    pub hops: u32,
    /// When the lookup started.
    pub started_at: SimTime,
    /// When the outcome was recorded.
    pub completed_at: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
    use crate::config::ChildPolicy;

    fn origin() -> PeerInfo {
        PeerInfo {
            id: NodeId(1),
            addr: NodeAddr(1),
            max_level: 0,
            summary: CharacteristicsSummary::of(
                &NodeCharacteristics::default(),
                ChildPolicy::Fixed(4),
            ),
        }
    }

    #[test]
    fn advance_tracks_path_and_ttl() {
        let mut req =
            LookupRequest::new(RequestId(7), origin(), NodeId(99), RoutingAlgorithm::Greedy);
        assert_eq!(req.hops(), 0);
        req.advance(NodeAddr(2));
        req.advance(NodeAddr(3));
        assert_eq!(req.hops(), 2);
        assert!(req.has_visited(NodeAddr(2)));
        assert!(!req.has_visited(NodeAddr(9)));
    }

    #[test]
    fn status_success_flag() {
        assert!(LookupStatus::Found.is_success());
        assert!(!LookupStatus::NotFound.is_success());
        assert!(!LookupStatus::TimedOut.is_success());
    }
}
