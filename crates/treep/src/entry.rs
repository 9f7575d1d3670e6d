//! Routing-table entries.

use crate::characteristics::CharacteristicsSummary;
use crate::id::NodeId;
use crate::tables::Roles;
use serde::{Deserialize, Serialize};
use simnet::{NodeAddr, SimDuration, SimTime};

/// One row of a routing table: "The main information stored in the routing
/// table is a set of tuples (ID, IP, Port)" (Section III.c), augmented with
/// the peer's maximum level and a freshness timestamp ("All the entries in
/// the routing table have a timestamp associated …"). A peer's resource
/// summary travels on the wire ([`PeerInfo::summary`]) but is not kept here:
/// nothing the protocol decides reads it back.
///
/// Equality compares the four peer fields only, not the registry's role
/// bits: a copy taken out of [`crate::RoutingTables`] equals the same entry
/// built afresh.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RoutingEntry {
    /// The peer's overlay identifier (its coordinate in the 1-D space).
    pub id: NodeId,
    /// The peer's transport address (stands in for IP/port).
    pub addr: NodeAddr,
    /// Highest level the peer belongs to, as far as we know.
    pub max_level: u32,
    /// The registry tables this entry appears in. It fills what would be
    /// the struct's 4 bytes of padding, so the registry keeps each peer in
    /// 32 bytes. It says where the registry files the entry, not what is
    /// known of the peer: [`RoutingEntry::merge`] never touches it, equality
    /// ignores it, and an entry made outside the registry holds
    /// [`Roles::NONE`]. Only the registry reads or sets its bits.
    pub(crate) roles: Roles,
    /// Last time we heard from (or about) this peer.
    pub last_seen: SimTime,
}

impl PartialEq for RoutingEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.id, self.addr, self.max_level, self.last_seen)
            == (other.id, other.addr, other.max_level, other.last_seen)
    }
}

impl RoutingEntry {
    /// Create an entry freshly heard from at `now`.
    pub fn new(id: NodeId, addr: NodeAddr, max_level: u32, now: SimTime) -> Self {
        RoutingEntry {
            id,
            addr,
            max_level,
            roles: Roles::NONE,
            last_seen: now,
        }
    }

    /// Reset the freshness timestamp ("This timestamp is reset at every
    /// occurrence of an active communication with the corresponding node").
    pub fn touch(&mut self, now: SimTime) {
        if now > self.last_seen {
            self.last_seen = now;
        }
    }

    /// True when the entry has not been refreshed within `ttl` of `now`.
    pub fn is_stale(&self, now: SimTime, ttl: SimDuration) -> bool {
        now.saturating_since(self.last_seen) > ttl
    }

    /// Merge newer information about the same peer (refreshed address,
    /// level and timestamp); the registry's role bits stay as they are. Older information changes nothing: a
    /// stale copy can neither roll the canonical record back nor raise the
    /// peer's level. In particular the transport address changes only on
    /// **strictly newer** evidence, so a peer that re-joined under a new
    /// address cannot be rolled back to the dead one even by a stale gossip
    /// copy processed in the same simulation tick.
    pub fn merge(&mut self, other: &RoutingEntry) {
        debug_assert_eq!(self.id, other.id);
        if other.last_seen > self.last_seen {
            self.last_seen = other.last_seen;
            self.addr = other.addr;
            self.max_level = other.max_level;
        } else if other.last_seen == self.last_seen {
            // Same-instant information: refresh the soft fields but keep
            // the established address — same-tick copies cannot be ordered,
            // and flapping to whichever arrived last would let indirect
            // gossip override a direct contact.
            self.max_level = other.max_level;
        }
    }
}

/// A compact form of [`RoutingEntry`] carried inside protocol messages when
/// peers exchange routing information (piggy-backed updates, children lists,
/// superior lists).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PeerInfo {
    /// The peer's overlay identifier.
    pub id: NodeId,
    /// The peer's transport address.
    pub addr: NodeAddr,
    /// Highest level the peer belongs to.
    pub max_level: u32,
    /// Resource summary: the sender's own ([`crate::TreePNode::peer_info`]),
    /// [`CharacteristicsSummary::UNKNOWN`] on a relayed peer.
    pub summary: CharacteristicsSummary,
}

impl PeerInfo {
    /// Convert to a routing entry heard at `now`.
    pub(crate) fn into_entry(self, now: SimTime) -> RoutingEntry {
        RoutingEntry::new(self.id, self.addr, self.max_level, now)
    }

    /// Build from an entry (dropping the timestamp). The registry keeps no
    /// summary, so a relayed peer's is [`CharacteristicsSummary::UNKNOWN`].
    pub(crate) fn from_entry(e: &RoutingEntry) -> Self {
        PeerInfo {
            id: e.id,
            addr: e.addr,
            max_level: e.max_level,
            summary: CharacteristicsSummary::UNKNOWN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touch_only_moves_forward() {
        let mut e = RoutingEntry::new(NodeId(1), NodeAddr(1), 0, SimTime::from_millis(10));
        e.touch(SimTime::from_millis(5));
        assert_eq!(e.last_seen, SimTime::from_millis(10));
        e.touch(SimTime::from_millis(20));
        assert_eq!(e.last_seen, SimTime::from_millis(20));
    }

    #[test]
    fn staleness_respects_ttl() {
        let e = RoutingEntry::new(NodeId(1), NodeAddr(1), 0, SimTime::from_millis(100));
        let ttl = SimDuration::from_millis(50);
        assert!(!e.is_stale(SimTime::from_millis(120), ttl));
        assert!(!e.is_stale(SimTime::from_millis(150), ttl));
        assert!(e.is_stale(SimTime::from_millis(151), ttl));
        // A timestamp in the future is never stale.
        assert!(!e.is_stale(SimTime::from_millis(10), ttl));
    }

    #[test]
    fn merge_prefers_newer_information() {
        let mut old = RoutingEntry::new(NodeId(3), NodeAddr(3), 1, SimTime::from_millis(10));
        let newer = RoutingEntry::new(NodeId(3), NodeAddr(3), 2, SimTime::from_millis(20));
        old.merge(&newer);
        assert_eq!(old.max_level, 2);
        assert_eq!(old.last_seen, SimTime::from_millis(20));

        // An older entry leaves level and timestamp unchanged, even when it
        // advertises a higher level.
        let stale_high_level =
            RoutingEntry::new(NodeId(3), NodeAddr(3), 4, SimTime::from_millis(5));
        old.merge(&stale_high_level);
        assert_eq!(old.last_seen, SimTime::from_millis(20));
        assert_eq!(old.max_level, 2);
    }

    #[test]
    fn merge_adopts_newer_address_but_never_a_stale_one() {
        let mut e = RoutingEntry::new(NodeId(3), NodeAddr(30), 0, SimTime::from_millis(10));
        // The peer re-joined under a new address: newer info wins.
        let rejoined = RoutingEntry::new(NodeId(3), NodeAddr(31), 0, SimTime::from_millis(20));
        e.merge(&rejoined);
        assert_eq!(e.addr, NodeAddr(31));
        // A stale gossip copy still carrying the old address is ignored.
        let stale = RoutingEntry::new(NodeId(3), NodeAddr(30), 0, SimTime::from_millis(15));
        e.merge(&stale);
        assert_eq!(e.addr, NodeAddr(31));
        // A same-tick copy (equal timestamps are common in the discrete
        // event simulator) cannot roll the address back either.
        let same_tick = RoutingEntry::new(NodeId(3), NodeAddr(30), 1, SimTime::from_millis(20));
        e.merge(&same_tick);
        assert_eq!(
            e.addr,
            NodeAddr(31),
            "addr change needs strictly newer evidence"
        );
        assert_eq!(e.max_level, 1, "soft fields still refresh on a tie");
    }

    #[test]
    fn peer_info_round_trip() {
        let e = RoutingEntry::new(NodeId(9), NodeAddr(7), 3, SimTime::from_millis(42));
        let p = PeerInfo::from_entry(&e);
        let back = p.into_entry(SimTime::from_millis(50));
        assert_eq!(back.id, e.id);
        assert_eq!(back.addr, e.addr);
        assert_eq!(back.max_level, 3);
        assert_eq!(back.last_seen, SimTime::from_millis(50));
    }
}
