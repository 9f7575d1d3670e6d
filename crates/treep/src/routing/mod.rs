//! Routing / lookup next-hop selection (Section III.f).
//!
//! Three algorithms are evaluated in the paper:
//!
//! * **G** — greedy: forward to the known peer minimising the hierarchical
//!   distance `D(n, x)`, subject to the halving criterion
//!   `D(n, x) <= D(a, x) / 2`.
//! * **NG** — non-greedy: forward to a peer that merely *improves* the plain
//!   Euclidean distance to the target.
//! * **NGSA** — non-greedy with fall-back: like NG but alternative next hops
//!   are carried inside the request and used when the primary path dead-ends.
//!
//! All three share the same escape hatches from Figure 3 (forward to the
//! closest child, or to a superior — preferring the highest-level one) and
//! the same TTL handling: requests older than 255 hops are discarded, and a
//! request whose TTL already exceeds the height of the hierarchy switches
//! from `D` to the plain Euclidean distance ("a request that has a higher
//! TTL means that the network is unstable and/or disrupted").
//!
//! None of them hands a request to a **suspect** — an entry whose peer has
//! been silent past the suspicion age of its owner
//! ([`RoutingTables::is_suspect`]; the membership layer of the node says
//! where the age comes from). The candidate scans of all three algorithms,
//! the three probes of the escape hatch and the "target is in my table"
//! shortcut of [`route`] read the registry through
//! `RouterView::is_live`, so the best candidate is the best one that has
//! been heard of lately; when only suspects qualify, the node routes as if
//! they had expired already. There is no unfiltered variant: tables whose
//! cut-off was never set suspect nobody.

mod greedy;
mod ngsa;
mod non_greedy;

use greedy::greedy_next_hop;
use ngsa::ngsa_next_hop;
use non_greedy::non_greedy_next_hop;

use crate::distance::HierarchicalDistance;
use crate::entry::RoutingEntry;
use crate::id::NodeId;
use crate::lookup::LookupRequest;
use crate::tables::RoutingTables;
use serde::{Deserialize, Serialize};
use simnet::NodeAddr;

/// The three lookup algorithms of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RoutingAlgorithm {
    /// Greedy (G).
    Greedy,
    /// Non-greedy (NG).
    NonGreedy,
    /// Non-greedy with fall-back paths (NGSA).
    NonGreedyFallback,
}

impl RoutingAlgorithm {
    /// All algorithms, in the order the paper presents them.
    pub const ALL: [RoutingAlgorithm; 3] = [
        RoutingAlgorithm::Greedy,
        RoutingAlgorithm::NonGreedy,
        RoutingAlgorithm::NonGreedyFallback,
    ];

    /// Short label used in reports ("G", "NG", "NGSA").
    pub fn label(self) -> &'static str {
        match self {
            RoutingAlgorithm::Greedy => "G",
            RoutingAlgorithm::NonGreedy => "NG",
            RoutingAlgorithm::NonGreedyFallback => "NGSA",
        }
    }
}

impl std::fmt::Display for RoutingAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Everything the next-hop selection needs to know about the local node.
pub struct RouterView<'a> {
    /// The local routing tables.
    pub tables: &'a RoutingTables,
    /// The hierarchical distance function (space + height).
    pub dist: &'a HierarchicalDistance,
    /// The local node's identifier.
    pub self_id: NodeId,
    /// The local node's maximum level.
    pub self_level: u32,
    /// The local node's transport address.
    pub self_addr: NodeAddr,
    /// Maximum TTL before a request is discarded (paper: 255).
    pub max_ttl: u32,
}

impl<'a> RouterView<'a> {
    /// The metric used at the current TTL: hierarchical `D` normally, plain
    /// Euclidean once the TTL exceeds the hierarchy height.
    pub fn metric(&self, entry_id: NodeId, entry_level: u32, target: NodeId, ttl: u32) -> u64 {
        if ttl > self.dist.height() {
            self.dist.euclidean(entry_id, target)
        } else {
            self.dist.hierarchical(entry_id, entry_level, target)
        }
    }

    /// The local node's own metric toward `target` at the given TTL.
    pub fn self_metric(&self, target: NodeId, ttl: u32) -> u64 {
        self.metric(self.self_id, self.self_level, target, ttl)
    }

    /// True when `entry` may be handed a request: it is another node and
    /// not a suspect ([`RoutingTables::is_suspect`]).
    pub(crate) fn is_live(&self, entry: &RoutingEntry) -> bool {
        entry.addr != self.self_addr && !self.tables.is_suspect(entry)
    }
}

/// Decision produced by the next-hop selection.
#[derive(Debug, Clone, PartialEq)]
pub enum RouteDecision {
    /// The target is in the local routing table (or is the local node);
    /// answer the origin with this entry.
    Found(RoutingEntry),
    /// Forward the (already updated) request to this peer.
    Forward(RoutingEntry),
    /// Dead end: reply "not found" to the origin.
    NotFound,
    /// TTL exceeded: silently discard (the origin will time out).
    Drop,
}

/// Run the next-hop selection for `req` at the node described by `view`.
///
/// The request is passed mutably because the NGSA algorithm records and
/// consumes fall-back candidates inside it.
pub fn route(view: &RouterView<'_>, req: &mut LookupRequest) -> RouteDecision {
    if req.ttl >= view.max_ttl {
        return RouteDecision::Drop;
    }
    // "IF target X is in the routing table THEN transmit back the result."
    // A suspect entry vouches for nobody: the request travels on toward a
    // node that has heard the target lately, or ends as not found.
    let in_table = view.tables.find(req.target);
    if let Some(e) = in_table.filter(|e| !view.tables.is_suspect(e)) {
        return RouteDecision::Found(*e);
    }
    match req.algorithm {
        RoutingAlgorithm::Greedy => greedy_next_hop(view, req),
        RoutingAlgorithm::NonGreedy => non_greedy_next_hop(view, req),
        RoutingAlgorithm::NonGreedyFallback => ngsa_next_hop(view, req),
    }
}

/// Shared escape hatch of Figure 3 when the primary criterion produces no
/// candidate: try the superior list (preferring the highest level), then the
/// closest own child; `None` means a genuine dead end.
pub(crate) fn fallback_hop(view: &RouterView<'_>, req: &LookupRequest) -> Option<RoutingEntry> {
    // "Forward the request to the node that is the closest to X satisfying
    // the halving criterion; if none match the criteria send the request to
    // the superior node with the highest level."
    let self_metric = view.self_metric(req.target, req.ttl);
    let mut best_superior: Option<&RoutingEntry> = None;
    for s in view.tables.superiors() {
        if !view.is_live(s) || req.has_visited(s.addr) {
            continue;
        }
        let m = view.metric(s.id, s.max_level, req.target, req.ttl);
        if m <= self_metric / 2 {
            match best_superior {
                Some(cur) => {
                    let cur_m = view.metric(cur.id, cur.max_level, req.target, req.ttl);
                    if m < cur_m {
                        best_superior = Some(s);
                    }
                }
                None => best_superior = Some(s),
            }
        }
    }
    if let Some(s) = best_superior {
        return Some(*s);
    }
    // Superior with the highest level, visited or not (last resort up the tree).
    if let Some(s) = view.tables.highest_superior() {
        if s.addr != view.self_addr && !req.has_visited(s.addr) {
            return Some(*s);
        }
    }
    // "ELSE IF Level_A == 0 THEN N = Closest_Child(X)" — in our reading the
    // level-0 check guards the parent-originated branch; a node that has
    // children (level > 0) falls back to the child closest to the target.
    if let Some(c) = view.tables.closest_child(req.target) {
        if c.addr != view.self_addr && !req.has_visited(c.addr) {
            return Some(*c);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
    use crate::config::ChildPolicy;
    use crate::entry::PeerInfo;
    use crate::id::IdSpace;
    use crate::lookup::RequestId;
    use simnet::SimTime;

    fn summary() -> CharacteristicsSummary {
        CharacteristicsSummary::of(&NodeCharacteristics::default(), ChildPolicy::Fixed(4))
    }

    fn entry(id: u64, level: u32) -> RoutingEntry {
        RoutingEntry::new(NodeId(id), NodeAddr(id), level, SimTime::ZERO)
    }

    fn origin(id: u64) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(id),
            max_level: 0,
            summary: summary(),
        }
    }

    fn view<'a>(
        tables: &'a RoutingTables,
        dist: &'a HierarchicalDistance,
        self_id: u64,
        self_level: u32,
    ) -> RouterView<'a> {
        RouterView {
            tables,
            dist,
            self_id: NodeId(self_id),
            self_level,
            self_addr: NodeAddr(self_id),
            max_ttl: 255,
        }
    }

    #[test]
    fn ttl_exhaustion_drops() {
        let tables = RoutingTables::new();
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let v = view(&tables, &dist, 0, 0);
        let mut req =
            LookupRequest::new(RequestId(1), origin(0), NodeId(9), RoutingAlgorithm::Greedy);
        req.ttl = 255;
        assert_eq!(route(&v, &mut req), RouteDecision::Drop);
    }

    #[test]
    fn target_in_table_is_found_for_every_algorithm() {
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(500, 0));
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let v = view(&tables, &dist, 0, 0);
        for algo in RoutingAlgorithm::ALL {
            let mut req = LookupRequest::new(RequestId(1), origin(0), NodeId(500), algo);
            match route(&v, &mut req) {
                RouteDecision::Found(e) => assert_eq!(e.id, NodeId(500)),
                other => panic!("{algo}: expected Found, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_tables_are_a_dead_end() {
        let tables = RoutingTables::new();
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let v = view(&tables, &dist, 0, 0);
        for algo in RoutingAlgorithm::ALL {
            let mut req = LookupRequest::new(RequestId(1), origin(0), NodeId(500), algo);
            assert_eq!(route(&v, &mut req), RouteDecision::NotFound, "{algo}");
        }
    }

    #[test]
    fn euclidean_fallback_after_height_hops() {
        // A far-away high-level peer looks close under D but far under the
        // Euclidean metric; once ttl > height the metric must switch.
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let tables = RoutingTables::new();
        let v = view(&tables, &dist, 0, 0);
        let target = NodeId(60_000);
        let m_low_ttl = v.metric(NodeId(20_000), 5, target, 2);
        let m_high_ttl = v.metric(NodeId(20_000), 5, target, 10);
        assert!(m_low_ttl < m_high_ttl);
        assert_eq!(m_high_ttl, 40_000);
    }

    #[test]
    fn fallback_prefers_improving_superior_then_highest() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        // Superior at level 4 close to the target and one at level 5 far away.
        tables.upsert_superior(entry(50_000, 4));
        tables.upsert_superior(entry(1_000, 5));
        let v = view(&tables, &dist, 10, 0);
        let req = LookupRequest::new(
            RequestId(1),
            origin(10),
            NodeId(55_000),
            RoutingAlgorithm::Greedy,
        );
        let hop = fallback_hop(&v, &req).unwrap();
        assert_eq!(hop.id, NodeId(50_000), "the improving superior wins");

        // If the improving superior was already visited, fall back to the
        // highest-level one.
        let mut req2 = LookupRequest::new(
            RequestId(2),
            origin(10),
            NodeId(55_000),
            RoutingAlgorithm::Greedy,
        );
        req2.advance(NodeAddr(50_000));
        let hop2 = fallback_hop(&v, &req2).unwrap();
        assert_eq!(hop2.id, NodeId(1_000));
    }

    #[test]
    fn fallback_uses_closest_child_when_no_superiors() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_child(entry(100, 0), true);
        tables.upsert_child(entry(40_000, 0), true);
        let v = view(&tables, &dist, 30_000, 1);
        let req = LookupRequest::new(
            RequestId(1),
            origin(30_000),
            NodeId(45_000),
            RoutingAlgorithm::Greedy,
        );
        assert_eq!(fallback_hop(&v, &req).unwrap().id, NodeId(40_000));
    }

    #[test]
    fn fallback_skips_a_suspect_highest_superior_and_a_suspect_child() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        // Neither superior halves the distance, so the level decides.
        tables.upsert_superior(entry(1_000, 5)); // highest, silent since 0
        tables.upsert_superior(entry(2_000, 4));
        tables.touch(NodeId(2_000), SimTime::from_millis(5));
        tables.set_suspect_before(SimTime::from_millis(1));
        let v = view(&tables, &dist, 10, 0);
        let req =
            |algorithm| LookupRequest::new(RequestId(1), origin(10), NodeId(55_000), algorithm);
        let hop = fallback_hop(&v, &req(RoutingAlgorithm::Greedy)).unwrap();
        assert_eq!(hop.id, NodeId(2_000));

        // Children: the closest one is silent, the next one is taken.
        let mut tables = RoutingTables::new();
        tables.upsert_child(entry(50_000, 0), true);
        tables.upsert_child(entry(40_000, 0), true);
        tables.touch(NodeId(40_000), SimTime::from_millis(5));
        tables.set_suspect_before(SimTime::from_millis(1));
        let v = view(&tables, &dist, 30_000, 1);
        let hop = fallback_hop(&v, &req(RoutingAlgorithm::Greedy)).unwrap();
        assert_eq!(hop.id, NodeId(40_000));
    }

    #[test]
    fn a_suspect_entry_does_not_answer_found() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(500, 0)); // the target, silent since 0
        tables.upsert_level0(entry(400, 0));
        tables.touch(NodeId(400), SimTime::from_millis(5));
        tables.set_suspect_before(SimTime::from_millis(1));
        let v = view(&tables, &dist, 0, 0);
        for algo in RoutingAlgorithm::ALL {
            let mut req = LookupRequest::new(RequestId(1), origin(0), NodeId(500), algo);
            match route(&v, &mut req) {
                // Passed on to a peer that may have heard the target since.
                RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(400), "{algo}"),
                other => panic!("{algo}: expected Forward, got {other:?}"),
            }
        }
        // Heard again, the entry vouches for the target at once.
        tables.upsert_level0(entry(500, 0));
        tables.touch(NodeId(500), SimTime::from_millis(5));
        let v = view(&tables, &dist, 0, 0);
        let mut req = LookupRequest::new(
            RequestId(1),
            origin(0),
            NodeId(500),
            RoutingAlgorithm::Greedy,
        );
        assert!(matches!(route(&v, &mut req), RouteDecision::Found(e) if e.id == NodeId(500)));
    }

    #[test]
    fn labels() {
        assert_eq!(RoutingAlgorithm::Greedy.label(), "G");
        assert_eq!(RoutingAlgorithm::NonGreedy.to_string(), "NG");
        assert_eq!(RoutingAlgorithm::NonGreedyFallback.label(), "NGSA");
    }
}
