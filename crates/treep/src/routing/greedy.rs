//! The greedy (G) routing algorithm of Figure 3.

use super::{fallback_hop, RouteDecision, RouterView};
use crate::entry::RoutingEntry;
use crate::id::NodeId;
use crate::lookup::LookupRequest;

/// Pick the next hop greedily: the known peer with the smallest hierarchical
/// distance to the target, subject to the halving criterion
/// `D(n, x) <= D(a, x) / 2`. Falls back to the superior list / closest child
/// when no peer halves the distance.
///
/// The candidate scan is one in-order pass over the registry
/// ([`RouterView::tables`]'s `peers`), keeping the lexicographic minimum
/// of `(metric, euclid, id)`: the hierarchical metric is not monotone in
/// identifier distance (a high-level peer's coverage radius can zero its
/// distance from far away), so every peer is examined anyway, and a plain
/// walk does it without the outward walk's two cursors.
pub(crate) fn greedy_next_hop(view: &RouterView<'_>, req: &mut LookupRequest) -> RouteDecision {
    let target = req.target;
    let self_metric = view.self_metric(target, req.ttl);
    let mut best: Option<((u64, u64, NodeId), RoutingEntry)> = None;
    for peer in view.tables.peers() {
        if !view.is_live(peer) {
            continue;
        }
        let metric = view.metric(peer.id, peer.max_level, target, req.ttl);
        if metric > self_metric / 2 {
            continue;
        }
        let rank = (metric, view.dist.euclidean(peer.id, target), peer.id);
        if best.is_none_or(|(cur, _)| rank < cur) {
            best = Some((rank, *peer));
        }
    }
    if let Some((_, entry)) = best {
        return RouteDecision::Forward(entry);
    }
    match fallback_hop(view, req) {
        Some(entry) => RouteDecision::Forward(entry),
        None => RouteDecision::NotFound,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
    use crate::config::ChildPolicy;
    use crate::distance::HierarchicalDistance;
    use crate::entry::PeerInfo;
    use crate::id::IdSpace;
    use crate::lookup::RequestId;
    use crate::routing::RoutingAlgorithm;
    use crate::tables::RoutingTables;
    use simnet::{NodeAddr, SimTime};

    fn summary() -> CharacteristicsSummary {
        CharacteristicsSummary::of(&NodeCharacteristics::default(), ChildPolicy::Fixed(4))
    }

    fn entry(id: u64, level: u32) -> RoutingEntry {
        RoutingEntry::new(NodeId(id), NodeAddr(id), level, SimTime::ZERO)
    }

    fn req(origin_id: u64, target: u64) -> LookupRequest {
        LookupRequest::new(
            RequestId(1),
            PeerInfo {
                id: NodeId(origin_id),
                addr: NodeAddr(origin_id),
                max_level: 0,
                summary: summary(),
            },
            NodeId(target),
            RoutingAlgorithm::Greedy,
        )
    }

    #[test]
    fn forwards_to_the_peer_minimising_hierarchical_distance() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(10_000, 0));
        tables.upsert_level0(entry(30_000, 0));
        tables.set_parent(entry(5_000, 1));
        let view = RouterView {
            tables: &tables,
            dist: &dist,
            self_id: NodeId(0),
            self_level: 0,
            self_addr: NodeAddr(0),
            max_ttl: 255,
        };
        let mut r = req(0, 40_000);
        match greedy_next_hop(&view, &mut r) {
            RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(30_000)),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn halving_criterion_rejects_marginal_improvements() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        // Only a marginally closer peer: d(self, x) = 40_000, d(peer, x) = 35_000
        // which is > 20_000, so the halving rule rejects it and the request
        // dead-ends (no superiors, no children).
        tables.upsert_level0(entry(5_000, 0));
        let view = RouterView {
            tables: &tables,
            dist: &dist,
            self_id: NodeId(0),
            self_level: 0,
            self_addr: NodeAddr(0),
            max_ttl: 255,
        };
        let mut r = req(0, 40_000);
        assert_eq!(greedy_next_hop(&view, &mut r), RouteDecision::NotFound);
    }

    #[test]
    fn high_level_peers_win_thanks_to_coverage() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(39_000, 0)); // euclid 1_000 from target
        tables.upsert_superior(entry(20_000, 5)); // covers radius 32768 -> D = 0
        let view = RouterView {
            tables: &tables,
            dist: &dist,
            self_id: NodeId(0),
            self_level: 0,
            self_addr: NodeAddr(0),
            max_ttl: 255,
        };
        let mut r = req(0, 40_000);
        match greedy_next_hop(&view, &mut r) {
            RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(20_000), "D=0 beats D=1000"),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn never_forwards_to_self() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(7, 0)); // same address as self
        let view = RouterView {
            tables: &tables,
            dist: &dist,
            self_id: NodeId(7),
            self_level: 0,
            self_addr: NodeAddr(7),
            max_ttl: 255,
        };
        let mut r = req(7, 60_000);
        assert_eq!(greedy_next_hop(&view, &mut r), RouteDecision::NotFound);
    }

    #[test]
    fn a_suspect_best_candidate_loses_to_a_live_runner_up() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(39_000, 0)); // best placed, silent since 0
        tables.upsert_level0(entry(30_000, 0));
        tables.touch(NodeId(30_000), SimTime::from_millis(5));
        let next = |tables: &RoutingTables| {
            let view = RouterView {
                tables,
                dist: &dist,
                self_id: NodeId(0),
                self_level: 0,
                self_addr: NodeAddr(0),
                max_ttl: 255,
            };
            match greedy_next_hop(&view, &mut req(0, 40_000)) {
                RouteDecision::Forward(e) => e.id,
                other => panic!("expected forward, got {other:?}"),
            }
        };
        assert_eq!(next(&tables), NodeId(39_000), "nobody is a suspect yet");
        tables.set_suspect_before(SimTime::from_millis(1));
        assert_eq!(next(&tables), NodeId(30_000));
    }
}
