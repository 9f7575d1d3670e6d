//! The non-greedy (NG) routing algorithm.
//!
//! NG relaxes the greedy halving criterion: it forwards to a known peer that
//! merely *improves* the plain Euclidean distance to the target ("the
//! algorithm returns a node n that verifies the condition d(n, x) − d(a, x)
//! < 0; the procedure basically ends when a node satisfying the condition is
//! found").

use super::{fallback_hop, RouteDecision, RouterView};
use crate::entry::RoutingEntry;
use crate::lookup::LookupRequest;

/// The strictly-improving peers by Euclidean distance, closest first; empty
/// when no known peer improves on the local node. NG reads the first, the
/// NGSA variant also the runners-up.
///
/// The registry's ordered outward walk from the target yields peers in
/// `(euclidean distance, id)` order, so the walk is read lazily and **stops
/// at the first non-improving peer**: every peer after it is at least as
/// far from the target. Nothing is allocated or sorted.
pub(crate) fn improving_candidates<'a>(
    view: &'a RouterView<'a>,
    req: &LookupRequest,
) -> impl Iterator<Item = RoutingEntry> + 'a {
    let target = req.target;
    let self_d = view.dist.euclidean(view.self_id, target);
    view.tables
        .peers_outward_from(target)
        .take_while(move |p| view.dist.euclidean(p.id, target) < self_d)
        .filter(|p| view.is_live(p))
        .copied()
}

/// Pick the next hop for the NG algorithm.
pub(crate) fn non_greedy_next_hop(view: &RouterView<'_>, req: &mut LookupRequest) -> RouteDecision {
    if let Some(best) = improving_candidates(view, req).next() {
        return RouteDecision::Forward(best);
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
    use crate::id::{IdSpace, NodeId};
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
            RoutingAlgorithm::NonGreedy,
        )
    }

    fn view<'a>(
        tables: &'a RoutingTables,
        dist: &'a HierarchicalDistance,
        self_id: u64,
    ) -> RouterView<'a> {
        RouterView {
            tables,
            dist,
            self_id: NodeId(self_id),
            self_level: 0,
            self_addr: NodeAddr(self_id),
            max_ttl: 255,
        }
    }

    #[test]
    fn accepts_any_improvement() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        // A marginal improvement that greedy would reject (no halving).
        tables.upsert_level0(entry(5_000, 0));
        let v = view(&tables, &dist, 0);
        let mut r = req(0, 40_000);
        match non_greedy_next_hop(&v, &mut r) {
            RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(5_000)),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn picks_the_closest_improving_peer() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(5_000, 0));
        tables.upsert_level0(entry(35_000, 0));
        tables.upsert_level0(entry(50_000, 0)); // further than the target from us? improving check handles it
        let v = view(&tables, &dist, 0);
        let mut r = req(0, 40_000);
        match non_greedy_next_hop(&v, &mut r) {
            RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(35_000)),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn non_improving_peers_lead_to_dead_end() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(60_000, 0)); // further from the target than we are
        let v = view(&tables, &dist, 30_000);
        let mut r = req(30_000, 20_000);
        assert_eq!(non_greedy_next_hop(&v, &mut r), RouteDecision::NotFound);
    }

    #[test]
    fn improving_candidates_are_sorted_by_distance() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(10_000, 0));
        tables.upsert_level0(entry(30_000, 0));
        tables.upsert_level0(entry(39_000, 0));
        let v = view(&tables, &dist, 0);
        let r = req(0, 40_000);
        let cands = improving_candidates(&v, &r);
        let ids: Vec<u64> = cands.map(|e| e.id.0).collect();
        assert_eq!(ids, vec![39_000, 30_000, 10_000]);
    }

    #[test]
    fn a_suspect_best_candidate_loses_to_a_live_runner_up() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(39_000, 0)); // nearest, silent since 0
        tables.upsert_level0(entry(30_000, 0));
        tables.touch(NodeId(30_000), SimTime::from_millis(5));
        tables.set_suspect_before(SimTime::from_millis(1));
        let v = view(&tables, &dist, 0);
        match non_greedy_next_hop(&v, &mut req(0, 40_000)) {
            RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(30_000)),
            other => panic!("expected forward, got {other:?}"),
        }
    }

    #[test]
    fn only_suspects_improving_is_a_dead_end() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(39_000, 0));
        tables.set_suspect_before(SimTime::from_millis(1));
        let v = view(&tables, &dist, 0);
        assert_eq!(
            non_greedy_next_hop(&v, &mut req(0, 40_000)),
            RouteDecision::NotFound,
            "as if the suspect had already expired"
        );
    }
}
