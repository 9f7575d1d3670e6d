//! The non-greedy with fall-back (NGSA) routing algorithm.
//!
//! NGSA behaves like NG but, at every hop, records a handful of alternative
//! next hops *inside the request*. When the primary path reaches a dead end
//! (or a later hop finds no improving peer), the request is redirected to
//! one of the recorded alternatives instead of failing. "These additional
//! routing paths are provided at the expense of adding data to the request."

use super::non_greedy::improving_candidates;
use super::{fallback_hop, RouteDecision, RouterView};
use crate::entry::PeerInfo;
use crate::lookup::LookupRequest;

/// Maximum number of alternative hops carried in a request. The paper does
/// not pin the constant; three keeps the per-request overhead small while
/// still giving the algorithm an escape path.
pub(super) const MAX_FALLBACKS: usize = 3;

/// Pick the next hop for the NGSA algorithm, updating the request's
/// fall-back list.
pub(crate) fn ngsa_next_hop(view: &RouterView<'_>, req: &mut LookupRequest) -> RouteDecision {
    // Never bounce to somewhere the request has already been: the fall-back
    // list exists precisely to explore *new* branches.
    let visited = &req.visited;
    let mut fresh = improving_candidates(view, req).filter(|e| !visited.contains(&e.addr));

    if let Some(best) = fresh.next() {
        // Record the runners-up as alternative paths, reading the walk only
        // until the list is full.
        while req.fallbacks.len() < MAX_FALLBACKS {
            let Some(alt) = fresh.next() else { break };
            if !req.fallbacks.iter().any(|f| f.addr == alt.addr) {
                // Room for the whole list at the first push, none after.
                req.fallbacks
                    .reserve_exact(MAX_FALLBACKS - req.fallbacks.len());
                req.fallbacks.push(PeerInfo::from_entry(&alt));
            }
        }
        return RouteDecision::Forward(best);
    }

    // No improving peer here: use the escape hatches, then the accumulated
    // fall-back paths.
    if let Some(entry) = fallback_hop(view, req) {
        return RouteDecision::Forward(entry);
    }
    while let Some(alt) = pop_best_fallback(view, req) {
        if req.has_visited(alt.addr) || alt.addr == view.self_addr {
            continue;
        }
        return RouteDecision::Forward(alt.into_entry(simnet::SimTime::ZERO));
    }
    RouteDecision::NotFound
}

/// Remove and return the fall-back candidate closest to the target.
fn pop_best_fallback(view: &RouterView<'_>, req: &mut LookupRequest) -> Option<PeerInfo> {
    if req.fallbacks.is_empty() {
        return None;
    }
    let mut best_idx = 0;
    let mut best_d = u64::MAX;
    for (i, f) in req.fallbacks.iter().enumerate() {
        let d = view.dist.euclidean(f.id, req.target);
        if d < best_d {
            best_d = d;
            best_idx = i;
        }
    }
    Some(req.fallbacks.swap_remove(best_idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
    use crate::config::ChildPolicy;
    use crate::distance::HierarchicalDistance;
    use crate::entry::RoutingEntry;
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

    fn peer(id: u64) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(id),
            max_level: 0,
            summary: summary(),
        }
    }

    fn req(origin_id: u64, target: u64) -> LookupRequest {
        LookupRequest::new(
            RequestId(1),
            peer(origin_id),
            NodeId(target),
            RoutingAlgorithm::NonGreedyFallback,
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
    fn records_runner_ups_as_fallbacks() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(10_000, 0));
        tables.upsert_level0(entry(30_000, 0));
        tables.upsert_level0(entry(39_000, 0));
        let v = view(&tables, &dist, 0);
        let mut r = req(0, 40_000);
        match ngsa_next_hop(&v, &mut r) {
            RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(39_000)),
            other => panic!("expected forward, got {other:?}"),
        }
        let fallback_ids: Vec<u64> = r.fallbacks.iter().map(|f| f.id.0).collect();
        assert_eq!(fallback_ids, vec![30_000, 10_000]);
    }

    #[test]
    fn fallback_cap_is_respected() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        for id in [5_000u64, 10_000, 15_000, 20_000, 25_000, 30_000, 39_000] {
            tables.upsert_level0(entry(id, 0));
        }
        let v = view(&tables, &dist, 0);
        let mut r = req(0, 40_000);
        let _ = ngsa_next_hop(&v, &mut r);
        assert!(r.fallbacks.len() <= MAX_FALLBACKS);
    }

    #[test]
    fn dead_end_consumes_a_fallback() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let tables = RoutingTables::new(); // nothing known locally
        let v = view(&tables, &dist, 45_000);
        let mut r = req(0, 40_000);
        r.fallbacks.push(peer(38_000));
        r.fallbacks.push(peer(20_000));
        match ngsa_next_hop(&v, &mut r) {
            RouteDecision::Forward(e) => {
                assert_eq!(e.id, NodeId(38_000), "closest fallback is used")
            }
            other => panic!("expected forward, got {other:?}"),
        }
        assert_eq!(r.fallbacks.len(), 1);
    }

    #[test]
    fn visited_fallbacks_are_skipped() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let tables = RoutingTables::new();
        let v = view(&tables, &dist, 45_000);
        let mut r = req(0, 40_000);
        r.advance(NodeAddr(38_000));
        r.fallbacks.push(peer(38_000));
        assert_eq!(ngsa_next_hop(&v, &mut r), RouteDecision::NotFound);
    }

    #[test]
    fn does_not_revisit_nodes_on_the_path() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(39_000, 0));
        let v = view(&tables, &dist, 0);
        let mut r = req(0, 40_000);
        r.advance(NodeAddr(39_000)); // pretend we came through it already
        assert_eq!(ngsa_next_hop(&v, &mut r), RouteDecision::NotFound);
    }

    #[test]
    fn a_suspect_is_neither_chosen_nor_recorded_as_a_fallback() {
        let dist = HierarchicalDistance::new(IdSpace::new(16), 6);
        let mut tables = RoutingTables::new();
        tables.upsert_level0(entry(39_000, 0)); // nearest, silent since 0
        tables.upsert_level0(entry(30_000, 0));
        tables.touch(NodeId(30_000), SimTime::from_millis(5));
        tables.upsert_level0(entry(20_000, 0)); // a runner-up, silent too
        tables.upsert_level0(entry(10_000, 0));
        tables.touch(NodeId(10_000), SimTime::from_millis(5));
        tables.set_suspect_before(SimTime::from_millis(1));
        let v = view(&tables, &dist, 0);
        let mut r = req(0, 40_000);
        match ngsa_next_hop(&v, &mut r) {
            RouteDecision::Forward(e) => assert_eq!(e.id, NodeId(30_000)),
            other => panic!("expected forward, got {other:?}"),
        }
        let fallback_ids: Vec<u64> = r.fallbacks.iter().map(|f| f.id.0).collect();
        assert_eq!(fallback_ids, vec![10_000]);
    }
}
