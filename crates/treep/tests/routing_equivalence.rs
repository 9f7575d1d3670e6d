//! Equivalence of the registry-walk next-hop selection against the old
//! `all_peers()` copy-and-scan, on seeded random registries.
//!
//! The greedy / NG / NGSA candidate scans were rewritten to walk the
//! registry's ordered neighbours of the target outward (no `Vec` copy, no
//! sort, early termination for the Euclidean scans). This test replays the
//! *old* selection logic — reimplemented here verbatim as the reference —
//! over hundreds of random `(registry, self, target)` instances and asserts
//! the production `route()` decision is identical in every case.

use simnet::{NodeAddr, SimTime};
use treep::routing::{route, RouteDecision, RouterView};
use treep::{
    CharacteristicsSummary, ChildPolicy, HierarchicalDistance, IdSpace, NodeCharacteristics,
    NodeId, PeerInfo, RoutingAlgorithm, RoutingEntry, RoutingTables,
};
use treep::{LookupRequest, RequestId};

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

fn summary() -> CharacteristicsSummary {
    CharacteristicsSummary::of(&NodeCharacteristics::default(), ChildPolicy::Fixed(4))
}

fn entry(id: u64, level: u32) -> RoutingEntry {
    RoutingEntry::new(NodeId(id), NodeAddr(id), level, SimTime::ZERO)
}

/// A random registry mixing every role and level, 0–40 peers.
fn random_tables(state: &mut u64, space_bits: u32) -> RoutingTables {
    let mut tables = RoutingTables::new();
    let peers = (xorshift(state) % 41) as usize;
    let max_id = 1u64 << space_bits;
    for _ in 0..peers {
        let id = xorshift(state) % max_id;
        let level = (xorshift(state) % 7) as u32;
        match xorshift(state) % 5 {
            0 => tables.upsert_level0(entry(id, 0)),
            1 => tables.upsert_level(level.max(1), entry(id, level.max(1))),
            2 => tables.upsert_child(
                entry(id, level.saturating_sub(4)),
                xorshift(state).is_multiple_of(2),
            ),
            3 => tables.upsert_superior(entry(id, level)),
            _ => tables.set_parent(entry(id, level.max(1))),
        }
    }
    tables
}

/// The old greedy candidate scan: copy every peer, keep the `(metric,
/// euclid, id)` minimum subject to the halving criterion.
fn reference_greedy(view: &RouterView<'_>, req: &LookupRequest) -> Option<RoutingEntry> {
    let target = req.target;
    let self_metric = view.self_metric(target, req.ttl);
    let mut best: Option<(u64, u64, RoutingEntry)> = None;
    for peer in view.tables.all_peers() {
        if peer.addr == view.self_addr {
            continue;
        }
        let metric = view.metric(peer.id, peer.max_level, target, req.ttl);
        if metric > self_metric / 2 {
            continue;
        }
        let euclid = view.dist.euclidean(peer.id, target);
        let candidate = (metric, euclid, peer);
        best = match best {
            None => Some(candidate),
            Some(cur) => {
                if (candidate.0, candidate.1, candidate.2.id) < (cur.0, cur.1, cur.2.id) {
                    Some(candidate)
                } else {
                    Some(cur)
                }
            }
        };
    }
    best.map(|(_, _, e)| e)
}

/// The old NG candidate scan: copy, filter improving, sort by
/// `(euclid, id)`.
fn reference_improving(view: &RouterView<'_>, req: &LookupRequest) -> Vec<RoutingEntry> {
    let target = req.target;
    let self_d = view.dist.euclidean(view.self_id, target);
    let mut improving: Vec<RoutingEntry> = view
        .tables
        .all_peers()
        .into_iter()
        .filter(|p| p.addr != view.self_addr)
        .filter(|p| view.dist.euclidean(p.id, target) < self_d)
        .collect();
    improving.sort_by_key(|p| (view.dist.euclidean(p.id, target), p.id));
    improving
}

fn request(self_id: u64, target: u64, algorithm: RoutingAlgorithm) -> LookupRequest {
    LookupRequest::new(
        RequestId(1),
        PeerInfo {
            id: NodeId(self_id),
            addr: NodeAddr(self_id),
            max_level: 0,
            summary: summary(),
        },
        NodeId(target),
        algorithm,
    )
}

#[test]
fn next_hop_selection_matches_the_old_scan_on_random_registries() {
    let space_bits = 16;
    let dist = HierarchicalDistance::new(IdSpace::new(space_bits), 6);
    let mut state = 0x5eed_0041u64;
    for case in 0..400 {
        let tables = random_tables(&mut state, space_bits);
        let self_id = xorshift(&mut state) % (1 << space_bits);
        let target = xorshift(&mut state) % (1 << space_bits);
        let ttl = (xorshift(&mut state) % 12) as u32; // spans the metric switch
        let view = RouterView {
            tables: &tables,
            dist: &dist,
            self_id: NodeId(self_id),
            self_level: 0,
            self_addr: NodeAddr(self_id),
            max_ttl: 255,
        };

        // Greedy: when the reference scan has a primary candidate, the
        // production decision must forward to exactly that entry. (When it
        // has none, both sides take the identical shared fallback path.)
        let mut greedy_req = request(self_id, target, RoutingAlgorithm::Greedy);
        greedy_req.ttl = ttl;
        let reference = reference_greedy(&view, &greedy_req);
        if tables.find(NodeId(target)).is_none() {
            if let Some(expected) = reference {
                let mut req = greedy_req.clone();
                match route(&view, &mut req) {
                    RouteDecision::Forward(got) => assert_eq!(
                        got.id, expected.id,
                        "case {case}: greedy forwarded to {:?}, old scan chose {:?}",
                        got.id, expected.id
                    ),
                    other => panic!("case {case}: greedy {other:?}, old scan forwarded"),
                }
            }
        }

        // NG / NGSA: the ordered improving-candidate list drives both; when
        // the reference list is non-empty the production decision must
        // forward to its head (NG) / its first unvisited entry (NGSA, with
        // the runners-up recorded as fallbacks in reference order).
        let mut ng_req = request(self_id, target, RoutingAlgorithm::NonGreedy);
        ng_req.ttl = ttl;
        let improving = reference_improving(&view, &ng_req);
        if tables.find(NodeId(target)).is_none() {
            if let Some(expected) = improving.first() {
                let mut req = ng_req.clone();
                match route(&view, &mut req) {
                    RouteDecision::Forward(got) => assert_eq!(got.id, expected.id, "case {case}"),
                    other => panic!("case {case}: NG {other:?}, old scan forwarded"),
                }

                let mut ngsa_req = request(self_id, target, RoutingAlgorithm::NonGreedyFallback);
                ngsa_req.ttl = ttl;
                match route(&view, &mut ngsa_req) {
                    RouteDecision::Forward(got) => {
                        assert_eq!(got.id, expected.id, "case {case}: NGSA primary");
                        let expected_fallbacks: Vec<NodeId> = improving
                            .iter()
                            .skip(1)
                            .map(|e| e.id)
                            .take(ngsa_req.fallbacks.len())
                            .collect();
                        let got_fallbacks: Vec<NodeId> =
                            ngsa_req.fallbacks.iter().map(|f| f.id).collect();
                        assert_eq!(
                            got_fallbacks, expected_fallbacks,
                            "case {case}: NGSA fallback order"
                        );
                    }
                    other => panic!("case {case}: NGSA {other:?}, old scan forwarded"),
                }
            }
        }
    }
}

#[test]
fn outward_walk_equals_sorted_all_peers_everywhere() {
    // Stronger than the routing check: the walk order itself must equal
    // sorting the full copy by (distance to key, id), for every key probed.
    let space_bits = 12;
    let mut state = 0xfeed_5678u64;
    for _ in 0..100 {
        let tables = random_tables(&mut state, space_bits);
        let key = NodeId(xorshift(&mut state) % (1 << space_bits));
        let walked: Vec<NodeId> = tables.peers_outward_from(key).map(|e| e.id).collect();
        let mut sorted: Vec<NodeId> = tables.all_peers().iter().map(|e| e.id).collect();
        sorted.sort_by_key(|id| (id.0.abs_diff(key.0), id.0));
        assert_eq!(walked, sorted);
    }
}
