//! Section III.e — routing-table sizes and actively maintained connections
//! per level, measured against the paper's analytic accounting, for both
//! child policies — plus scaling benchmarks of the flat peer registry
//! (`treep::tables`: one identifier-sorted vector of slots with role bits).
//!
//! Sizes: n = 32 and 128 are what the protocol produces (a settled
//! 10⁴-node overlay holds 30 entries per node on average, 115 at most) and
//! so what every served keep-alive, lookup and multicast pays; 1k / 10k /
//! 100k show the asymptote. The honest trade-off of the layout:
//!
//! * `find`, `touch`, role tests and refreshing a known peer are one binary
//!   search — `O(log n)`, flat across the sizes;
//! * probes filtered by a role (`closest_child`, `bus_neighbors`, the
//!   fan-out) walk adjacent slots until one carries the bit, so they cost
//!   the gap between holders of that role, not `log n`;
//! * inserting a peer not yet known, or dropping one, is an `O(n)`
//!   `memmove` of the 56-byte slots behind it — about 3 KB on average at
//!   the largest table the protocol produces, megabytes at n = 100 000,
//!   where a tree would win; nothing in TreeP builds such a table;
//! * `expire` and `prune_level0` are a single pass whatever the number of
//!   victims (`expire_half` drops 50 000 of 100 000 entries in one
//!   `retain`; a `Vec::remove` per victim would be quadratic).

use criterion::{criterion_group, criterion_main, Criterion};
use experiments::{routing_table_report, ExperimentParams};
use simnet::{NodeAddr, SimDuration, SimTime};
use std::hint::black_box;
use treep::lookup::{LookupRequest, RequestId};
use treep::routing::{route, RouterView};
use treep::{
    CharacteristicsSummary, ChildPolicy, HierarchicalDistance, IdSpace, KeyRange,
    NodeCharacteristics, NodeId, PeerInfo, RoutingAlgorithm, RoutingEntry, RoutingTables,
};

fn bench_table_routing(c: &mut Criterion) {
    let fixed = ExperimentParams::quick(300, 2005);
    let adaptive = fixed.with_adaptive_policy();
    println!("{}", routing_table_report(&fixed).to_table().render());
    println!("{}", routing_table_report(&adaptive).to_table().render());

    let mut group = c.benchmark_group("table_routing");
    group.sample_size(10);
    group.bench_function("report_nc4_n300", |b| {
        b.iter(|| black_box(routing_table_report(&fixed)))
    });
    group.bench_function("report_adaptive_n300", |b| {
        b.iter(|| black_box(routing_table_report(&adaptive)))
    });
    group.finish();
}

// ---- registry scaling ------------------------------------------------------

fn summary() -> CharacteristicsSummary {
    CharacteristicsSummary::of(&NodeCharacteristics::default(), ChildPolicy::Fixed(4))
}

fn entry(id: u64, level: u32, at_ms: u64) -> RoutingEntry {
    RoutingEntry::new(
        NodeId(id),
        NodeAddr(id),
        level,
        summary(),
        SimTime::from_millis(at_ms),
    )
}

/// A registry with `n` peers spread over the roles: mostly level-0 contacts,
/// plus own children, a bus level, superiors and a parent, with a mix of
/// fresh and stale timestamps so `expire` has real work.
fn seeded(n: u64) -> RoutingTables {
    let mut t = RoutingTables::new();
    let stride = 4_000_000_000 / n.max(1);
    for i in 0..n {
        let id = 1 + i * stride;
        // Half the entries are stale (t=0), half fresh (t=1000).
        let at = if i % 2 == 0 { 0 } else { 1_000 };
        match i % 16 {
            0..=11 => t.upsert_level0(entry(id, 0, at)),
            12 | 13 => t.upsert_child(entry(id, 0, at), true),
            14 => t.upsert_level(1, entry(id, 1, at)),
            _ => t.upsert_superior(entry(id, 2, at)),
        }
    }
    t.set_parent(entry(3_999_999_999, 1, 1_000));
    t
}

fn bench_registry_scaling(c: &mut Criterion) {
    let space = IdSpace::default();
    for n in [32u64, 128, 1_000, 10_000, 100_000] {
        let tables = seeded(n);
        let stride = 4_000_000_000 / n;
        let hit = NodeId(1 + (n / 2) * stride);
        let name = format!("registry_{n}");
        let mut group = c.benchmark_group(&name);
        group.sample_size(20);
        group.bench_function("find_hit", |b| b.iter(|| black_box(tables.find(hit))));
        group.bench_function("find_miss", |b| {
            b.iter(|| black_box(tables.find(NodeId(2))))
        });
        group.bench_function("touch", |b| {
            let mut t = tables.clone();
            b.iter(|| black_box(t.touch(hit, SimTime::from_millis(1_000))))
        });
        // The layout's O(n) side: a peer not yet known lands mid-vector
        // and leaves again, shifting the slots behind it both times.
        group.bench_function("insert_drop_new", |b| {
            let mut t = tables.clone();
            let newcomer = entry(hit.0 + 1, 0, 1_000);
            b.iter(|| {
                t.upsert_level0(newcomer);
                black_box(t.remove_peer(newcomer.id))
            })
        });
        group.bench_function("closest_child", |b| {
            b.iter(|| black_box(tables.closest_child(space, NodeId(2_000_000_000))))
        });
        group.bench_function("fanout_narrow", |b| {
            let range = KeyRange::new(NodeId(1_000_000_000), NodeId(1_000_100_000));
            b.iter(|| black_box(tables.multicast_fanout(space, 6, range, 0)))
        });
        group.bench_function("bus_neighbors", |b| {
            b.iter(|| black_box(tables.bus_neighbors(1, NodeId(2_000_000_000))))
        });
        // Next-hop selection over the registry's ordered outward walk (the
        // PR-4 routing-scan cleanup): greedy still examines every peer but
        // copies nothing; the NG scan stops at the first non-improving
        // peer, so its cost tracks the improving prefix, not the registry.
        let dist = HierarchicalDistance::new(space, 6);
        let view = RouterView {
            tables: &tables,
            dist: &dist,
            self_id: NodeId(2),
            self_level: 0,
            self_addr: NodeAddr(2),
            max_ttl: 255,
        };
        let target = NodeId(3_000_000_017);
        let origin = PeerInfo {
            id: NodeId(2),
            addr: NodeAddr(2),
            max_level: 0,
            summary: summary(),
        };
        group.bench_function("next_hop_greedy", |b| {
            b.iter(|| {
                let mut req =
                    LookupRequest::new(RequestId(1), origin, target, RoutingAlgorithm::Greedy);
                black_box(route(&view, &mut req))
            })
        });
        group.bench_function("next_hop_non_greedy", |b| {
            b.iter(|| {
                let mut req =
                    LookupRequest::new(RequestId(1), origin, target, RoutingAlgorithm::NonGreedy);
                black_box(route(&view, &mut req))
            })
        });
        // The sweep is O(n) by necessity (it must look at every entry once):
        // one `retain` over the vector, however many entries it drops.
        // The shim criterion has no iter_batched, so expire_half includes a
        // per-iteration clone (so does prune_level0_to_8); clone_baseline
        // isolates that setup cost so the true sweep time is the difference.
        group.sample_size(10);
        group.bench_function("clone_baseline", |b| b.iter(|| black_box(tables.clone())));
        group.bench_function("expire_half", |b| {
            b.iter(|| {
                let mut t = tables.clone();
                black_box(t.expire(SimTime::from_millis(1_000), SimDuration::from_millis(500)))
            })
        });
        group.bench_function("prune_level0_to_8", |b| {
            b.iter(|| {
                let mut t = tables.clone();
                black_box(t.prune_level0(space, hit, 8))
            })
        });
        group.finish();
    }
}

criterion_group!(benches, bench_table_routing, bench_registry_scaling);
criterion_main!(benches);
