//! Property tests of the multicast reliability layer: seeded random
//! loss + churn traces replayed against a reference delivery model.
//!
//! The reference model is the specification of scoped multicast run over
//! the overlay structure that actually exists at probe time: a probe from
//! `origin` must be delivered **exactly once** to every alive in-range
//! node whose tree is *structurally reachable* from the origin — the
//! origin's own tree, plus every tree whose root the top-level bus walk
//! can reach from the origin's root. No such delivery may be lost (acks +
//! retransmission + re-route must repair every lossy hop), none may be
//! duplicated (the seen-windows must suppress every retransmitted copy),
//! and every node's retransmission queue must have drained after
//! quiescence (no entry survives its ack / give-up, so no timer leaks
//! state). Structural holes the maintenance layer has not healed (e.g.
//! two post-churn roots that never discovered each other on the top bus —
//! see the ROADMAP note on top-bus split brain) are the *model's* missing
//! edges, not lost deliveries: no ack protocol can route over an edge
//! nobody knows about.
//!
//! Two legs per trace:
//!
//! 1. **Settled churn + loss** — a batch of nodes fails, the maintenance
//!    protocol is given time to re-form the hierarchy, then probes run
//!    under per-hop loss. The reference model applies strictly.
//! 2. **Mid-dissemination churn** — nodes fail *while* probes are in
//!    flight. Deliveries into a subtree whose relay just died are allowed
//!    to be lost (no spanning path exists), but exactly-once and queue
//!    drain must still hold unconditionally.

mod common;

use common::{ancestor_chain_meets, bus_reach, root_of};
use simnet::{
    flight_assert, flight_assert_eq, LatencyModel, LinkModel, LossModel, NodeAddr, SimConfig,
    SimDuration, Simulation, TelemetryConfig,
};
use std::collections::BTreeMap;
use treep::RequestId;
use treep::{KeyRange, NodeId, TreePConfig, TreePNode};
use workloads::TopologyBuilder;

const NODES: usize = 120;
const MAX_RETRANSMITS: u32 = 4;

/// Audit the surviving hierarchy (a local copy of
/// `experiments::runner::audit_alive`, kept here so the test depends only
/// on the `treep` crate's public API).
fn experiments_free_audit(sim: &Simulation<TreePNode>) -> treep::HierarchyAudit {
    let alive = sim.alive_nodes();
    let nodes: Vec<&TreePNode> = alive.iter().filter_map(|&a| sim.node(a)).collect();
    treep::audit(nodes)
}

struct Probe {
    origin: NodeAddr,
    request_id: RequestId,
    range: KeyRange,
}

fn build(seed: u64, loss: f64) -> (Simulation<TreePNode>, workloads::BuiltTopology) {
    let link = LinkModel {
        latency: LatencyModel::Fixed(SimDuration::from_millis(5)),
        loss: if loss > 0.0 {
            LossModel::Bernoulli { p: loss }
        } else {
            LossModel::None
        },
    };
    let sim_config = SimConfig {
        link,
        ..SimConfig::default()
    };
    let mut sim: Simulation<TreePNode> = Simulation::new(sim_config, seed);
    // Flight recorder: a failing invariant below dumps the last 10k engine
    // events (delivers, timers, drops) so the failure arrives with the
    // event history that led to it.
    sim.enable_telemetry(TelemetryConfig::default().with_recorder_capacity(10_000));
    let config = TreePConfig::paper_case_fixed().with_reliability(MAX_RETRANSMITS);
    let topo = TopologyBuilder::new(NODES)
        .with_config(config)
        .build(&mut sim);
    sim.run_for(SimDuration::from_secs(3));
    (sim, topo)
}

/// Issue `count` scoped multicasts from random survivors over random ranges.
fn issue_probes(
    sim: &mut Simulation<TreePNode>,
    alive: &[(NodeAddr, NodeId)],
    space: treep::IdSpace,
    count: usize,
    rng: &mut simnet::SimRng,
) -> Vec<Probe> {
    let width = (space.size() / 3).max(1);
    let mut probes = Vec::with_capacity(count);
    for i in 0..count {
        let origin = alive[rng.gen_range_usize(0..alive.len())].0;
        let lo = rng.gen_range_u64(0..space.size() - width);
        let range = KeyRange::new(NodeId(lo), NodeId(lo + width - 1));
        let payload = format!("probe-{i}").into_bytes();
        let request_id = sim.invoke(origin, move |node, ctx| {
            node.start_multicast(range, payload, ctx)
        });
        if let Some(request_id) = request_id {
            probes.push(Probe {
                origin,
                request_id,
                range,
            });
        }
    }
    probes
}

/// Drain every surviving node's deliveries into `(node, origin, request)` →
/// count, asserting zero deliveries at out-of-range nodes along the way.
fn collect_deliveries(
    sim: &mut Simulation<TreePNode>,
    alive: &[(NodeAddr, NodeId)],
    probes: &[Probe],
) -> BTreeMap<(NodeAddr, NodeAddr, RequestId), usize> {
    let mut seen = BTreeMap::new();
    for &(addr, id) in alive {
        let Some(node) = sim.node_mut(addr) else {
            continue;
        };
        for d in node.drain_multicast_deliveries() {
            if let Some(p) = probes
                .iter()
                .find(|p| p.origin == d.origin.addr && p.request_id == d.request_id)
            {
                assert!(
                    p.range.contains(id),
                    "node {id:?} outside {:?} must not receive the payload",
                    p.range
                );
            }
            *seen.entry((addr, d.origin.addr, d.request_id)).or_insert(0) += 1;
        }
    }
    seen
}

fn assert_no_duplicates(
    sim: &Simulation<TreePNode>,
    seen: &BTreeMap<(NodeAddr, NodeAddr, RequestId), usize>,
    leg: &str,
) {
    for ((node, origin, request_id), count) in seen {
        flight_assert_eq!(
            sim,
            *count,
            1,
            "{leg}: node {node:?} received probe ({origin:?}, {request_id:?}) {count} times — \
             retransmission must never duplicate an app-layer delivery"
        );
    }
}

fn assert_queues_drained(sim: &Simulation<TreePNode>, leg: &str) {
    for addr in sim.alive_nodes() {
        let node = sim.node(addr).expect("alive");
        let pending = node.pending_retransmit_count();
        flight_assert_eq!(
            sim,
            pending,
            0,
            "{leg}: node at {addr:?} leaked retransmission queue entries"
        );
    }
}

/// One full trace: churn, settle, probes under loss (strict model), then
/// probes with concurrent churn (exactly-once + drain only).
fn run_trace(trial: u64) {
    let loss = [0.0, 0.05, 0.10][(trial % 3) as usize];
    let kills_before = ((trial * 3) % 10) as usize;
    let seed = 9_000 + trial;
    let (mut sim, topo) = build(seed, loss);
    let space = topo.config.space;
    let mut rng = sim.rng_mut().fork();

    // ---- leg 1: settled churn, then loss ------------------------------------
    for _ in 0..kills_before {
        let alive = sim.alive_nodes();
        sim.fail_node(alive[rng.gen_range_usize(0..alive.len())]);
    }
    // Give expiry, elections and re-adoption time to re-form the hierarchy,
    // and verify it actually healed: the strict reference model ("every
    // alive in-range node gets the payload") is the specification of a
    // *spanning* hierarchy — an orphan still waiting for adoption is a
    // topology hole no ack protocol can route through. The loop is
    // deterministic: a seed either heals within the budget or the test
    // fails loudly here instead of blaming the reliability layer.
    let mut healed = false;
    for _ in 0..8 {
        sim.run_for(SimDuration::from_secs(2));
        let audit = experiments_free_audit(&sim);
        if audit.orphans == 0 && audit.dangling_parents == 0 {
            healed = true;
            break;
        }
    }
    assert!(
        healed,
        "trial {trial}: hierarchy did not re-form after {kills_before} failures"
    );

    let alive = topo.alive_pairs(&sim);
    let probes = issue_probes(&mut sim, &alive, space, 4, &mut rng);
    sim.run_for(SimDuration::from_secs(12));

    let seen = collect_deliveries(&mut sim, &alive, &probes);
    assert_no_duplicates(&sim, &seen, "leg 1");
    let mut expected_total = 0usize;
    for probe in &probes {
        // The reference delivery model: the trees the dissemination can
        // structurally span from this origin.
        let origin_root = root_of(&sim, probe.origin).unwrap_or(probe.origin);
        let reach = bus_reach(&sim, origin_root);
        let mut expected = 0usize;
        for &(addr, id) in &alive {
            if probe.range.contains(id) && ancestor_chain_meets(&sim, addr, &reach) {
                expected += 1;
                flight_assert!(
                    sim,
                    seen.contains_key(&(addr, probe.origin, probe.request_id)),
                    "trial {trial} (loss {loss}, {kills_before} churned): delivery lost — \
                     alive, in-range, structurally reachable node {id:?} never received \
                     the probe from {:?}",
                    probe.origin
                );
            }
        }
        expected_total += expected;
    }
    assert!(
        expected_total > 0,
        "trial {trial}: degenerate trace — no probe had any reachable in-range target"
    );
    assert_queues_drained(&sim, "leg 1");

    // ---- leg 2: churn mid-dissemination -------------------------------------
    let alive2 = topo.alive_pairs(&sim);
    let probes2 = issue_probes(&mut sim, &alive2, space, 3, &mut rng);
    for _ in 0..5 {
        let alive = sim.alive_nodes();
        sim.fail_node(alive[rng.gen_range_usize(0..alive.len())]);
    }
    sim.run_for(SimDuration::from_secs(15));

    let survivors = topo.alive_pairs(&sim);
    let seen2 = collect_deliveries(&mut sim, &survivors, &probes2);
    assert_no_duplicates(&sim, &seen2, "leg 2");
    assert_queues_drained(&sim, "leg 2");
}

#[test]
fn trace_lossless_baseline() {
    run_trace(0);
}

#[test]
fn trace_light_loss_light_churn() {
    run_trace(1);
}

#[test]
fn trace_heavy_loss_heavy_churn() {
    run_trace(2);
}

#[test]
fn trace_lossless_heavy_churn() {
    run_trace(3);
}

#[test]
fn trace_light_loss_no_churn() {
    run_trace(4);
}

#[test]
fn trace_heavy_loss_light_churn() {
    run_trace(5);
}
