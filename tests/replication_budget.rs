//! The steady-state message budget of the replication layer, asserted.
//!
//! A settled overlay whose replicas already agree must pay for anti-entropy
//! only what it takes to *see* that they agree: at most `k - 1`
//! `ReplicaDigest`s per node and round, each one hop to a registry
//! neighbour, no key list, and nothing through the tree. The check this
//! replaced folded one `DhtKeyDigest` aggregation per node and round
//! through the hierarchy — `multicast_down` / `aggregate_up` with nobody
//! multicasting — and this test fails on it.
//!
//! Message kinds are named by their report string so that the file also
//! compiles against a `MessageKind` without the digest row.

use simnet::{SimDuration, Simulation};
use treep::REPLICA_SYNC_INTERVAL;
use treep::{audit_replication, NodeStats, TreePConfig, TreePNode};
use workloads::{KvWorkload, TopologyBuilder};

const NODES: usize = 200;
const KEYS: usize = 100;
const K: u32 = 3;
const IDLE_ROUNDS: u64 = 5;

/// Messages of the kind named `kind` among those `stats` counts as sent.
fn sent(stats: &NodeStats, kind: &str) -> u64 {
    stats
        .sent
        .iter()
        .filter(|(k, _)| k.name() == kind)
        .map(|(_, n)| n)
        .sum()
}

#[test]
fn converged_replicas_cost_k_minus_one_digests_per_node_and_round() {
    let mut config = TreePConfig::paper_case_fixed().with_reliability(3);
    config.replication_factor = K;
    let (mut sim, topo) = TopologyBuilder::new(NODES)
        .with_config(config)
        .build_simulation(20);
    let kv = KvWorkload::new(KEYS);
    let mut rng = sim.rng_mut().fork();
    let alive = topo.alive_pairs(&sim);
    for op in kv.batch(&alive, &mut rng) {
        let (key, value) = (kv.key_bytes(op.index), kv.value_bytes(op.index));
        sim.invoke(op.source, move |node, ctx| {
            node.dht_put(&key, value, ctx);
        });
    }
    let audit = |sim: &Simulation<TreePNode>| {
        audit_replication(
            topo.nodes
                .iter()
                .filter_map(|n| sim.node(n.addr).map(|node| (n.id, node.dht_store()))),
            K,
        )
    };
    // Placement and ten rounds for the last disagreeing pair to settle.
    let round = REPLICA_SYNC_INTERVAL.as_micros();
    sim.run_for(SimDuration::from_micros(10 * round));
    let settled = audit(&sim);
    assert_eq!(settled.keys, KEYS);
    assert!(settled.is_converged(), "{settled:?}");

    let kinds = [
        "replica_digest",
        "replica_sync_request",
        "multicast_down",
        "aggregate_up",
    ];
    let snapshot = |sim: &Simulation<TreePNode>| -> Vec<(u64, [u64; 4])> {
        alive
            .iter()
            .map(|&(addr, _)| {
                let stats = sim.node(addr).expect("live node").stats();
                (
                    stats.replica_sync_rounds,
                    kinds.map(|kind| sent(stats, kind)),
                )
            })
            .collect()
    };
    let before = snapshot(&sim);
    sim.run_for(SimDuration::from_micros(IDLE_ROUNDS * round));
    let after = snapshot(&sim);

    let mut total = [0u64; 4];
    for ((rounds_before, sent_before), (rounds_after, sent_after)) in before.iter().zip(&after) {
        let node_rounds = rounds_after - rounds_before;
        assert!(
            (IDLE_ROUNDS - 1..=IDLE_ROUNDS + 1).contains(&node_rounds),
            "every node keeps its own round timer: {node_rounds}"
        );
        let digests = sent_after[0] - sent_before[0];
        assert!(
            digests <= u64::from(K - 1) * node_rounds,
            "{digests} digests in {node_rounds} rounds"
        );
        for (sum, (a, b)) in total.iter_mut().zip(sent_after.iter().zip(sent_before)) {
            *sum += a - b;
        }
    }
    let [digests, sync_requests, multicast_down, aggregate_up] = total;
    println!(
        "{NODES} nodes, {IDLE_ROUNDS} idle rounds: {digests} replica_digest, {sync_requests} \
         replica_sync_request, {multicast_down} multicast_down, {aggregate_up} aggregate_up"
    );
    assert_eq!(multicast_down, 0, "nothing rides the tree");
    assert_eq!(aggregate_up, 0, "nothing rides the tree");
    assert_eq!(sync_requests, 0, "agreeing replicas exchange no key list");
    assert!(digests > 0, "the replicas are being compared at all");
    assert!(audit(&sim).is_converged());
}
