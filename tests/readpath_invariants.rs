//! Randomized read-path invariants: drive a real simulated network through
//! seeded churn while clients interleave versioned writes and reads, and
//! check the session guarantee the layer promises — **monotonic reads per
//! client**. Once a client has seen a stamp for a key, no later successful
//! read at that client may return a staler one, no matter which tier
//! (responsible store, replica, hot-key cache) served it. Two structural
//! invariants ride along: stamps never exceed what writers could have
//! issued, and the whole trace replays bit-identically from its seed.

use simnet::{NodeAddr, SimDuration};
use std::collections::BTreeMap;
use treep::REPLICA_SYNC_INTERVAL;
use treep::{NodeId, ReadOutcome, TreePConfig, VersionStamp};
use workloads::{ChurnPlan, KvWorkload, TopologyBuilder};

struct Case {
    seed: u64,
    nodes: usize,
    keys: usize,
    rounds: usize,
    writes_per_round: usize,
    reads_per_round: usize,
}

/// One successful read observation: `(round, client, key, stamp)`.
type Observation = (usize, NodeAddr, NodeId, VersionStamp);

/// Run one seeded churn-and-read trace, asserting per-client monotonicity
/// and stamp sanity along the way; returns every successful observation
/// for the determinism cross-check.
fn run_trace(case: &Case) -> Vec<Observation> {
    let mut config = TreePConfig::paper_case_fixed();
    config.lookup_timeout = SimDuration::from_secs(2);
    config.replication_factor = 3;
    let mut config = config.with_read_path(16);
    config.cache_ttl = SimDuration::from_secs(20);
    let builder = TopologyBuilder::new(case.nodes).with_config(config);
    let (mut sim, topo) = builder.build_simulation(case.seed);
    let kv = KvWorkload::new(case.keys);
    let mut rng = sim.rng_mut().fork();
    let churn = ChurnPlan {
        fraction_per_step: 0.05,
        stop_at_surviving_fraction: 0.05,
    };

    // Seed every corpus key once (write #1 of that key).
    let alive = topo.alive_pairs(&sim);
    let mut writes_issued: BTreeMap<NodeId, u64> = BTreeMap::new();
    for op in kv.batch(&alive, &mut rng) {
        let coord = kv.coordinate(config.space, op.index);
        *writes_issued.entry(coord).or_insert(0) += 1;
        let key = kv.key_bytes(op.index);
        let value = kv.value_bytes(op.index);
        sim.invoke(op.source, move |node, ctx| {
            node.dht_put_versioned(&key, value, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(3));
    for &(addr, _) in &alive {
        if let Some(node) = sim.node_mut(addr) {
            node.drain_read_outcomes();
        }
    }

    // Per-(client, key) freshest stamp seen — the monotonicity ledger.
    let mut seen: BTreeMap<(NodeAddr, NodeId), VersionStamp> = BTreeMap::new();
    let mut observations = Vec::new();

    for round in 0..case.rounds {
        // 1. Churn: a small victim batch per round.
        let alive_now = sim.alive_nodes();
        let victims = churn.pick_victims(&alive_now, case.nodes, &mut rng);
        for v in victims {
            sim.fail_node(v);
        }
        sim.run_for(SimDuration::from_secs(3));

        // 2. Writers bump random keys (distinct values per round so a read
        //    can never accidentally match an older write).
        let alive_pairs = topo.alive_pairs(&sim);
        for _ in 0..case.writes_per_round {
            let index = rng.gen_range_usize(0..case.keys);
            let source = alive_pairs[rng.gen_range_usize(0..alive_pairs.len())].0;
            *writes_issued
                .entry(kv.coordinate(config.space, index))
                .or_insert(0) += 1;
            let key = kv.key_bytes(index);
            let value = format!("round-{round}-value-{index}").into_bytes();
            sim.invoke(source, move |node, ctx| {
                node.dht_put_versioned(&key, value, ctx);
            });
        }
        sim.run_for(SimDuration::from_secs(1));

        // 3. Readers issue skewed-free uniform reads; every tier may serve.
        for _ in 0..case.reads_per_round {
            let index = rng.gen_range_usize(0..case.keys);
            let source = alive_pairs[rng.gen_range_usize(0..alive_pairs.len())].0;
            let key = kv.key_bytes(index);
            sim.invoke(source, move |node, ctx| {
                node.dht_get_versioned(&key, ctx);
            });
        }
        sim.run_for(SimDuration::from_millis(2_500));

        // 4. Collect and check: per-client stamps must never regress, and
        //    no stamp can exceed what the writers were able to issue.
        for &(addr, _) in &alive_pairs {
            let Some(node) = sim.node_mut(addr) else {
                continue;
            };
            for outcome in node.drain_read_outcomes() {
                let ReadOutcome::Got {
                    key,
                    value: Some(sv),
                    source,
                    ..
                } = outcome
                else {
                    continue;
                };
                let issued = writes_issued.get(&key).copied().unwrap_or(0);
                assert!(
                    sv.stamp.version >= 1 && sv.stamp.version <= issued,
                    "round {round}: client {addr:?} read version {} of key {key:?} \
                     but only {issued} writes were ever issued",
                    sv.stamp.version
                );
                if let Some(prev) = seen.get(&(addr, key)) {
                    assert!(
                        sv.stamp >= *prev,
                        "round {round}: monotonic-reads violation at client {addr:?} \
                         for key {key:?}: saw {prev:?} earlier, {:?} now (served from \
                         {source:?})",
                        sv.stamp
                    );
                }
                seen.insert((addr, key), sv.stamp);
                observations.push((round, addr, key, sv.stamp));
            }
        }
    }

    assert!(
        !observations.is_empty(),
        "the trace must produce successful reads to be meaningful"
    );
    observations
}

#[test]
fn churned_reads_stay_monotonic_per_client() {
    for case in [
        Case {
            seed: 41,
            nodes: 80,
            keys: 30,
            rounds: 4,
            writes_per_round: 12,
            reads_per_round: 40,
        },
        Case {
            seed: 1977,
            nodes: 60,
            keys: 20,
            rounds: 5,
            writes_per_round: 8,
            reads_per_round: 30,
        },
    ] {
        run_trace(&case);
    }
}

#[test]
fn traces_replay_deterministically() {
    let case = Case {
        seed: 7,
        nodes: 60,
        keys: 20,
        rounds: 3,
        writes_per_round: 10,
        reads_per_round: 25,
    };
    let a = run_trace(&case);
    let b = run_trace(&case);
    assert_eq!(
        a, b,
        "same seed must replay the identical observation trace"
    );
}

/// One key written through both put paths: the unversioned write carries no
/// stamp to win with, so after it every holder — the responsible node
/// included — must still store the stamped bytes under their stamp, and a
/// versioned get must return that pair. (The responsible node once took the
/// unversioned bytes under the old stamp while its replicas refused them.)
#[test]
fn an_unversioned_put_never_splits_a_stamped_key() {
    let mut config = TreePConfig::paper_case_fixed();
    config.replication_factor = 3;
    let space = config.space;
    let (mut sim, topo) = TopologyBuilder::new(200)
        .with_config(config)
        .build_simulation(23);
    let key = b"written-both-ways".to_vec();
    let coord = treep::hash_key(space, &key);
    let client = |i: usize| topo.nodes[i].addr;

    let k = key.clone();
    sim.invoke(client(10), move |node, ctx| {
        node.dht_put_versioned(&k, b"v1".to_vec(), ctx);
    });
    sim.run_for(SimDuration::from_secs(1));
    let k = key.clone();
    sim.invoke(client(120), move |node, ctx| {
        node.dht_put(&k, b"v2".to_vec(), ctx);
    });
    // Two anti-entropy rounds on every node.
    for _ in 0..2 {
        sim.run_for(REPLICA_SYNC_INTERVAL);
    }

    let holders: Vec<_> = topo
        .nodes
        .iter()
        .filter_map(|n| sim.node(n.addr))
        .filter_map(|node| node.dht_store().stamped(coord).cloned())
        .collect();
    assert!(holders.len() >= 3, "{holders:?}");
    let written = treep::StampedValue {
        stamp: VersionStamp::next(None, topo.nodes[10].id),
        value: b"v1".to_vec(),
    };
    for held in &holders {
        assert_eq!(held, &written, "holders diverge: {holders:?}");
    }

    let k = key.clone();
    sim.invoke(client(60), move |node, ctx| {
        node.dht_get_versioned(&k, ctx);
    });
    sim.run_for(SimDuration::from_secs(2));
    let outcomes = sim.node_mut(client(60)).unwrap().drain_read_outcomes();
    let [ReadOutcome::Got { value, .. }] = &outcomes[..] else {
        panic!("the get must be answered: {outcomes:?}");
    };
    assert_eq!(value.as_ref(), Some(&written));
}
