//! Randomized replication invariants, reference-model style (the
//! replication counterpart of `registry_invariants.rs`): drive a real
//! simulated network through seeded random churn, grant the anti-entropy
//! engine a bounded number of repair rounds, and check the resulting
//! stores against the full-knowledge [`treep::audit_replication`] reference
//! — after repair, **every surviving key must have at least
//! `min(k, live_nodes)` byte-identical copies, placed at the k live nodes
//! closest to the key coordinate**. The protocol only ever sees partial,
//! possibly stale registry views; the audit sees everything.

use simnet::SimDuration;
use treep::REPLICA_SYNC_INTERVAL;
use treep::{audit_replication, ReplicationAudit, TreePConfig};
use workloads::{ChurnPlan, KvWorkload, TopologyBuilder};

struct Case {
    seed: u64,
    nodes: usize,
    keys: usize,
    k: u32,
    churn_steps: usize,
    fraction_per_step: f64,
}

/// Run one seeded churn scenario to its post-repair audit.
fn run_case(case: &Case) -> (ReplicationAudit, usize) {
    let mut config = TreePConfig::paper_case_fixed();
    config.lookup_timeout = SimDuration::from_secs(2);
    config.replication_factor = case.k;
    let builder = TopologyBuilder::new(case.nodes).with_config(config);
    let (mut sim, topo) = builder.build_simulation(case.seed);
    let kv = KvWorkload::new(case.keys);
    let mut rng = sim.rng_mut().fork();

    let alive = topo.alive_pairs(&sim);
    for op in kv.batch(&alive, &mut rng) {
        let key = kv.key_bytes(op.index);
        let value = kv.value_bytes(op.index);
        sim.invoke(op.source, move |node, ctx| {
            node.dht_put(&key, value, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(3));

    let churn = ChurnPlan {
        fraction_per_step: case.fraction_per_step,
        stop_at_surviving_fraction: 0.05,
    };
    let audit = |sim: &simnet::Simulation<treep::TreePNode>| {
        audit_replication(
            topo.nodes
                .iter()
                .filter(|n| sim.is_alive(n.addr))
                .filter_map(|n| sim.node(n.addr).map(|node| (n.id, node.dht_store()))),
            case.k,
        )
    };

    let mut live = case.nodes;
    let mut windows_used = 0usize;
    for _ in 0..case.churn_steps {
        let alive_now = sim.alive_nodes();
        let victims = churn.pick_victims(&alive_now, case.nodes, &mut rng);
        live -= victims.len();
        for v in victims {
            sim.fail_node(v);
        }
        // Settle (keep-alives, expiry), then grant repair rounds until the
        // audit converges — bounded, so a live-lock shows up as a failure
        // instead of a hang.
        sim.run_for(SimDuration::from_secs(3));
        let mut windows = 0usize;
        while !audit(&sim).is_converged() && windows < 15 {
            sim.run_for(REPLICA_SYNC_INTERVAL);
            windows += 1;
        }
        windows_used = windows_used.max(windows);
    }
    let final_audit = audit(&sim);
    assert_eq!(final_audit.live_nodes, live, "accounting cross-check");
    (final_audit, windows_used)
}

#[test]
fn churned_networks_converge_to_full_replication() {
    let cases = [
        Case {
            seed: 11,
            nodes: 90,
            keys: 40,
            k: 3,
            churn_steps: 4,
            fraction_per_step: 0.05,
        },
        Case {
            seed: 23,
            nodes: 70,
            keys: 35,
            k: 2,
            churn_steps: 3,
            fraction_per_step: 0.07,
        },
        Case {
            seed: 47,
            nodes: 110,
            keys: 50,
            k: 4,
            churn_steps: 3,
            fraction_per_step: 0.05,
        },
    ];
    for case in &cases {
        let (audit, windows) = run_case(case);
        assert!(
            audit.is_converged(),
            "seed {}: k={} network must converge after repair, got {audit:?}",
            case.seed,
            case.k
        );
        // Convergence means: every surviving key sits (identically) on the
        // min(k, live) closest live nodes, i.e. at least that many copies.
        assert!(
            audit.keys == 0 || audit.min_copies >= (case.k as usize).min(audit.live_nodes),
            "seed {}: min copies {} below min(k={}, live={})",
            case.seed,
            audit.min_copies,
            case.k,
            audit.live_nodes
        );
        assert_eq!(audit.divergent, 0, "seed {}: divergent copies", case.seed);
        assert!(
            windows <= 15,
            "seed {}: repair needed more than the granted windows",
            case.seed
        );
    }
}

#[test]
fn unreplicated_networks_lose_keys_but_never_diverge() {
    // The k = 1 control: churn destroys keys (nothing to repair from), but
    // what survives is still consistent and correctly placed.
    let (audit, _) = run_case(&Case {
        seed: 5,
        nodes: 80,
        keys: 40,
        k: 1,
        churn_steps: 4,
        fraction_per_step: 0.08,
    });
    assert!(
        audit.keys < 40,
        "k=1 under 4x8% churn should measurably lose keys, kept {}",
        audit.keys
    );
    assert_eq!(audit.divergent, 0);
}

#[test]
fn intact_network_places_exactly_k_copies() {
    let mut config = TreePConfig::paper_case_fixed();
    config.replication_factor = 3;
    let (mut sim, topo) = TopologyBuilder::new(100)
        .with_config(config)
        .build_simulation(3);
    let kv = KvWorkload::new(30);
    let mut rng = sim.rng_mut().fork();
    let alive = topo.alive_pairs(&sim);
    for op in kv.batch(&alive, &mut rng) {
        let key = kv.key_bytes(op.index);
        let value = kv.value_bytes(op.index);
        sim.invoke(op.source, move |node, ctx| {
            node.dht_put(&key, value, ctx);
        });
    }
    // Enough time for the puts, the placement pushes and a few steady-state
    // rounds (one pairwise `ReplicaDigest` per replica pair, no repair
    // needed).
    sim.run_for(SimDuration::from_secs(6));
    let audit = audit_replication(
        topo.nodes
            .iter()
            .filter(|n| sim.is_alive(n.addr))
            .filter_map(|n| sim.node(n.addr).map(|node| (n.id, node.dht_store()))),
        3,
    );
    assert_eq!(audit.keys, 30);
    assert!(audit.is_converged(), "{audit:?}");
    assert!(
        audit.min_copies >= 3,
        "every key needs k=3 copies, got min {}",
        audit.min_copies
    );
    // Placement discipline: no unbounded spreading — the handoff sweep
    // keeps the copy count near k (the 2k bound tolerates stale views).
    assert!(
        audit.total_copies <= 30 * 6,
        "copies must stay bounded near k per key, got {}",
        audit.total_copies
    );
}
