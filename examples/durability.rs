//! k-way DHT replication surviving churn.
//!
//! Builds a steady-state TreeP hierarchy with `replication_factor = 3`,
//! stores a key corpus, kills 30 % of the network in three batches, and
//! shows the anti-entropy repair engine keeping every key alive and fully
//! replicated — then contrasts with the single-copy DHT, which loses
//! roughly a key per failed node.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example durability
//! ```

use simnet::SimDuration;
use treep::REPLICA_SYNC_INTERVAL;
use treep::{audit_replication, TreePConfig};
use workloads::{ChurnPlan, KvWorkload, TopologyBuilder};

fn run(k: u32) {
    let n = 150;
    let keys = 60;
    let mut config = TreePConfig::paper_case_fixed();
    config.lookup_timeout = SimDuration::from_secs(2);
    config.replication_factor = k;
    let builder = TopologyBuilder::new(n).with_config(config);
    let (mut sim, topo) = builder.build_simulation(7);
    let kv = KvWorkload::new(keys);
    let mut rng = sim.rng_mut().fork();

    println!("\n== replication factor k = {k} ==");
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
        fraction_per_step: 0.10,
        stop_at_surviving_fraction: 0.70,
    };
    for step in 1..=3 {
        let alive_now = sim.alive_nodes();
        for v in churn.pick_victims(&alive_now, n, &mut rng) {
            sim.fail_node(v);
        }
        // Settle + a few anti-entropy rounds.
        sim.run_for(SimDuration::from_secs(3));
        for _ in 0..4 {
            sim.run_for(REPLICA_SYNC_INTERVAL);
        }
        let audit = audit_replication(
            topo.nodes
                .iter()
                .filter(|nd| sim.is_alive(nd.addr))
                .filter_map(|nd| sim.node(nd.addr).map(|node| (nd.id, node.dht_store()))),
            k,
        );
        println!(
            "after {:>2}% failed: {:>2}/{} keys surviving, {:>5.1}% fully replicated, {} divergent",
            step * 10,
            audit.keys,
            keys,
            audit.fully_replicated_pct(),
            audit.divergent,
        );
    }
}

fn main() {
    run(3);
    run(1);
    println!("\nk = 3 repairs every failure batch back to full replication;");
    println!("k = 1 has nothing to repair from — every failed node's keys are gone.");
}
