//! Quickstart: let a TreeP overlay self-organise from nothing and resolve
//! lookups over it.
//!
//! A single seed node is started first; every other peer joins by contacting
//! the seed (or an earlier joiner), exactly as a real deployment would. The
//! countdown elections promote the strongest peers into the upper levels, the
//! keep-alive protocol fills the routing tables, and after a couple of
//! virtual seconds the hierarchy is ready to route.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p treep --example quickstart
//! ```

use simnet::{SimConfig, SimDuration, Simulation};
use treep::{
    audit, CharacteristicsSummary, NodeCharacteristics, NodeId, PeerInfo, RoutingAlgorithm,
    TreePConfig, TreePNode,
};

fn main() {
    let nodes = 60usize;
    let config = TreePConfig::paper_case_fixed();
    let mut sim: Simulation<TreePNode> = Simulation::new(SimConfig::default(), 42);

    // 1. Start the seed node.
    let seed_id = NodeId(7_777_777);
    let seed_chars = NodeCharacteristics::strong();
    let seed_addr = sim.add_node(TreePNode::new(config, seed_id, seed_chars));
    let seed_info = PeerInfo {
        id: seed_id,
        addr: seed_addr,
        max_level: 0,
        summary: CharacteristicsSummary::of(&seed_chars, config.child_policy),
    };

    // 2. Every other peer joins through the seed, with an identifier spread
    //    over the 1-D space and heterogeneous resources.
    let mut rng = sim.rng_mut().fork();
    let mut ids = vec![(seed_addr, seed_id)];
    for i in 1..nodes {
        let id = config.space.uniform_position(i, nodes);
        let characteristics = NodeCharacteristics::sample(&mut rng);
        let node = TreePNode::new(config, id, characteristics).with_bootstrap(vec![seed_info]);
        let addr = sim.add_node(node);
        ids.push((addr, id));
    }

    // 3. Let the protocol self-organise: joins, keep-alives, elections.
    sim.run_for(SimDuration::from_secs(12));

    let alive: Vec<&TreePNode> = ids.iter().filter_map(|&(a, _)| sim.node(a)).collect();
    let report = audit(alive);
    println!(
        "after 12 s of virtual time, {} peers self-organised into:",
        report.nodes
    );
    for (level, population) in &report.level_population {
        println!("  level {level}: {population} members");
    }
    println!(
        "  height {}, {:.1} children per parent, {:.1} active connections per node",
        report.height, report.avg_children, report.avg_active_connections
    );

    // 4. Resolve a few identifiers from an arbitrary peer with each routing
    //    algorithm.
    let (origin, _) = ids[3];
    for algorithm in RoutingAlgorithm::ALL {
        let (_, target) = ids[nodes - 5];
        sim.invoke(origin, |node, ctx| {
            node.start_lookup(target, algorithm, ctx);
        });
        sim.run_for(SimDuration::from_secs(12));
        let outcomes = sim.node_mut(origin).unwrap().drain_lookup_outcomes();
        for o in outcomes {
            println!(
                "lookup[{algorithm}] for {target}: {:?} in {} hops ({} ms virtual)",
                o.status,
                o.hops,
                o.completed_at.as_millis() - o.started_at.as_millis()
            );
        }
    }

    let metrics = sim.metrics();
    println!(
        "simulation: {} messages sent, {} delivered, {} virtual ms elapsed",
        metrics.messages_sent,
        metrics.messages_delivered,
        sim.now().as_millis()
    );
}
