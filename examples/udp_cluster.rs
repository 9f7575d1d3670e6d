//! A small real-network TreeP cluster over UDP loopback sockets.
//!
//! Starts one seed and a handful of peers as real UDP endpoints (one thread
//! each), lets the join / keep-alive / election protocol organise them,
//! then resolves identifiers and runs a DHT put/get — all over actual
//! datagrams rather than the simulator.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example udp_cluster
//! ```

use std::time::Duration;
use treep::{NodeCharacteristics, NodeId, RoutingAlgorithm, TreePConfig};
use treep_net::UdpNode;

fn main() {
    // Faster timers than the defaults so the demo converges in a second or two.
    let config = TreePConfig {
        keepalive_interval: simnet::SimDuration::from_millis(150),
        entry_ttl: simnet::SimDuration::from_millis(900),
        election_base: simnet::SimDuration::from_millis(120),
        demotion_base: simnet::SimDuration::from_millis(400),
        lookup_timeout: simnet::SimDuration::from_secs(1),
        ..TreePConfig::default()
    };

    println!("starting a 6-node TreeP cluster on UDP loopback…");
    let seed = UdpNode::bind(
        "127.0.0.1:0",
        config,
        NodeId(500_000_000),
        NodeCharacteristics::strong(),
        vec![],
    )
    .expect("bind seed");
    println!("  seed    {} (id {})", seed.local_addr(), seed.id());

    let ids = [
        1_000_000_000u64,
        1_500_000_000,
        2_500_000_000,
        3_200_000_000,
        3_900_000_000,
    ];
    let mut peers = Vec::new();
    for (i, id) in ids.into_iter().enumerate() {
        let characteristics = if i % 2 == 0 {
            NodeCharacteristics::default()
        } else {
            NodeCharacteristics::weak()
        };
        let node = UdpNode::bind(
            "127.0.0.1:0",
            config,
            NodeId(id),
            characteristics,
            vec![seed.peer_info()],
        )
        .expect("bind peer");
        println!("  peer {i}  {} (id {})", node.local_addr(), node.id());
        peers.push(node);
    }

    // Let joins, keep-alives and elections run over the real sockets.
    std::thread::sleep(Duration::from_millis(1_500));

    println!("\nrouting-table view after self-organisation:");
    for node in std::iter::once(&seed).chain(peers.iter()) {
        node.with_node(|n| {
            println!(
                "  node {}: level {}, {} level-0 neighbours, parent: {}",
                n.id(),
                n.max_level(),
                n.tables().level0_degree(),
                n.tables()
                    .parent()
                    .map(|p| p.id.to_string())
                    .unwrap_or_else(|| "none".into()),
            );
        });
    }

    // Resolve every peer's identifier from the last peer.
    println!("\nlookups from {}:", peers[4].id());
    for target in [500_000_000u64, 1_000_000_000, 2_500_000_000] {
        peers[4].lookup(NodeId(target), RoutingAlgorithm::Greedy);
    }
    std::thread::sleep(Duration::from_millis(800));
    for outcome in peers[4].drain_lookup_outcomes() {
        println!(
            "  {} -> {:?} in {} hops",
            outcome.target, outcome.status, outcome.hops
        );
    }

    // A DHT round trip over the real network.
    peers[0].dht_put(b"cluster/motd", b"hello from the UDP overlay".to_vec());
    std::thread::sleep(Duration::from_millis(400));
    peers[3].dht_get(b"cluster/motd");
    std::thread::sleep(Duration::from_millis(400));
    for outcome in peers[3].drain_dht_outcomes() {
        if let treep::DhtOutcome::GetAnswered {
            value: Some(v),
            responder,
            ..
        } = outcome
        {
            println!(
                "\nDHT get cluster/motd -> \"{}\" (stored at {})",
                String::from_utf8_lossy(&v),
                responder.id
            );
        }
    }

    println!("\nshutting the cluster down…");
    for p in peers {
        p.shutdown();
    }
    seed.shutdown();
    println!("done");
}
