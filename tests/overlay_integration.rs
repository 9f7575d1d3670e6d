//! Cross-crate integration: the steady-state topology built by `workloads`
//! must route lookups through the `treep` protocol under `simnet`, and the
//! result must be measurable with `analysis`.

use analysis::{HopHistogram, SummaryStats};
use simnet::{SimConfig, SimDuration, Simulation};
use treep::{audit, RoutingAlgorithm, TreePConfig, TreePNode};
use workloads::{CapabilityDistribution, LookupWorkload, TopologyBuilder};

#[test]
fn steady_state_topology_routes_all_three_algorithms() {
    let builder = TopologyBuilder::new(250)
        .with_config(TreePConfig::paper_case_fixed())
        .with_capabilities(CapabilityDistribution::Heterogeneous);
    let (mut sim, topo) = builder.build_simulation(1);

    let pairs = topo.pairs();
    let workload = LookupWorkload::new(40);
    let mut rng = sim.rng_mut().fork();
    let batches = workload.generate(&pairs, &mut rng);

    for algorithm in RoutingAlgorithm::ALL {
        for batch in &batches {
            sim.invoke(batch.source, |node, ctx| {
                node.start_lookup(batch.target, algorithm, ctx);
            });
        }
    }
    sim.run_for(SimDuration::from_secs(15));

    let mut histogram = HopHistogram::new();
    let mut successes = 0usize;
    let mut total = 0usize;
    for &(addr, _) in &pairs {
        if let Some(node) = sim.node_mut(addr) {
            for outcome in node.drain_lookup_outcomes() {
                total += 1;
                if outcome.status.is_success() {
                    successes += 1;
                    histogram.record(outcome.hops);
                }
            }
        }
    }
    assert_eq!(
        total,
        3 * batches.len(),
        "every issued lookup must produce an outcome"
    );
    let success_rate = successes as f64 / total as f64;
    assert!(
        success_rate > 0.9,
        "only {:.0}% of lookups resolved on an intact topology",
        success_rate * 100.0
    );
    assert!(
        histogram.mean() < 10.0,
        "mean hops {:.1} is far from the paper's ~5",
        histogram.mean()
    );
    assert!(
        histogram.max().unwrap_or(0) <= 30,
        "no lookup should need more than 30 hops"
    );
}

#[test]
fn hierarchy_survives_moderate_failures() {
    let builder = TopologyBuilder::new(200).with_config(TreePConfig::paper_case_fixed());
    let (mut sim, topo) = builder.build_simulation(3);

    // Fail 20% of the nodes and let the maintenance protocol react.
    let victims: Vec<_> = topo.nodes.iter().step_by(5).map(|n| n.addr).collect();
    for v in &victims {
        sim.fail_node(*v);
    }
    sim.run_for(SimDuration::from_secs(6));

    let alive_pairs = topo.alive_pairs(&sim);
    assert_eq!(alive_pairs.len(), 200 - victims.len());

    // Lookups between survivors still mostly succeed.
    let workload = LookupWorkload::new(50);
    let mut rng = sim.rng_mut().fork();
    let batches = workload.generate(&alive_pairs, &mut rng);
    for batch in &batches {
        sim.invoke(batch.source, |node, ctx| {
            node.start_lookup(batch.target, RoutingAlgorithm::Greedy, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(15));
    let mut successes = 0usize;
    for &(addr, _) in &alive_pairs {
        if let Some(node) = sim.node_mut(addr) {
            successes += node
                .drain_lookup_outcomes()
                .iter()
                .filter(|o| o.status.is_success())
                .count();
        }
    }
    assert!(
        successes as f64 / batches.len() as f64 > 0.7,
        "only {successes}/{} lookups survived 20% failures",
        batches.len()
    );

    // Dead peers eventually disappear from the survivors' routing tables.
    let nodes: Vec<&TreePNode> = alive_pairs
        .iter()
        .filter_map(|&(a, _)| sim.node(a))
        .collect();
    let report = audit(nodes);
    assert_eq!(report.nodes, alive_pairs.len());
    assert!(
        report.avg_active_connections < 25.0,
        "maintenance kept connection counts bounded"
    );
}

/// Failure detection: the time from a crash until no survivor lists a
/// victim any more. An entry lives `entry_ttl` past the victim's last
/// message and is swept at the holder's next tick, so the bound is one
/// lifetime plus one interval (plus link latency and the 100 ms sampling
/// step) — and it must not depend on how many keep-alives were acknowledged
/// while the victim was alive.
#[test]
fn crashed_peers_leave_every_table_within_one_entry_lifetime() {
    let config = TreePConfig::paper_case_fixed();
    let bound = config.entry_ttl + config.keepalive_interval + SimDuration::from_millis(200);
    let step = SimDuration::from_millis(100);
    for seed in [2005, 2006, 2007] {
        let (mut sim, topo) = TopologyBuilder::new(1000)
            .with_config(config)
            .build_simulation(seed);
        let mut rng = sim.rng_mut().fork();
        let victims: Vec<_> = rng
            .sample_indices(topo.nodes.len(), 20)
            .into_iter()
            .map(|i| &topo.nodes[i])
            .collect();
        for victim in &victims {
            sim.fail_node(victim.addr);
        }
        let mut elapsed = SimDuration::from_micros(0);
        loop {
            sim.run_for(step);
            elapsed += step;
            let holders = topo
                .alive_pairs(&sim)
                .iter()
                .filter_map(|&(addr, _)| sim.node(addr))
                .filter(|n| victims.iter().any(|v| n.tables().find(v.id).is_some()))
                .count();
            if holders == 0 {
                break;
            }
            assert!(
                elapsed < bound,
                "seed {seed}: {holders} survivors still list a crashed peer after {elapsed}"
            );
        }
        println!("seed {seed}: last stale entry gone after {elapsed}");
    }
}

/// The settle converges instead of flooding: the superior lists the nodes
/// hold on the way stay within a small factor of what they hold settled.
/// Superiors learned second-hand are stamped on the gossip horizon and never
/// advertised onward; while the horizon admitted its own stamp (and sat at
/// time zero for a run's first second) they were, and the lists peaked at
/// 3.5 times their settled size before the echo expired.
#[test]
fn settling_does_not_flood_the_superior_lists() {
    let mut sim = Simulation::new(SimConfig::default(), 2005);
    let topo = TopologyBuilder::new(1000).build(&mut sim);
    let mean_superiors = |sim: &Simulation<TreePNode>| {
        let counts: Vec<f64> = topo
            .nodes
            .iter()
            .filter_map(|n| sim.node(n.addr))
            .map(|node| node.tables().superiors().count() as f64)
            .collect();
        SummaryStats::of(&counts).mean
    };
    let mut peak: f64 = 0.0;
    for _ in 0..24 {
        sim.run_for(SimDuration::from_millis(250));
        peak = peak.max(mean_superiors(&sim));
    }
    let settled = mean_superiors(&sim);
    println!("mean superiors per node: peak {peak:.1}, at 6 s {settled:.1}");
    assert!(
        peak <= 2.5 * settled,
        "the settle peaked at {peak:.1} superiors per node against {settled:.1} settled"
    );
}

#[test]
fn adaptive_policy_gives_stronger_nodes_more_children() {
    let builder = TopologyBuilder::new(220)
        .with_config(TreePConfig::paper_case_adaptive())
        .with_capabilities(CapabilityDistribution::Bimodal {
            strong_fraction: 0.25,
        });
    let (sim, topo) = builder.build_simulation(9);

    let mut strong_children = Vec::new();
    let mut weak_children = Vec::new();
    for built in &topo.nodes {
        let Some(node) = sim.node(built.addr) else {
            continue;
        };
        if node.max_level() == 0 {
            continue;
        }
        let children = node.tables().own_children_count() as f64;
        if built.score > 0.5 {
            strong_children.push(children);
        } else {
            weak_children.push(children);
        }
    }
    if !strong_children.is_empty() && !weak_children.is_empty() {
        let strong = SummaryStats::of(&strong_children).mean;
        let weak = SummaryStats::of(&weak_children).mean;
        assert!(
            strong + 0.5 >= weak,
            "capability-driven nc must not give weak parents more children (strong {strong:.1} vs weak {weak:.1})"
        );
    }
    // Parents are on average stronger than leaves (resource-oriented hierarchy).
    let parent_score: f64 = topo
        .nodes
        .iter()
        .filter(|n| n.level > 0)
        .map(|n| n.score)
        .sum::<f64>()
        / topo.nodes.iter().filter(|n| n.level > 0).count().max(1) as f64;
    let leaf_score: f64 = topo
        .nodes
        .iter()
        .filter(|n| n.level == 0)
        .map(|n| n.score)
        .sum::<f64>()
        / topo.nodes.iter().filter(|n| n.level == 0).count().max(1) as f64;
    assert!(parent_score > leaf_score);
}
