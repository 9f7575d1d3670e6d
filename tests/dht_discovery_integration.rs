//! Cross-crate integration: the DHT / resource-discovery layer on top of a
//! builder-constructed steady-state topology.

use simnet::SimDuration;
use treep::{attribute_query, DhtOutcome, ResourceDescriptor, TreePConfig};
use workloads::TopologyBuilder;

#[test]
fn values_published_anywhere_are_retrievable_from_anywhere() {
    let builder = TopologyBuilder::new(120).with_config(TreePConfig::paper_case_fixed());
    let (mut sim, topo) = builder.build_simulation(17);
    let pairs = topo.pairs();

    // Publish ten values from ten different peers.
    for i in 0..10usize {
        let publisher = pairs[i * 7 % pairs.len()].0;
        let key = format!("key-{i}");
        let value = format!("value-{i}").into_bytes();
        sim.invoke(publisher, |node, ctx| {
            node.dht_put(key.as_bytes(), value, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(8));

    // Retrieve every value from a different peer.
    let mut found = 0usize;
    for i in 0..10usize {
        let requester = pairs[(i * 13 + 3) % pairs.len()].0;
        let key = format!("key-{i}");
        sim.invoke(requester, |node, ctx| {
            node.dht_get(key.as_bytes(), ctx);
        });
        sim.run_for(SimDuration::from_secs(5));
        let expected = format!("value-{i}").into_bytes();
        for outcome in sim.node_mut(requester).unwrap().drain_dht_outcomes() {
            if let DhtOutcome::GetAnswered { value: Some(v), .. } = outcome {
                if v == expected {
                    found += 1;
                }
            }
        }
    }
    assert!(
        found >= 8,
        "only {found}/10 DHT values were retrievable across the overlay"
    );
    // Every put and get was answered, so no origin is left waiting.
    for (addr, _) in pairs {
        assert_eq!(sim.node(addr).unwrap().pending_request_count(), 0);
    }
}

#[test]
fn resource_descriptors_are_discoverable_by_attribute() {
    let builder = TopologyBuilder::new(80).with_config(TreePConfig::paper_case_fixed());
    let (mut sim, topo) = builder.build_simulation(23);
    let pairs = topo.pairs();

    let descriptor = ResourceDescriptor::new("gpu-node-17")
        .with_attribute("arch", "x86_64")
        .with_attribute("gpu", "a100");
    let payload = descriptor.encode();
    assert_eq!(ResourceDescriptor::decode(&payload).unwrap(), descriptor);

    let publisher = pairs[10].0;
    for (k, v) in [("arch", "x86_64"), ("gpu", "a100")] {
        let key = attribute_query(k, v);
        let value = payload.clone();
        sim.invoke(publisher, |node, ctx| {
            node.dht_put(&key, value, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(6));

    let requester = pairs[60].0;
    let key = attribute_query("gpu", "a100");
    sim.invoke(requester, |node, ctx| {
        node.dht_get(&key, ctx);
    });
    sim.run_for(SimDuration::from_secs(5));
    let outcomes = sim.node_mut(requester).unwrap().drain_dht_outcomes();
    let resolved = outcomes.iter().any(|o| match o {
        DhtOutcome::GetAnswered { value: Some(v), .. } => ResourceDescriptor::decode(v)
            .map(|d| d.name == "gpu-node-17")
            .unwrap_or(false),
        _ => false,
    });
    assert!(
        resolved,
        "attribute query must find the published descriptor: {outcomes:?}"
    );

    // A query for an attribute nobody advertised comes back empty, not lost.
    let missing_key = attribute_query("gpu", "h100");
    sim.invoke(requester, |node, ctx| {
        node.dht_get(&missing_key, ctx);
    });
    sim.run_for(SimDuration::from_secs(5));
    let outcomes = sim.node_mut(requester).unwrap().drain_dht_outcomes();
    assert!(outcomes.iter().any(|o| matches!(
        o,
        DhtOutcome::GetAnswered { value: None, .. } | DhtOutcome::TimedOut { .. }
    )));
}
