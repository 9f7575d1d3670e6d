//! Randomized pub/sub invariants: drive a real simulated network through
//! seeded node *and* subscription churn while publishers fire, and check
//! the two promises the layer makes. **Exactly-once delivery**: every live
//! subscriber of a topic receives every publish on it exactly once, and
//! nobody else receives anything (the subscription filters only ever
//! prune, never leak). **Oracle-equal range queries**: a `KeysInRange`
//! convergecast over a quiesced network returns precisely the keys the
//! in-range nodes hold — the same answer a naive scan of every store
//! would give. A determinism cross-check rides along: the whole delivery
//! trace replays bit-identically from its seed. **Subscriptions store
//! nothing**: a topic coordinate is where a DHT key of the same name lands,
//! and subscribing neither overwrites a value kept there nor adds a key that
//! a range query would return.

mod common;

use common::{ancestor_chain_meets, bus_reach, root_of};
use simnet::{flight_assert, flight_assert_eq, NodeAddr, SimDuration, TelemetryConfig};
use std::collections::{BTreeMap, BTreeSet};
use treep::{hash_key, topic_key, ReadOutcome, RequestId, StampedValue};
use treep::{KeyRange, NodeId, TreePConfig};
use workloads::{
    ChurnPlan, KvWorkload, PubSubWorkload, SubscriptionChange, SubscriptionOp, TopologyBuilder,
};

struct Case {
    seed: u64,
    nodes: usize,
    topics: usize,
    subscribers: usize,
    rounds: usize,
    publishes_per_round: usize,
    subscription_churn: f64,
}

/// One met delivery obligation: `(round, publish index, receiver)`.
type DeliveryRecord = (usize, usize, NodeAddr);

/// What one trace was held to and how it ended.
#[derive(Default)]
struct Trace {
    /// Every met obligation, for the determinism cross-check.
    records: Vec<DeliveryRecord>,
    /// `(publish, live subscriber)` pairs checked.
    obligations: usize,
    /// Obligations not met exactly once.
    missed: usize,
    /// Copies that reached a non-subscriber.
    leaked: usize,
    /// Live nodes without a parent when the trace ended.
    roots: usize,
    /// Cycles in the parent graph when the trace ended.
    parent_cycles: usize,
}

/// Run one seeded churn-and-publish trace, checking exactly-once delivery
/// to exactly the subscribed set after every publish batch. A `strict`
/// trace panics at the first violation, with the flight recorder's event
/// history; otherwise violations are counted and the trace runs on.
fn run_trace(case: &Case, strict: bool) -> Trace {
    let config = TreePConfig::paper_case_fixed().with_pubsub();
    let builder = TopologyBuilder::new(case.nodes).with_config(config);
    let (mut sim, topo) = builder.build_simulation(case.seed);
    // Flight recorder: on an invariant failure the last 10k engine events
    // are dumped next to the panic, so a seed that trips the exactly-once
    // check arrives with its event history attached.
    sim.enable_telemetry(TelemetryConfig::default().with_recorder_capacity(10_000));
    let workload = PubSubWorkload::new(topo.config.space, case.topics, 1.0);
    let mut rng = sim.rng_mut().fork();
    let churn = ChurnPlan {
        fraction_per_step: 0.04,
        stop_at_surviving_fraction: 0.05,
    };

    // The reference model: which topics each live node is subscribed to.
    // `start_subscribe`/`start_unsubscribe` update local delivery state
    // synchronously, so the model is exact the moment a change is applied.
    let mut model: BTreeMap<NodeAddr, BTreeSet<usize>> = BTreeMap::new();
    let apply = |sim: &mut simnet::Simulation<treep::TreePNode>,
                 model: &mut BTreeMap<NodeAddr, BTreeSet<usize>>,
                 change: SubscriptionChange| {
        if sim.node(change.node).is_none() {
            return;
        }
        let topic = change.topic;
        match change.op {
            SubscriptionOp::Subscribe => {
                sim.invoke(change.node, move |node, ctx| {
                    node.start_subscribe(topic, ctx);
                });
                model
                    .entry(change.node)
                    .or_default()
                    .insert(change.topic_index);
            }
            SubscriptionOp::Unsubscribe => {
                sim.invoke(change.node, move |node, ctx| {
                    node.start_unsubscribe(topic, ctx);
                });
                if let Some(topics) = model.get_mut(&change.node) {
                    topics.remove(&change.topic_index);
                    if topics.is_empty() {
                        model.remove(&change.node);
                    }
                }
            }
        }
    };

    let alive = topo.alive_pairs(&sim);
    for change in workload.initial_subscriptions(&alive, case.subscribers, &mut rng) {
        apply(&mut sim, &mut model, change);
    }
    sim.run_for(SimDuration::from_secs(3));

    let mut trace = Trace::default();
    for round in 0..case.rounds {
        // 1. Node churn: fail a small victim batch, then give the tree time
        //    to detect the failures, re-adopt orphans and re-report filters.
        let alive_now = sim.alive_nodes();
        for victim in churn.pick_victims(&alive_now, case.nodes, &mut rng) {
            sim.fail_node(victim);
            model.remove(&victim);
        }
        sim.run_for(SimDuration::from_secs(12));

        // 2. Subscription churn: flip a fraction of the current set.
        let alive_pairs = topo.alive_pairs(&sim);
        let catalogue = workload.topics();
        let current: Vec<SubscriptionChange> = model
            .iter()
            .flat_map(|(&node, topics)| {
                topics.iter().map(move |&topic_index| SubscriptionChange {
                    node,
                    topic_index,
                    topic: catalogue[topic_index],
                    op: SubscriptionOp::Subscribe,
                })
            })
            .collect();
        for change in
            workload.churn_subscriptions(&current, &alive_pairs, case.subscription_churn, &mut rng)
        {
            apply(&mut sim, &mut model, change);
        }
        sim.run_for(SimDuration::from_secs(3));

        // 3. Publish a batch from random live sources.
        let mut probes: Vec<(usize, NodeAddr, RequestId, usize)> = Vec::new();
        for (i, publish) in workload
            .publishes(&alive_pairs, case.publishes_per_round, &mut rng)
            .into_iter()
            .enumerate()
        {
            let topic = publish.topic;
            let payload = publish.payload.clone();
            if let Some(request_id) = sim.invoke(publish.source, move |node, ctx| {
                node.start_publish(topic, payload, ctx)
            }) {
                probes.push((i, publish.source, request_id, publish.topic_index));
            }
        }
        sim.run_for(SimDuration::from_secs(5));

        // 4. Collect every delivery and check it against the model: each
        //    subscriber exactly once, everyone else not at all.
        let mut tally: BTreeMap<(NodeAddr, RequestId), BTreeMap<NodeAddr, usize>> = BTreeMap::new();
        for &(addr, _) in &alive_pairs {
            let Some(node) = sim.node_mut(addr) else {
                continue;
            };
            for delivery in node.drain_topic_deliveries() {
                *tally
                    .entry((delivery.origin.addr, delivery.request_id))
                    .or_default()
                    .entry(addr)
                    .or_insert(0) += 1;
            }
        }
        let empty = BTreeMap::new();
        for &(probe, source, request_id, topic_index) in &probes {
            let receivers = tally.get(&(source, request_id)).unwrap_or(&empty);
            for &(addr, _) in &alive_pairs {
                let subscribed = model
                    .get(&addr)
                    .is_some_and(|topics| topics.contains(&topic_index));
                let got = receivers.get(&addr).copied().unwrap_or(0);
                if subscribed {
                    trace.obligations += 1;
                    if strict {
                        flight_assert_eq!(
                            sim,
                            got,
                            1,
                            "round {round} publish {probe}: subscriber {addr:?} of topic \
                             {topic_index} got {got} copies instead of exactly one"
                        );
                    }
                    if got == 1 {
                        trace.records.push((round, probe, addr));
                    } else {
                        trace.missed += 1;
                    }
                } else {
                    if strict {
                        flight_assert_eq!(
                            sim,
                            got,
                            0,
                            "round {round} publish {probe}: non-subscriber {addr:?} \
                             received topic {topic_index}"
                        );
                    }
                    trace.leaked += got;
                }
            }
        }
    }

    flight_assert!(
        sim,
        trace.obligations > 0,
        "the trace must carry delivery obligations to be meaningful"
    );
    let survivors: Vec<&treep::TreePNode> = sim
        .alive_nodes()
        .into_iter()
        .filter_map(|addr| sim.node(addr))
        .collect();
    let audit = treep::audit(survivors);
    trace.roots = audit.roots;
    trace.parent_cycles = audit.parent_cycles;
    trace
}

#[test]
fn churned_publishes_deliver_exactly_once_to_exactly_the_subscribers() {
    for case in [
        Case {
            seed: 61,
            nodes: 80,
            topics: 5,
            subscribers: 24,
            rounds: 3,
            publishes_per_round: 8,
            subscription_churn: 0.25,
        },
        Case {
            seed: 2007,
            nodes: 60,
            topics: 3,
            subscribers: 15,
            rounds: 4,
            publishes_per_round: 6,
            subscription_churn: 0.4,
        },
    ] {
        run_trace(&case, true);
    }
}

#[test]
fn delivery_traces_replay_deterministically() {
    let case = Case {
        seed: 18,
        nodes: 60,
        topics: 4,
        subscribers: 16,
        rounds: 2,
        publishes_per_round: 6,
        subscription_churn: 0.3,
    };
    let a = run_trace(&case, true);
    let b = run_trace(&case, true);
    assert_eq!(
        a.records, b.records,
        "same seed must replay the identical delivery trace"
    );
}

/// The base rate of the exactly-once check over 800 seeds of one trace
/// shape. The seeds the two tests above pin are ones that pass; this is
/// how often a seed does not, and what the overlay looks like when it does
/// not — a forest that ends with two roots that never found each other on
/// the top bus (the ROADMAP's open split-brain), or with a parent cycle and
/// so no root at all. Run it before and after any change to the
/// maintenance protocol:
///
/// ```text
/// cargo test --release --test pubsub_invariants -- --ignored --nocapture exactly_once_sweep
/// ```
///
/// The gate is the rate last measured: 130 of 800 seeds failing (2 397 of
/// 66 576 obligations missed, 141 traces ending with more than one root,
/// none with a parent cycle) since a subscription no longer registers at a
/// directory on the topic coordinate; 135 failing (2 495 missed, 145
/// split, none cyclic) before that, since older evidence no longer raises a
/// routing entry's level (`RoutingEntry::merge`); 144 failing (2 658
/// missed, 138 split, 7 cyclic) before it, while the maintenance tick
/// already pinged each peer once per round and left the parent and own
/// children to the child report; 166 failing (4.8 % missed, 173 split, 10
/// cyclic) before that, 186 before that.
/// At a failure rate near 20 % one standard deviation is about 11 seeds of
/// 800 — 200 seeds (57, 55, 49 in earlier rounds) could not tell a change
/// from the draw. A change may not make the known bug more frequent.
#[test]
#[ignore = "800 traces: run it in release mode"]
fn exactly_once_sweep_over_800_seeds() {
    const SEEDS: std::ops::RangeInclusive<u64> = 1..=800;
    const FAILING_SEEDS_AT_BASELINE: usize = 130;
    let (mut failing, mut split, mut cyclic) = (Vec::new(), Vec::new(), Vec::new());
    let (mut obligations, mut missed, mut leaked) = (0, 0, 0);
    for seed in SEEDS {
        let trace = run_trace(
            &Case {
                seed,
                nodes: 60,
                topics: 4,
                subscribers: 16,
                rounds: 3,
                publishes_per_round: 6,
                subscription_churn: 0.3,
            },
            false,
        );
        obligations += trace.obligations;
        missed += trace.missed;
        leaked += trace.leaked;
        if trace.missed + trace.leaked > 0 {
            failing.push(seed);
        }
        if trace.roots > 1 {
            split.push(seed);
        }
        if trace.parent_cycles > 0 {
            cyclic.push(seed);
        }
    }
    let total = SEEDS.count();
    println!("failing seeds: {} / {total}: {failing:?}", failing.len());
    println!(
        "missed obligations: {missed} / {obligations} ({:.1} %), leaked copies: {leaked}",
        100.0 * missed as f64 / obligations as f64
    );
    println!("ending with more than one root: {}: {split:?}", split.len());
    println!("ending with a parent cycle: {}: {cyclic:?}", cyclic.len());
    assert!(
        failing.len() <= FAILING_SEEDS_AT_BASELINE,
        "{} of {total} seeds fail the exactly-once check, baseline {FAILING_SEEDS_AT_BASELINE}",
        failing.len()
    );
}

// ---- range queries vs the naive store-scan oracle --------------------------

/// Build a network with a seeded key corpus and a few subscriptions (which
/// store nothing); returns the simulation, topology handle, and a forked
/// rng.
fn seeded_network(
    nodes: usize,
    seed: u64,
) -> (
    simnet::Simulation<treep::TreePNode>,
    workloads::BuiltTopology,
    simnet::SimRng,
) {
    let mut config = TreePConfig::paper_case_fixed().with_pubsub();
    config.replication_factor = 3;
    let builder = TopologyBuilder::new(nodes).with_config(config);
    let (mut sim, topo) = builder.build_simulation(seed);
    sim.enable_telemetry(TelemetryConfig::default().with_recorder_capacity(10_000));
    let space = topo.config.space;
    let kv = KvWorkload::new(40);
    let mut rng = sim.rng_mut().fork();
    let alive = topo.alive_pairs(&sim);
    for op in kv.batch(&alive, &mut rng) {
        let key = kv.key_bytes(op.index);
        let value = kv.value_bytes(op.index);
        sim.invoke(op.source, move |node, ctx| {
            node.dht_put(&key, value, ctx);
        });
    }
    let workload = PubSubWorkload::new(space, 4, 1.0);
    for change in workload.initial_subscriptions(&alive, 10, &mut rng) {
        let topic = change.topic;
        sim.invoke(change.node, move |node, ctx| {
            node.start_subscribe(topic, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(3));
    (sim, topo, rng)
}

/// Issue a `KeysInRange` convergecast from `origin` and return its key set.
/// Panics unless the query concludes completely within the drain window.
fn query_keys(
    sim: &mut simnet::Simulation<treep::TreePNode>,
    origin: NodeAddr,
    range: KeyRange,
) -> BTreeSet<NodeId> {
    let request_id = sim
        .invoke(origin, move |node, ctx| node.start_range_query(range, ctx))
        .expect("origin is alive");
    sim.run_for(SimDuration::from_secs(5));
    let outcomes = sim
        .node_mut(origin)
        .expect("origin survives the quiesced run")
        .drain_aggregate_outcomes();
    let outcome = outcomes
        .iter()
        .find(|o| o.request_id() == request_id)
        .expect("the query must conclude within the drain window");
    assert!(
        outcome.is_complete(),
        "quiesced network, no loss: the convergecast must cover every \
         delegated branch, got {outcome:?}"
    );
    outcome
        .partial()
        .expect("complete outcomes carry a partial")
        .as_keys()
        .expect("KeysInRange folds key lists")
        .iter()
        .copied()
        .collect()
}

/// The union of stored keys inside `range` over `nodes`.
fn store_scan(
    sim: &simnet::Simulation<treep::TreePNode>,
    nodes: impl IntoIterator<Item = NodeAddr>,
    range: KeyRange,
) -> BTreeSet<NodeId> {
    let mut keys = BTreeSet::new();
    for addr in nodes {
        if let Some(node) = sim.node(addr) {
            keys.extend(node.dht_store().keys_in_range(range));
        }
    }
    keys
}

/// Random scopes plus the full space.
fn scopes(space: treep::IdSpace, rng: &mut simnet::SimRng) -> Vec<KeyRange> {
    let mut scopes: Vec<KeyRange> = (0..5)
        .map(|_| {
            KeyRange::new(
                NodeId(rng.gen_range_u64(0..space.size())),
                NodeId(rng.gen_range_u64(0..space.size())),
            )
        })
        .collect();
    scopes.push(KeyRange::full(space));
    scopes
}

/// Stable network: a `KeysInRange` convergecast must return **exactly** the
/// stored keys inside the scope — the answer a naive flat scan of every
/// live store produces. A key is stored at the node closest to it, which
/// can sit outside the scope, so the scan covers every store, and the
/// scopes include narrow ones around stored keys, where that node is
/// almost surely outside.
#[test]
fn range_queries_match_the_naive_store_scan_oracle() {
    let (mut sim, topo, mut rng) = seeded_network(70, 404);
    let space = topo.config.space;
    sim.run_for(SimDuration::from_secs(7));
    let alive_pairs = topo.alive_pairs(&sim);
    let live = || alive_pairs.iter().map(|&(addr, _)| addr);
    let stored: Vec<NodeId> = store_scan(&sim, live(), KeyRange::full(space))
        .into_iter()
        .collect();
    let narrow = stored.iter().step_by(stored.len().div_ceil(10)).map(|key| {
        KeyRange::new(
            NodeId(key.0.saturating_sub(1_000)),
            NodeId((key.0 + 1_000).min(space.size() - 1)),
        )
    });
    let mut scopes = scopes(space, &mut rng);
    scopes.extend(narrow);
    assert!(scopes.len() >= 16, "{} scopes", scopes.len());
    for range in scopes {
        let oracle = store_scan(&sim, live(), range);
        let origin = alive_pairs[rng.gen_range_usize(0..alive_pairs.len())].0;
        let keys = query_keys(&mut sim, origin, range);
        flight_assert_eq!(
            sim,
            keys,
            oracle,
            "range {range:?}: convergecast answer diverged from the naive \
             store scan"
        );
    }
}

/// Churned network: churn can split the forest into components whose roots
/// never rediscover each other on the top bus (the ROADMAP's split-brain
/// note — the paper's Figure E partition regime), and no scoped query can
/// answer for stores it has no path to. The reference model is the same
/// one the multicast reliability battery uses: from the query origin's
/// root, the top-bus walk plus subtree descent defines the *reachable*
/// nodes. Every complete answer must then be bounded by two scans —
/// it contains at least every key a reachable live in-scope node holds,
/// and nothing beyond what live nodes hold at all.
#[test]
fn churned_range_queries_are_bounded_by_the_reachability_oracles() {
    let (mut sim, topo, mut rng) = seeded_network(70, 404);
    let space = topo.config.space;

    // Churn in small absorbed rounds, then quiesce long enough for
    // re-replication and anti-entropy to settle so stores are stable while
    // the convergecasts run.
    let churn = ChurnPlan {
        fraction_per_step: 0.04,
        stop_at_surviving_fraction: 0.05,
    };
    for _ in 0..3 {
        let alive_now = sim.alive_nodes();
        for victim in churn.pick_victims(&alive_now, 70, &mut rng) {
            sim.fail_node(victim);
        }
        sim.run_for(SimDuration::from_secs(12));
    }
    sim.run_for(SimDuration::from_secs(30));

    let alive_pairs = topo.alive_pairs(&sim);
    for range in scopes(space, &mut rng) {
        let origin = alive_pairs[rng.gen_range_usize(0..alive_pairs.len())].0;
        let reach = bus_reach(&sim, root_of(&sim, origin).expect("origin chain intact"));
        let floor = store_scan(
            &sim,
            alive_pairs
                .iter()
                .filter(|&&(addr, id)| {
                    range.contains(id) && ancestor_chain_meets(&sim, addr, &reach)
                })
                .map(|&(addr, _)| addr),
            range,
        );
        let ceiling = store_scan(&sim, alive_pairs.iter().map(|&(addr, _)| addr), range);

        let keys = query_keys(&mut sim, origin, range);
        assert!(
            keys.is_superset(&floor),
            "range {range:?} from {origin:?}: answer misses keys held by \
             reachable in-scope nodes: {:?}",
            floor.difference(&keys).collect::<Vec<_>>()
        );
        assert!(
            keys.is_subset(&ceiling),
            "range {range:?} from {origin:?}: answer fabricates keys no \
             live node holds: {:?}",
            keys.difference(&ceiling).collect::<Vec<_>>()
        );
    }
}

// ---- subscriptions store nothing -------------------------------------------

/// Subscribe every fifth live node to `topic`, then let filters settle and
/// replicas compare digests for a few rounds.
fn subscribe_some(
    sim: &mut simnet::Simulation<treep::TreePNode>,
    alive: &[(NodeAddr, NodeId)],
    topic: NodeId,
) {
    for &(addr, _) in alive.iter().step_by(5) {
        sim.invoke(addr, move |node, ctx| {
            node.start_subscribe(topic, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(10));
}

/// The topic "jobs" sits on the coordinate of the DHT key `b"jobs"`.
/// Subscribing to it must leave a versioned value stored under that key
/// alone: a versioned get still returns it, and every node holding the key
/// holds it under the written stamp.
#[test]
fn subscriptions_leave_a_versioned_value_on_the_topic_coordinate_alone() {
    let config = TreePConfig {
        replication_factor: 3,
        ..TreePConfig::paper_case_fixed()
    }
    .with_pubsub();
    let (mut sim, topo) = TopologyBuilder::new(40)
        .with_config(config)
        .build_simulation(52);
    let space = topo.config.space;
    let topic = topic_key(space, "jobs");
    assert_eq!(topic, hash_key(space, b"jobs"));
    let alive = topo.alive_pairs(&sim);
    let (writer, reader) = (alive[0].0, alive[alive.len() - 1].0);

    let put = sim
        .invoke(writer, |node, ctx| {
            node.dht_put_versioned(b"jobs", b"queued".to_vec(), ctx)
        })
        .expect("writer alive");
    sim.run_for(SimDuration::from_secs(3));
    let stamp = sim
        .node_mut(writer)
        .expect("writer alive")
        .drain_read_outcomes()
        .into_iter()
        .find_map(|o| match o {
            ReadOutcome::PutAcked {
                request_id, stamp, ..
            } if request_id == put => Some(stamp),
            _ => None,
        })
        .expect("the versioned put was acknowledged");
    let written = StampedValue {
        stamp,
        value: b"queued".to_vec(),
    };

    subscribe_some(&mut sim, &alive, topic);
    let held: Vec<(NodeAddr, StampedValue)> = alive
        .iter()
        .filter_map(|&(addr, _)| Some((addr, sim.node(addr)?.dht_store().stamped(topic)?.clone())))
        .collect();
    assert!(!held.is_empty(), "nobody holds the key");
    for (addr, value) in &held {
        assert_eq!(value, &written, "holder {addr:?}");
    }

    let get = sim
        .invoke(reader, |node, ctx| node.dht_get_versioned(b"jobs", ctx))
        .expect("reader alive");
    sim.run_for(SimDuration::from_secs(3));
    let read = sim
        .node_mut(reader)
        .expect("reader alive")
        .drain_read_outcomes()
        .into_iter()
        .find_map(|o| match o {
            ReadOutcome::Got {
                request_id, value, ..
            } if request_id == get => Some(value),
            _ => None,
        })
        .expect("the versioned get was answered");
    assert_eq!(read, Some(written));
}

/// A network whose stores hold no application key answers a range query
/// over the whole space, topic coordinates included, with no key at all.
#[test]
fn range_queries_return_no_topic_coordinate() {
    let config = TreePConfig::paper_case_fixed().with_pubsub();
    let (mut sim, topo) = TopologyBuilder::new(40)
        .with_config(config)
        .build_simulation(53);
    let space = topo.config.space;
    let alive = topo.alive_pairs(&sim);
    for name in ["alerts", "jobs", "metrics"] {
        subscribe_some(&mut sim, &alive, topic_key(space, name));
    }
    let everything = KeyRange::full(space);
    assert!(everything.contains(topic_key(space, "jobs")));
    let keys = query_keys(&mut sim, alive[0].0, everything);
    assert!(keys.is_empty(), "keys no application stored: {keys:?}");
}
