//! The origin-side request lifecycle of the composed system, pinned.
//!
//! Everything an application gets from a `TreePNode` is a request: an
//! origin opens it, routing carries it, and it ends as an answer or as a
//! timeout. This trace drives all eight ways of opening one — lookup, put,
//! get, versioned put and get, multicast, aggregate, publish — and the two
//! calls that open none, subscribe and unsubscribe, through an overlay with
//! every feature on (replication, the reliability layer, the read path,
//! pub/sub) under per-hop loss and crashes, and pins two digests per seed:
//!
//! * the **outcome digest** — everything every survivor drains after each
//!   round, every survivor's `NodeStats` and the engine's `SimMetrics` —
//!   which moves only when what a request *returns* moves;
//! * the **event digest** of the engine, which additionally moves with any
//!   change to what is sent or armed, and when.
//!
//! A refactor of the in-flight bookkeeping must leave both alone; a change
//! of the protocol re-pins them once, on purpose, and says so (both values
//! are printed). The trace also bounds three per-node tables: a round
//! outlasts the request deadline, so after the last one no survivor holds a
//! request in flight (the replication layer awaits no answer of its own) or
//! a hop awaiting its acknowledgement, and no hot-key cache holds more than
//! its configured lines.
//!
//! History of the constants: captured on the five typed `pending_*` maps
//! and five timer kinds of PR 18 (plus the fix that registers a digest
//! probe before dispatching it), they survived the move to the one
//! `inflight` table with both digests unchanged. Folding the five timer
//! kinds into `TIMER_REQUEST` then moved the event digests once — the
//! engine hashes the token of every timer it fires — and left the outcome
//! digests alone: `0x93c5_243c_671c_e4a6`, `0x903a_c1bc_17d7_2584` and
//! `0x301e_2f6c_b7c6_e3df` became `0x0380_f17f_a77e_06f6`,
//! `0xf219_dc7e_5061_6d6c` and `0x87f2_1e13_990b_5f7f`. Replacing the
//! replication layer's tree-wide digest probe by the pairwise
//! `ReplicaDigest` then moved all six, on purpose: what replicas send and
//! what `NodeStats` counts changed (outcome digests before it:
//! `0x930e_d2d1_c4d9_1427`, `0xda12_d54e_c354_6828`, `0x78cc_86f8_30c4_0dbb`).
//! PR 21 moved all six again, on purpose — crashes are in this trace, and
//! since then no request, reply or copy is handed to a peer that has missed
//! its keep-alives (outcome / event digests before it:
//! `0x2066_408f_11a1_5e5b` / `0x366e_4bae_b83d_3afe`,
//! `0x73e2_73f9_c9c7_a599` / `0x08ef_bb42_b95a_d54e`,
//! `0xa6bd_2c4e_8ad1_bfd9` / `0xc68b_e2d2_b374_6426`).
//! PR 23 moved the stamps into the store with all six unchanged, and then
//! moved all six with a fix, on purpose: this trace draws `dht_put` and
//! `dht_put_versioned` from one key set, and an unversioned put no longer
//! overwrites a stamped value at the responsible node (outcome / event
//! digests before it: `0x87b3_1912_0cb2_f284` / `0x1d6d_b639_e0a4_4b36`,
//! `0xf9ee_88dc_a93d_c08c` / `0xa2e1_9e2c_a51b_b5ff`,
//! `0x5f50_2e2a_885c_44a6` / `0xc378_ab87_16ae_af61`).
//! PR 25 moved all six, on purpose: an entry stamped on the gossip horizon
//! is second-hand and no longer advertised, so tables fill differently
//! (before it: `0x970f_403d_4068_90bc` / `0x70d4_04d0_d97c_3d7d`,
//! `0xa796_da0b_eb7d_0ed4` / `0xb51d_f1d7_b5f6_a2b8`,
//! `0x73f1_d764_8e8d_daf2` / `0xf9bc_e2e5_a402_7cba`).
//! Deleting the graceful stop and the 13 `NodeStats` counters nothing read
//! moved the three outcome digests, on purpose: they fold `NodeStats` and
//! `SimMetrics` in as `Debug` text. The event digests did not move
//! (outcome digests before it: `0x9a96_96d6_46aa_a6c7`,
//! `0x89c6_e580_5fc1_f12d`, `0xe656_2e4d_e02e_ab7e`).
//! The one-keep-alive-per-peer tick moved all six, on purpose: it pings
//! each peer once per round and leaves the parent and own children to the
//! child report (before it: `0x0c8f_32e0_f3a9_c37c` / `0x3d18_aa89_84d6_2a1b`,
//! `0x6649_7a83_7164_45cf` / `0x2c3a_425b_9783_d6eb`,
//! `0x3525_d81b_cb06_76cc` / `0xbd33_34d6_530c_7ba8`). Seeds 2 and 3
//! moved again when older evidence stopped raising a routing entry's level
//! (before: `0x979b_b497_1884_7cd0` / `0x57d4_c4c3_d7e6_14dd`,
//! `0x4200_d01d_a05e_722f` / `0x34ad_dca2_02e7_c746`); seed 1 did not.
//! Deleting the subscriber directory moved all six, on purpose: a
//! subscription no longer sends a registration toward the topic coordinate,
//! and `NodeStats`' `Debug` text lost the three counters of its kinds
//! (before: `0xbdf0_483a_aa37_c58d` / `0xc483_7bd0_d51b_1bc6`,
//! `0x1515_9f4f_6457_374b` / `0x1be8_0f6f_d34e_53bd`,
//! `0x0649_50b9_47b9_9cc6` / `0x4abe_64d8_be11_2218`).
//! One deadline timer per node instead of one per request moved all six:
//! fewer timers are armed and fired, and the outcome digests fold
//! `SimMetrics`, which counts them. Nothing a request returns moved: with
//! the `SimMetrics` fold left out, both sides read the same three outcome
//! digests (before it: `0xd8d1_0889_f8ab_2f9b` / `0x76be_716b_b340_79e7`,
//! `0x979f_677e_3ad0_5d6b` / `0x2d3f_6260_a929_3240`,
//! `0x6150_240e_653b_70b6` / `0xfa0c_8d80_37e8_92a0`).

use simnet::{LinkModel, LossModel, NodeAddr, SimConfig, SimDuration, SimRng, Simulation};
use treep::{
    topic_key, AggregateQuery, KeyRange, NodeId, RoutingAlgorithm, TreePConfig, TreePNode,
};
use workloads::TopologyBuilder;

const NODES: usize = 120;
const ROUNDS: usize = 4;
const OPS_PER_ROUND: usize = 40;
const CRASHES_PER_ROUND: usize = 5;
const KEYS: u64 = 8;
const TOPICS: u64 = 3;
const CACHE_LINES: usize = 16;

/// `(seed, outcome digest, event digest)`.
const PINS: [(u64, u64, u64); 3] = [
    (1, 0xe4e4_4746_fb4f_1b5b, 0xc503_e5d1_9544_a787),
    (2, 0x6beb_e277_2d6b_a1fa, 0xd245_42c9_40e4_eb24),
    (3, 0xf0fb_9275_3744_bbdc, 0xbdfa_e4de_77d8_397c),
];

struct Run {
    outcome_digest: u64,
    event_digest: u64,
    outcomes: usize,
    max_pending_at_end: usize,
    max_retransmits_at_end: usize,
    max_cache_lines_at_end: usize,
}

/// Byte-wise FNV-1a over the `Debug` form of `item`.
fn fold(digest: &mut u64, item: &impl std::fmt::Debug) {
    for byte in format!("{item:?}").bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Open request number `i` of a round at `origin`.
fn open_request(
    sim: &mut Simulation<TreePNode>,
    i: usize,
    origin: NodeAddr,
    alive: &[(NodeAddr, NodeId)],
    rng: &mut SimRng,
) {
    let space = TreePConfig::default().space;
    let key = format!("key-{}", rng.gen_range_u64(0..KEYS)).into_bytes();
    let value = format!("value-{}", rng.next_u64()).into_bytes();
    let topic = topic_key(space, &format!("topic-{}", rng.gen_range_u64(0..TOPICS)));
    let target = alive[rng.gen_range_usize(0..alive.len())].1;
    let (a, b) = (
        alive[rng.gen_range_usize(0..alive.len())].1,
        alive[rng.gen_range_usize(0..alive.len())].1,
    );
    let range = KeyRange::new(a.min(b), a.max(b));
    sim.invoke(origin, |node, ctx| {
        // Subscribing opens no request: it changes local state at once.
        let _request = match i % 10 {
            0 => node.start_lookup(target, RoutingAlgorithm::NonGreedyFallback, ctx),
            1 => node.dht_put(&key, value, ctx),
            2 => node.dht_get(&key, ctx),
            3 => node.dht_put_versioned(&key, value, ctx),
            4 => node.dht_get_versioned(&key, ctx),
            5 => node.start_multicast(range, value, ctx),
            6 => node.start_aggregate(range, AggregateQuery::CountNodes, ctx),
            7 => return node.start_subscribe(topic, ctx),
            8 => return node.start_unsubscribe(topic, ctx),
            _ => node.start_publish(topic, value, ctx),
        };
    });
}

fn run(seed: u64) -> Run {
    let config = TreePConfig {
        replication_factor: 3,
        ..TreePConfig::paper_case_fixed()
    }
    .with_reliability(3)
    .with_read_path(CACHE_LINES)
    .with_pubsub();
    // A round outlasts the request deadline, so every request opened in a
    // round has ended — answered or timed out — when the round is drained.
    let round = config.lookup_timeout + SimDuration::from_millis(600);
    let sim_config = SimConfig {
        link: LinkModel {
            loss: LossModel::Bernoulli { p: 0.05 },
            ..LinkModel::default()
        },
        ..SimConfig::default()
    };
    let mut sim = Simulation::new(sim_config, seed);
    sim.enable_digest();
    let topo = TopologyBuilder::new(NODES)
        .with_config(config)
        .build(&mut sim);
    sim.run_for(SimDuration::from_secs(3));
    let mut rng = sim.rng_mut().fork();

    let mut digest: u64 = 0xcbf2_9ce4_8422_2325; // the FNV-1a offset basis
    let mut outcomes = 0;
    for _ in 0..ROUNDS {
        let mut alive = topo.alive_pairs(&sim);
        for _ in 0..CRASHES_PER_ROUND {
            let victim = alive.remove(rng.gen_range_usize(0..alive.len())).0;
            sim.fail_node(victim);
        }
        for i in 0..OPS_PER_ROUND {
            let origin = alive[rng.gen_range_usize(0..alive.len())].0;
            open_request(&mut sim, i, origin, &alive, &mut rng);
        }
        sim.run_for(round);

        for &(addr, _) in &alive {
            let node = sim.node_mut(addr).expect("survivor");
            let mut drained = 0;
            macro_rules! drain {
                ($($queue:ident),*) => {$(
                    for item in node.$queue() {
                        fold(&mut digest, &item);
                        drained += 1;
                    }
                )*};
            }
            drain!(
                drain_lookup_outcomes,
                drain_dht_outcomes,
                drain_read_outcomes,
                drain_aggregate_outcomes,
                drain_multicast_deliveries,
                drain_topic_deliveries
            );
            outcomes += drained;
            fold(&mut digest, node.stats());
        }
        fold(&mut digest, &sim.metrics());
    }

    let survivors = topo.alive_pairs(&sim);
    let max_at_end = |count: fn(&TreePNode) -> usize| {
        survivors
            .iter()
            .map(|&(addr, _)| count(sim.node(addr).expect("survivor")))
            .max()
            .unwrap_or(0)
    };
    Run {
        outcome_digest: digest,
        event_digest: sim.event_digest().expect("digest enabled"),
        outcomes,
        max_pending_at_end: max_at_end(TreePNode::pending_request_count),
        max_retransmits_at_end: max_at_end(TreePNode::pending_retransmit_count),
        max_cache_lines_at_end: max_at_end(TreePNode::hot_cache_len),
    }
}

#[test]
fn composed_request_lifecycle_replays_its_pinned_digests() {
    // Every seed runs before anything is compared, so one failing run
    // prints all the values a deliberate re-pin needs.
    let runs: Vec<Run> = PINS.iter().map(|&(seed, _, _)| run(seed)).collect();
    for ((seed, _, _), got) in PINS.iter().zip(&runs) {
        println!(
            "seed {seed}: {} drained, outcome digest {:#018x}, event digest {:#018x}, \
             max at end: {} pending, {} retransmits, {} cache lines",
            got.outcomes,
            got.outcome_digest,
            got.event_digest,
            got.max_pending_at_end,
            got.max_retransmits_at_end,
            got.max_cache_lines_at_end
        );
    }
    for ((seed, outcome_pin, event_pin), got) in PINS.into_iter().zip(runs) {
        assert!(got.outcomes >= OPS_PER_ROUND * ROUNDS / 2, "seed {seed}");
        assert_eq!(
            got.max_pending_at_end, 0,
            "seed {seed}: a survivor holds requests in flight after every deadline passed"
        );
        assert_eq!(
            got.max_retransmits_at_end, 0,
            "seed {seed}: a survivor awaits an acknowledgement after every deadline passed"
        );
        assert!(
            got.max_cache_lines_at_end <= CACHE_LINES,
            "seed {seed}: a hot-key cache outgrew its {CACHE_LINES} lines"
        );
        assert_eq!(got.outcome_digest, outcome_pin, "seed {seed}: outcomes");
        assert_eq!(got.event_digest, event_pin, "seed {seed}: events");
    }
}

#[test]
fn composed_request_lifecycle_is_deterministic() {
    let (a, b) = (run(1), run(1));
    assert_eq!(a.outcome_digest, b.outcome_digest);
    assert_eq!(a.event_digest, b.event_digest);
}
