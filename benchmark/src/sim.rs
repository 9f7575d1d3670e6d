//! The three simulator workloads (`maint`, `lookup`, `stack_churn`): a
//! seeded plan of timed user operations driven through the public APIs of
//! `workloads`, `simnet` and `treep`, timed in 50 ms slices of virtual
//! time, and scored against an oracle.
//!
//! Everything a replay does is a function of `(workload, seconds, seed)`:
//! op counts and virtual durations never depend on host speed, so every
//! simulated-time result repeats bit-exactly and only host time varies.
//! The population and the crash victims are a fixed scenario
//! ([`SCENARIO_SEED`]); the seed drives what happens on it.

use crate::host::{AllocSnapshot, Segment, SegmentTimer};
use crate::trace::Tracer;
use simnet::{
    NodeAddr, SimConfig, SimDuration, SimMetrics, SimRng, SimTime, Simulation, TelemetryConfig,
};
use std::collections::HashMap;
use treep::{
    hash_key, KeyRange, LookupStatus, MessageKind, NodeId, ReadOutcome, ReadSource, RequestId,
    RoutingAlgorithm, TreePConfig, TreePNode, VersionStamp,
};
use workloads::{BuiltTopology, PubSubWorkload, TopologyBuilder, ZipfSampler};

/// One measured segment of virtual time, in microseconds. (Half the
/// 100 ms first planned: the run-time cap forced windows of a few virtual
/// seconds, and shorter slices keep the segment count, which is what the
/// per-segment minimum over replays feeds on.)
pub const SLICE_US: u64 = 50_000;

/// Slices per virtual second.
const SLICES_PER_S: u64 = 1_000_000 / SLICE_US;

/// The simulator workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Idle overlay with a thin lookup sampler.
    Maint,
    /// Open-loop lookup storm.
    Lookup,
    /// Every feature on, crash schedule, mixed ops.
    StackChurn,
}

/// The fixed sizes of one workload at one scale.
#[derive(Debug, Clone)]
pub struct SimSpec {
    /// Population size.
    pub n: usize,
    /// Protocol configuration of every node.
    pub config: TreePConfig,
    /// Settle slices after `TopologyBuilder::build` (the builder's default
    /// settle, cut into slices).
    pub settle_slices: u64,
    /// Further set-up slices: the first third issues the preload (puts of
    /// the key corpus, subscriptions), the rest lets replication settle.
    pub preload_slices: u64,
    /// Steps of the measured window (1, or 1 intact + the crash steps).
    pub steps: u64,
    /// Op-free slices after each step's crashes (`settle_per_step`); the
    /// first step crashes nothing and has none.
    pub quiet_slices: u64,
    /// Slices of each step during which ops are issued.
    pub issue_slices: u64,
    /// Op-free slices after the last step, inside the measured window, so
    /// in-flight ops resolve before scoring.
    pub tail_slices: u64,
    /// Lookups issued per virtual second of an issue window.
    pub lookups_per_s: u64,
    /// Versioned gets per virtual second.
    pub gets_per_s: u64,
    /// Versioned puts per virtual second.
    pub puts_per_s: u64,
    /// Scoped multicasts per virtual second.
    pub multicasts_per_s: u64,
    /// Topic publishes per virtual second.
    pub publishes_per_s: u64,
    /// Keys of the Zipf(0.99) corpus.
    pub keys: usize,
    /// Topics of the Zipf(0.99) catalogue.
    pub topics: usize,
    /// `(node, topic)` subscriptions placed during set-up.
    pub subscribers: usize,
    /// Share of the *initial* population crashed at the start of every
    /// step but the first.
    pub crash_fraction: f64,
    /// Bytes of every put value.
    pub value_len: usize,
    /// Share of the identifier space one scoped multicast covers.
    pub multicast_range: f64,
}

/// Seed of the **scenario**: the population (identifiers, capabilities,
/// hierarchy) and the crash victims. It is fixed, and `--seed` drives
/// everything that happens on the scenario: link latencies, timer jitter
/// and the op streams.
///
/// Measured over ten seeds of `stack_churn`: with the victims drawn from
/// the run's seed, which top-level nodes die decides the outcome
/// (`op_success_ratio` 0.59 to 0.73, `path_nodes_p99` 9 to 21, spread 38 %),
/// and no median of ten such runs can tell a protocol change from the luck
/// of the draw. On the fixed scenario the same ten seeds spread 1.8 % and
/// 7.3 %.
pub const SCENARIO_SEED: u64 = 2005;

/// Virtual-time timeout of every user op (the experiments' convention).
const OP_TIMEOUT: SimDuration = SimDuration(2_000_000);

impl SimSpec {
    /// The spec of `workload` for a run of `seconds` (the benchmark's
    /// `--seconds`; virtual durations scale with it, rates do not).
    /// `smoke` shrinks the population and the window for the smoke test.
    pub fn new(workload: SimWorkload, seconds: u64, smoke: bool) -> Self {
        let mut config = TreePConfig::paper_case_fixed();
        config.lookup_timeout = OP_TIMEOUT;
        let seconds = seconds.max(1);
        let base = SimSpec {
            n: 0,
            config,
            settle_slices: 3 * SLICES_PER_S,
            preload_slices: 0,
            steps: 1,
            quiet_slices: 0,
            issue_slices: 0,
            tail_slices: SLICES_PER_S / 2,
            lookups_per_s: 0,
            gets_per_s: 0,
            puts_per_s: 0,
            multicasts_per_s: 0,
            publishes_per_s: 0,
            keys: 0,
            topics: 0,
            subscribers: 0,
            crash_fraction: 0.0,
            value_len: 0,
            multicast_range: 0.0,
        };
        match workload {
            SimWorkload::Maint => SimSpec {
                n: if smoke { 400 } else { 10_000 },
                // 0.4 virtual s per benchmark second: 4 s at the default 10.
                issue_slices: (8 * seconds).max(20) - SLICES_PER_S / 2,
                lookups_per_s: 1_000,
                ..base
            },
            SimWorkload::Lookup => SimSpec {
                n: if smoke { 400 } else { 10_000 },
                // 0.3 virtual s per benchmark second: 3 s, that is 60
                // segments, at the default 10. At this rate `lookup` is the
                // most-sent message kind.
                issue_slices: (6 * seconds).max(20) - SLICES_PER_S / 2,
                lookups_per_s: if smoke { 2_000 } else { 45_000 },
                ..base
            },
            SimWorkload::StackChurn => {
                let mut config = config.with_read_path(32).with_pubsub().with_reliability(3);
                config.replication_factor = 3;
                config.cache_ttl = SimDuration::from_secs(30);
                let n = if smoke { 200 } else { 800 };
                SimSpec {
                    n,
                    config,
                    preload_slices: 3 * SLICES_PER_S,
                    steps: if smoke { 4 } else { 8 },
                    quiet_slices: 2 * SLICES_PER_S,
                    // 0.1 virtual s of ops per step per benchmark second.
                    issue_slices: (2 * seconds).max(10),
                    tail_slices: 2 * SLICES_PER_S,
                    lookups_per_s: 300,
                    gets_per_s: 600,
                    puts_per_s: 150,
                    multicasts_per_s: 20,
                    publishes_per_s: 20,
                    keys: 512,
                    topics: 16,
                    subscribers: n / 5,
                    crash_fraction: 0.05,
                    value_len: 64,
                    multicast_range: 0.05,
                    ..base
                }
            }
        }
    }

    /// Slices of the measured window.
    pub fn window_slices(&self) -> u64 {
        self.issue_start_slice(self.steps - 1) + self.issue_slices + self.tail_slices
    }

    /// Slice at which step `step` begins (and crashes its victims).
    fn step_start_slice(&self, step: u64) -> u64 {
        match step {
            0 => 0,
            k => self.issue_slices + (k - 1) * (self.quiet_slices + self.issue_slices),
        }
    }

    /// Slice at which step `step` starts issuing ops.
    fn issue_start_slice(&self, step: u64) -> u64 {
        self.step_start_slice(step) + if step == 0 { 0 } else { self.quiet_slices }
    }

    /// Virtual seconds of the measured window.
    pub fn window_seconds(&self) -> f64 {
        self.window_slices() as f64 / SLICES_PER_S as f64
    }
}

// ---- the plan -----------------------------------------------------------------

/// What a user op does.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpKind {
    /// Resolve a live node's identifier.
    Lookup {
        /// The identifier to resolve.
        target: NodeId,
        /// Which of the paper's three algorithms carries it.
        algorithm: RoutingAlgorithm,
    },
    /// Versioned get of corpus key `key`.
    Get {
        /// Corpus index.
        key: u32,
    },
    /// Versioned put of corpus key `key`.
    Put {
        /// Corpus index.
        key: u32,
    },
    /// Scoped multicast over `range`.
    Multicast {
        /// The scope.
        range: KeyRange,
    },
    /// Publish on catalogue topic `topic`.
    Publish {
        /// Catalogue index.
        topic: u32,
    },
}

/// One planned user op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Op {
    /// Scheduled issue time, microseconds after the window starts (set-up
    /// ops: after the preload starts).
    pub at_us: u64,
    /// The node that originates it.
    pub origin: NodeAddr,
    /// What it does.
    pub kind: OpKind,
    /// Step of the measured window it belongs to.
    pub step: u32,
}

/// An entry of the measured window's timeline.
#[derive(Debug, Clone, PartialEq)]
enum Timed {
    Op(Op),
    Crash { at_us: u64, victims: Vec<NodeAddr> },
}

impl Timed {
    fn at_us(&self) -> u64 {
        match self {
            Timed::Op(op) => op.at_us,
            Timed::Crash { at_us, .. } => *at_us,
        }
    }
}

/// The seeded inputs of one run: everything the program receives.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// `(address, identifier)` of every node, sorted by identifier.
    by_id: Vec<(NodeId, NodeAddr)>,
    /// Set-up puts (one per corpus key).
    preload: Vec<Op>,
    /// Set-up subscriptions `(node, topic index)`.
    subscriptions: Vec<(NodeAddr, u32)>,
    /// The measured window.
    timeline: Vec<Timed>,
    /// Corpus key bytes and coordinates.
    keys: Vec<(Vec<u8>, NodeId)>,
    /// Catalogue topic coordinates.
    topics: Vec<NodeId>,
}

fn key_bytes(index: usize) -> Vec<u8> {
    format!("bench-key-{index}").into_bytes()
}

/// The coordinates of `spec`'s key corpus.
pub fn key_coordinates(spec: &SimSpec) -> Vec<NodeId> {
    (0..spec.keys)
        .map(|i| hash_key(spec.config.space, &key_bytes(i)))
        .collect()
}

/// The bytes put op `op_index` writes under corpus key `key`: both numbers,
/// then a filler derived from them, so the oracle can recompute any value.
fn put_value(key: u32, op_index: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len.max(8));
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&op_index.to_le_bytes());
    let mut state = (u64::from(key) << 32 | u64::from(op_index)) ^ 0x5851_F42D_4C95_7F2D;
    while out.len() < len {
        state = treep::id::splitmix64(state);
        out.push(state as u8);
    }
    out
}

/// Payload of a multicast or publish: the op index.
fn op_payload(op_index: u32) -> Vec<u8> {
    op_index.to_le_bytes().to_vec()
}

fn payload_op(payload: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(payload.get(..4)?.try_into().ok()?))
}

/// Evenly spaced issue times of `count` ops inside `[start, start + len)`,
/// shifted by `phase ∈ [0, 1)` of one gap so classes do not collide.
fn spaced(start_us: u64, len_us: u64, count: u64, phase: f64) -> impl Iterator<Item = u64> {
    (0..count).map(move |j| start_us + ((j as f64 + phase) * len_us as f64 / count as f64) as u64)
}

/// Generate the plan for `spec` over the built population `pairs`.
pub fn generate_plan(spec: &SimSpec, pairs: &[(NodeAddr, NodeId)], seed: u64) -> Plan {
    let mut rng = SimRng::seed_from(seed ^ 0xB5AD_4ECE_DA1C_E2A9);
    let mut victim_rng = SimRng::seed_from(SCENARIO_SEED ^ 0x5CE7_A210);
    let space = spec.config.space;
    let mut by_id: Vec<(NodeId, NodeAddr)> = pairs.iter().map(|&(a, i)| (i, a)).collect();
    by_id.sort_unstable();

    let keys: Vec<(Vec<u8>, NodeId)> = (0..spec.keys)
        .map(|i| {
            let bytes = key_bytes(i);
            let coord = hash_key(space, &bytes);
            (bytes, coord)
        })
        .collect();
    let pubsub = (spec.topics > 0).then(|| PubSubWorkload::new(space, spec.topics, 0.99));
    let topics: Vec<NodeId> = pubsub.as_ref().map_or(Vec::new(), |p| p.topics().to_vec());
    let zipf = (spec.keys > 0).then(|| ZipfSampler::new(spec.keys, 0.99));

    // Set-up: one put per corpus key and the subscriber placement, spread
    // over the first third of the preload slices.
    let preload_len = spec.preload_slices / 3 * SLICE_US;
    let mut live: Vec<(NodeAddr, NodeId)> = pairs.to_vec();
    let pick =
        |rng: &mut SimRng, live: &[(NodeAddr, NodeId)]| live[rng.gen_range_usize(0..live.len())];
    let preload: Vec<Op> = spaced(0, preload_len.max(1), spec.keys as u64, 0.5)
        .enumerate()
        .map(|(key, at_us)| Op {
            at_us,
            origin: pick(&mut rng, &live).0,
            kind: OpKind::Put { key: key as u32 },
            step: 0,
        })
        .collect();
    let subscriptions: Vec<(NodeAddr, u32)> = pubsub.as_ref().map_or(Vec::new(), |p| {
        p.initial_subscriptions(&live, spec.subscribers, &mut rng)
            .into_iter()
            .map(|c| (c.node, c.topic_index as u32))
            .collect()
    });

    // The measured window, step by step.
    let victims_per_step = (spec.n as f64 * spec.crash_fraction).round() as usize;
    let width = ((space.size() as f64 * spec.multicast_range) as u64).max(1);
    let mut timeline: Vec<Timed> = Vec::new();
    for step in 0..spec.steps {
        let step_start = spec.step_start_slice(step) * SLICE_US;
        if step > 0 && victims_per_step > 0 {
            let mut victims: Vec<NodeAddr> = victim_rng
                .sample_indices(live.len(), victims_per_step.min(live.len() - 2))
                .into_iter()
                .map(|i| live[i].0)
                .collect();
            victims.sort_unstable();
            live.retain(|(a, _)| victims.binary_search(a).is_err());
            timeline.push(Timed::Crash {
                at_us: step_start,
                victims,
            });
        }
        let issue_start = spec.issue_start_slice(step) * SLICE_US;
        let issue_len = spec.issue_slices * SLICE_US;
        let count = |per_s: u64| per_s * spec.issue_slices / SLICES_PER_S;
        let step = step as u32;
        let mut ops: Vec<Op> = Vec::new();
        for (j, at_us) in spaced(issue_start, issue_len, count(spec.lookups_per_s), 0.5).enumerate()
        {
            let origin = pick(&mut rng, &live);
            let mut target = pick(&mut rng, &live);
            while target.0 == origin.0 {
                target = pick(&mut rng, &live);
            }
            ops.push(Op {
                at_us,
                origin: origin.0,
                kind: OpKind::Lookup {
                    target: target.1,
                    algorithm: RoutingAlgorithm::ALL[j % 3],
                },
                step,
            });
        }
        if let Some(zipf) = &zipf {
            for at_us in spaced(issue_start, issue_len, count(spec.gets_per_s), 0.25) {
                ops.push(Op {
                    at_us,
                    origin: pick(&mut rng, &live).0,
                    kind: OpKind::Get {
                        key: zipf.sample(&mut rng) as u32,
                    },
                    step,
                });
            }
            for at_us in spaced(issue_start, issue_len, count(spec.puts_per_s), 0.75) {
                ops.push(Op {
                    at_us,
                    origin: pick(&mut rng, &live).0,
                    kind: OpKind::Put {
                        key: zipf.sample(&mut rng) as u32,
                    },
                    step,
                });
            }
        }
        for at_us in spaced(issue_start, issue_len, count(spec.multicasts_per_s), 0.125) {
            let lo = rng.gen_range_u64(0..space.size().saturating_sub(width).max(1));
            ops.push(Op {
                at_us,
                origin: pick(&mut rng, &live).0,
                kind: OpKind::Multicast {
                    range: KeyRange::new(NodeId(lo), NodeId(lo + width - 1)),
                },
                step,
            });
        }
        if let Some(p) = &pubsub {
            for at_us in spaced(issue_start, issue_len, count(spec.publishes_per_s), 0.625) {
                ops.push(Op {
                    at_us,
                    origin: pick(&mut rng, &live).0,
                    kind: OpKind::Publish {
                        topic: p.sample_topic(&mut rng) as u32,
                    },
                    step,
                });
            }
        }
        ops.sort_by_key(|op| op.at_us);
        timeline.extend(ops.into_iter().map(Timed::Op));
    }

    Plan {
        by_id,
        preload,
        subscriptions,
        timeline,
        keys,
        topics,
    }
}

// ---- counters read around the run -----------------------------------------------

/// One counter per [`MessageKind`], indexed by `MessageKind::index`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerKind(pub [u64; MessageKind::COUNT]);

impl Default for PerKind {
    fn default() -> Self {
        PerKind([0; MessageKind::COUNT])
    }
}

/// Sums of the public per-node counters over every node (dead ones too).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatSum {
    /// Messages sent per kind.
    pub sent: PerKind,
    /// Messages received per kind.
    pub received: PerKind,
    /// Maintenance ticks executed.
    pub keepalive_rounds: u64,
    /// Lookup requests forwarded for others.
    pub lookups_forwarded: u64,
    /// Lookup requests that dead-ended.
    pub lookups_dead_ended: u64,
    /// Registry entries expired.
    pub entries_expired: u64,
    /// Level-0 entries pruned.
    pub entries_pruned: u64,
    /// Elections joined.
    pub elections: u64,
    /// Promotions.
    pub promotions: u64,
    /// Demotions.
    pub demotions: u64,
    /// Multicast payload deliveries.
    pub multicast_deliveries: u64,
    /// Multicast retransmissions.
    pub multicast_retransmits: u64,
    /// Multicast re-routes.
    pub multicast_reroutes: u64,
    /// Duplicate multicast visits suppressed.
    pub multicast_dups_suppressed: u64,
    /// Anti-entropy rounds.
    pub replica_sync_rounds: u64,
    /// Digest probes that mismatched.
    pub replica_digest_mismatches: u64,
    /// Replicated values received.
    pub replica_values_received: u64,
    /// Keys handed off.
    pub replica_handoffs: u64,
    /// Hot-key cache hits.
    pub cache_hits: u64,
    /// Hot-key cache fills.
    pub cache_fills: u64,
    /// Hot-key cache evictions.
    pub cache_evictions: u64,
    /// Gets served from a replica store.
    pub replica_served: u64,
    /// Read repairs issued.
    pub read_repairs: u64,
    /// Topic deliveries.
    pub pubsub_deliveries: u64,
    /// Fan-out branches pruned by subscription filters.
    pub pubsub_branches_pruned: u64,
}

impl StatSum {
    /// Sum the counters of every node of `sim`.
    pub fn of(sim: &Simulation<TreePNode>) -> Self {
        let mut s = StatSum::default();
        for addr in sim.all_nodes() {
            let Some(node) = sim.node(addr) else { continue };
            let st = node.stats();
            for kind in MessageKind::ALL {
                s.sent.0[kind.index()] += st.sent.get(kind);
                s.received.0[kind.index()] += st.received.get(kind);
            }
            s.keepalive_rounds += st.keepalive_rounds;
            s.lookups_forwarded += st.lookups_forwarded;
            s.lookups_dead_ended += st.lookups_dead_ended;
            s.entries_expired += st.entries_expired;
            s.entries_pruned += st.entries_pruned;
            s.elections += st.elections_joined;
            s.promotions += st.promotions;
            s.demotions += st.demotions;
            s.multicast_deliveries += st.multicast_deliveries;
            s.multicast_retransmits += st.multicast_retransmits;
            s.multicast_reroutes += st.multicast_reroutes;
            s.multicast_dups_suppressed += st.multicast_duplicates_suppressed;
            s.replica_sync_rounds += st.replica_sync_rounds;
            s.replica_digest_mismatches += st.replica_digest_mismatches;
            s.replica_values_received += st.replica_values_received;
            s.replica_handoffs += st.replica_handoffs;
            s.cache_hits += st.cache_hits;
            s.cache_fills += st.cache_fills;
            s.cache_evictions += st.cache_evictions;
            s.replica_served += st.replica_served_gets;
            s.read_repairs += st.read_repairs_issued;
            s.pubsub_deliveries += st.pubsub_deliveries;
            s.pubsub_branches_pruned += st.pubsub_branches_pruned;
        }
        s
    }

    /// Counter growth since `earlier` (counters only grow).
    pub fn since(&self, earlier: &StatSum) -> StatSum {
        let mut d = self.clone();
        for i in 0..MessageKind::COUNT {
            d.sent.0[i] -= earlier.sent.0[i];
            d.received.0[i] -= earlier.received.0[i];
        }
        macro_rules! sub {
            ($($f:ident),*) => { $( d.$f -= earlier.$f; )* };
        }
        sub!(
            keepalive_rounds,
            lookups_forwarded,
            lookups_dead_ended,
            entries_expired,
            entries_pruned,
            elections,
            promotions,
            demotions,
            multicast_deliveries,
            multicast_retransmits,
            multicast_reroutes,
            multicast_dups_suppressed,
            replica_sync_rounds,
            replica_digest_mismatches,
            replica_values_received,
            replica_handoffs,
            cache_hits,
            cache_fills,
            cache_evictions,
            replica_served,
            read_repairs,
            pubsub_deliveries,
            pubsub_branches_pruned
        );
        d
    }

    /// Messages of `kind` sent.
    pub fn sent_of(&self, kind: MessageKind) -> u64 {
        self.sent.0[kind.index()]
    }

    /// All messages sent.
    pub fn sent_total(&self) -> u64 {
        self.sent.0.iter().sum()
    }

    /// Maintenance messages sent (`MessageKind::is_maintenance`).
    pub fn sent_maintenance(&self) -> u64 {
        MessageKind::ALL
            .iter()
            .filter(|k| k.is_maintenance())
            .map(|k| self.sent.0[k.index()])
            .sum()
    }
}

// ---- results --------------------------------------------------------------------

/// Everything a replay measured in simulated time or as a count. Two
/// replays of the same seed must produce equal values.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimFacts {
    /// Event digest of the whole run (set-up and window).
    pub digest: u64,
    /// Ops attempted in the window.
    pub attempted: u64,
    /// Ops that returned the correct answer in time.
    pub succeeded: u64,
    /// Oracle violations (answers that must never occur).
    pub violations: u64,
    /// What the first few violations were.
    pub violation_notes: Vec<String>,
    /// Lookups answered "found" after the owner of the identifier had
    /// crashed: stale, counted as unsuccessful.
    pub stale_lookups: u64,
    /// `[attempted, succeeded]` of lookups, gets and puts.
    pub point: [u64; 2],
    /// `[attempted, succeeded]` of scoped multicasts.
    pub multicast: [u64; 2],
    /// `[attempted, succeeded]` of topic publishes.
    pub topic: [u64; 2],
    /// `[attempted, succeeded]` of the last step's ops.
    pub last_step: [u64; 2],
    /// Histogram of path nodes (hops + 1) of successful lookups and gets.
    pub path_nodes: Vec<u64>,
    /// Issue → outcome microseconds of successful point ops, sorted.
    pub latency_us: Vec<u64>,
    /// Σ over the window of live nodes × seconds.
    pub node_seconds: f64,
    /// Counter growth over the window.
    pub stats: StatSum,
    /// Simulator counter growth over the window.
    pub engine: SimMetrics,
    /// Largest pending-event count seen at a slice boundary.
    pub pending_peak: u64,
    /// `[max, mean]` messages received per node over the window.
    pub load: [f64; 2],
    /// `[targets, delivered, in-time]` multicast delivery obligations.
    pub multicast_deliveries: [u64; 3],
    /// `[targets, delivered, in-time]` topic delivery obligations.
    pub topic_deliveries: [u64; 3],
    /// `[mean, max]` registry entries per live node when the window starts.
    pub table_entries: [f64; 2],
    /// Largest `entries / analytic_table_bound` over live nodes.
    pub table_bound_ratio: f64,
}

impl SimFacts {
    /// Count one oracle violation and keep a description of the first few.
    fn violation(&mut self, what: impl FnOnce() -> String) {
        self.violations += 1;
        if self.violation_notes.len() < 8 {
            self.violation_notes.push(what());
        }
    }
}

/// One replay: its host-time segments and its facts.
pub struct Replay {
    /// Set-up segments: build, op generation, settle and preload slices.
    pub setup: Vec<Segment>,
    /// The measured window's segments, one per slice.
    pub window: Vec<Segment>,
    /// Simulated-time results.
    pub facts: SimFacts,
    /// `VmRSS` growth over set-up, bytes.
    pub rss_growth: u64,
    /// Allocator counter growth over set-up (zero unless counting).
    pub setup_alloc: AllocSnapshot,
    /// Allocator counter growth over the window (zero unless counting).
    pub window_alloc: AllocSnapshot,
    /// The simulation after the window, for the legs.
    pub sim: Simulation<TreePNode>,
    /// The built topology.
    pub topo: BuiltTopology,
}

/// Per-op bookkeeping of a replay.
#[derive(Debug, Clone, Copy)]
struct Record {
    op: Op,
    /// Absolute scheduled issue time.
    due: SimTime,
    request: Option<RequestId>,
    measured: bool,
    /// Outcome, once drained.
    done_at: Option<SimTime>,
    ok: bool,
    hops: Option<u32>,
    stamp: Option<VersionStamp>,
    /// Gets: the tier that answered.
    source: Option<ReadSource>,
}

impl Record {
    /// The record of an op just issued, with no outcome yet.
    fn issued(op: Op, due: SimTime, request: Option<RequestId>, measured: bool) -> Self {
        Record {
            op,
            due,
            request,
            measured,
            done_at: None,
            ok: false,
            hops: None,
            stamp: None,
            source: None,
        }
    }
}

fn issue(
    sim: &mut Simulation<TreePNode>,
    plan: &Plan,
    spec: &SimSpec,
    op: &Op,
    op_index: u32,
) -> Option<RequestId> {
    match op.kind {
        OpKind::Lookup { target, algorithm } => sim.invoke(op.origin, |node, ctx| {
            node.start_lookup(target, algorithm, ctx)
        }),
        OpKind::Get { key } => {
            let bytes = &plan.keys[key as usize].0;
            sim.invoke(op.origin, |node, ctx| node.dht_get_versioned(bytes, ctx))
        }
        OpKind::Put { key } => {
            let bytes = &plan.keys[key as usize].0;
            let value = put_value(key, op_index, spec.value_len);
            sim.invoke(op.origin, |node, ctx| {
                node.dht_put_versioned(bytes, value, ctx)
            })
        }
        OpKind::Multicast { range } => sim.invoke(op.origin, |node, ctx| {
            node.start_multicast(range, op_payload(op_index), ctx)
        }),
        OpKind::Publish { topic } => {
            let coord = plan.topics[topic as usize];
            sim.invoke(op.origin, |node, ctx| {
                node.start_publish(coord, op_payload(op_index), ctx)
            })
        }
    }
}

/// Run one replay of `spec` from `seed`. With an enabled `tracer` this is
/// the traced pass: the simulator's own telemetry is switched on too, and
/// the allocator counters are read around set-up and window.
pub fn run_replay(
    spec: &SimSpec,
    seed: u64,
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> Replay {
    let traced = tracer.enabled();
    let slice = SimDuration::from_micros(SLICE_US);
    let rss_before = crate::host::rss_bytes();
    let alloc_before = AllocSnapshot::now();
    let mut setup = Vec::new();

    // ---- set-up: build, plan, settle, preload --------------------------------
    let mut sim: Simulation<TreePNode> = Simulation::new(SimConfig::default(), SCENARIO_SEED);
    sim.enable_digest();
    if traced {
        sim.enable_telemetry(TelemetryConfig {
            // Room for a hop span per traced message of the longest window.
            span_capacity: 1 << 22,
            ..TelemetryConfig::default()
        });
    }
    let builder = TopologyBuilder::new(spec.n).with_config(spec.config);
    let span = tracer.begin("workloads/TopologyBuilder::build");
    let (topo, seg) = timer.time(|| builder.build(&mut sim));
    tracer.end(span);
    setup.push(seg);
    // The population above is the scenario; from here on the run's seed
    // drives the simulator (link latencies, timer jitter).
    *sim.rng_mut() = SimRng::seed_from(seed);

    let span = tracer.begin("bench/generate_plan");
    let (plan, seg) = timer.time(|| generate_plan(spec, &topo.pairs(), seed));
    tracer.end(span);
    setup.push(seg);

    for _ in 0..spec.settle_slices {
        let span = tracer.begin("simnet/run_for(settle)");
        let ((), seg) = timer.time(|| sim.run_for(slice));
        tracer.end(span);
        setup.push(seg);
    }

    let mut records: Vec<Record> = Vec::with_capacity(plan.preload.len() + plan.timeline.len());
    let preload_start = sim.now();
    let mut next_preload = 0usize;
    let mut next_sub = 0usize;
    let issue_slices = (spec.preload_slices / 3).max(1);
    for s in 0..spec.preload_slices {
        let span = tracer.begin("simnet/run_for(preload)");
        let ((), seg) = timer.time(|| {
            let slice_end_us = (s + 1) * SLICE_US;
            // Subscriptions: an even share per issuing slice.
            let subs_due = if s < issue_slices {
                plan.subscriptions.len() * (s as usize + 1) / issue_slices as usize
            } else {
                plan.subscriptions.len()
            };
            while next_sub < subs_due {
                let (addr, topic) = plan.subscriptions[next_sub];
                let coord = plan.topics[topic as usize];
                sim.invoke(addr, |node, ctx| node.start_subscribe(coord, ctx));
                next_sub += 1;
            }
            while next_preload < plan.preload.len()
                && plan.preload[next_preload].at_us < slice_end_us
            {
                let op = plan.preload[next_preload];
                let due = preload_start + SimDuration::from_micros(op.at_us);
                sim.run_until(due);
                let request = issue(&mut sim, &plan, spec, &op, records.len() as u32);
                records.push(Record::issued(op, due, request, false));
                next_preload += 1;
            }
            sim.run_until(preload_start + SimDuration::from_micros(slice_end_us));
        });
        tracer.end(span);
        setup.push(seg);
    }
    let rss_growth = crate::host::rss_bytes().saturating_sub(rss_before);
    let alloc_after_setup = AllocSnapshot::now();

    // ---- readings before the window -------------------------------------------
    let stats_before = StatSum::of(&sim);
    let engine_before = sim.metrics();
    let received_before: Vec<u64> = sim
        .all_nodes()
        .iter()
        .map(|&a| sim.node(a).map_or(0, |n| n.stats().total_received()))
        .collect();
    let (table_entries, table_bound_ratio) = table_sizes(&sim);

    // ---- the measured window ----------------------------------------------------
    let window_start = sim.now();
    let mut window = Vec::with_capacity(spec.window_slices() as usize);
    let mut next = 0usize;
    let mut pending_peak = 0u64;
    let mut live = spec.n as u64;
    let mut node_seconds = 0.0f64;
    for s in 0..spec.window_slices() {
        tracer.next_batch();
        let slice_end_us = (s + 1) * SLICE_US;
        let outer = tracer.begin("bench/slice");
        let ((), seg) = timer.time(|| {
            while next < plan.timeline.len() && plan.timeline[next].at_us() < slice_end_us {
                let due = window_start + SimDuration::from_micros(plan.timeline[next].at_us());
                let span = tracer.begin("simnet/run_until");
                sim.run_until(due);
                tracer.end(span);
                match &plan.timeline[next] {
                    Timed::Op(op) => {
                        let span = tracer.begin("simnet/invoke");
                        let request = issue(&mut sim, &plan, spec, op, records.len() as u32);
                        tracer.end(span);
                        records.push(Record::issued(*op, due, request, true));
                    }
                    Timed::Crash { victims, .. } => {
                        for &v in victims {
                            sim.fail_node(v);
                        }
                        live -= victims.len() as u64;
                    }
                }
                next += 1;
            }
            let span = tracer.begin("simnet/run_until");
            sim.run_until(window_start + SimDuration::from_micros(slice_end_us));
            tracer.end(span);
        });
        tracer.end(outer);
        window.push(seg);
        pending_peak = pending_peak.max(sim.pending_events() as u64);
        node_seconds += live as f64 * SLICE_US as f64 * 1e-6;
    }
    let window_alloc = AllocSnapshot::now().since(&alloc_after_setup);

    // ---- readings after the window, outcome drain and scoring -----------------
    let span = tracer.begin("bench/score");
    let stats = StatSum::of(&sim).since(&stats_before);
    let engine = sim.metrics().delta_since(&engine_before);
    let mut load_max = 0u64;
    let mut load_sum = 0u64;
    for (i, &addr) in sim.all_nodes().iter().enumerate() {
        let now = sim.node(addr).map_or(0, |n| n.stats().total_received());
        let got = now - received_before[i];
        load_max = load_max.max(got);
        load_sum += got;
    }
    let mut facts = score(&mut sim, &plan, spec, window_start, &mut records, tracer);
    tracer.end(span);
    facts.digest = sim.event_digest().unwrap_or(0);
    facts.node_seconds = node_seconds;
    facts.stats = stats;
    facts.engine = engine;
    facts.pending_peak = pending_peak;
    facts.load = [load_max as f64, load_sum as f64 / spec.n as f64];
    facts.table_entries = table_entries;
    facts.table_bound_ratio = table_bound_ratio;

    Replay {
        setup,
        window,
        facts,
        rss_growth,
        setup_alloc: if traced {
            alloc_after_setup.since(&alloc_before)
        } else {
            AllocSnapshot::default()
        },
        window_alloc: if traced {
            window_alloc
        } else {
            AllocSnapshot::default()
        },
        sim,
        topo,
    }
}

/// `[mean, max]` registry entries per live node and the largest ratio of a
/// node's entries to its analytic bound.
fn table_sizes(sim: &Simulation<TreePNode>) -> ([f64; 2], f64) {
    let mut sum = 0usize;
    let mut max = 0usize;
    let mut ratio = 0.0f64;
    let alive = sim.alive_nodes();
    for &addr in &alive {
        let Some(node) = sim.node(addr) else { continue };
        let total = node.tables().sizes().total();
        sum += total;
        max = max.max(total);
        let bound = treep::analytic_table_bound(node).max(1);
        ratio = ratio.max(total as f64 / bound as f64);
    }
    ([sum as f64 / alive.len().max(1) as f64, max as f64], ratio)
}

/// Drain every node's outcome queues, match them to the op records and
/// score each op against the oracle.
fn score(
    sim: &mut Simulation<TreePNode>,
    plan: &Plan,
    spec: &SimSpec,
    window_start: SimTime,
    records: &mut [Record],
    tracer: &mut Tracer,
) -> SimFacts {
    let mut facts = SimFacts::default();
    let crashed_at: HashMap<NodeAddr, SimTime> = plan
        .timeline
        .iter()
        .filter_map(|t| match t {
            Timed::Crash { at_us, victims } => Some((at_us, victims)),
            Timed::Op(_) => None,
        })
        .flat_map(|(at_us, victims)| {
            let at = window_start + SimDuration::from_micros(*at_us);
            victims.iter().map(move |v| (*v, at))
        })
        .collect();
    let by_request: HashMap<(NodeAddr, RequestId), usize> = records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.request.map(|q| ((r.op.origin, q), i)))
        .collect();
    let id_of: HashMap<NodeAddr, NodeId> = plan.by_id.iter().map(|&(i, a)| (a, i)).collect();

    // Puts in stamp order per key, for the freshness check of gets:
    // `(ack time, stamp)` of every acknowledged put.
    let mut acked: Vec<Vec<(SimTime, VersionStamp)>> = vec![Vec::new(); plan.keys.len()];
    // What each get returned: `(record, stamp, value op index)`.
    let mut got: Vec<(usize, Option<(VersionStamp, u32)>)> = Vec::new();
    // Deliveries per (op record, receiving node).
    let mut delivered: HashMap<(usize, NodeAddr), (u32, SimTime)> = HashMap::new();

    let span = tracer.begin("treep/drain_outcomes");
    for addr in sim.all_nodes() {
        let Some(node) = sim.node_mut(addr) else {
            continue;
        };
        for o in node.drain_lookup_outcomes() {
            let Some(&i) = by_request.get(&(addr, o.request_id)) else {
                continue;
            };
            let r = &mut records[i];
            r.done_at = Some(o.completed_at);
            r.ok = o.status == LookupStatus::Found;
            r.hops = Some(o.hops);
            if !r.ok {
                continue;
            }
            // The outcome carries the identifier, not the node that
            // answered: a found lookup must name an identifier some node
            // owns, and that node must be alive when the answer arrives. A
            // hop answers "found" from its own table, so an answer about a
            // node that has crashed since is stale (unsuccessful), not a
            // violation.
            match plan.by_id.binary_search_by_key(&o.target, |p| p.0) {
                Err(_) => {
                    facts.violation(|| format!("lookup found {}, which no node owns", o.target))
                }
                Ok(owner) => {
                    let crashed = crashed_at.get(&plan.by_id[owner].1);
                    if crashed.is_some_and(|at| *at <= o.completed_at) {
                        r.ok = false;
                        facts.stale_lookups += 1;
                    }
                }
            }
        }
        for o in node.drain_read_outcomes() {
            let Some(&i) = by_request.get(&(addr, o.request_id())) else {
                continue;
            };
            match o {
                ReadOutcome::Got {
                    value,
                    source,
                    hops,
                    completed_at,
                    key,
                    ..
                } => {
                    let r = &mut records[i];
                    r.done_at = Some(completed_at);
                    r.hops = Some(hops);
                    r.source = Some(source);
                    let OpKind::Get { key: k } = r.op.kind else {
                        facts.violation(|| format!("op {i} is no get but was answered as one"));
                        continue;
                    };
                    if plan.keys[k as usize].1 != key {
                        facts.violation(|| format!("get {i} of key {k} answered for {key}"));
                        continue;
                    }
                    let parsed = value.map(|sv| {
                        r.stamp = Some(sv.stamp);
                        // The bytes must be exactly what some put of this
                        // key wrote.
                        let writer = payload_op(&sv.value[4.min(sv.value.len())..]);
                        let valid =
                            writer.is_some_and(|w| sv.value == put_value(k, w, spec.value_len));
                        (sv.stamp, valid.then_some(writer).flatten())
                    });
                    match parsed {
                        Some((_, None)) => facts.violation(|| {
                            format!("get {i} of key {k} returned bytes no put wrote")
                        }),
                        Some((stamp, Some(w))) => got.push((i, Some((stamp, w)))),
                        None => got.push((i, None)),
                    }
                }
                ReadOutcome::PutAcked {
                    stamp,
                    completed_at,
                    key,
                    ..
                } => {
                    let r = &mut records[i];
                    r.done_at = Some(completed_at);
                    r.ok = true;
                    r.stamp = Some(stamp);
                    if let OpKind::Put { key: k } = r.op.kind {
                        if plan.keys[k as usize].1 != key {
                            facts.violation(|| format!("put {i} of key {k} acked for {key}"));
                        }
                        acked[k as usize].push((completed_at, stamp));
                    } else {
                        facts.violation(|| format!("op {i} is no put but was acked as one"));
                    }
                }
                ReadOutcome::TimedOut { .. } => {}
            }
        }
        let multicasts = node.drain_multicast_deliveries().into_iter().map(|d| {
            (
                d.origin.addr,
                d.request_id,
                d.hops,
                d.at,
                payload_op(&d.payload),
            )
        });
        let topics = node.drain_topic_deliveries().into_iter().map(|d| {
            (
                d.origin.addr,
                d.request_id,
                d.hops,
                d.at,
                payload_op(&d.payload),
            )
        });
        for (origin, request, hops, at, payload) in multicasts.chain(topics).collect::<Vec<_>>() {
            let Some(&i) = by_request.get(&(origin, request)) else {
                facts.violation(|| format!("{addr} got a delivery of an op nobody issued"));
                continue;
            };
            // The payload must be the op's own, and a node receives it once.
            if payload != Some(i as u32) {
                facts.violation(|| format!("{addr} got op {i} with a foreign payload"));
            }
            if delivered.insert((i, addr), (hops, at)).is_some() {
                facts.violation(|| format!("{addr} got op {i} twice"));
            }
        }
    }
    tracer.end(span);

    // Gets: the value must be at least as fresh as the last put of the key
    // acknowledged before the get was issued; the stamp a writer's bytes
    // arrive under must be the stamp that writer's put was acknowledged
    // with.
    for (i, answer) in got {
        let OpKind::Get { key } = records[i].op.kind else {
            continue;
        };
        let floor = acked[key as usize]
            .iter()
            .filter(|(at, _)| *at <= records[i].due)
            .map(|(_, s)| *s)
            .max();
        match answer {
            Some((stamp, writer)) => {
                match records.get(writer as usize).map(|w| w.stamp) {
                    Some(Some(s)) if s != stamp => facts.violation(|| {
                        format!(
                            "get {i}: bytes of put {writer} (stamp {s:?}) under stamp {stamp:?}"
                        )
                    }),
                    None => facts.violation(|| format!("get {i}: bytes of unknown put {writer}")),
                    _ => {}
                }
                records[i].ok = floor.is_none_or(|f| stamp >= f);
            }
            None => records[i].ok = false,
        }
    }

    // Monotonic reads: a replica or a cache must not answer a get with an
    // older stamp than its client had already seen for the key (in any
    // answer or acknowledgement that arrived before the get was issued);
    // the get carries that stamp as `min_stamp`. The responsible node's
    // store is authoritative by design and answers with what it holds, and
    // a crash can hand the key to a node that holds an older copy: such an
    // answer is stale (unsuccessful), not a violation.
    let mut seen: HashMap<(NodeAddr, u32), Vec<(SimTime, VersionStamp)>> = HashMap::new();
    for r in records.iter() {
        if let (OpKind::Get { key } | OpKind::Put { key }, Some(at), Some(stamp)) =
            (r.op.kind, r.done_at, r.stamp)
        {
            seen.entry((r.op.origin, key))
                .or_default()
                .push((at, stamp));
        }
    }
    for (i, r) in records.iter_mut().enumerate() {
        let (OpKind::Get { key }, Some(stamp)) = (r.op.kind, r.stamp) else {
            continue;
        };
        let before = seen[&(r.op.origin, key)]
            .iter()
            .filter(|(at, _)| *at <= r.due)
            .map(|(_, s)| *s)
            .max();
        let Some(before) = before.filter(|b| stamp < *b) else {
            continue;
        };
        if r.source == Some(ReadSource::Responsible) {
            r.ok = false;
        } else {
            facts.violation(|| {
                format!(
                    "get {i}: client {} had seen key {key} at {before:?} and was served {stamp:?} by {:?}",
                    r.op.origin, r.source
                )
            });
        }
    }

    // Multicasts and publishes: who had to receive, who did.
    let mut alive: HashMap<NodeAddr, bool> = plan.by_id.iter().map(|&(_, a)| (a, true)).collect();
    let mut subscribers: Vec<Vec<NodeAddr>> = vec![Vec::new(); plan.topics.len()];
    for &(addr, topic) in &plan.subscriptions {
        subscribers[topic as usize].push(addr);
    }
    let record_of_timeline: Vec<usize> = {
        // Records were pushed preload first, then in timeline order.
        let mut next = plan.preload.len();
        plan.timeline
            .iter()
            .map(|t| match t {
                Timed::Op(_) => {
                    next += 1;
                    next - 1
                }
                Timed::Crash { .. } => usize::MAX,
            })
            .collect()
    };
    for (t, &ri) in plan.timeline.iter().zip(&record_of_timeline) {
        match t {
            Timed::Crash { victims, .. } => {
                for v in victims {
                    alive.insert(*v, false);
                }
            }
            Timed::Op(op) => {
                let targets: Vec<NodeAddr> = match op.kind {
                    OpKind::Multicast { range } => {
                        let lo = plan.by_id.partition_point(|p| p.0 < range.lo);
                        let hi = plan.by_id.partition_point(|p| p.0 <= range.hi);
                        plan.by_id[lo..hi].iter().map(|p| p.1).collect()
                    }
                    OpKind::Publish { topic } => subscribers[topic as usize].clone(),
                    _ => continue,
                };
                let is_topic = matches!(op.kind, OpKind::Publish { .. });
                let tally = if is_topic {
                    &mut facts.topic_deliveries
                } else {
                    &mut facts.multicast_deliveries
                };
                let deadline = records[ri].due + OP_TIMEOUT;
                let mut all = true;
                for addr in targets.iter().filter(|a| alive[a]) {
                    tally[0] += 1;
                    match delivered.get(&(ri, *addr)) {
                        Some(&(_, at)) => {
                            tally[1] += 1;
                            if at <= deadline {
                                tally[2] += 1;
                            } else {
                                all = false;
                            }
                        }
                        None => all = false,
                    }
                }
                records[ri].ok = all;
            }
        }
    }
    // A delivery outside the scope (or to a non-subscriber) must not occur.
    for &(ri, addr) in delivered.keys() {
        let inside = match records[ri].op.kind {
            OpKind::Multicast { range } => range.contains(id_of[&addr]),
            OpKind::Publish { topic } => subscribers[topic as usize].contains(&addr),
            _ => false,
        };
        if !inside {
            facts.violation(|| format!("{addr} got op {ri} outside its scope"));
        }
    }

    // Totals.
    let last_step = spec.steps as u32 - 1;
    for r in records.iter().filter(|r| r.measured) {
        let ok = r.ok && r.done_at.is_none_or(|at| at <= r.due + OP_TIMEOUT);
        let class = match r.op.kind {
            OpKind::Multicast { .. } => &mut facts.multicast,
            OpKind::Publish { .. } => &mut facts.topic,
            _ => &mut facts.point,
        };
        class[0] += 1;
        class[1] += u64::from(ok);
        facts.attempted += 1;
        facts.succeeded += u64::from(ok);
        if r.op.step == last_step {
            facts.last_step[0] += 1;
            facts.last_step[1] += u64::from(ok);
        }
        let point = !matches!(r.op.kind, OpKind::Multicast { .. } | OpKind::Publish { .. });
        if ok && point {
            if let Some(at) = r.done_at {
                facts
                    .latency_us
                    .push(at.saturating_since(r.due).as_micros());
            }
            if let Some(h) = r.hops {
                let nodes = h as usize + 1;
                if facts.path_nodes.len() <= nodes {
                    facts.path_nodes.resize(nodes + 1, 0);
                }
                facts.path_nodes[nodes] += 1;
            }
        }
    }
    facts.latency_us.sort_unstable();
    facts
}
