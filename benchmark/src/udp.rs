//! The `udp_kv` workload: eight `UdpNode`s on the host's loopback interface
//! (no real link), one closed-loop client thread, all on one CPU.
//!
//! The only workload in which the wire codec and the threaded transport
//! run at all. Op batches alternate window 1 (latency) and window 16
//! (throughput); keys are drawn by rejection so the node responsible for a
//! key is never the client's own, or half the ops would never leave it.

use crate::host::{self, CpuClock, Segment, SegmentTimer};
use crate::sim::PerKind;
use crate::trace::Tracer;
use simnet::{NodeAddr, SimDuration, SimRng};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use treep::{
    hash_key, DhtOutcome, LookupStatus, MessageKind, NodeCharacteristics, NodeId, NodeStats,
    RoutingAlgorithm, TreePConfig,
};
use treep_net::{TransportStats, UdpNode};

/// Ops in flight in a throughput batch.
pub const WIDE_WINDOW: usize = 16;

/// The fixed sizes of the workload at one scale.
#[derive(Debug, Clone)]
pub struct UdpSpec {
    /// Nodes of the cluster.
    pub nodes: usize,
    /// Protocol configuration (timers shortened so the overlay forms in a
    /// second or two of wall time).
    pub config: TreePConfig,
    /// Ops of the measured window.
    pub ops: usize,
    /// Ops per batch; a batch is one measured segment.
    pub batch: usize,
    /// Keys whose values are always `SMALL_VALUE` bytes.
    pub small_keys: usize,
    /// Keys whose values are always `LARGE_VALUE` bytes.
    pub large_keys: usize,
    /// How long the formation condition must hold before the overlay
    /// counts as formed.
    pub formation_hold: Duration,
}

/// Bytes of a small value.
pub const SMALL_VALUE: usize = 32;
/// Bytes of a large value.
pub const LARGE_VALUE: usize = 8 * 1024;

/// Loopback port of node 0; node `i` takes the `i`-th port after it, or
/// any free port when that one is taken.
const FIRST_PORT: u16 = 41_720;

/// How long the client yields without an outcome before it starts to sleep
/// between polls (a round trip takes about 8 us, an 8 KiB put 40 us).
const SPIN_BEFORE_SLEEP: Duration = Duration::from_micros(200);

/// The client's sleep between polls once it has given up yielding.
const SLEEP_WHEN_STARVED: Duration = Duration::from_micros(50);

/// Wall-clock timeout of one op.
const OP_TIMEOUT: Duration = Duration::from_millis(1_500);

impl UdpSpec {
    /// The spec for a run of `seconds`; `smoke` shrinks the op count.
    pub fn new(seconds: u64, smoke: bool) -> Self {
        let config = TreePConfig {
            keepalive_interval: SimDuration::from_millis(150),
            entry_ttl: SimDuration::from_millis(900),
            election_base: SimDuration::from_millis(120),
            demotion_base: SimDuration::from_millis(400),
            lookup_timeout: SimDuration::from_secs(1),
            // Eight nodes need two levels; with the default six a node can
            // climb to level 6 and keep-alive a bus at every level on the
            // way, and how many do is decided by thread timing.
            height: 2,
            ..TreePConfig::default()
        };
        let batch = if smoke { 250 } else { 2_000 };
        UdpSpec {
            nodes: 8,
            config,
            // A fixed count, so the work does not depend on host speed.
            ops: if smoke {
                4 * batch
            } else {
                (16_000 * seconds.max(1) as usize).div_ceil(2 * batch) * 2 * batch
            },
            batch,
            small_keys: 224,
            large_keys: 32,
            formation_hold: Duration::from_millis(if smoke { 300 } else { 1_000 }),
        }
    }
}

/// What one op does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UdpOpKind {
    /// DHT get of key `key`.
    Get,
    /// DHT put of key `key` (its class fixes the value size).
    Put,
    /// Non-greedy lookup of an identifier no node owns: it is routed to
    /// the node nearest the identifier, which answers "not found".
    Lookup,
}

/// One planned op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpOp {
    /// What it does.
    pub kind: UdpOpKind,
    /// Key index (gets and puts) or lookup-target index (lookups).
    pub index: u32,
}

/// The seeded inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct UdpPlan {
    /// Node identifiers, in bind order (index 0 is the bootstrap seed).
    pub ids: Vec<NodeId>,
    /// Index of the client's node.
    pub client: usize,
    /// Key bytes and coordinates; the first `small_keys` are small.
    pub keys: Vec<(Vec<u8>, NodeId)>,
    /// Identifiers no node owns, looked up by the lookup ops.
    pub absent: Vec<NodeId>,
    /// The measured ops, in issue order.
    pub ops: Vec<UdpOp>,
}

/// Lookup targets in the plan.
const ABSENT_IDS: usize = 64;

fn value_of(key: u32, version: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    out.extend_from_slice(&key.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    let mut state = (u64::from(key) << 32 | u64::from(version)) ^ 0x2545_F491_4F6C_DD1D;
    while out.len() < len {
        state = treep::id::splitmix64(state);
        out.push(state as u8);
    }
    out
}

/// Generate the plan: node identifiers, a key corpus and lookup targets
/// that the client's node is never responsible for, and the op stream.
///
/// A node answers a request itself when no peer it knows is nearer the
/// coordinate. The client always knows its two ring neighbours, so every
/// coordinate outside the interval between them has a known nearer peer
/// and the request leaves the client's node, whatever else its tables hold.
pub fn generate_plan(spec: &UdpSpec, seed: u64) -> UdpPlan {
    let mut rng = SimRng::seed_from(seed ^ 0x1F83_D9AB_FB41_BD6B);
    let space = spec.config.space;
    // Identifiers: the middle of each equal slice of the space. The
    // cluster is the scenario and is the same for every seed; the seed
    // drives the keys, the lookup targets and the op stream.
    let slice = space.size() / spec.nodes as u64;
    let ids: Vec<NodeId> = (0..spec.nodes as u64)
        .map(|i| NodeId(i * slice + slice / 2))
        .collect();
    let client = spec.nodes / 2;
    let leaves_client = |coord: NodeId| coord < ids[client - 1] || coord > ids[client + 1];
    let mut keys = Vec::with_capacity(spec.small_keys + spec.large_keys);
    let mut candidate = 0u64;
    while keys.len() < spec.small_keys + spec.large_keys {
        let bytes = format!("udp-key-{seed}-{candidate}").into_bytes();
        candidate += 1;
        let coord = hash_key(space, &bytes);
        if leaves_client(coord) {
            keys.push((bytes, coord));
        }
    }
    let mut absent = Vec::with_capacity(ABSENT_IDS);
    while absent.len() < ABSENT_IDS {
        let id = NodeId(rng.gen_range_u64(0..space.size()));
        if leaves_client(id) && !ids.contains(&id) {
            absent.push(id);
        }
    }

    // 45 % gets, 35 % small puts, 10 % large puts, 10 % lookups.
    let mut ops: Vec<UdpOp> = Vec::with_capacity(spec.ops);
    while ops.len() < spec.ops {
        let roll = rng.gen_range_u64(0..100);
        let op = if roll < 45 {
            UdpOp {
                kind: UdpOpKind::Get,
                index: rng.gen_range_usize(0..keys.len()) as u32,
            }
        } else if roll < 80 {
            UdpOp {
                kind: UdpOpKind::Put,
                index: rng.gen_range_usize(0..spec.small_keys) as u32,
            }
        } else if roll < 90 {
            UdpOp {
                kind: UdpOpKind::Put,
                index: (spec.small_keys + rng.gen_range_usize(0..spec.large_keys)) as u32,
            }
        } else {
            UdpOp {
                kind: UdpOpKind::Lookup,
                index: rng.gen_range_usize(0..ABSENT_IDS) as u32,
            }
        };
        ops.push(op);
    }
    UdpPlan {
        ids,
        client,
        keys,
        absent,
        ops,
    }
}

/// Counts and latencies of one replay. Host-time values differ between
/// replays; the op sequence and the oracle's verdicts must not.
#[derive(Debug, Clone, Default)]
pub struct UdpFacts {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that returned the correct answer in time.
    pub succeeded: u64,
    /// Oracle violations.
    pub violations: u64,
    /// Ops answered by another node than the client's (path ≥ 2 nodes).
    pub remote: u64,
    /// Histogram of path nodes: 2 when another node answered, 1 when the
    /// client's own did. (DHT outcomes carry no hop count, and the hop
    /// count of a lookup depends on which hierarchy the threads happened to
    /// elect, so it is not used either.)
    pub path_nodes: Vec<u64>,
    /// Per op: issue → outcome nanoseconds (0 for failed ops).
    pub latency_ns: Vec<f64>,
    /// Per op: nanoseconds inside the `UdpNode` call that issued it.
    pub call_ns: Vec<f64>,
    /// Protocol counter growth over the window, summed over the nodes.
    pub sent: PerKind,
    /// Wire counter growth over the window, summed over the nodes.
    pub wire: TransportStats,
    /// CPU seconds (all threads) over the window.
    pub cpu_seconds: f64,
    /// Raw wall seconds of the window.
    pub wall_seconds: f64,
    /// Raw wall seconds until the overlay had formed.
    pub formation_seconds: f64,
}

/// One replay of the workload.
pub struct UdpReplay {
    /// Set-up segments after formation: the preload batches.
    pub setup: Vec<Segment>,
    /// One segment per op batch.
    pub window: Vec<Segment>,
    /// Counts and latencies.
    pub facts: UdpFacts,
    /// `VmRSS` growth over set-up, bytes.
    pub rss_growth: u64,
}

fn sum_stats(nodes: &[UdpNode]) -> ([u64; MessageKind::COUNT], TransportStats) {
    let mut sent = [0u64; MessageKind::COUNT];
    let mut wire = TransportStats::default();
    for node in nodes {
        let stats: NodeStats = node.with_node(|n| n.stats().clone());
        for kind in MessageKind::ALL {
            sent[kind.index()] += stats.sent.get(kind);
        }
        let t = node.transport_stats();
        wire.datagrams_sent += t.datagrams_sent;
        wire.messages_sent += t.messages_sent;
        wire.batched_messages += t.batched_messages;
        wire.batch_datagrams += t.batch_datagrams;
    }
    (sent, wire)
}

/// True once every node holds both of its ring neighbours at level 0 and
/// the hierarchy has a top: every level-0 node has a parent and some node
/// sits above level 0 (eight nodes under `nc = 4` settle with two parents
/// sharing a top bus, not with one root).
fn formed(nodes: &[UdpNode], ids: &[NodeId]) -> bool {
    let mut has_top = false;
    for (i, node) in nodes.iter().enumerate() {
        let prev = ids[(i + ids.len() - 1) % ids.len()];
        let next = ids[(i + 1) % ids.len()];
        let (ring, parentless, level) = node.with_node(|n| {
            (
                n.tables().is_level0_neighbor(prev) && n.tables().is_level0_neighbor(next),
                n.tables().parent().is_none(),
                n.max_level(),
            )
        });
        if !ring || (parentless && level == 0) {
            return false;
        }
        has_top |= level > 0;
    }
    has_top
}

/// Bind the cluster and wait until it has formed. Returns the nodes and
/// the wall seconds it took. The node threads inherit the caller's CPU
/// mask (see [`run_replay`]).
fn form_cluster(spec: &UdpSpec, plan: &UdpPlan) -> Result<(Vec<UdpNode>, f64), String> {
    let started = Instant::now();
    let mut nodes: Vec<UdpNode> = Vec::with_capacity(spec.nodes);
    for (i, &id) in plan.ids.iter().enumerate() {
        let characteristics = match i % 3 {
            0 => NodeCharacteristics::strong(),
            1 => NodeCharacteristics::default(),
            _ => NodeCharacteristics::weak(),
        };
        let bootstrap = nodes
            .first()
            .map(|n| vec![n.peer_info()])
            .unwrap_or_default();
        // A fixed port when it is free: the transport seeds each node's
        // RNG from its address, so the election jitter repeats too.
        let node = UdpNode::bind(
            ("127.0.0.1", FIRST_PORT + i as u16),
            spec.config,
            id,
            characteristics,
            bootstrap.clone(),
        )
        .or_else(|_| UdpNode::bind("127.0.0.1:0", spec.config, id, characteristics, bootstrap))
        .map_err(|e| format!("bind node {i}: {e}"))?;
        nodes.push(node);
    }
    // Formed means stable: the condition still holds after a second of
    // keep-alive rounds (elections can re-shape a hierarchy that has just
    // come together).
    let mut formed_at: Option<Instant> = None;
    loop {
        if started.elapsed() > Duration::from_secs(20) {
            let state: Vec<String> = nodes
                .iter()
                .map(|n| {
                    n.with_node(|n| {
                        format!(
                            "{}: level {}, {} level-0 neighbours, parent {:?}",
                            n.id(),
                            n.max_level(),
                            n.tables().level0_degree(),
                            n.tables().parent().map(|p| p.id)
                        )
                    })
                })
                .collect();
            return Err(format!(
                "the UDP overlay did not form within 20 s:\n{}",
                state.join("\n")
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
        if !formed(&nodes, &plan.ids) {
            formed_at = None;
        } else if formed_at.get_or_insert_with(Instant::now).elapsed() >= spec.formation_hold {
            break;
        }
    }
    Ok((nodes, started.elapsed().as_secs_f64()))
}

/// Closed-loop driver state: what is in flight and what the oracle knows.
struct Client<'a> {
    node: &'a UdpNode,
    plan: &'a UdpPlan,
    spec: &'a UdpSpec,
    client_addr: NodeAddr,
    /// Version of the last acknowledged put per key (0 = never written).
    acked: Vec<u32>,
    /// Version of the last issued put per key.
    issued: Vec<u32>,
    /// In-flight ops: `(is lookup, key coordinate or target)` → slot.
    inflight: HashMap<(bool, NodeId), Slot>,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Position in the caller's per-op arrays.
    op: usize,
    started: Instant,
    /// For puts: the key index and the version written.
    put: Option<(usize, u32)>,
    /// For gets: the lowest version a correct answer may carry.
    floor: u32,
}

/// Outcome of one op.
#[derive(Debug, Clone, Copy, Default)]
struct Done {
    ok: bool,
    violation: bool,
    remote: bool,
    path_nodes: u32,
    latency_ns: f64,
}

impl<'a> Client<'a> {
    /// What an outcome of `op` will be recognised by.
    fn slot_key(&self, op: UdpOp) -> (bool, NodeId) {
        match op.kind {
            UdpOpKind::Lookup => (true, self.plan.absent[op.index as usize]),
            _ => (false, self.plan.keys[op.index as usize].1),
        }
    }

    fn issue(&mut self, op_index: usize, op: UdpOp, tracer: &mut Tracer) -> f64 {
        let started = Instant::now();
        let (key, put, floor) = match op.kind {
            UdpOpKind::Lookup => {
                let target = self.plan.absent[op.index as usize];
                let span = tracer.begin("treep-net/UdpNode::lookup");
                self.node.lookup(target, RoutingAlgorithm::NonGreedy);
                tracer.end(span);
                ((true, target), None, 0)
            }
            UdpOpKind::Get => {
                let (bytes, coord) = &self.plan.keys[op.index as usize];
                let span = tracer.begin("treep-net/UdpNode::dht_get");
                self.node.dht_get(bytes);
                tracer.end(span);
                ((false, *coord), None, self.acked[op.index as usize])
            }
            UdpOpKind::Put => {
                let k = op.index as usize;
                let (bytes, coord) = &self.plan.keys[k];
                self.issued[k] += 1;
                let len = if k < self.spec.small_keys {
                    SMALL_VALUE
                } else {
                    LARGE_VALUE
                };
                let value = value_of(op.index, self.issued[k], len);
                let span = tracer.begin("treep-net/UdpNode::dht_put");
                self.node.dht_put(bytes, value);
                tracer.end(span);
                ((false, *coord), Some((k, self.issued[k])), 0)
            }
        };
        let call_ns = started.elapsed().as_nanos() as f64;
        self.inflight.insert(
            key,
            Slot {
                op: op_index,
                started,
                put,
                floor,
            },
        );
        call_ns
    }

    /// Drain the client's outcome queues once; report finished ops.
    fn poll(&mut self, out: &mut Vec<(usize, Done)>) {
        // Not a span of its own: a run polls millions of times.
        let dht = self.node.drain_dht_outcomes();
        let lookups = self.node.drain_lookup_outcomes();
        let now = Instant::now();
        for o in lookups {
            let Some(slot) = self.inflight.remove(&(true, o.target)) else {
                continue;
            };
            out.push((
                slot.op,
                Done {
                    // No node owns the identifier: "not found", reported by
                    // the node nearest to it, is the correct answer.
                    ok: o.status == LookupStatus::NotFound,
                    violation: o.status == LookupStatus::Found,
                    remote: o.hops >= 1,
                    path_nodes: if o.hops >= 1 { 2 } else { 1 },
                    latency_ns: (now - slot.started).as_nanos() as f64,
                },
            ));
        }
        for o in dht {
            let (key, ok, violation, responder) = match o {
                DhtOutcome::PutAcked { key, stored_at, .. } => (key, true, false, Some(stored_at)),
                DhtOutcome::GetAnswered {
                    key,
                    value,
                    responder,
                    ..
                } => {
                    // The value must be exactly what a put of this key
                    // wrote, no older than the last acknowledged one and
                    // no newer than the last issued one.
                    let slot = self.inflight.get(&(false, key));
                    let k = self.plan.keys.iter().position(|(_, c)| *c == key);
                    let verdict = match (slot, k, value) {
                        (Some(slot), Some(k), Some(v)) => {
                            let version = v
                                .get(4..8)
                                .and_then(|b| b.try_into().ok())
                                .map(u32::from_le_bytes);
                            let genuine =
                                version.is_some_and(|ver| v == value_of(k as u32, ver, v.len()));
                            let in_range = version
                                .is_some_and(|ver| ver >= slot.floor && ver <= self.issued[k]);
                            (genuine && in_range, !genuine || !in_range)
                        }
                        // Every key is written during set-up, so a missing
                        // value is a wrong answer, not a violation.
                        (Some(_), Some(_), None) => (false, false),
                        _ => (false, true),
                    };
                    (key, verdict.0, verdict.1, Some(responder))
                }
                DhtOutcome::TimedOut { key, .. } => (key, false, false, None),
            };
            let Some(slot) = self.inflight.remove(&(false, key)) else {
                continue;
            };
            if let (true, Some((k, version))) = (ok, slot.put) {
                self.acked[k] = self.acked[k].max(version);
            }
            let remote = responder.is_some_and(|r| r.addr != self.client_addr);
            out.push((
                slot.op,
                Done {
                    ok,
                    violation,
                    remote,
                    path_nodes: if remote { 2 } else { 1 },
                    latency_ns: (now - slot.started).as_nanos() as f64,
                },
            ));
        }
        // Ops the node never reported within the timeout are failures.
        let expired: Vec<(bool, NodeId)> = self
            .inflight
            .iter()
            .filter(|(_, s)| now - s.started > OP_TIMEOUT)
            .map(|(k, _)| *k)
            .collect();
        for key in expired {
            let slot = self.inflight.remove(&key).expect("listed above");
            out.push((slot.op, Done::default()));
        }
    }
}

/// Run `ops[range]` with at most `window` ops in flight; returns when all
/// of them have finished.
fn run_batch(
    client: &mut Client<'_>,
    ops: &[UdpOp],
    first: usize,
    window: usize,
    call_ns: &mut [f64],
    done: &mut [Done],
    tracer: &mut Tracer,
) {
    let mut next = 0usize;
    let mut finished = 0usize;
    let mut out = Vec::with_capacity(window);
    let mut last_progress = Instant::now();
    while finished < ops.len() {
        // Outcomes are matched to ops by key, so an op whose key is still
        // in flight waits for that op to finish.
        while next < ops.len()
            && client.inflight.len() < window
            && !client.inflight.contains_key(&client.slot_key(ops[next]))
        {
            call_ns[first + next] = client.issue(first + next, ops[next], tracer);
            next += 1;
        }
        out.clear();
        client.poll(&mut out);
        if !out.is_empty() {
            last_progress = Instant::now();
        } else if last_progress.elapsed() < SPIN_BEFORE_SLEEP {
            // Every thread shares one CPU: hand it to whichever node thread
            // has a datagram to work on. The call returns at once when none
            // is runnable.
            std::thread::yield_now();
        } else {
            // Nothing for far longer than a round trip takes: an op waits
            // for a timer, not for the CPU.
            std::thread::sleep(SLEEP_WHEN_STARVED);
        }
        for &(op, d) in &out {
            done[op] = d;
            finished += 1;
        }
    }
}

/// Run one replay: form the cluster, write every key once, run the ops.
pub fn run_replay(
    spec: &UdpSpec,
    plan: &UdpPlan,
    timer: &mut SegmentTimer,
    tracer: &mut Tracer,
) -> Result<UdpReplay, String> {
    // One CPU for the client and every node thread (the last one: the first
    // takes the guest's interrupts). Spread over two virtual CPUs, each hop
    // of a round trip is a cross-CPU wake-up, and a replay took anything
    // from 5 s to 104 s depending on where the scheduler put the threads;
    // on one CPU the same replay takes 4 to 5 s, and the run measures the
    // CPU cost of an op through codec, transport and the loopback stack.
    let cpus = host::allowed_cpus();
    let pinned = cpus
        .last()
        .copied()
        .filter(|&last| host::pin_current_thread(&[last]));
    // What the hypervisor has stolen from that CPU so far (0 when the
    // threads are not on one CPU or /proc/stat does not say).
    let stolen_so_far = || pinned.and_then(host::stolen_ns).unwrap_or(0.0);
    let rss_before = host::rss_bytes();
    let span = tracer.begin("treep-net/UdpNode::bind+formation");
    let (nodes, formation_seconds) = form_cluster(spec, plan)?;
    tracer.end(span);

    let node = &nodes[plan.client];
    let mut client = Client {
        node,
        plan,
        spec,
        client_addr: node.peer_info().addr,
        acked: vec![0; plan.keys.len()],
        issued: vec![0; plan.keys.len()],
        inflight: HashMap::new(),
    };

    // Set-up: one put per key, window 1, in batches.
    let preload: Vec<UdpOp> = (0..plan.keys.len() as u32)
        .map(|index| UdpOp {
            kind: UdpOpKind::Put,
            index,
        })
        .collect();
    let mut setup = Vec::new();
    let mut scratch_calls = vec![0.0; preload.len()];
    let mut scratch_done = vec![Done::default(); preload.len()];
    for (b, chunk) in preload.chunks(spec.batch).enumerate() {
        let span = tracer.begin("bench/preload_batch");
        let first = b * spec.batch;
        let ((), seg) = timer.time_on(CpuClock::Process, || {
            run_batch(
                &mut client,
                chunk,
                first,
                1,
                &mut scratch_calls,
                &mut scratch_done,
                tracer,
            );
        });
        tracer.end(span);
        setup.push(seg);
    }
    if scratch_done.iter().any(|d| !d.ok) {
        return Err("a set-up put was not acknowledged".into());
    }
    // The preload is shorter than one tick of /proc/stat: plain wall time.
    host::charge_wall_less_stolen(&mut setup, 0.0);
    let rss_growth = host::rss_bytes().saturating_sub(rss_before);

    // The measured window.
    let (sent_before, wire_before) = sum_stats(&nodes);
    let cpu_before = host::cpu_seconds();
    let stolen_before = stolen_so_far();
    let wall = Instant::now();
    let mut call_ns = vec![0.0; plan.ops.len()];
    let mut done = vec![Done::default(); plan.ops.len()];
    let mut window = Vec::with_capacity(plan.ops.len() / spec.batch);
    for (b, chunk) in plan.ops.chunks(spec.batch).enumerate() {
        tracer.next_batch();
        let width = if b % 2 == 0 { 1 } else { WIDE_WINDOW };
        let span = tracer.begin(if width == 1 {
            "bench/batch_w1"
        } else {
            "bench/batch_w16"
        });
        let ((), seg) = timer.time_on(CpuClock::Process, || {
            run_batch(
                &mut client,
                chunk,
                b * spec.batch,
                width,
                &mut call_ns,
                &mut done,
                tracer,
            );
        });
        tracer.end(span);
        window.push(seg);
    }
    let wall_seconds = wall.elapsed().as_secs_f64();
    host::charge_wall_less_stolen(&mut window, stolen_so_far() - stolen_before);
    let cpu_seconds = host::cpu_seconds() - cpu_before;
    let (sent_after, wire_after) = sum_stats(&nodes);

    let mut facts = UdpFacts {
        attempted: plan.ops.len() as u64,
        formation_seconds,
        wall_seconds,
        cpu_seconds,
        call_ns,
        ..UdpFacts::default()
    };
    for d in &done {
        facts.succeeded += u64::from(d.ok);
        facts.violations += u64::from(d.violation);
        facts.remote += u64::from(d.remote);
        facts.latency_ns.push(if d.ok { d.latency_ns } else { 0.0 });
        if d.ok {
            let nodes = d.path_nodes as usize;
            if facts.path_nodes.len() <= nodes {
                facts.path_nodes.resize(nodes + 1, 0);
            }
            facts.path_nodes[nodes] += 1;
        }
    }
    for i in 0..MessageKind::COUNT {
        facts.sent.0[i] = sent_after[i] - sent_before[i];
    }
    facts.wire = TransportStats {
        datagrams_sent: wire_after.datagrams_sent - wire_before.datagrams_sent,
        messages_sent: wire_after.messages_sent - wire_before.messages_sent,
        batched_messages: wire_after.batched_messages - wire_before.batched_messages,
        batch_datagrams: wire_after.batch_datagrams - wire_before.batch_datagrams,
    };

    let span = tracer.begin("treep-net/UdpNode::shutdown");
    for node in nodes {
        node.shutdown();
    }
    tracer.end(span);
    host::pin_current_thread(&cpus);
    Ok(UdpReplay {
        setup,
        window,
        facts,
        rss_growth,
    })
}
