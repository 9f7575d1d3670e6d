//! A run of `udp_kv`: the untraced replays that give the end-to-end
//! metrics and, with `--trace 1`, the traced pass and the codec legs.

use crate::host::{self, grouped_percentile, percentile, reduce, Reduced, Segment, SegmentTimer};
use crate::legs;
use crate::run::{
    host_layer, host_note, ratio, write_trace, zeroed_layers, Metrics, RunOptions, RunResult,
};
use crate::trace::Tracer;
use crate::udp::{self, UdpFacts, UdpOpKind, UdpPlan, UdpSpec, WIDE_WINDOW};
use simnet::NodeAddr;
use treep::{CharacteristicsSummary, MessageKind, NodeCharacteristics, PeerInfo};

/// The untraced replays of one run, reduced.
struct Replays {
    spec: UdpSpec,
    plan: UdpPlan,
    windows: Vec<Vec<Segment>>,
    setup: Reduced,
    window: Reduced,
    /// One per replay.
    facts: Vec<UdpFacts>,
    rss_growth: u64,
    /// Per replay, per op: calibrated issue → outcome nanoseconds (0 for a
    /// failed op).
    latencies: Vec<Vec<f64>>,
}

impl Replays {
    /// True for ops of a window-1 batch.
    fn is_w1(&self, op: usize) -> bool {
        (op / self.spec.batch).is_multiple_of(2)
    }

    /// Percentile `q` of the window-1 latencies of the ops that succeeded:
    /// median over the replays of each replay's own percentile.
    fn w1_latency(&self, q: f64) -> f64 {
        let per_replay: Vec<f64> = self
            .latencies
            .iter()
            .map(|replay| {
                let ok: Vec<f64> = replay
                    .iter()
                    .enumerate()
                    .filter(|(op, ns)| self.is_w1(*op) && **ns > 0.0)
                    .map(|(_, ns)| *ns)
                    .collect();
                percentile(&ok, q)
            })
            .collect();
        host::median(&per_replay)
    }
}

/// Per-op wall nanoseconds rescaled to the nominal core speed by the two
/// probes around their batch, as the batch itself is. No stolen time is
/// taken off an op's latency: the hypervisor takes the CPU in chunks that
/// hit a few ops, and the median ignores those.
fn calibrated(spec: &UdpSpec, segments: &[Segment], values: &[f64]) -> Vec<f64> {
    values
        .iter()
        .enumerate()
        .map(|(op, v)| {
            let batch = &segments[op / spec.batch];
            v * ratio(batch.calibrated_ns(), batch.charged_ns)
        })
        .collect()
}

fn replay(options: &RunOptions, timer: &mut SegmentTimer) -> Result<Replays, String> {
    let spec = UdpSpec::new(options.seconds, options.smoke);
    let plan = udp::generate_plan(&spec, options.seed);
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    let mut facts = Vec::new();
    let mut rss_growth = 0;
    for r in 0..options.replays() {
        let replay = udp::run_replay(&spec, &plan, timer, &mut off)?;
        if r == 0 {
            rss_growth = replay.rss_growth;
        }
        setups.push(replay.setup);
        windows.push(replay.window);
        facts.push(replay.facts);
    }
    let latencies = facts
        .iter()
        .zip(&windows)
        .map(|(f, segs)| calibrated(&spec, segs, &f.latency_ns))
        .collect();
    Ok(Replays {
        setup: reduce(&setups),
        window: reduce(&windows),
        spec,
        plan,
        windows,
        facts,
        rss_growth,
        latencies,
    })
}

fn user_sent(f: &UdpFacts) -> f64 {
    MessageKind::ALL
        .iter()
        .filter(|k| !k.is_maintenance())
        .map(|k| f.sent.0[k.index()])
        .sum::<u64>() as f64
}

fn maint_sent(f: &UdpFacts) -> f64 {
    f.sent.0.iter().sum::<u64>() as f64 - user_sent(f)
}

/// Run `udp_kv` once.
pub fn run(options: &RunOptions) -> Result<RunResult, String> {
    let mut timer = SegmentTimer::with_loopback()
        .map_err(|e| format!("no loopback sockets for the reference kernel: {e}"))?;
    let runs = replay(options, &mut timer)?;
    let spec = &runs.spec;

    // Counts are taken from the worst replay so a flaky op cannot hide.
    let attempted = runs.plan.ops.len() as u64;
    let succeeded = runs.facts.iter().map(|f| f.succeeded).min().unwrap_or(0);
    let violations = runs.facts.iter().map(|f| f.violations).max().unwrap_or(0);
    let remote = runs.facts.iter().map(|f| f.remote).min().unwrap_or(0);
    let over_replays =
        |f: &dyn Fn(&UdpFacts) -> f64| host::median(&runs.facts.iter().map(f).collect::<Vec<_>>());
    let formation = over_replays(&|f| f.formation_seconds);
    let mut notes = vec![
        host_note(&timer, &runs.setup, &runs.window),
        format!(
            "{} nodes on host loopback (no real link), formed in {formation:.3} s; {attempted} ops in batches of {} alternating window 1 and {WIDE_WINDOW}, {} replays; {succeeded} correct, {violations} violations, {remote} answered by another node",
            spec.nodes,
            spec.batch,
            options.replays(),
        ),
    ];
    let mut correct = violations == 0;
    if remote * 100 < attempted * 99 {
        correct = false;
        notes.push("fewer than 99 % of ops had a path of two or more nodes".into());
    }
    let mut result = RunResult {
        workload: options.workload.clone(),
        seed: options.seed,
        trace: options.trace,
        replays: options.replays(),
        correct,
        attempted,
        failed: violations,
        metrics: Metrics::new(),
        notes,
    };
    if options.trace {
        result.metrics = per_layer(&runs, formation, options, &mut timer, &mut result)?;
        return Ok(result);
    }
    let first = &runs.facts[0];
    result.metrics = Metrics::from([
        ("setup_s", formation + runs.setup.median_seconds()),
        // The median replay, not the per-segment minimum over the replays
        // that the simulator workloads take: with four replays of batches
        // as short as a tick, the minimum picks whichever probe read
        // highest, and came out 4 to 14 % low depending on how noisy the
        // hour was.
        (
            "ops_per_s",
            ratio(succeeded as f64, runs.window.median_seconds()),
        ),
        (
            "op_success_ratio",
            ratio(succeeded as f64, attempted as f64),
        ),
        ("path_nodes_p50", grouped_percentile(&first.path_nodes, 0.5)),
        (
            "path_nodes_p99",
            grouped_percentile(&first.path_nodes, 0.99),
        ),
        ("lat_ms_p50", runs.w1_latency(0.5) / 1e6),
        (
            "msgs_per_op",
            over_replays(&|f| ratio(user_sent(f), attempted as f64)),
        ),
        (
            "maint_msgs_per_node_s",
            over_replays(&|f| ratio(maint_sent(f), spec.nodes as f64 * f.wall_seconds)),
        ),
        (
            "rss_bytes_per_node",
            runs.rss_growth as f64 / spec.nodes as f64,
        ),
        ("peak_rss_mb", host::peak_rss_bytes() as f64 / 1e6),
    ]);
    Ok(result)
}

/// The traced pass: the workload once more under the tracer, then the
/// codec legs; every per-layer metric.
fn per_layer(
    runs: &Replays,
    formation: f64,
    options: &RunOptions,
    timer: &mut SegmentTimer,
    result: &mut RunResult,
) -> Result<Metrics, String> {
    let (spec, plan) = (&runs.spec, &runs.plan);
    let first = &runs.facts[0];
    let attempted = plan.ops.len() as f64;
    let mut layers = zeroed_layers();
    let mut tracer = Tracer::new(true);
    let traced = udp::run_replay(spec, plan, timer, &mut tracer)?;
    let traced_window = reduce(std::slice::from_ref(&traced.window));
    let succeeded = runs.facts.iter().map(|f| f.succeeded).min().unwrap_or(0);
    host_layer(
        &mut layers,
        timer,
        &runs.setup,
        &runs.window,
        succeeded as f64,
    );

    // transport: what the client saw and what hit the sockets.
    let lat_us = |values: &[f64], q: f64| percentile(values, q) / 1e3;
    let of_kind = |kind: UdpOpKind, large: Option<bool>| -> Vec<f64> {
        runs.latencies[0]
            .iter()
            .enumerate()
            .filter(|(op, v)| {
                let planned = plan.ops[*op];
                runs.is_w1(*op)
                    && **v > 0.0
                    && planned.kind == kind
                    && large.is_none_or(|l| (planned.index as usize >= spec.small_keys) == l)
            })
            .map(|(_, v)| *v)
            .collect()
    };
    let width_seconds = |wide: bool| -> f64 {
        let picked: Vec<Vec<Segment>> = runs
            .windows
            .iter()
            .map(|w| {
                w.iter()
                    .enumerate()
                    .filter(|(batch, _)| (batch % 2 == 1) == wide)
                    .map(|(_, s)| *s)
                    .collect()
            })
            .collect();
        reduce(&picked).median_seconds()
    };
    let sent = |k: MessageKind| first.sent.0[k.index()] as f64;
    layers.extend([
        ("transport.formation_s", formation),
        (
            "transport.call_us_p50",
            lat_us(&calibrated(spec, &runs.windows[0], &first.call_ns), 0.5),
        ),
        ("transport.lat_us_p50", runs.w1_latency(0.5) / 1e3),
        ("transport.lat_us_p99", runs.w1_latency(0.99) / 1e3),
        (
            "transport.get_lat_us_p50",
            lat_us(&of_kind(UdpOpKind::Get, None), 0.5),
        ),
        (
            "transport.put8k_lat_us_p50",
            lat_us(&of_kind(UdpOpKind::Put, Some(true)), 0.5),
        ),
        (
            "transport.lookup_lat_us_p50",
            lat_us(&of_kind(UdpOpKind::Lookup, None), 0.5),
        ),
        (
            "transport.ops_per_s.w1",
            ratio(attempted / 2.0, width_seconds(false)),
        ),
        (
            "transport.ops_per_s.w16",
            ratio(attempted / 2.0, width_seconds(true)),
        ),
        (
            "transport.datagrams_per_op",
            ratio(first.wire.datagrams_sent as f64, attempted),
        ),
        (
            "transport.msgs_per_datagram",
            first.wire.messages_per_datagram(),
        ),
        (
            "transport.cpu_us_per_op",
            ratio(first.cpu_seconds * 1e6, attempted),
        ),
        // treep: the counters that exist on this host too.
        (
            "treep.maint_share",
            ratio(maint_sent(first), first.sent.0.iter().sum::<u64>() as f64),
        ),
        ("treep.vlat_ms_p99", runs.w1_latency(0.99) / 1e6),
        ("treep.sent.keepalive", sent(MessageKind::KeepAlive)),
        ("treep.sent.keepalive_ack", sent(MessageKind::KeepAliveAck)),
        ("treep.sent.child_report", sent(MessageKind::ChildReport)),
        ("treep.sent.lookup", sent(MessageKind::Lookup)),
    ]);

    // codec: legs on representative messages, and the bytes the window's
    // sends would take on the wire.
    let peers: Vec<PeerInfo> = plan
        .ids
        .iter()
        .enumerate()
        .map(|(i, id)| PeerInfo {
            id: *id,
            addr: NodeAddr((0x7F00_0001 << 16) + 40_000 + i as u64),
            max_level: (i % 3) as u32,
            summary: CharacteristicsSummary::of(
                &NodeCharacteristics::default(),
                spec.config.child_policy,
            ),
        })
        .collect();
    // The codec makes no system call: its legs are calibrated by chase and
    // churn alone, like every other leg.
    layers.extend(legs::codec_legs(
        &legs::codec_samples(&peers, spec.config.space),
        &mut SegmentTimer::new(),
        &mut tracer,
    ));
    let large_get = spec.large_keys as f64 / (spec.small_keys + spec.large_keys) as f64;
    layers.insert(
        "codec.est_wire_bytes_per_op",
        ratio(
            legs::estimated_wire_bytes(&first.sent, &peers, spec.config.space, large_get),
            attempted,
        ),
    );

    layers.insert(
        "trace.overhead_ratio",
        ratio(traced_window.seconds, runs.window.per_replay_seconds[0]),
    );
    layers.insert("trace.spans", tracer.spans().len() as f64);
    // No event digest exists on real sockets; the traced pass must have
    // issued the same ops and got the same verdicts.
    let same =
        traced.facts.attempted == result.attempted && traced.facts.violations == result.failed;
    layers.insert("trace.digest_equal", f64::from(u8::from(same)));
    write_trace(options, &tracer, result)?;
    Ok(layers)
}
