//! A run of one simulator workload: the untraced replays that give the
//! end-to-end metrics and, with `--trace 1`, the traced pass and the legs
//! that give the per-layer metrics.

use crate::host::{self, grouped_percentile, percentile, reduce, Reduced, Segment, SegmentTimer};
use crate::legs::{self, HandlerTimes};
use crate::run::{
    host_layer, host_note, ratio, write_trace, zeroed_layers, Metrics, RunOptions, RunResult,
};
use crate::sim::{self, Replay, SimFacts, SimSpec, SimWorkload};
use crate::spec;
use crate::trace::Tracer;
use simnet::{Action, Context, NodeAddr, SimRng, Simulation};
use std::collections::HashMap;
use treep::{MessageKind, NodeId, RoutingAlgorithm, TreePMessage, TreePNode};
use workloads::BuiltTopology;

/// The untraced replays of one run, reduced.
struct Replays {
    spec: SimSpec,
    setups: Vec<Vec<Segment>>,
    /// Set-up time: Σ per-segment minimum over the replays.
    setup: Reduced,
    /// Window time, reduced the same way.
    window: Reduced,
    /// The simulated-time results (equal in every replay).
    facts: SimFacts,
    /// `VmRSS` growth over the first replay's set-up.
    rss_growth: u64,
}

/// Run the untraced replays; fail if two of them differ in anything that
/// is not host time.
fn replay(
    workload: SimWorkload,
    options: &RunOptions,
    timer: &mut SegmentTimer,
) -> Result<Replays, String> {
    let spec = SimSpec::new(workload, options.seconds, options.smoke);
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    let mut facts: Option<SimFacts> = None;
    let mut rss_growth = 0;
    for r in 0..options.replays() {
        let replay = sim::run_replay(&spec, options.seed, timer, &mut off);
        if r == 0 {
            rss_growth = replay.rss_growth;
        }
        setups.push(replay.setup);
        windows.push(replay.window);
        match &facts {
            None => facts = Some(replay.facts),
            Some(first) if *first != replay.facts => {
                return Err(format!(
                    "replay {r} of {} differs from replay 0 in a simulated-time result \
                     (digest {:#x} vs {:#x})",
                    options.workload, replay.facts.digest, first.digest
                ));
            }
            Some(_) => {}
        }
    }
    Ok(Replays {
        setup: reduce(&setups),
        window: reduce(&windows),
        spec,
        setups,
        facts: facts.expect("at least one replay ran"),
        rss_growth,
    })
}

fn latency_ms(facts: &SimFacts) -> Vec<f64> {
    facts.latency_us.iter().map(|&us| us as f64 / 1e3).collect()
}

fn end_to_end(runs: &Replays) -> Metrics {
    let facts = &runs.facts;
    let user = facts.stats.sent_total() - facts.stats.sent_maintenance();
    Metrics::from([
        ("setup_s", runs.setup.seconds),
        (
            "ops_per_s",
            ratio(facts.succeeded as f64, runs.window.seconds),
        ),
        (
            "op_success_ratio",
            ratio(facts.succeeded as f64, facts.attempted as f64),
        ),
        ("path_nodes_p50", grouped_percentile(&facts.path_nodes, 0.5)),
        (
            "path_nodes_p99",
            grouped_percentile(&facts.path_nodes, 0.99),
        ),
        ("lat_ms_p50", percentile(&latency_ms(facts), 0.5)),
        ("msgs_per_op", ratio(user as f64, facts.attempted as f64)),
        (
            "maint_msgs_per_node_s",
            ratio(facts.stats.sent_maintenance() as f64, facts.node_seconds),
        ),
        (
            "rss_bytes_per_node",
            runs.rss_growth as f64 / runs.spec.n as f64,
        ),
        ("peak_rss_mb", host::peak_rss_bytes() as f64 / 1e6),
    ])
}

/// Run `workload` once: the replays, then either the end-to-end metrics or
/// the traced pass.
pub fn run(workload: SimWorkload, options: &RunOptions) -> Result<RunResult, String> {
    let mut timer = SegmentTimer::new();
    let runs = replay(workload, options, &mut timer)?;
    let facts = &runs.facts;
    let n_latency = facts.latency_us.len();
    let mut notes = vec![
        host_note(&timer, &runs.setup, &runs.window),
        format!(
            "n = {}, window = {} virtual s in {} segments, {} replays; {} ops attempted, {} correct, {} violations, {} lookups found a node that had crashed (stale)",
            runs.spec.n,
            runs.spec.window_seconds(),
            runs.spec.window_slices(),
            options.replays(),
            facts.attempted,
            facts.succeeded,
            facts.violations,
            facts.stale_lookups
        ),
        format!(
            "path/latency percentiles over {n_latency} successful point ops; highest percentile with >= 10 samples beyond it: p{:.3}",
            100.0 * (1.0 - 10.0 / n_latency.max(10) as f64)
        ),
    ];
    notes.extend(
        facts
            .violation_notes
            .iter()
            .map(|v| format!("violation: {v}")),
    );
    let mut result = RunResult {
        workload: options.workload.clone(),
        seed: options.seed,
        trace: options.trace,
        replays: options.replays(),
        correct: facts.violations == 0,
        attempted: facts.attempted,
        failed: facts.violations,
        metrics: Metrics::new(),
        notes,
    };
    if options.trace {
        result.metrics = per_layer(workload, &runs, options, &mut timer, &mut result)?;
    } else {
        result.metrics = end_to_end(&runs);
    }
    Ok(result)
}

// ---- the traced pass -------------------------------------------------------------

/// Run the workload once more under the tracer, with the simulator's own
/// telemetry and the allocator counters on, then the legs; return every
/// per-layer metric.
fn per_layer(
    workload: SimWorkload,
    runs: &Replays,
    options: &RunOptions,
    timer: &mut SegmentTimer,
    result: &mut RunResult,
) -> Result<Metrics, String> {
    let (spec, facts, window) = (&runs.spec, &runs.facts, &runs.window);
    let mut layers = zeroed_layers();
    let mut tracer = Tracer::new(true);
    host::set_counting(true);
    let traced = sim::run_replay(spec, options.seed, timer, &mut tracer);
    host::set_counting(false);
    let traced_window = reduce(std::slice::from_ref(&traced.window));
    let digest_equal = traced.facts == *facts;
    if !digest_equal {
        result.correct = false;
        result
            .notes
            .push("tracing changed a simulated-time result".into());
    }
    let events = facts.engine.events_dispatched as f64;
    let ns_per_event = ratio(window.seconds * 1e9, events);

    host_layer(
        &mut layers,
        timer,
        &runs.setup,
        window,
        facts.succeeded as f64,
    );
    layers.insert(
        "host.allocs_per_event",
        ratio(traced.window_alloc.allocs as f64, events),
    );
    layers.insert(
        "host.alloc_bytes_per_event",
        ratio(traced.window_alloc.alloc_bytes as f64, events),
    );
    layers.insert(
        "host.heap_bytes_per_node",
        traced.setup_alloc.live_growth() / spec.n as f64,
    );
    counter_layers(&mut layers, runs, &traced);
    result.notes.push(format!(
        "messages sent in the window, by kind: {}",
        MessageKind::ALL
            .iter()
            .filter(|k| facts.stats.sent_of(**k) > 0)
            .map(|k| format!("{k} {}", facts.stats.sent_of(*k)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    if workload == SimWorkload::StackChurn {
        stack_layers(&mut layers, facts, &traced, result);
    }

    // simnet: engine-only legs at the same population and queue depth, and
    // the same workload at a cache-resident population.
    let null_slices = if options.smoke { 10 } else { 40 };
    let null_ns = legs::null_ns_per_event(spec.n, null_slices, options.seed, timer, &mut tracer);
    layers.insert("simnet.null_ns_per_event", null_ns);
    layers.insert("simnet.engine_share", ratio(null_ns, ns_per_event));
    layers.insert("treep.node.ns_per_event", ns_per_event - null_ns);
    layers.extend(legs::simnet_micro_legs(
        facts.pending_peak as usize,
        timer,
        &mut tracer,
    ));
    let small = SimSpec {
        n: spec.n.min(1_000),
        ..SimSpec::new(workload, options.seconds.min(3), options.smoke)
    };
    let small_replay = sim::run_replay(&small, options.seed, timer, &mut Tracer::new(false));
    let small_ns_per_event = ratio(
        reduce(std::slice::from_ref(&small_replay.window)).seconds * 1e9,
        small_replay.facts.engine.events_dispatched as f64,
    );
    drop(small_replay);
    layers.insert("simnet.events_per_s.n1k", ratio(1e9, small_ns_per_event));
    layers.insert(
        "simnet.cache_penalty",
        ratio(ns_per_event, small_ns_per_event),
    );

    // treep.tables, treep.routing (and, on stack_churn, read path and DHT):
    // legs on state cloned from the traced run.
    let Replay { mut sim, topo, .. } = traced;
    let now = sim.now();
    let targets: Vec<NodeId> = topo.nodes.iter().map(|n| n.id).collect();
    layers.extend(legs::table_and_routing_legs(
        &mut legs::sample_views(&sim, 256),
        &spec.config,
        &targets,
        now,
        timer,
        &mut tracer,
    ));
    if workload == SimWorkload::StackChurn {
        layers.extend(legs::readpath_and_dht_legs(
            &sim::key_coordinates(spec),
            spec.value_len,
            now,
            timer,
            &mut tracer,
        ));
    }

    // Attribution: engine time per event + handler time per received
    // message and per maintenance tick + op issue, against the measured
    // window. Twelve rounds of hand deliveries, each started from a
    // twentieth of the population: the keep-alives of a round then reach
    // about half the nodes once, and their acknowledgements go back to 500
    // nodes whose tables (11 KB each) do not fit the 2 MB second-level cache
    // together, so both find their node cold, as every message of the run
    // does. (From an eightieth, the nine acknowledgements a node gets back
    // found its tables still cached and came out a quarter too cheap.)
    let seeds = lookup_seeds(&mut sim, &topo, 2 * spec.n);
    let handlers = legs::handler_times(
        &mut sim,
        &spec.config,
        spec.n / 20,
        seeds,
        timer,
        &mut tracer,
    );
    // The window's median replay: the handler timings are medians too, and
    // the per-segment minimum over replays reads a twentieth lower.
    let invoke_s = tracer
        .self_seconds_by_name()
        .get("simnet/invoke")
        .copied()
        .unwrap_or(0.0)
        * ratio(window.median_seconds(), traced_window.seconds);
    let unexplained = attribute(
        facts,
        window.median_seconds(),
        null_ns,
        &handlers,
        invoke_s,
        result,
    );
    // Held to the limit on the two workloads the attribution is built for;
    // `stack_churn`'s replication timers do work no received message
    // accounts for, and the shrunk smoke populations are all set-up.
    if workload != SimWorkload::StackChurn && !options.smoke && unexplained > spec::MAX_UNEXPLAINED
    {
        result.correct = false;
        result.notes.push(format!(
            "the layers do not add up to the run: unexplained share {unexplained:.3} exceeds {}",
            spec::MAX_UNEXPLAINED
        ));
    }
    layers.insert("trace.unexplained_share", unexplained);
    layers.insert(
        "trace.overhead_ratio",
        ratio(traced_window.seconds, window.per_replay_seconds[0]),
    );
    layers.insert("trace.spans", tracer.spans().len() as f64);
    layers.insert("trace.digest_equal", f64::from(u8::from(digest_equal)));
    write_trace(options, &tracer, result)?;
    Ok(layers)
}

/// `workloads.*`, `simnet.*` and `treep.*` metrics that are counters read
/// around the run or set-up segments.
fn counter_layers(layers: &mut Metrics, runs: &Replays, traced: &Replay) {
    let (spec, facts, window) = (&runs.spec, &runs.facts, &runs.window);
    let setup_part = |range: std::ops::Range<usize>| {
        let part: Vec<Vec<Segment>> = runs
            .setups
            .iter()
            .map(|s| s[range.clone()].to_vec())
            .collect();
        reduce(&part).seconds
    };
    let build_s = setup_part(0..1);
    let events = facts.engine.events_dispatched as f64;
    let st = &facts.stats;
    let sent = |kinds: &[MessageKind]| kinds.iter().map(|k| st.sent_of(*k)).sum::<u64>() as f64;
    let lookups_answered = st.received.0[MessageKind::LookupFound.index()]
        + st.received.0[MessageKind::LookupNotFound.index()];
    layers.extend([
        ("workloads.build_s", build_s),
        ("workloads.build_us_per_node", build_s * 1e6 / spec.n as f64),
        ("workloads.opgen_s", setup_part(1..2)),
        ("simnet.settle_s", setup_part(2..runs.setups[0].len())),
        ("simnet.run_s", window.seconds),
        ("simnet.events", events),
        ("simnet.events_per_s", ratio(events, window.seconds)),
        (
            "simnet.events_per_op",
            ratio(events, facts.attempted as f64),
        ),
        (
            "simnet.events_per_node_vs",
            ratio(events, facts.node_seconds),
        ),
        ("simnet.msgs_to_dead", facts.engine.messages_to_dead as f64),
        ("simnet.pending_events_peak", facts.pending_peak as f64),
        (
            "simnet.sim_speed",
            ratio(spec.window_seconds(), window.seconds),
        ),
        (
            "treep.maint_share",
            ratio(st.sent_maintenance() as f64, st.sent_total() as f64),
        ),
        (
            "treep.load.max_over_mean",
            ratio(facts.load[0], facts.load[1]),
        ),
        ("treep.vlat_ms_p99", percentile(&latency_ms(facts), 0.99)),
        ("treep.sent.keepalive", sent(&[MessageKind::KeepAlive])),
        (
            "treep.sent.keepalive_ack",
            sent(&[MessageKind::KeepAliveAck]),
        ),
        ("treep.sent.child_report", sent(&[MessageKind::ChildReport])),
        ("treep.sent.lookup", sent(&[MessageKind::Lookup])),
        (
            "treep.sent.get_versioned",
            sent(&[MessageKind::GetVersioned]),
        ),
        (
            "treep.sent.replica",
            sent(&[
                MessageKind::ReplicaPut,
                MessageKind::ReplicaSyncRequest,
                MessageKind::ReplicaSyncReply,
            ]),
        ),
        (
            "treep.sent.multicast_down",
            sent(&[MessageKind::MulticastDown]),
        ),
        (
            "treep.sent.acks",
            sent(&[MessageKind::MulticastAck, MessageKind::AggregateAck]),
        ),
        (
            "treep.membership.entries_expired",
            st.entries_expired as f64,
        ),
        ("treep.membership.entries_pruned", st.entries_pruned as f64),
        ("treep.membership.elections", st.elections as f64),
        ("treep.membership.promotions", st.promotions as f64),
        ("treep.membership.demotions", st.demotions as f64),
        ("treep.tables.entries_mean", facts.table_entries[0]),
        ("treep.tables.entries_max", facts.table_entries[1]),
        ("treep.tables.bound_ratio", facts.table_bound_ratio),
        (
            "treep.routing.forwards_per_lookup",
            ratio(st.lookups_forwarded as f64, lookups_answered as f64),
        ),
        ("treep.routing.dead_ends", st.lookups_dead_ended as f64),
    ]);
    if let Some(t) = traced.sim.telemetry() {
        let (deliver, timer) = (t.dispatch_histogram(0), t.dispatch_histogram(1));
        layers.extend([
            ("simnet.dispatch_ns.deliver.mean", deliver.mean()),
            (
                "simnet.dispatch_ns.deliver.p99",
                deliver.quantile(0.99) as f64,
            ),
            ("simnet.dispatch_ns.timer.mean", timer.mean()),
            ("simnet.dispatch_ns.timer.p99", timer.quantile(0.99) as f64),
        ]);
    }
}

/// The metrics only `stack_churn` moves: read path, replication,
/// multicast, pub/sub and the success breakdown.
fn stack_layers(layers: &mut Metrics, facts: &SimFacts, traced: &Replay, result: &mut RunResult) {
    let st = &facts.stats;
    let [mc_targets, mc_delivered, _] = facts.multicast_deliveries;
    let [tp_targets, tp_delivered, _] = facts.topic_deliveries;
    // Replication's digest probes ride `MulticastDown` too, so the counters
    // cannot tell a user multicast's messages from a probe's. The
    // simulator's own telemetry can: every hop span names the operation
    // that caused it.
    let (mc_msgs, tp_msgs) = traced.sim.telemetry().map_or((0.0, 0.0), |t| {
        let spans = t.spans.spans();
        let roots: HashMap<u64, &str> = spans
            .iter()
            .filter(|s| s.parent == 0)
            .map(|s| (s.trace_id, s.name))
            .collect();
        let hops = |root: &str| {
            spans
                .iter()
                .filter(|s| s.parent != 0 && s.name == MessageKind::MulticastDown.name())
                .filter(|s| roots.get(&s.trace_id) == Some(&root))
                .count() as f64
        };
        if t.spans.dropped() > 0 {
            result.notes.push(format!(
                "the simulator's span log dropped {} spans; multicast message counts are low",
                t.spans.dropped()
            ));
        }
        (hops("multicast"), hops("publish"))
    });
    let share = |pair: [u64; 2]| ratio(pair[1] as f64, pair[0] as f64);
    layers.extend([
        (
            "treep.readpath.cache_hit_ratio",
            ratio(
                st.cache_hits as f64,
                st.received.0[MessageKind::GetVersionedReply.index()] as f64,
            ),
        ),
        ("treep.readpath.cache_fills", st.cache_fills as f64),
        ("treep.readpath.cache_evictions", st.cache_evictions as f64),
        ("treep.readpath.replica_served", st.replica_served as f64),
        ("treep.readpath.read_repairs", st.read_repairs as f64),
        (
            "treep.replication.sync_rounds",
            st.replica_sync_rounds as f64,
        ),
        (
            "treep.replication.digest_mismatches",
            st.replica_digest_mismatches as f64,
        ),
        (
            "treep.replication.values_received",
            st.replica_values_received as f64,
        ),
        ("treep.replication.handoffs", st.replica_handoffs as f64),
        (
            "treep.multicast.coverage",
            ratio(mc_delivered as f64, mc_targets as f64),
        ),
        (
            "treep.multicast.msgs_per_delivery",
            ratio(mc_msgs, mc_delivered as f64),
        ),
        // The optimum spends one message per delivery but the origin's own.
        (
            "treep.multicast.optimum_ratio",
            ratio(
                mc_msgs,
                (mc_delivered as f64 - facts.multicast[0] as f64).max(1.0),
            ),
        ),
        (
            "treep.multicast.retransmits",
            st.multicast_retransmits as f64,
        ),
        ("treep.multicast.reroutes", st.multicast_reroutes as f64),
        (
            "treep.multicast.dups_suppressed",
            st.multicast_dups_suppressed as f64,
        ),
        (
            "treep.pubsub.coverage",
            ratio(tp_delivered as f64, tp_targets as f64),
        ),
        (
            "treep.pubsub.msgs_per_delivery",
            ratio(tp_msgs, tp_delivered as f64),
        ),
        (
            "treep.pubsub.branches_pruned",
            st.pubsub_branches_pruned as f64,
        ),
        ("treep.success.point", share(facts.point)),
        ("treep.success.multicast", share(facts.multicast)),
        ("treep.success.topic", share(facts.topic)),
        ("treep.success.last_step", share(facts.last_step)),
    ]);
}

/// Lookup messages as their origins would send them: the first hop of up to
/// `count` lookups between live nodes, produced by the nodes themselves.
fn lookup_seeds(
    sim: &mut Simulation<TreePNode>,
    topo: &BuiltTopology,
    count: usize,
) -> Vec<(NodeAddr, NodeAddr, TreePMessage)> {
    let alive = topo.alive_pairs(sim);
    let now = sim.now();
    let mut rng = SimRng::seed_from(0x5EED);
    let mut out = Vec::with_capacity(count);
    if alive.len() < 2 {
        return out;
    }
    for i in 0..count {
        let (origin, _) = alive[rng.gen_range_usize(0..alive.len())];
        let (_, target) = alive[rng.gen_range_usize(0..alive.len())];
        let Some(node) = sim.node_mut(origin) else {
            continue;
        };
        let mut ctx = Context::new(now, origin, &mut rng);
        node.start_lookup(target, RoutingAlgorithm::ALL[i % 3], &mut ctx);
        for action in ctx.into_actions() {
            if let Action::Send { dest, msg } = action {
                out.push((origin, dest, msg));
            }
        }
    }
    out
}

/// Hold the window's host time (median replay) against what the parts
/// predict: engine time per event, handler time per received message and
/// per maintenance tick, and the op-issue time. Notes the table; returns
/// the unexplained share.
fn attribute(
    facts: &SimFacts,
    window_seconds: f64,
    null_ns: f64,
    handlers: &HandlerTimes,
    invoke_seconds: f64,
    result: &mut RunResult,
) -> f64 {
    let events = facts.engine.events_dispatched as f64;
    let engine_ns = events * null_ns;
    let mut handler_ns = facts.stats.keepalive_rounds as f64 * handlers.tick_ns;
    let mut table = vec![format!(
        "  maintenance tick: {} x {:.0} ns (timed on {} calls)",
        facts.stats.keepalive_rounds, handlers.tick_ns, handlers.ticks
    )];
    for (kind, (calls, ns)) in &handlers.per_kind {
        let received = facts.stats.received.0[kind.index()] as f64;
        handler_ns += received * ns;
        table.push(format!(
            "  {kind}: {received} received x {ns:.0} ns (timed on {calls} calls)"
        ));
    }
    let explained_ns = engine_ns + handler_ns + invoke_seconds * 1e9;
    let unexplained = ratio(
        (window_seconds * 1e9 - explained_ns).abs(),
        window_seconds * 1e9,
    );
    result.notes.push(format!(
        "attribution of {window_seconds:.3} s (the window's median replay): engine {:.3} s ({events} events x {null_ns:.0} ns), handlers {:.3} s, op issue {invoke_seconds:.3} s, together {:.3} s, unexplained {:.1} %",
        engine_ns * 1e-9,
        handler_ns * 1e-9,
        explained_ns * 1e-9,
        100.0 * unexplained
    ));
    result.notes.extend(table);
    unexplained
}
