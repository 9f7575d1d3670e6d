//! What the benchmark declares: its workloads, its end-to-end metrics with
//! their bounds, and its per-layer metrics. `--list` prints these lines and
//! `tests/spec.rs` holds them against `BENCHMARK.json`.

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 2005;

/// The `--seconds` a run uses when none is given (`run_seconds` of
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: u64 = 10;

/// Largest `trace.unexplained_share` a traced run of `maint` or `lookup`
/// may show before it fails. The issue asked for 0.10, and handlers timed
/// by hand cannot hold that on this host: over 28 traced runs of unchanged
/// code the share lay between 3 % and 30 % (README, "Attribution"). The
/// limit therefore stands where only parts that plainly do not add up
/// reach it, and the issue's 0.10 stands as not met.
pub const MAX_UNEXPLAINED: f64 = 0.5;

/// A workload and the reason it exists.
pub struct WorkloadDecl {
    /// Name, as passed to `--workload`.
    pub name: &'static str,
    /// One line: what it stresses and what it leaves alone.
    pub why: &'static str,
    /// Replays of a run (same seed, same events); a segment's time is the
    /// minimum over them. Two where a replay costs six to ten seconds,
    /// four where it costs three.
    pub replays: usize,
}

/// The four workloads.
pub const WORKLOADS: [WorkloadDecl; 4] = [
    WorkloadDecl {
        name: "maint",
        why: "1e4 idle nodes, thin lookup sampler: only keep-alives, reports, expiry run, so simnet dispatch and table writes do the work and routing and codec none; set-up everywhere is made of this",
        replays: 2,
    },
    WorkloadDecl {
        name: "lookup",
        why: "same 1e4 nodes under an open-loop G/NG/NGSA lookup storm: routing and table reads (closest_peer, outward scans) carry the ops, so a read gain bought with slower writes shows as a maint loss",
        replays: 2,
    },
    WorkloadDecl {
        name: "stack_churn",
        why: "800 nodes, every feature on, 5 % crash per step for 7 steps, Zipf gets, puts, lookups, multicasts, publishes: the composed system, and the guard against speed bought with lost operations",
        replays: 2,
    },
    WorkloadDecl {
        name: "udp_kv",
        why: "8 UdpNodes on host loopback (no real link) sharing one CPU, closed-loop client, windows 1 and 16, 32 B and 8 KiB values: only here codec and transport run; simulator-only changes leave it flat",
        replays: 4,
    },
];

/// Replays of `workload` (1 for a name that is not a workload; the run
/// then fails on the name).
pub fn replays_of(workload: &str) -> usize {
    WORKLOADS
        .iter()
        .find(|w| w.name == workload)
        .map_or(1, |w| w.replays)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`, as `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric.
pub struct EndToEndDecl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Which clock or counter the value comes from.
    pub time_base: &'static str,
    /// What it means.
    pub meaning: &'static str,
}

/// The ten end-to-end metrics; every workload reports all of them.
pub const END_TO_END: [EndToEndDecl; 10] = [
    EndToEndDecl {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        time_base: "calibrated host (udp_kv formation: wall)",
        meaning: "build the population and settle it (udp_kv: bind 8 nodes until one root and full level-0 rings, then write every key)",
    },
    EndToEndDecl {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        time_base: "calibrated host (simulator: CPU time of its thread; udp_kv: wall less stolen)",
        meaning: "user ops that returned the correct answer, per second of the measured window, at the stated n and op rate",
    },
    EndToEndDecl {
        name: "op_success_ratio",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.12,
        time_base: "simulated",
        meaning: "ops that returned the correct answer before their timeout / ops attempted",
    },
    EndToEndDecl {
        name: "path_nodes_p50",
        unit: "nodes",
        better: Better::Lower,
        bound: 0.06,
        time_base: "simulated",
        meaning: "nodes on the path of a successful point op (origin = 1), median interpolated inside unit bins",
    },
    EndToEndDecl {
        name: "path_nodes_p99",
        unit: "nodes",
        better: Better::Lower,
        bound: 0.25,
        time_base: "simulated",
        meaning: "same, 99th percentile",
    },
    EndToEndDecl {
        name: "lat_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        time_base: "simulated (udp_kv: calibrated host)",
        meaning: "scheduled issue to outcome recorded at the origin, successful point ops (udp_kv: window-1 batches, median replay)",
    },
    EndToEndDecl {
        name: "msgs_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.12,
        time_base: "simulated",
        meaning: "non-maintenance messages sent / ops attempted",
    },
    EndToEndDecl {
        name: "maint_msgs_per_node_s",
        unit: "1/s",
        better: Better::Lower,
        bound: 0.09,
        time_base: "simulated (udp_kv: wall)",
        meaning: "MessageKind::is_maintenance() messages per live node per second: the overlay-maintenance overhead",
    },
    EndToEndDecl {
        name: "rss_bytes_per_node",
        unit: "B",
        better: Better::Lower,
        bound: 0.25,
        time_base: "host",
        meaning: "(VmRSS after set-up - VmRSS before) / n, first replay",
    },
    EndToEndDecl {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
        time_base: "host",
        meaning: "VmHWM at exit; op counts are fixed, so it does not depend on host speed",
    },
];

/// A per-layer metric: `(name, unit, direction)`.
pub type LayerDecl = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// The per-layer metrics, grouped by the repository module they measure.
/// Each is measured from outside: public counters read around the run, or
/// legs that time calls into the layer's public functions.
pub const PER_LAYER: [LayerDecl; 127] = [
    // host: explains noise; only the allocator counts move by a code change.
    ("host.ref_us_p50", "us", L),
    ("host.ref_spread_ratio", "ratio", L),
    ("host.slowdown_p50", "ratio", L),
    ("host.off_cpu_share", "ratio", L),
    ("host.replay_gain_ratio", "ratio", H),
    ("host.raw_setup_s", "s", L),
    ("host.raw_ops_per_s", "1/s", H),
    ("host.allocs_per_event", "count", L),
    ("host.alloc_bytes_per_event", "B", L),
    ("host.heap_bytes_per_node", "B", L),
    // workloads -> setup_s (all).
    ("workloads.build_s", "s", L),
    ("workloads.build_us_per_node", "us", L),
    ("workloads.opgen_s", "s", L),
    // simnet -> ops_per_s and setup_s on maint and lookup, by engine_share.
    ("simnet.settle_s", "s", L),
    ("simnet.run_s", "s", L),
    ("simnet.events", "count", L),
    ("simnet.events_per_s", "1/s", H),
    ("simnet.events_per_op", "count", L),
    ("simnet.events_per_node_vs", "1/s", L),
    ("simnet.msgs_to_dead", "count", L),
    ("simnet.pending_events_peak", "count", L),
    ("simnet.sim_speed", "ratio", H),
    ("simnet.null_ns_per_event", "ns", L),
    ("simnet.engine_share", "ratio", L),
    ("simnet.scheduler.push_pop_ns", "ns", L),
    ("simnet.rng.draw_ns", "ns", L),
    ("simnet.link.transmit_ns", "ns", L),
    ("simnet.events_per_s.n1k", "1/s", H),
    ("simnet.cache_penalty", "ratio", L),
    ("simnet.dispatch_ns.deliver.mean", "ns", L),
    ("simnet.dispatch_ns.deliver.p99", "ns", L),
    ("simnet.dispatch_ns.timer.mean", "ns", L),
    ("simnet.dispatch_ns.timer.p99", "ns", L),
    // treep node -> maint_msgs_per_node_s everywhere, ops_per_s on maint.
    ("treep.node.ns_per_event", "ns", L),
    ("treep.maint_share", "ratio", L),
    ("treep.load.max_over_mean", "ratio", L),
    ("treep.vlat_ms_p99", "ms", L),
    ("treep.sent.keepalive", "count", L),
    ("treep.sent.keepalive_ack", "count", L),
    ("treep.sent.child_report", "count", L),
    ("treep.sent.lookup", "count", L),
    ("treep.sent.get_versioned", "count", L),
    ("treep.sent.replica", "count", L),
    ("treep.sent.multicast_down", "count", L),
    ("treep.sent.acks", "count", L),
    ("treep.membership.entries_expired", "count", L),
    ("treep.membership.entries_pruned", "count", L),
    ("treep.membership.elections", "count", L),
    ("treep.membership.promotions", "count", L),
    ("treep.membership.demotions", "count", L),
    // treep.tables: writes -> ops_per_s maint, setup_s all; reads ->
    // ops_per_s lookup and stack_churn; sizes -> rss_bytes_per_node.
    ("treep.tables.find_ns", "ns", L),
    ("treep.tables.touch_ns", "ns", L),
    ("treep.tables.upsert_ns", "ns", L),
    ("treep.tables.expire_ns", "ns", L),
    ("treep.tables.closest_peer_ns", "ns", L),
    ("treep.tables.outward8_ns", "ns", L),
    ("treep.tables.nearest3_ns", "ns", L),
    ("treep.tables.bus_neighbors_ns", "ns", L),
    ("treep.tables.fanout_ns", "ns", L),
    ("treep.tables.entries_mean", "count", L),
    ("treep.tables.entries_max", "count", L),
    ("treep.tables.bound_ratio", "ratio", L),
    // treep.routing -> ops_per_s lookup; path, msgs, latency, success on lookup.
    ("treep.routing.route_ns.g", "ns", L),
    ("treep.routing.route_ns.ng", "ns", L),
    ("treep.routing.route_ns.ngsa", "ns", L),
    ("treep.routing.forwards_per_lookup", "count", L),
    ("treep.routing.dead_ends", "count", L),
    // read path, dht, replication -> path, latency, msgs, success on
    // stack_churn only (all zero elsewhere).
    ("treep.readpath.cache_hit_ratio", "ratio", H),
    ("treep.readpath.cache_fills", "count", L),
    ("treep.readpath.cache_evictions", "count", L),
    ("treep.readpath.replica_served", "count", H),
    ("treep.readpath.read_repairs", "count", L),
    ("treep.readpath.hotcache_get_ns", "ns", L),
    ("treep.readpath.hotcache_fill_ns", "ns", L),
    ("treep.dht.store_put_ns", "ns", L),
    ("treep.dht.digest_range_ns", "ns", L),
    ("treep.replication.sync_rounds", "count", L),
    ("treep.replication.digest_mismatches", "count", L),
    ("treep.replication.values_received", "count", L),
    ("treep.replication.handoffs", "count", L),
    // multicast, pub/sub, success: decompose op_success_ratio and
    // msgs_per_op on stack_churn.
    ("treep.multicast.coverage", "ratio", H),
    ("treep.multicast.msgs_per_delivery", "count", L),
    ("treep.multicast.optimum_ratio", "ratio", L),
    ("treep.multicast.retransmits", "count", L),
    ("treep.multicast.reroutes", "count", L),
    ("treep.multicast.dups_suppressed", "count", L),
    ("treep.pubsub.coverage", "ratio", H),
    ("treep.pubsub.msgs_per_delivery", "count", L),
    ("treep.pubsub.branches_pruned", "count", H),
    ("treep.success.point", "ratio", H),
    ("treep.success.multicast", "ratio", H),
    ("treep.success.topic", "ratio", H),
    ("treep.success.last_step", "ratio", H),
    // codec -> ops_per_s, lat_ms_p50 on udp_kv only.
    ("codec.encode_ns.keepalive", "ns", L),
    ("codec.encode_ns.lookup", "ns", L),
    ("codec.encode_ns.dht_get", "ns", L),
    ("codec.encode_ns.dht_put_8k", "ns", L),
    ("codec.encode_ns.multicast_down", "ns", L),
    ("codec.decode_ns.keepalive", "ns", L),
    ("codec.decode_ns.lookup", "ns", L),
    ("codec.decode_ns.dht_get", "ns", L),
    ("codec.decode_ns.dht_put_8k", "ns", L),
    ("codec.decode_ns.multicast_down", "ns", L),
    ("codec.bytes.keepalive", "B", L),
    ("codec.bytes.lookup", "B", L),
    ("codec.bytes.dht_get", "B", L),
    ("codec.bytes.dht_put_8k", "B", L),
    ("codec.bytes.multicast_down", "B", L),
    ("codec.batch8.encode_ns", "ns", L),
    ("codec.batch8.decode_ns", "ns", L),
    ("codec.est_wire_bytes_per_op", "B", L),
    // transport -> ops_per_s, lat_ms_p50, setup_s on udp_kv only.
    ("transport.formation_s", "s", L),
    ("transport.call_us_p50", "us", L),
    ("transport.lat_us_p50", "us", L),
    ("transport.lat_us_p99", "us", L),
    ("transport.get_lat_us_p50", "us", L),
    ("transport.put8k_lat_us_p50", "us", L),
    ("transport.lookup_lat_us_p50", "us", L),
    ("transport.ops_per_s.w1", "1/s", H),
    ("transport.ops_per_s.w16", "1/s", H),
    ("transport.datagrams_per_op", "count", L),
    ("transport.msgs_per_datagram", "count", H),
    ("transport.cpu_us_per_op", "us", L),
    // trace: the traced pass against the untraced replays.
    ("trace.overhead_ratio", "ratio", L),
    ("trace.spans", "count", L),
    ("trace.digest_equal", "count", H),
    ("trace.unexplained_share", "ratio", L),
];

/// The lines `--list` prints: one per workload, metric and constant.
pub fn list_lines() -> Vec<String> {
    let mut out = Vec::new();
    for w in &WORKLOADS {
        out.push(format!("workload\t{}\t{}\t{}", w.name, w.why, w.replays));
    }
    for m in &END_TO_END {
        out.push(format!(
            "end_to_end\t{}\t{}\t{}\t{}\t{}\t{}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound,
            m.time_base,
            m.meaning
        ));
    }
    for (name, unit, better) in &PER_LAYER {
        out.push(format!("per_layer\t{name}\t{unit}\t{}", better.label()));
    }
    out.push(format!(
        "const\tref_nominal_ns\t{}",
        crate::host::REF_NOMINAL_NS
    ));
    out.push(format!(
        "const\tref_loopback_nominal_ns\t{}",
        crate::host::REF_LOOPBACK_NOMINAL_NS
    ));
    out.push(format!("const\tdefault_seed\t{DEFAULT_SEED}"));
    out.push(format!("const\trun_seconds\t{DEFAULT_SECONDS}"));
    out.push(format!(
        "const\thardware_threads\t{}",
        crate::host::hardware_threads()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn names_are_unique_and_well_formed() {
        let names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.0))
            .collect();
        let unique: BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for name in names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
    }
}
