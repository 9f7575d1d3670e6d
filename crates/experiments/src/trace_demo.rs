//! Causal-trace capture on a live TreeP topology (`reproduce --trace-out`).
//!
//! Builds a steady-state overlay with every subsystem enabled (read path,
//! pub/sub, hop-by-hop reliability), turns the telemetry sink on, originates
//! a seeded mix of user operations — versioned puts and gets on a skewed key
//! set, scoped multicasts, topic publishes, point lookups — and exports the
//! resulting span trees as a Chrome-trace / Perfetto JSON document. The
//! per-operation summary (trace counts, hop counts, lost hops, cache-hit
//! notes) doubles as the data for the console report.

use crate::runner::Scenario;
use analysis::{Cell, Column, Table};
use simnet::chrome_trace;
use simnet::{NodeAddr, SimDuration, TelemetryConfig};
use std::collections::BTreeMap;
use treep::{topic_key, KeyRange, RoutingAlgorithm, TreePConfig};
use workloads::TopologyBuilder;

/// Virtual time to let the operations drain.
const DRAIN: SimDuration = SimDuration::from_secs(5);

/// Knobs of one trace-capture run.
#[derive(Debug, Clone)]
pub struct TraceDemoParams {
    /// Initial population.
    pub nodes: usize,
    /// Deterministic seed.
    pub seed: u64,
    /// Operations per class (puts, gets, multicasts, publishes, lookups).
    pub ops_per_class: usize,
}

impl TraceDemoParams {
    /// Default capture: 200 nodes, 8 ops per class.
    pub fn new(seed: u64) -> Self {
        TraceDemoParams {
            nodes: 200,
            seed,
            ops_per_class: 8,
        }
    }

    /// Bounded smoke profile (`--trace-out` under `--smoke`): 96 nodes, 4
    /// ops per class.
    pub fn smoke(seed: u64) -> Self {
        TraceDemoParams {
            nodes: 96,
            ops_per_class: 4,
            ..Self::new(seed)
        }
    }
}

/// Per-operation-class span accounting.
#[derive(Debug, Clone)]
pub struct OpTraceSummary {
    /// Operation name (the root span label).
    pub op: &'static str,
    /// Traces of this class.
    pub traces: usize,
    /// Hop spans across those traces.
    pub hops: usize,
    /// Hops the link model dropped.
    pub lost_hops: usize,
    /// Mean hop latency in virtual microseconds (delivered hops only).
    pub mean_hop_us: f64,
    /// Instant annotations (cache hits, retransmits, …) in those traces.
    pub notes: usize,
}

/// Everything one capture run produced.
#[derive(Debug)]
pub struct TraceDemoReport {
    /// Population the capture ran against.
    pub nodes: usize,
    /// Total spans exported (roots + hops).
    pub spans: usize,
    /// Total traces (originated operations).
    pub traces: usize,
    /// Total instant annotations.
    pub notes: usize,
    /// Spans dropped by the bounded log (0 unless the cap was hit).
    pub dropped_spans: u64,
    /// Wall-clock dispatch-time samples the engine profiler collected.
    pub dispatch_samples: u64,
    /// Per-class accounting, one row per operation name.
    pub per_op: Vec<OpTraceSummary>,
    /// The Chrome-trace / Perfetto JSON document.
    pub trace_json: String,
}

impl TraceDemoReport {
    /// Console rendering of the per-class accounting.
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("", "op", |r: &OpTraceSummary| Cell::text(r.op)),
            Column::new("", "traces", |r| r.traces.into()),
            Column::new("", "hops", |r| r.hops.into()),
            Column::new("", "lost", |r| r.lost_hops.into()),
            Column::new("", "mean hop (ms)", |r| {
                Cell::float(r.mean_hop_us / 1_000.0, 2, 2)
            }),
            Column::new("", "notes", |r| r.notes.into()),
        ];
        let title = format!(
            "Causal traces — {} nodes, {} traces, {} spans ({} notes)",
            self.nodes, self.traces, self.spans, self.notes
        );
        Table::of(title, &columns, &self.per_op)
    }
}

/// Run the capture: build, instrument, originate, drain, export.
pub fn run_trace_demo(params: &TraceDemoParams) -> TraceDemoReport {
    let config = TreePConfig::paper_case_fixed()
        .with_read_path(32)
        .with_pubsub()
        .with_reliability(3);
    let builder = TopologyBuilder::new(params.nodes).with_config(config);
    let mut sc = Scenario::build(&builder, params.seed);
    sc.sim.enable_telemetry(TelemetryConfig::default());
    let space = sc.topo.config.space;
    let alive = sc.alive();
    let sim = &mut sc.sim;
    let mut rng = sim.rng_mut().fork();
    let pick = |rng: &mut simnet::SimRng, alive: &[(NodeAddr, treep::NodeId)]| {
        alive[rng.gen_range_usize(0..alive.len())].0
    };

    // A small subscriber population so publishes have somewhere to land.
    let topic = topic_key(space, "trace-demo");
    for i in 0..8.min(alive.len()) {
        let addr = alive[i * alive.len() / 8.min(alive.len())].0;
        sim.invoke(addr, move |node, ctx| {
            node.start_subscribe(topic, ctx);
        });
    }
    sim.run_for(SimDuration::from_secs(2));

    // The op mix. Gets run against the put keys (skewed to the first key so
    // the hot-key cache sees repeats and emits `cache_hit` notes).
    for i in 0..params.ops_per_class {
        let key = format!("trace-key-{}", if i % 2 == 0 { 0 } else { i });
        let value = format!("v{i}").into_bytes();
        let source = pick(&mut rng, &alive);
        let put_key = key.clone().into_bytes();
        sim.invoke(source, move |node, ctx| {
            node.dht_put_versioned(&put_key, value, ctx);
        });
        sim.run_for(SimDuration::from_millis(300));
        for _ in 0..3 {
            let reader = pick(&mut rng, &alive);
            let get_key = key.clone().into_bytes();
            sim.invoke(reader, move |node, ctx| {
                node.dht_get_versioned(&get_key, ctx);
            });
            sim.run_for(SimDuration::from_millis(120));
        }
    }
    for _ in 0..params.ops_per_class {
        let source = pick(&mut rng, &alive);
        let lo = rng.gen_range_u64(0..space.size() / 2);
        let hi = lo + space.size() / 4;
        let range = KeyRange::new(treep::NodeId(lo), treep::NodeId(hi));
        sim.invoke(source, move |node, ctx| {
            node.start_multicast(range, b"payload".to_vec(), ctx);
        });
        let publisher = pick(&mut rng, &alive);
        sim.invoke(publisher, move |node, ctx| {
            node.start_publish(topic, b"event".to_vec(), ctx);
        });
        let origin = pick(&mut rng, &alive);
        let target = alive[rng.gen_range_usize(0..alive.len())].1;
        sim.invoke(origin, move |node, ctx| {
            node.start_lookup(target, RoutingAlgorithm::Greedy, ctx);
        });
        sim.run_for(SimDuration::from_millis(200));
    }
    sim.run_for(DRAIN);

    let telemetry = sim.telemetry().expect("telemetry enabled above");
    let log = &telemetry.spans;
    let trace_json = chrome_trace(log);

    // Per-class accounting: group spans under their root's label.
    let mut op_of_trace: BTreeMap<u64, &'static str> = BTreeMap::new();
    for span in log.spans() {
        if span.parent == 0 {
            op_of_trace.insert(span.trace_id, span.name);
        }
    }
    let mut per_op: BTreeMap<&'static str, OpTraceSummary> = BTreeMap::new();
    for span in log.spans() {
        let Some(&op) = op_of_trace.get(&span.trace_id) else {
            continue;
        };
        let entry = per_op.entry(op).or_insert(OpTraceSummary {
            op,
            traces: 0,
            hops: 0,
            lost_hops: 0,
            mean_hop_us: 0.0,
            notes: 0,
        });
        if span.parent == 0 {
            entry.traces += 1;
        } else {
            entry.hops += 1;
            if span.lost {
                entry.lost_hops += 1;
            } else if let Some(end) = span.end {
                // Accumulate; divide by delivered hops below.
                entry.mean_hop_us += (end.as_micros() - span.start.as_micros()) as f64;
            }
        }
    }
    for note in log.notes() {
        if let Some(&op) = op_of_trace.get(&note.trace_id) {
            if let Some(entry) = per_op.get_mut(op) {
                entry.notes += 1;
            }
        }
    }
    for entry in per_op.values_mut() {
        let delivered = entry.hops - entry.lost_hops;
        if delivered > 0 {
            entry.mean_hop_us /= delivered as f64;
        }
    }

    TraceDemoReport {
        nodes: params.nodes,
        spans: log.spans().len(),
        traces: op_of_trace.len(),
        notes: log.notes().len(),
        dropped_spans: log.dropped(),
        dispatch_samples: telemetry.dispatch_samples(),
        per_op: per_op.into_values().collect(),
        trace_json,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_produces_valid_perfetto_json_and_spans() {
        let mut params = TraceDemoParams::new(42);
        params.nodes = 64;
        params.ops_per_class = 3;
        let report = run_trace_demo(&params);
        assert!(report.traces > 0, "no traces captured");
        assert!(report.spans > report.traces, "no hop spans captured");
        analysis::validate_json(&report.trace_json)
            .unwrap_or_else(|e| panic!("trace export is not valid JSON: {e}"));
        let ops: Vec<&str> = report.per_op.iter().map(|o| o.op).collect();
        assert!(ops.contains(&"put_versioned"), "{ops:?}");
        assert!(ops.contains(&"multicast"), "{ops:?}");
    }
}
