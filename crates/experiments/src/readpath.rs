//! Figure S — the read-path serving layer under a Zipf-skewed read storm.
//!
//! A routed `DhtGet` funnels every request for a key to the one responsible
//! node, so a skewed read workload concentrates load brutally: the hotter
//! the key, the busier its home. The read-path layer counters this two
//! ways — replicas answer gets mid-route, and every hop on the route keeps
//! a small versioned hot-key cache filled on the reply path. This driver
//! measures what that buys at equal workload:
//!
//! * **p50 / p99 hops per answered get** — the cache answers hot keys close
//!   to the requester, so the tail hop count must drop;
//! * **per-node max load** — messages received by the busiest node during
//!   the measurement window, the load-concentration metric;
//! * **read-path counters** — cache hits/fills/evictions, replica-served
//!   gets and read-repairs, to attribute *why* the curves move.
//!
//! Both modes run the identical seeded workload (same topology, same Zipf
//! draw sequence): `cached = false` runs replica-first reads alone
//! (`cache_capacity = 0`), `cached = true` adds the hot-key cache.
//! [`ReadStormReport::gate`] holds the smoke profile to it: cached p99 hops
//! must not exceed uncached at equal completion.

use crate::runner::{delta, Scenario};
use analysis::{ratio, Cell, Column, SummaryStats, Table};
use simnet::SimDuration;
use treep::{MessageKind, NodeStats, ReadOutcome, TreePConfig, TreePNode};
use workloads::{KvWorkload, TopologyBuilder, ZipfSampler};

/// Zipf skew exponent of the read popularity (the classic YCSB-style skew).
const ALPHA: f64 = 0.99;
/// Cache-warming rounds per load level, excluded from the statistics.
const WARMUP_ROUNDS: usize = 2;
/// Hot-key cache capacity of the cached mode (per node).
const CACHE_CAPACITY: usize = 32;
/// Cache line time-to-live. Must comfortably exceed the per-round drain or
/// the warmed lines expire before the measured rounds read them (the
/// protocol default of 500 ms is tuned for steady request streams, not the
/// bursty round structure used here).
const CACHE_TTL: SimDuration = SimDuration::from_secs(30);
/// Virtual time after seeding the corpus before reads start.
const SETTLE: SimDuration = SimDuration::from_secs(3);
/// Virtual time each round's gets are given to resolve. Must exceed the
/// configured lookup timeout.
const DRAIN: SimDuration = SimDuration::from_millis(2_500);

/// Parameters of one read-storm comparison.
#[derive(Debug, Clone)]
pub struct ReadStormParams {
    /// Population size.
    pub nodes: usize,
    /// Seed for topology, corpus placement and the Zipf draws.
    pub seed: u64,
    /// Size of the key corpus (and of the Zipf rank space).
    pub keys: usize,
    /// Offered-load levels: versioned gets issued per measured round.
    pub load_levels: Vec<usize>,
    /// Measured rounds per load level.
    pub rounds: usize,
}

impl ReadStormParams {
    /// The headline comparison: a hot corpus read at three offered-load
    /// levels.
    pub fn new(nodes: usize, seed: u64) -> Self {
        ReadStormParams {
            nodes,
            seed,
            keys: 200,
            load_levels: vec![100, 200, 400],
            rounds: 3,
        }
    }

    /// Bounded smoke profile for CI and unit tests: one load level, a
    /// small population, still enough skewed volume to warm the caches.
    pub fn smoke(seed: u64) -> Self {
        ReadStormParams {
            nodes: 100,
            keys: 64,
            load_levels: vec![150],
            rounds: 2,
            ..Self::new(100, seed)
        }
    }

    /// The protocol configuration one mode's simulation runs with: both
    /// modes read replica-first with read-repair; only the cache differs.
    fn config(&self, cached: bool) -> TreePConfig {
        let mut config = TreePConfig::paper_case_fixed();
        config.lookup_timeout = SimDuration::from_secs(2);
        config.replication_factor = 3;
        let mut config = config.with_read_path(if cached { CACHE_CAPACITY } else { 0 });
        config.cache_ttl = CACHE_TTL;
        config
    }
}

/// One `(mode, offered load)` measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadStormRow {
    /// True when the hot-key cache was enabled.
    pub cached: bool,
    /// Gets issued per measured round.
    pub offered: usize,
    /// Gets issued over all measured rounds.
    pub issued: usize,
    /// Gets answered with a value (the coverage numerator).
    pub completed: usize,
    /// Median hops per answered get.
    pub p50_hops: f64,
    /// 99th-percentile hops per answered get.
    pub p99_hops: f64,
    /// Mean hops per answered get.
    pub mean_hops: f64,
    /// Read-path messages (versioned gets/puts, replies, verifies,
    /// repairs) received by the busiest node during the measurement window
    /// — the load-concentration metric. Background maintenance traffic is
    /// excluded so the hot-key funnel is visible at smoke-test volumes.
    pub max_node_load: u64,
    /// Mean read-path messages received per live node during the window.
    pub mean_node_load: f64,
    /// Cache hits during the window.
    pub cache_hits: u64,
    /// Cache fills during the window.
    pub cache_fills: u64,
    /// Cache evictions during the window.
    pub cache_evictions: u64,
    /// Replica-served gets during the window.
    pub replica_served: u64,
    /// Read-repairs issued during the window.
    pub read_repairs: u64,
}

impl ReadStormRow {
    /// Fraction of issued gets answered with a value, in percent.
    pub fn completion_pct(&self) -> f64 {
        ratio(self.completed as f64 * 100.0, self.issued as f64, 100.0)
    }
}

/// The full cached-vs-uncached comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadStormReport {
    /// Population size.
    pub nodes: usize,
    /// Corpus size.
    pub keys: usize,
    /// One row per (mode, load level); uncached rows first.
    pub rows: Vec<ReadStormRow>,
}

impl ReadStormReport {
    /// The row of one mode at one offered-load level.
    pub fn row_at(&self, cached: bool, offered: usize) -> Option<&ReadStormRow> {
        self.rows
            .iter()
            .find(|r| r.cached == cached && r.offered == offered)
    }

    /// The `reproduce --readpath --smoke` gate, at the first offered load:
    /// at equal completion the cache spreads the hot keys' load.
    pub fn gate(&self) -> Result<String, String> {
        let offered = self.rows.first().map_or(0, |r| r.offered);
        let row = |cached| {
            self.row_at(cached, offered)
                .ok_or(format!("no row cached: {cached}"))
        };
        let (off, on) = (row(false)?, row(true)?);
        ensure!(off.completion_pct() >= 99.0, off);
        ensure!(on.completion_pct() >= 99.0, on);
        ensure!(on.cache_hits > 0, on);
        ensure!(off.cache_hits == 0, off);
        ensure!(on.p99_hops <= off.p99_hops, on, off);
        ensure!(on.max_node_load < off.max_node_load, on, off);
        Ok(format!(
            "at {offered} gets/round: uncached p99 {:.1} hops / max load {}, \
             cached p99 {:.1} hops / max load {} ({} cache hits)",
            off.p99_hops, off.max_node_load, on.p99_hops, on.max_node_load, on.cache_hits
        ))
    }

    /// The comparison as a table; its JSON is `BENCH_readpath.json`.
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("cached", "cache", |r: &ReadStormRow| {
                Cell::Flag(r.cached, ["off", "on"])
            }),
            Column::new("offered", "offered", |r| r.offered.into()),
            Column::new("issued", "", |r| r.issued.into()),
            Column::new("completion_pct", "compl %", |r| {
                Cell::float(r.completion_pct(), 2, 1)
            }),
            Column::new("p50_hops", "p50 hops", |r| Cell::float(r.p50_hops, 2, 1)),
            Column::new("p99_hops", "p99 hops", |r| Cell::float(r.p99_hops, 2, 1)),
            Column::new("mean_hops", "", |r| Cell::float(r.mean_hops, 3, 3)),
            Column::new("max_node_load", "max load", |r| r.max_node_load.into()),
            Column::new("mean_node_load", "mean load", |r| {
                Cell::float(r.mean_node_load, 2, 1)
            }),
            Column::new("cache_hits", "hits", |r| r.cache_hits.into()),
            Column::new("cache_fills", "", |r| r.cache_fills.into()),
            Column::new("cache_evictions", "", |r| r.cache_evictions.into()),
            Column::new("replica_served", "repl-served", |r| r.replica_served.into()),
            Column::new("read_repairs", "repairs", |r| r.read_repairs.into()),
        ];
        let title = format!(
            "Figure S — Zipf({:.2}) read storm (n = {}, {} keys): hot-key cache off vs on",
            ALPHA, self.nodes, self.keys
        );
        Table::of(title, &columns, &self.rows)
            .meta("bench", Cell::text("readpath"))
            .meta("nodes", self.nodes)
            .meta("keys", self.keys)
            .meta("alpha", Cell::float(ALPHA, 3, 3))
    }
}

/// Run the read-storm comparison: one simulation per mode over the same
/// seed, topology and workload sequence.
pub fn run_read_storm(params: &ReadStormParams) -> ReadStormReport {
    let mut rows = Vec::new();
    for cached in [false, true] {
        rows.extend(run_one_mode(params, cached));
    }
    ReadStormReport {
        nodes: params.nodes,
        keys: params.keys,
        rows,
    }
}

fn run_one_mode(params: &ReadStormParams, cached: bool) -> Vec<ReadStormRow> {
    let config = params.config(cached);
    let builder = TopologyBuilder::new(params.nodes).with_config(config);
    let mut sc = Scenario::build(&builder, params.seed);
    let kv = KvWorkload::new(params.keys);
    let sampler = ZipfSampler::new(params.keys, ALPHA);
    let mut rng = sc.sim.rng_mut().fork();

    // Seed the corpus with versioned puts and let the placement finish.
    for op in kv.batch(&sc.alive(), &mut rng) {
        let key = kv.key_bytes(op.index);
        let value = kv.value_bytes(op.index);
        sc.sim.invoke(op.source, move |node, ctx| {
            node.dht_put_versioned(&key, value, ctx);
        });
    }
    sc.sim.run_for(SETTLE);
    sc.drain(TreePNode::drain_read_outcomes);

    // One round: Zipf-distributed versioned gets from random live nodes,
    // given `DRAIN` to resolve. Returns the gets issued and their outcomes.
    let mut round = |sc: &mut Scenario, offered: usize| {
        let batch = kv.zipf_batch(&sc.alive(), &sampler, offered, &mut rng);
        let issued = batch.len();
        for op in batch {
            let key = kv.key_bytes(op.index);
            sc.sim.invoke(op.source, move |node, ctx| {
                node.dht_get_versioned(&key, ctx);
            });
        }
        sc.sim.run_for(DRAIN);
        let drained = sc.drain(TreePNode::drain_read_outcomes).into_iter();
        let outcomes: Vec<ReadOutcome> = drained.flat_map(|(_, _, outcomes)| outcomes).collect();
        (issued, outcomes)
    };
    let counters = |s: &NodeStats| {
        [
            s.cache_hits,
            s.cache_fills,
            s.cache_evictions,
            s.replica_served_gets,
            s.read_repairs_issued,
        ]
    };

    let mut rows = Vec::new();
    for &offered in &params.load_levels {
        // Warm-up: identical skewed traffic, outcomes discarded. The
        // uncached mode runs it too, so both modes measure the same
        // workload position in the RNG stream.
        for _ in 0..WARMUP_ROUNDS {
            round(&mut sc, offered);
        }

        // Measure: per-node received-message and counter deltas bracket
        // the window so warm-up and corpus seeding are excluded.
        let load_before = node_loads(&sc);
        let counters_before = sc.sum(counters);
        let mut issued = 0usize;
        let mut hops: Vec<f64> = Vec::new();
        for _ in 0..params.rounds {
            let (asked, outcomes) = round(&mut sc, offered);
            issued += asked;
            for outcome in outcomes {
                if let ReadOutcome::Got {
                    value: Some(_),
                    hops: h,
                    ..
                } = outcome
                {
                    hops.push(h as f64);
                }
            }
        }
        let load_after = node_loads(&sc);
        let loads: Vec<u64> = load_after
            .iter()
            .zip(&load_before)
            .map(|(after, before)| after.saturating_sub(*before))
            .collect();
        let [cache_hits, cache_fills, cache_evictions, replica_served, read_repairs] =
            delta(sc.sum(counters), counters_before);

        rows.push(ReadStormRow {
            cached,
            offered,
            issued,
            completed: hops.len(),
            p50_hops: SummaryStats::percentile(&hops, 50.0),
            p99_hops: SummaryStats::percentile(&hops, 99.0),
            mean_hops: SummaryStats::of(&hops).mean,
            max_node_load: loads.iter().copied().max().unwrap_or(0),
            mean_node_load: ratio(loads.iter().sum::<u64>() as f64, loads.len() as f64, 0.0),
            cache_hits,
            cache_fills,
            cache_evictions,
            replica_served,
            read_repairs,
        });
    }
    rows
}

/// Read-path messages every live node has received, in build order. Only
/// the six serving-layer kinds count: the experiment compares how the
/// *read* load concentrates, not the (identical) background maintenance.
fn node_loads(sc: &Scenario) -> Vec<u64> {
    const READ_PATH: [MessageKind; 6] = [
        MessageKind::GetVersioned,
        MessageKind::GetVersionedReply,
        MessageKind::PutVersioned,
        MessageKind::PutVersionedAck,
        MessageKind::ReadRepair,
        MessageKind::ReadVerify,
    ];
    let received = |s: &NodeStats| READ_PATH.iter().map(|&kind| s.received.get(kind)).sum();
    let live = sc.alive().into_iter();
    live.filter_map(|(addr, _)| sc.sim.node(addr).map(|n| received(n.stats())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_is_bounded() {
        let smoke = ReadStormParams::smoke(1);
        let full = ReadStormParams::new(800, 1);
        assert!(smoke.nodes < full.nodes);
        assert!(smoke.keys < full.keys);
        assert!(smoke.load_levels.len() < full.load_levels.len());
        assert!(DRAIN.as_micros() > smoke.config(true).lookup_timeout.as_micros());
        assert!(smoke.config(true).cache_capacity > 0);
        assert_eq!(smoke.config(false).cache_capacity, 0);
        assert!(smoke.config(false).replica_reads);
    }

    #[test]
    fn caching_cuts_tail_hops_and_load_concentration() {
        let report = run_read_storm(&ReadStormParams::smoke(2005));
        report.gate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// Two rows at 20 gets/round; the cached one answers only 38 of 40.
    fn example_report() -> ReadStormReport {
        ReadStormReport {
            nodes: 10,
            keys: 5,
            rows: vec![
                ReadStormRow {
                    cached: false,
                    offered: 20,
                    issued: 40,
                    completed: 40,
                    p50_hops: 3.0,
                    p99_hops: 6.0,
                    mean_hops: 3.2,
                    max_node_load: 100,
                    mean_node_load: 30.0,
                    cache_hits: 0,
                    cache_fills: 0,
                    cache_evictions: 0,
                    replica_served: 7,
                    read_repairs: 1,
                },
                ReadStormRow {
                    cached: true,
                    offered: 20,
                    issued: 40,
                    completed: 38,
                    p50_hops: 1.0,
                    p99_hops: 4.0,
                    mean_hops: 1.5,
                    max_node_load: 60,
                    mean_node_load: 28.0,
                    cache_hits: 25,
                    cache_fills: 12,
                    cache_evictions: 3,
                    replica_served: 4,
                    read_repairs: 0,
                },
            ],
        }
    }

    #[test]
    fn report_accessors_table_and_json() {
        let report = example_report();
        assert_eq!(report.row_at(true, 20).unwrap().cache_hits, 25);
        assert!(report.row_at(true, 99).is_none());
        let table = report.to_table();
        assert_eq!(table.len(), 2);
        assert_eq!(table.to_csv().lines().count(), 3);
        assert!(table
            .to_csv()
            .contains("\n1,20,40,95.00,1.00,4.00,1.500,60,"));
        assert!((report.rows[1].completion_pct() - 95.0).abs() < 1e-9);
        let json = table.to_json();
        assert!(json.contains("\"bench\": \"readpath\""));
        assert!(json.contains("\"cached\": true"));
        assert!(json.contains("\"p99_hops\": 4.00"));
        analysis::validate_json(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
    }

    #[test]
    fn read_path_gate_needs_its_acceptance_row() {
        let mut report = example_report();
        report.rows.pop();
        let err = report.gate().unwrap_err();
        assert_eq!(err, "no row cached: true");
    }

    #[test]
    fn read_path_gate_names_the_check_that_failed() {
        let err = example_report().gate().unwrap_err();
        assert!(
            err.starts_with("on.completion_pct() >= 99.0; on = ReadStormRow {"),
            "{err}"
        );
    }
}
