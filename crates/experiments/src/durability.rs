//! Figure R — DHT durability under churn: replication keeps keys alive.
//!
//! The Section-III DHT stores one copy per key, so every failed node takes
//! its keys with it. This driver measures what `treep::replication` buys:
//! it seeds a deterministic key corpus, applies the Section-IV failure
//! schedule, lets the anti-entropy rounds repair between steps, and reports
//! per failed-fraction and replication factor:
//!
//! * **availability %** — corpus keys still retrievable end-to-end (a
//!   routed `DhtGet` returning the correct value);
//! * **fully-replicated %** — surviving keys whose `min(k, alive)` closest
//!   live nodes all hold identical copies (the
//!   [`treep::audit_replication`] reference check);
//! * **repair windows** — extra anti-entropy intervals the network needed
//!   after each failure batch before the audit converged (the
//!   repair-convergence-time curve);
//! * **anti-entropy msgs / node / round** — what the repair costs: the
//!   `replica_digest`, `replica_sync_request` and `replica_sync_reply`
//!   messages the live nodes sent during the step, per node and
//!   anti-entropy round (`k - 1` digests when every replica pair agrees).

use analysis::{AsciiTable, Csv};
use simnet::{NodeAddr, SimDuration, Simulation};
use std::collections::BTreeMap;
use treep::lookup::RequestId;
use treep::{audit_replication, DhtOutcome, MessageKind, ReplicationAudit, TreePConfig, TreePNode};
use workloads::{BuiltTopology, ChurnPlan, KvWorkload, TopologyBuilder};

/// Parameters of one durability run.
#[derive(Debug, Clone)]
pub struct DurabilityParams {
    /// Initial population size.
    pub nodes: usize,
    /// Seed for topology, workload and failures.
    pub seed: u64,
    /// Size of the key corpus.
    pub keys: usize,
    /// Replication factors to compare (each runs its own simulation).
    pub factors: Vec<u32>,
    /// The failure schedule shared by every factor.
    pub churn: ChurnPlan,
    /// Virtual time after each failure batch before repair is measured, so
    /// keep-alives and entry expiry can react.
    pub settle_per_step: SimDuration,
    /// Virtual time the per-step `DhtGet` batch is given to resolve. Must
    /// exceed the configured lookup timeout.
    pub drain: SimDuration,
    /// Upper bound on the extra anti-entropy windows granted per step
    /// before repair is declared non-converged.
    pub max_repair_windows: usize,
}

impl DurabilityParams {
    /// The headline comparison: k = 1 vs k = 3, the paper's 5 % failure
    /// granularity down to 50 % survivors, 300 keys. The step size matters:
    /// a key dies only when *all* `k` replicas fail inside one
    /// settle-and-repair window, so durability is a race between the churn
    /// rate and the repair rate — exactly what the experiment measures.
    pub fn new(nodes: usize, seed: u64) -> Self {
        DurabilityParams {
            nodes,
            seed,
            keys: 300,
            factors: vec![1, 3],
            churn: ChurnPlan {
                fraction_per_step: 0.05,
                stop_at_surviving_fraction: 0.50,
            },
            settle_per_step: SimDuration::from_secs(3),
            drain: SimDuration::from_millis(2_500),
            max_repair_windows: 10,
        }
    }

    /// Bounded smoke profile for CI and unit tests: a small population and
    /// corpus, stopping at 30 % failed — the acceptance point.
    pub fn smoke(seed: u64) -> Self {
        DurabilityParams {
            nodes: 120,
            keys: 100,
            churn: ChurnPlan {
                fraction_per_step: 0.05,
                stop_at_surviving_fraction: 0.70,
            },
            max_repair_windows: 8,
            ..Self::new(120, seed)
        }
    }

    /// The protocol configuration one factor's simulation runs with.
    fn config(&self, k: u32) -> TreePConfig {
        let mut config = TreePConfig::paper_case_fixed();
        config.lookup_timeout = SimDuration::from_secs(2);
        config.replication_factor = k;
        config
    }
}

/// One `(replication factor, churn step)` measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DurabilityRow {
    /// Replication factor of the run.
    pub k: u32,
    /// Fraction of the initial population failed at this step.
    pub failed_fraction: f64,
    /// Nodes alive when the step was measured.
    pub alive_nodes: usize,
    /// Corpus size (the availability denominator).
    pub keys: usize,
    /// Corpus keys with at least one live copy.
    pub surviving: usize,
    /// Corpus keys retrievable end-to-end with the correct value.
    pub retrievable: usize,
    /// Percentage of surviving keys fully replicated (audit).
    pub fully_replicated_pct: f64,
    /// Surviving keys with two or more distinct stored values.
    pub divergent: usize,
    /// Extra anti-entropy windows needed before the audit converged.
    pub repair_windows: usize,
    /// True when the audit converged within the window budget.
    pub converged: bool,
    /// Anti-entropy messages (`replica_digest` + `replica_sync_request` +
    /// `replica_sync_reply`) the live nodes sent during this step, per node
    /// and anti-entropy round; 0 when no round ran (k = 1).
    pub anti_entropy_msgs_per_node_round: f64,
}

impl DurabilityRow {
    /// Fraction of the corpus retrievable, in percent.
    pub fn availability_pct(&self) -> f64 {
        if self.keys == 0 {
            100.0
        } else {
            self.retrievable as f64 * 100.0 / self.keys as f64
        }
    }
}

/// The full durability comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityReport {
    /// Initial population size.
    pub nodes: usize,
    /// Corpus size.
    pub keys: usize,
    /// One row per (factor, step), factors in run order.
    pub rows: Vec<DurabilityRow>,
}

impl DurabilityReport {
    /// All rows of one replication factor, in step order.
    pub fn rows_for(&self, k: u32) -> Vec<&DurabilityRow> {
        self.rows.iter().filter(|r| r.k == k).collect()
    }

    /// The row of factor `k` whose failed fraction is closest to `fraction`.
    pub fn row_at(&self, k: u32, fraction: f64) -> Option<&DurabilityRow> {
        self.rows_for(k).into_iter().min_by(|a, b| {
            (a.failed_fraction - fraction)
                .abs()
                .partial_cmp(&(b.failed_fraction - fraction).abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }

    /// Export the rows as CSV (one row per factor and step).
    pub fn to_csv(&self) -> Csv {
        let mut csv = Csv::new([
            "k",
            "failed_fraction",
            "alive_nodes",
            "surviving_keys",
            "availability_pct",
            "fully_replicated_pct",
            "divergent",
            "repair_windows",
            "converged",
            "anti_entropy_msgs_per_node_round",
        ]);
        for row in &self.rows {
            csv.push_row([
                row.k.to_string(),
                format!("{:.3}", row.failed_fraction),
                row.alive_nodes.to_string(),
                row.surviving.to_string(),
                format!("{:.2}", row.availability_pct()),
                format!("{:.2}", row.fully_replicated_pct),
                row.divergent.to_string(),
                row.repair_windows.to_string(),
                u8::from(row.converged).to_string(),
                format!("{:.3}", row.anti_entropy_msgs_per_node_round),
            ]);
        }
        csv
    }

    /// Render the comparison as an aligned table.
    pub fn to_table(&self) -> AsciiTable {
        let mut table = AsciiTable::new(format!(
            "Figure R — DHT durability under churn (n = {}, {} keys)",
            self.nodes, self.keys
        ))
        .header([
            "k",
            "failed %",
            "alive",
            "surviving",
            "avail %",
            "fully repl %",
            "divergent",
            "repair wins",
            "converged",
            "a-e msgs/node/round",
        ]);
        for row in &self.rows {
            table.push_row([
                row.k.to_string(),
                format!("{:.0}", row.failed_fraction * 100.0),
                row.alive_nodes.to_string(),
                row.surviving.to_string(),
                format!("{:.1}", row.availability_pct()),
                format!("{:.1}", row.fully_replicated_pct),
                row.divergent.to_string(),
                row.repair_windows.to_string(),
                if row.converged { "yes" } else { "NO" }.to_string(),
                format!("{:.2}", row.anti_entropy_msgs_per_node_round),
            ]);
        }
        table
    }
}

/// Run the durability comparison: one simulation per replication factor
/// over the same seed and failure schedule.
pub fn run_durability(params: &DurabilityParams) -> DurabilityReport {
    let mut rows = Vec::new();
    for &k in &params.factors {
        rows.extend(run_one_factor(params, k));
    }
    DurabilityReport {
        nodes: params.nodes,
        keys: params.keys,
        rows,
    }
}

fn run_one_factor(params: &DurabilityParams, k: u32) -> Vec<DurabilityRow> {
    let config = params.config(k);
    let builder = TopologyBuilder::new(params.nodes).with_config(config);
    let (mut sim, topo) = builder.build_simulation(params.seed);
    let kv = KvWorkload::new(params.keys);
    let mut rng = sim.rng_mut().fork();

    // Seed the corpus and let the puts (and the initial replica placement)
    // complete.
    let alive = topo.alive_pairs(&sim);
    for op in kv.batch(&alive, &mut rng) {
        let key = kv.key_bytes(op.index);
        let value = kv.value_bytes(op.index);
        sim.invoke(op.source, move |node, ctx| {
            node.dht_put(&key, value, ctx);
        });
    }
    sim.run_for(params.settle_per_step);

    let mut rows = Vec::new();
    for churn_step in params.churn.steps(params.nodes) {
        // 1. Fail this step's victims (step 0 measures the intact network).
        if churn_step.index > 0 {
            let alive = sim.alive_nodes();
            let victims = params.churn.pick_victims(&alive, params.nodes, &mut rng);
            for v in victims {
                sim.fail_node(v);
            }
        }

        let (msgs_before, rounds_before) = anti_entropy_totals(&sim, &topo);

        // 2. Settle, then grant extra anti-entropy windows until the
        //    replica placement converges (k = 1 has no repair to wait for).
        sim.run_for(params.settle_per_step);
        let mut repair_windows = 0usize;
        let mut audit = audit_now(&sim, &topo, k);
        while k > 1 && !audit.is_converged() && repair_windows < params.max_repair_windows {
            sim.run_for(config.replica_sync_interval);
            repair_windows += 1;
            audit = audit_now(&sim, &topo, k);
        }

        // 3. End-to-end availability: one routed get per corpus key from a
        //    random survivor, answers checked against the expected values.
        let alive_pairs = topo.alive_pairs(&sim);
        let mut pending: BTreeMap<NodeAddr, Vec<(usize, RequestId)>> = BTreeMap::new();
        for op in kv.batch(&alive_pairs, &mut rng) {
            let key = kv.key_bytes(op.index);
            let request_id = sim.invoke(op.source, move |node, ctx| node.dht_get(&key, ctx));
            if let Some(request_id) = request_id {
                pending
                    .entry(op.source)
                    .or_default()
                    .push((op.index, request_id));
            }
        }
        sim.run_for(params.drain);
        let mut retrievable = 0usize;
        for (source, asked) in pending {
            let Some(node) = sim.node_mut(source) else {
                continue;
            };
            let outcomes = node.drain_dht_outcomes();
            for (index, request_id) in asked {
                let expected = kv.value_bytes(index);
                let answered = outcomes.iter().any(|o| match o {
                    DhtOutcome::GetAnswered {
                        request_id: rid,
                        value: Some(v),
                        ..
                    } => *rid == request_id && *v == expected,
                    _ => false,
                });
                retrievable += usize::from(answered);
            }
        }

        let (msgs, rounds) = anti_entropy_totals(&sim, &topo);
        let node_rounds = rounds - rounds_before;
        rows.push(DurabilityRow {
            k,
            failed_fraction: churn_step.failed_fraction,
            alive_nodes: alive_pairs.len(),
            keys: params.keys,
            surviving: audit.keys,
            retrievable,
            fully_replicated_pct: audit.fully_replicated_pct(),
            divergent: audit.divergent,
            repair_windows,
            converged: audit.is_converged(),
            anti_entropy_msgs_per_node_round: if node_rounds == 0 {
                0.0
            } else {
                (msgs - msgs_before) as f64 / node_rounds as f64
            },
        });
    }
    rows
}

/// Audit the replica placement over every live store (the stores hold
/// nothing but the corpus in this experiment, so no key filtering is
/// needed).
fn audit_now(sim: &Simulation<TreePNode>, topo: &BuiltTopology, k: u32) -> ReplicationAudit {
    let views = topo
        .nodes
        .iter()
        .filter(|n| sim.is_alive(n.addr))
        .filter_map(|n| sim.node(n.addr).map(|node| (n.id, node.dht_store())));
    audit_replication(views, k)
}

/// Anti-entropy messages sent and anti-entropy rounds run so far, summed
/// over the live nodes: the difference of two readings with no failure in
/// between, divided, is messages per node and round.
fn anti_entropy_totals(sim: &Simulation<TreePNode>, topo: &BuiltTopology) -> (u64, u64) {
    topo.alive_pairs(sim)
        .iter()
        .filter_map(|&(addr, _)| sim.node(addr))
        .map(|node| {
            let stats = node.stats();
            let msgs = [
                MessageKind::ReplicaDigest,
                MessageKind::ReplicaSyncRequest,
                MessageKind::ReplicaSyncReply,
            ]
            .map(|kind| stats.sent.get(kind));
            (msgs.iter().sum::<u64>(), stats.replica_sync_rounds)
        })
        .fold((0, 0), |(m, r), (dm, dr)| (m + dm, r + dr))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_is_bounded() {
        let smoke = DurabilityParams::smoke(1);
        let full = DurabilityParams::new(800, 1);
        assert!(smoke.nodes < full.nodes);
        assert!(smoke.keys < full.keys);
        assert!(smoke.churn.steps(smoke.nodes).len() < full.churn.steps(full.nodes).len());
        assert!(smoke.drain.as_micros() > smoke.config(3).lookup_timeout.as_micros());
    }

    #[test]
    fn replication_keeps_keys_alive_where_single_copies_die() {
        let report = run_durability(&DurabilityParams::smoke(2005));
        // Both factors start fully available on the intact network.
        for k in [1, 3] {
            let intact = report.row_at(k, 0.0).unwrap();
            assert_eq!(intact.failed_fraction, 0.0);
            assert!(
                intact.availability_pct() >= 99.0,
                "k={k}: intact availability {:.1}%",
                intact.availability_pct()
            );
        }
        // The acceptance point: at 30% failed, k = 1 measurably loses keys
        // while k = 3 stays >= 99% available and converges its replicas.
        let k1 = report.row_at(1, 0.3).unwrap();
        let k3 = report.row_at(3, 0.3).unwrap();
        assert!((k1.failed_fraction - 0.3).abs() < 1e-9);
        assert!(
            k1.availability_pct() < 90.0,
            "k=1 must lose keys at 30% churn, got {:.1}%",
            k1.availability_pct()
        );
        assert!(
            k3.availability_pct() >= 99.0,
            "k=3 must keep >= 99% availability at 30% churn, got {:.1}%",
            k3.availability_pct()
        );
        assert!(
            k3.converged,
            "anti-entropy must converge the surviving replicas: {k3:?}"
        );
        assert_eq!(k3.divergent, 0);
        // What the repair costs: nothing without replication, and on the
        // intact network the k - 1 digests of agreeing pairs (less at the
        // two edges of the identifier space), no key list.
        assert!(report
            .rows_for(1)
            .iter()
            .all(|r| r.anti_entropy_msgs_per_node_round == 0.0));
        let intact = report.row_at(3, 0.0).unwrap();
        assert!(
            (1.9..=2.0).contains(&intact.anti_entropy_msgs_per_node_round),
            "{intact:?}"
        );
    }

    #[test]
    fn report_accessors_and_table() {
        let report = run_durability(&DurabilityParams {
            nodes: 60,
            keys: 30,
            factors: vec![2],
            churn: ChurnPlan {
                fraction_per_step: 0.2,
                stop_at_surviving_fraction: 0.8,
            },
            ..DurabilityParams::smoke(7)
        });
        assert_eq!(report.rows_for(2).len(), 2);
        assert!(report.rows_for(5).is_empty());
        assert_eq!(report.to_table().len(), report.rows.len());
        let far = report.row_at(2, 1.0).unwrap();
        assert!((far.failed_fraction - 0.2).abs() < 1e-9);
    }
}
