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

use crate::runner::{delta, Scenario};
use analysis::{ratio, Cell, Column, Table};
use simnet::{NodeAddr, SimDuration};
use treep::RequestId;
use treep::REPLICA_SYNC_INTERVAL;
use treep::{audit_replication, DhtOutcome, MessageKind, NodeStats, TreePConfig, TreePNode};
use workloads::{ChurnPlan, KvWorkload, TopologyBuilder};

/// Virtual time after each failure batch before repair is measured, so
/// keep-alives and entry expiry can react.
const SETTLE_PER_STEP: SimDuration = SimDuration::from_secs(3);
/// Virtual time the per-step `DhtGet` batch is given to resolve. Must
/// exceed the configured lookup timeout.
const DRAIN: SimDuration = SimDuration::from_millis(2_500);

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
        ratio(self.retrievable as f64 * 100.0, self.keys as f64, 100.0)
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
    pub(crate) fn rows_for(&self, k: u32) -> Vec<&DurabilityRow> {
        self.rows.iter().filter(|r| r.k == k).collect()
    }

    /// The row of factor `k` at failed fraction `fraction`.
    pub fn row_at(&self, k: u32, fraction: f64) -> Option<&DurabilityRow> {
        let at = |r: &&DurabilityRow| r.k == k && (r.failed_fraction - fraction).abs() < 1e-9;
        self.rows.iter().find(at)
    }

    /// The `reproduce --durability --smoke` gate: at 30 % failed nodes k = 3
    /// keeps the keys k = 1 loses, for the k − 1 digests of agreeing pairs.
    pub fn gate(&self) -> Result<String, String> {
        let row = |k, at: f64| {
            self.row_at(k, at)
                .ok_or(format!("no row k = {k} at {at} failed"))
        };
        let (k1, k3) = (row(1, 0.3)?, row(3, 0.3)?);
        let (k1_intact, k3_intact) = (row(1, 0.0)?, row(3, 0.0)?);
        ensure!(k1_intact.availability_pct() >= 99.0, k1_intact);
        ensure!(k3_intact.availability_pct() >= 99.0, k3_intact);
        ensure!(k1.availability_pct() < 90.0, k1);
        ensure!(k3.availability_pct() >= 99.0, k3);
        ensure!(k3.converged, k3);
        ensure!(k3.divergent == 0, k3);
        let repairs = |r: &DurabilityRow| r.anti_entropy_msgs_per_node_round;
        ensure!(self.rows_for(1).into_iter().all(|r| repairs(r) == 0.0));
        ensure!((1.9..=2.0).contains(&repairs(k3_intact)), k3_intact);
        let (lost, kept) = (k1.availability_pct(), k3.availability_pct());
        Ok(format!(
            "at 30% failed: k=1 {lost:.1}% available, k=3 {kept:.1}% available \
             ({} repair windows, converged: {})",
            k3.repair_windows, k3.converged
        ))
    }

    /// The comparison as a table: one row per factor and step.
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("k", "k", |r: &DurabilityRow| r.k.into()),
            Column::new("failed_fraction", "", |r| {
                Cell::float(r.failed_fraction, 3, 3)
            }),
            Column::new("", "failed %", |r| {
                Cell::float(r.failed_fraction * 100.0, 0, 0)
            }),
            Column::new("alive_nodes", "alive", |r| r.alive_nodes.into()),
            Column::new("surviving_keys", "surviving", |r| r.surviving.into()),
            Column::new("availability_pct", "avail %", |r| {
                Cell::float(r.availability_pct(), 2, 1)
            }),
            Column::new("fully_replicated_pct", "fully repl %", |r| {
                Cell::float(r.fully_replicated_pct, 2, 1)
            }),
            Column::new("divergent", "divergent", |r| r.divergent.into()),
            Column::new("repair_windows", "repair wins", |r| r.repair_windows.into()),
            Column::new("converged", "converged", |r| {
                Cell::Flag(r.converged, ["NO", "yes"])
            }),
            Column::new(
                "anti_entropy_msgs_per_node_round",
                "a-e msgs/node/round",
                |r| Cell::float(r.anti_entropy_msgs_per_node_round, 3, 2),
            ),
        ];
        let title = format!(
            "Figure R — DHT durability under churn (n = {}, {} keys)",
            self.nodes, self.keys
        );
        Table::of(title, &columns, &self.rows)
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
    let mut sc = Scenario::build(&builder, params.seed);
    let kv = KvWorkload::new(params.keys);
    let mut rng = sc.sim.rng_mut().fork();

    // Seed the corpus and let the puts (and the initial replica placement)
    // complete.
    for op in kv.batch(&sc.alive(), &mut rng) {
        let key = kv.key_bytes(op.index);
        let value = kv.value_bytes(op.index);
        sc.sim.invoke(op.source, move |node, ctx| {
            node.dht_put(&key, value, ctx);
        });
    }
    sc.sim.run_for(SETTLE_PER_STEP);

    // Anti-entropy messages sent and anti-entropy rounds run: the growth of
    // the first over a step, divided by that of the second, is messages per
    // node and round.
    let anti_entropy = |s: &NodeStats| {
        let sent = |kind| s.sent.get(kind);
        let msgs = sent(MessageKind::ReplicaDigest)
            + sent(MessageKind::ReplicaSyncRequest)
            + sent(MessageKind::ReplicaSyncReply);
        [msgs, s.replica_sync_rounds]
    };
    // The replica placement over every live store (the stores hold nothing
    // but the corpus in this experiment, so no key filtering is needed).
    let audit_now = |sc: &Scenario| {
        let live = sc.alive().into_iter();
        let views = live.filter_map(|(addr, id)| sc.sim.node(addr).map(|n| (id, n.dht_store())));
        audit_replication(views, k)
    };

    let mut rows = Vec::new();
    for churn_step in params.churn.steps(params.nodes) {
        // 1. Fail this step's victims (step 0 measures the intact network).
        sc.crash(&params.churn, &churn_step, &mut rng);
        let anti_entropy_before = sc.sum(anti_entropy);

        // 2. Settle, then grant extra anti-entropy windows until the
        //    replica placement converges (k = 1 has no repair to wait for).
        sc.sim.run_for(SETTLE_PER_STEP);
        let mut repair_windows = 0usize;
        let mut audit = audit_now(&sc);
        while k > 1 && !audit.is_converged() && repair_windows < params.max_repair_windows {
            sc.sim.run_for(REPLICA_SYNC_INTERVAL);
            repair_windows += 1;
            audit = audit_now(&sc);
        }

        // 3. End-to-end availability: one routed get per corpus key from a
        //    random survivor, answers checked against the expected values.
        let alive_pairs = sc.alive();
        let mut asked: Vec<(NodeAddr, usize, RequestId)> = Vec::new();
        for op in kv.batch(&alive_pairs, &mut rng) {
            let key = kv.key_bytes(op.index);
            let request_id = sc
                .sim
                .invoke(op.source, move |node, ctx| node.dht_get(&key, ctx));
            if let Some(request_id) = request_id {
                asked.push((op.source, op.index, request_id));
            }
        }
        sc.sim.run_for(DRAIN);
        let answers = sc.drain(TreePNode::drain_dht_outcomes);
        let answered = |&(source, index, request_id): &(NodeAddr, usize, RequestId)| {
            let expected = kv.value_bytes(index);
            let mut outcomes = answers.iter().filter(|a| a.0 == source).flat_map(|a| &a.2);
            outcomes.any(|o| match o {
                DhtOutcome::GetAnswered {
                    request_id: rid,
                    value: Some(v),
                    ..
                } => *rid == request_id && *v == expected,
                _ => false,
            })
        };
        let retrievable = asked.iter().filter(|&get| answered(get)).count();

        let [msgs, node_rounds] = delta(sc.sum(anti_entropy), anti_entropy_before);
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
            anti_entropy_msgs_per_node_round: ratio(msgs as f64, node_rounds as f64, 0.0),
        });
    }
    rows
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
        assert!(DRAIN.as_micros() > smoke.config(3).lookup_timeout.as_micros());
    }

    #[test]
    fn replication_keeps_keys_alive_where_single_copies_die() {
        let report = run_durability(&DurabilityParams::smoke(2005));
        report.gate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// A report that passes the gate: 100 keys, k = 1 loses 20 of them at
    /// 30 % failed, k = 3 none.
    fn passing_report() -> DurabilityReport {
        let row =
            |k, failed_fraction, retrievable, anti_entropy_msgs_per_node_round| DurabilityRow {
                k,
                failed_fraction,
                alive_nodes: 100,
                keys: 100,
                surviving: retrievable,
                retrievable,
                fully_replicated_pct: 100.0,
                divergent: 0,
                repair_windows: 1,
                converged: true,
                anti_entropy_msgs_per_node_round,
            };
        DurabilityReport {
            nodes: 100,
            keys: 100,
            rows: vec![
                row(1, 0.0, 100, 0.0),
                row(1, 0.3, 80, 0.0),
                row(3, 0.0, 100, 1.95),
                row(3, 0.3, 100, 2.4),
            ],
        }
    }

    #[test]
    fn durability_gate_needs_its_acceptance_row() {
        let mut report = passing_report();
        assert!(report.gate().is_ok(), "{:?}", report.gate());
        report.rows.pop();
        let err = report.gate().unwrap_err();
        assert_eq!(err, "no row k = 3 at 0.3 failed");
    }

    #[test]
    fn durability_gate_names_the_check_that_failed() {
        let mut report = passing_report();
        report.rows[3].divergent = 2;
        let err = report.gate().unwrap_err();
        assert!(
            err.starts_with("k3.divergent == 0; k3 = DurabilityRow { k: 3,"),
            "{err}"
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
        assert!(report.row_at(2, 0.2).is_some());
        assert!(report.row_at(2, 1.0).is_none());
    }
}
