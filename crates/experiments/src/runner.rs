//! The one experiment harness — [`Scenario`] and [`DeliveryTally`] — and
//! the churn / lookup measurement loop shared by every figure.
//!
//! Every TreeP driver of this crate is the loop of the paper's Section IV:
//! build the steady state, remove nodes, let it settle, issue requests,
//! count. A [`Scenario`] is the overlay that loop runs on and the four
//! things every driver does to it: build it (on lossy links if asked),
//! crash one step of a [`ChurnPlan`], sum [`NodeStats`] counters over the
//! live nodes, and drain one outcome queue from every live node. A
//! [`DeliveryTally`] is the arithmetic of every dissemination figure. The
//! Chord and flooding baselines keep their own short loops.

use crate::params::ExperimentParams;
use crate::table_routing::BuiltTables;
use analysis::{ratio, HopHistogram, SummaryStats};
use simnet::{
    LatencyModel, LinkModel, LossModel, NodeAddr, SimConfig, SimDuration, SimRng, Simulation,
};
use treep::RequestId;
use treep::{
    audit, HierarchyAudit, KeyRange, LookupOutcome, NodeId, NodeStats, RoutingAlgorithm, TreePNode,
};
use workloads::{
    BuiltTopology, ChurnPlan, ChurnStep, LookupWorkload, MulticastOp, MulticastWorkload,
    TopologyBuilder,
};

/// A dissemination as its receivers identify it: origin and request id.
pub(crate) type Probe = (NodeAddr, RequestId);

/// TTL of the flooding baseline's broadcasts: high enough to reach the
/// whole random graph.
pub(crate) const FLOOD_TTL: u32 = 32;

/// Virtual time a churn step waits after issuing its lookups before their
/// outcomes are collected. Must exceed every preset's lookup timeout.
pub(crate) const DRAIN_PER_STEP: SimDuration = SimDuration::from_millis(2_500);

/// A built and settled TreeP overlay under measurement. The workload
/// stream is not a field: each driver forks it from `sim` where it always
/// did (two of them after their crash, one never), so no random stream
/// moves.
pub(crate) struct Scenario {
    /// The simulation the overlay lives in.
    pub sim: Simulation<TreePNode>,
    /// The overlay as it was built.
    pub topo: BuiltTopology,
}

impl Scenario {
    /// Build and settle `builder`'s overlay on the simulator's default
    /// lossless links.
    pub(crate) fn build(builder: &TopologyBuilder, seed: u64) -> Scenario {
        Self::build_lossy(builder, seed, LinkModel::default().latency, 0.0)
    }

    /// Build and settle `builder`'s overlay on links of the given latency
    /// that drop every message independently with probability `loss`
    /// (0 draws nothing, so a lossless run replays [`Scenario::build`]).
    pub(crate) fn build_lossy(
        builder: &TopologyBuilder,
        seed: u64,
        latency: LatencyModel,
        loss: f64,
    ) -> Scenario {
        let loss = if loss > 0.0 {
            LossModel::Bernoulli { p: loss }
        } else {
            LossModel::None
        };
        let config = SimConfig {
            link: LinkModel { latency, loss },
            ..SimConfig::default()
        };
        let (sim, topo) = builder.build_simulation_with(config, seed);
        Scenario { sim, topo }
    }

    /// The live nodes, in build order.
    pub(crate) fn alive(&self) -> Vec<(NodeAddr, NodeId)> {
        self.topo.alive_pairs(&self.sim)
    }

    /// Fail the victims `plan` picks for `step` (none at step 0, which
    /// measures the intact overlay).
    pub(crate) fn crash(&mut self, plan: &ChurnPlan, step: &ChurnStep, rng: &mut SimRng) {
        if step.index > 0 {
            let alive = self.sim.alive_nodes();
            for victim in plan.pick_victims(&alive, self.topo.nodes.len(), rng) {
                self.sim.fail_node(victim);
            }
        }
    }

    /// Sum `N` counters of [`NodeStats`] over the live nodes. A fallen node
    /// takes its counters with it, which is why [`delta`] saturates.
    pub(crate) fn sum<const N: usize>(
        &self,
        counters: impl Fn(&NodeStats) -> [u64; N],
    ) -> [u64; N] {
        let mut totals = [0; N];
        for (addr, _) in self.alive() {
            let node = self.sim.node(addr).expect("a live node has a state");
            for (total, counter) in totals.iter_mut().zip(counters(node.stats())) {
                *total += counter;
            }
        }
        totals
    }

    /// Drain one outcome queue from every live node, in build order (a
    /// node that has nothing queued is listed with nothing).
    pub(crate) fn drain<T>(
        &mut self,
        queue: impl Fn(&mut TreePNode) -> Vec<T>,
    ) -> Vec<(NodeAddr, NodeId, Vec<T>)> {
        let mut drained = Vec::new();
        for (addr, id) in self.alive() {
            let node = self.sim.node_mut(addr).expect("a live node has a state");
            drained.push((addr, id, queue(node)));
        }
        drained
    }

    /// Issue one batch of data multicasts among `alive`, wait `drain`, and
    /// tally what every live node inside a probe's range received of it.
    pub(crate) fn probe_multicasts(
        &mut self,
        workload: &MulticastWorkload,
        alive: &[(NodeAddr, NodeId)],
        drain: SimDuration,
        rng: &mut SimRng,
    ) -> DeliveryTally {
        let mut probes: Vec<(Probe, KeyRange)> = Vec::new();
        for batch in workload.generate(self.topo.config.space, alive, rng) {
            let MulticastOp::Data(payload) = batch.op else {
                unreachable!("a data-only workload");
            };
            let range = batch.range;
            let request_id = self.sim.invoke(batch.source, move |node, ctx| {
                node.start_multicast(range, payload, ctx)
            });
            if let Some(request_id) = request_id {
                probes.push(((batch.source, request_id), range));
            }
        }
        self.sim.run_for(drain);

        let mut tally = DeliveryTally::default();
        for (_, id, received) in self.drain(multicast_receipts) {
            let owed = probes.iter().filter(|(_, range)| range.contains(id));
            tally.record(owed.map(|&(probe, _)| probe), &received);
        }
        tally
    }
}

/// What `N` counters grew by between two readings of [`Scenario::sum`].
pub(crate) fn delta<const N: usize>(after: [u64; N], before: [u64; N]) -> [u64; N] {
    std::array::from_fn(|i| after[i].saturating_sub(before[i]))
}

/// The multicast payloads a node has delivered since it was last asked.
pub(crate) fn multicast_receipts(node: &mut TreePNode) -> Vec<Probe> {
    let deliveries = node.drain_multicast_deliveries();
    let key = |d: treep::MulticastDelivery| (d.origin.addr, d.request_id);
    deliveries.into_iter().map(key).collect()
}

/// Delivery obligations, how many were met, and how many copies met them —
/// and the three ratios every dissemination figure reports of those.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryTally {
    /// Obligations: (receiver, probe) pairs that should see a delivery.
    pub targets: usize,
    /// Obligations that saw at least one.
    pub delivered: usize,
    /// Deliveries those obligations saw in all.
    pub copies: usize,
}

impl DeliveryTally {
    /// Count one receiver: every probe in `owed` is an obligation, met by
    /// each of its occurrences in `received`.
    pub(crate) fn record(&mut self, owed: impl IntoIterator<Item = Probe>, received: &[Probe]) {
        for probe in owed {
            let got = received.iter().filter(|r| **r == probe).count();
            self.targets += 1;
            self.delivered += usize::from(got > 0);
            self.copies += got;
        }
    }

    /// Fraction of the obligations met, in percent (100 when there were
    /// none).
    pub fn coverage_pct(&self) -> f64 {
        ratio(self.delivered as f64 * 100.0, self.targets as f64, 100.0)
    }

    /// Copies per met obligation: 1.0 is exactly once (0 when none was
    /// met).
    pub fn duplicate_factor(&self) -> f64 {
        ratio(self.copies as f64, self.delivered as f64, 0.0)
    }

    /// `messages` per met obligation (infinite when none was met, which
    /// the JSON writer renders as `null`).
    pub(crate) fn per_delivery(&self, messages: u64) -> f64 {
        ratio(messages as f64, self.delivered as f64, f64::INFINITY)
    }
}

/// Per-algorithm statistics of one churn step.
#[derive(Debug, Clone)]
pub struct AlgoStepStats {
    /// The routing algorithm these numbers belong to.
    pub algorithm: RoutingAlgorithm,
    /// Lookups issued during the step.
    pub issued: usize,
    /// Lookups whose outcome was collected (the rest are counted as failed).
    pub completed: usize,
    /// Lookups that did not resolve (not-found, TTL drop, timeout, or never
    /// completed).
    pub failed: usize,
    /// Hop distribution of the successful lookups.
    pub histogram: HopHistogram,
    /// Hop statistics of the successful lookups.
    pub success_hops: SummaryStats,
    /// Hop statistics of the lookups that came back "not found" (the hops
    /// they had travelled when they dead-ended) — the quantity of Figure E.
    pub failed_hops: SummaryStats,
}

impl AlgoStepStats {
    /// The statistics of `algorithm`'s share of one step's `outcomes`, out
    /// of `issued` lookups.
    fn of(algorithm: RoutingAlgorithm, issued: usize, outcomes: &[LookupOutcome]) -> Self {
        let mine = || outcomes.iter().filter(|o| o.algorithm == algorithm);
        let hops = |success: bool| -> Vec<f64> {
            let ended = mine().filter(|o| o.status.is_success() == success);
            ended.map(|o| o.hops as f64).collect()
        };
        let successes = hops(true);
        let mut histogram = HopHistogram::new();
        for outcome in mine().filter(|o| o.status.is_success()) {
            histogram.record(outcome.hops);
        }
        AlgoStepStats {
            algorithm,
            issued,
            completed: mine().count(),
            failed: issued.saturating_sub(successes.len()),
            histogram,
            success_hops: SummaryStats::of(&successes),
            failed_hops: SummaryStats::of(&hops(false)),
        }
    }

    /// Fraction of issued lookups that failed, as a percentage (0–100).
    pub fn failed_pct(&self) -> f64 {
        ratio(self.failed as f64 * 100.0, self.issued as f64, 0.0)
    }

    /// Mean hops of the successful lookups.
    pub(crate) fn mean_hops(&self) -> f64 {
        self.success_hops.mean
    }
}

/// Everything measured at one churn step.
#[derive(Debug, Clone)]
pub struct StepMeasurement {
    /// Step index (0 = the unperturbed steady state).
    pub index: usize,
    /// Fraction of the initial population failed so far (0–1).
    pub failed_fraction: f64,
    /// Nodes still alive when the step's lookups were issued.
    pub alive_nodes: usize,
    /// Statistics per routing algorithm, in [`RoutingAlgorithm::ALL`] order.
    pub per_algorithm: Vec<AlgoStepStats>,
    /// Messages sent during the settle window of this step (maintenance
    /// traffic: keep-alives, child reports, elections).
    pub maintenance_messages: u64,
    /// Maintenance messages per alive node during the settle window.
    pub maintenance_per_node: f64,
}

impl StepMeasurement {
    /// The statistics of one algorithm.
    pub fn algo(&self, algorithm: RoutingAlgorithm) -> Option<&AlgoStepStats> {
        self.per_algorithm.iter().find(|a| a.algorithm == algorithm)
    }
}

/// The result of one full churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnRunResult {
    /// Initial population size.
    pub nodes: usize,
    /// Seed the run used.
    pub seed: u64,
    /// Child-policy label ("nc=4" / "nc=variable").
    pub policy_label: String,
    /// Structural audit of the steady-state topology before any failure.
    pub steady_state: HierarchyAudit,
    /// Every node's routing table at the same moment.
    pub(crate) tables: BuiltTables,
    /// One measurement per churn step, in schedule order.
    pub steps: Vec<StepMeasurement>,
}

/// Run the Section-IV measurement loop with the given parameters.
///
/// The loop builds a steady-state topology, then for every churn step: fails
/// the scheduled fraction of nodes, lets the maintenance protocol settle,
/// issues `lookups_per_step` random lookups per routing algorithm from and to
/// surviving nodes, waits for the outcomes, and records failure rates and hop
/// statistics.
pub fn run_churn_experiment(params: &ExperimentParams) -> ChurnRunResult {
    let builder = TopologyBuilder::new(params.nodes).with_config(params.config);
    let mut sc = Scenario::build(&builder, params.seed);

    let steady_state = audit_alive(&sc.sim);
    let tables = BuiltTables::record(&sc.sim, &sc.topo, &params.config);
    let workload = LookupWorkload::new(params.lookups_per_step);
    let mut rng = sc.sim.rng_mut().fork();

    let mut steps = Vec::new();
    for churn_step in params.churn.steps(params.nodes) {
        // 1. Fail this step's victims (step 0 measures the intact topology).
        sc.crash(&params.churn, &churn_step, &mut rng);

        // 2. Let keep-alives, expiry, elections and demotions react.
        let sent_before = sc.sim.metrics().messages_sent;
        sc.sim.run_for(params.settle_per_step);
        let maintenance_messages = sc.sim.metrics().messages_sent - sent_before;

        // 3. Issue the same batch of lookups once per routing algorithm.
        let alive_pairs = sc.alive();
        let alive_nodes = alive_pairs.len();
        let batches = workload.generate(&alive_pairs, &mut rng);
        for algorithm in RoutingAlgorithm::ALL {
            for batch in &batches {
                sc.sim.invoke(batch.source, |node, ctx| {
                    node.start_lookup(batch.target, algorithm, ctx);
                });
            }
        }

        // 4. Wait for answers / timeouts and collect the outcomes.
        sc.sim.run_for(DRAIN_PER_STEP);
        let drained = sc.drain(TreePNode::drain_lookup_outcomes).into_iter();
        let outcomes: Vec<LookupOutcome> = drained.flat_map(|(_, _, queue)| queue).collect();
        let per_algorithm = RoutingAlgorithm::ALL
            .iter()
            .map(|&algorithm| AlgoStepStats::of(algorithm, batches.len(), &outcomes))
            .collect();

        steps.push(StepMeasurement {
            index: churn_step.index,
            failed_fraction: churn_step.failed_fraction,
            alive_nodes,
            per_algorithm,
            maintenance_messages,
            maintenance_per_node: ratio(maintenance_messages as f64, alive_nodes as f64, 0.0),
        });
    }

    ChurnRunResult {
        nodes: params.nodes,
        seed: params.seed,
        policy_label: params.policy_label().to_string(),
        steady_state,
        tables,
        steps,
    }
}

/// Audit the currently alive nodes of a simulation.
pub(crate) fn audit_alive(sim: &Simulation<TreePNode>) -> HierarchyAudit {
    let alive = sim.alive_nodes();
    let nodes: Vec<&TreePNode> = alive.iter().filter_map(|&a| sim.node(a)).collect();
    audit(nodes)
}

#[cfg(test)]
impl ChurnRunResult {
    /// The measurement whose failed fraction is closest to `fraction`.
    pub(crate) fn step_at(&self, fraction: f64) -> Option<&StepMeasurement> {
        self.steps.iter().min_by(|a, b| {
            (a.failed_fraction - fraction)
                .abs()
                .partial_cmp(&(b.failed_fraction - fraction).abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::ChurnPlan;

    fn quick_result() -> ChurnRunResult {
        run_churn_experiment(&ExperimentParams::quick(120, 11))
    }

    #[test]
    fn steady_state_resolves_nearly_every_lookup() {
        let result = quick_result();
        let first = &result.steps[0];
        assert_eq!(first.failed_fraction, 0.0);
        for algo in &first.per_algorithm {
            assert!(
                algo.failed_pct() <= 10.0,
                "{}: {}% failures on the intact topology",
                algo.algorithm,
                algo.failed_pct()
            );
            assert!(algo.mean_hops() < 10.0);
        }
    }

    #[test]
    fn failures_increase_with_churn() {
        let result = quick_result();
        let first = result.steps.first().unwrap();
        let last = result.steps.last().unwrap();
        assert!(last.failed_fraction > 0.5);
        for algorithm in RoutingAlgorithm::ALL {
            let early = first.algo(algorithm).unwrap().failed_pct();
            let late = last.algo(algorithm).unwrap().failed_pct();
            assert!(
                late >= early,
                "{algorithm}: failure rate must not improve under churn ({early} -> {late})"
            );
        }
    }

    #[test]
    fn all_three_algorithms_are_measured_every_step() {
        let result = quick_result();
        for step in &result.steps {
            assert_eq!(step.per_algorithm.len(), 3);
            for algorithm in RoutingAlgorithm::ALL {
                let stats = step.algo(algorithm).expect("algorithm measured");
                assert_eq!(stats.issued, 20);
                assert!(stats.completed <= stats.issued);
            }
        }
    }

    #[test]
    fn alive_count_tracks_the_schedule() {
        let result = quick_result();
        for pair in result.steps.windows(2) {
            assert!(pair[1].alive_nodes < pair[0].alive_nodes);
        }
        assert_eq!(result.steps[0].alive_nodes, 120);
    }

    #[test]
    fn steady_state_audit_is_structurally_sound() {
        let result = quick_result();
        assert_eq!(result.steady_state.nodes, 120);
        assert_eq!(result.steady_state.dangling_parents, 0);
        assert!(result.steady_state.height >= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_churn_experiment(&ExperimentParams::quick(80, 5).with_lookups_per_step(10));
        let b = run_churn_experiment(&ExperimentParams::quick(80, 5).with_lookups_per_step(10));
        assert_eq!(a.steps.len(), b.steps.len());
        for (sa, sb) in a.steps.iter().zip(&b.steps) {
            assert_eq!(sa.alive_nodes, sb.alive_nodes);
            for algorithm in RoutingAlgorithm::ALL {
                assert_eq!(
                    sa.algo(algorithm).unwrap().failed,
                    sb.algo(algorithm).unwrap().failed
                );
            }
        }
    }

    #[test]
    fn step_at_selects_the_closest_fraction() {
        let result = quick_result();
        let step = result.step_at(0.0).unwrap();
        assert_eq!(step.index, 0);
        let last = result.step_at(1.0).unwrap();
        assert_eq!(last.index, result.steps.last().unwrap().index);
        assert!(last.failed_fraction > 0.5);
    }

    #[test]
    fn single_step_plan_measures_only_steady_state() {
        let mut params = ExperimentParams::quick(60, 3).with_lookups_per_step(5);
        params.churn = ChurnPlan {
            fraction_per_step: 0.5,
            stop_at_surviving_fraction: 0.9,
        };
        let result = run_churn_experiment(&params);
        assert_eq!(result.steps.len(), 1);
        assert_eq!(result.steps[0].failed_fraction, 0.0);
    }
}
