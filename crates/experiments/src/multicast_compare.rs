//! Figure M — tree-scoped multicast vs Gnutella-style flooding broadcast —
//! and Figure L, the reliability layer's coverage-vs-loss sweep.
//!
//! TreeP's hierarchy lets a node address a contiguous identifier range with
//! structural exactly-once delegation; an unstructured overlay can only
//! flood everyone and suppress duplicates after the fact. The Figure M
//! driver runs both at equal reach and reports, per scope width:
//!
//! * **coverage %** — live nodes of the target range that received the
//!   payload;
//! * **duplicate factor** — copies received per distinct node reached
//!   (1.0 = exactly once);
//! * **messages / delivery** — overlay messages spent per distinct in-range
//!   delivery (the headline efficiency number).
//!
//! The Figure L sweep ([`sweep_multicast_loss`]) measures the same overlay
//! under Bernoulli per-hop loss, with the reliability layer off (the
//! single-shot baseline — coverage collapses as loss eats the ascent) and
//! on (per-hop acks + retransmission + re-route — coverage pinned at 100 %
//! for a bounded retransmission overhead). This is the measured curve the
//! ROADMAP's old "known limit" paragraph became.

use crate::runner::{delta, multicast_receipts, DeliveryTally, Scenario, FLOOD_TTL};
use analysis::{ratio, Cell, Column, Table};
use baselines::FloodingBuilder;
use simnet::{LatencyModel, SimDuration};
use treep::{KeyRange, MessageKind, NodeId, NodeStats};
use workloads::{MulticastWorkload, TopologyBuilder};

/// Parameters of one multicast comparison run.
#[derive(Debug, Clone)]
pub struct MulticastParams {
    /// Population size shared by both overlays.
    pub nodes: usize,
    /// Seed for topology construction and link randomness.
    pub seed: u64,
    /// Scope widths to measure, as fractions of the identifier space.
    pub scopes: Vec<f64>,
}

impl MulticastParams {
    /// Default comparison: full-space broadcast plus two scoped widths.
    pub fn new(nodes: usize, seed: u64) -> Self {
        MulticastParams {
            nodes,
            seed,
            scopes: vec![1.0, 0.5, 0.25],
        }
    }

    /// Reduced run for unit tests and `reproduce --multicast --smoke`: only
    /// the full-space broadcast and the narrowest scope.
    pub fn quick(nodes: usize, seed: u64) -> Self {
        MulticastParams {
            scopes: vec![1.0, 0.25],
            ..Self::new(nodes, seed)
        }
    }
}

/// One overlay measured at one scope width.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastRow {
    /// Overlay name ("TreeP" or "Flooding").
    pub overlay: String,
    /// Scope width as a fraction of the identifier space.
    pub scope_fraction: f64,
    /// The live nodes inside the target range, and how many of them
    /// received the payload.
    pub tally: DeliveryTally,
    /// Copies received per distinct node reached, network-wide. TreeP's
    /// structural delegation pins this at exactly 1.0; flooding's value is
    /// its inherent redundancy.
    pub duplicate_factor: f64,
    /// Overlay messages the dissemination sent.
    pub messages: u64,
}

/// The full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct MulticastComparison {
    /// Population size shared by both overlays.
    pub nodes: usize,
    /// One row per (overlay, scope).
    pub rows: Vec<MulticastRow>,
}

impl MulticastComparison {
    /// Render the comparison as an aligned table.
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("", "overlay", |r: &MulticastRow| Cell::text(&r.overlay)),
            Column::new("", "scope %", |r| {
                Cell::float(r.scope_fraction * 100.0, 0, 0)
            }),
            Column::new("", "targets", |r| r.tally.targets.into()),
            Column::new("", "coverage %", |r| {
                Cell::float(r.tally.coverage_pct(), 1, 1)
            }),
            Column::new("", "dup factor", |r| Cell::float(r.duplicate_factor, 2, 2)),
            Column::new("", "msgs/delivery", |r| {
                Cell::float(r.tally.per_delivery(r.messages), 2, 2)
            }),
        ];
        let title = format!(
            "Figure M — scoped multicast vs flooding broadcast (n = {})",
            self.nodes
        );
        Table::of(title, &columns, &self.rows)
    }
}

// ---- Figure L: coverage vs per-hop loss ------------------------------------

/// `max_retransmits` of the reliability-on leg (the off leg always runs
/// with 0).
const MAX_RETRANSMITS: u32 = 5;
/// Width of each probe's range as a fraction of the identifier space.
const PROBE_RANGE_FRACTION: f64 = 0.5;
/// Virtual time after issuing the probes before coverage is tallied (must
/// exceed the full retransmission backoff plus one re-route).
const PROBE_DRAIN: SimDuration = SimDuration::from_secs(20);

/// Parameters of one coverage-vs-loss sweep.
#[derive(Debug, Clone)]
pub struct LossSweepParams {
    /// Population size.
    pub nodes: usize,
    /// Seed for topology construction, link loss and probe placement.
    pub seed: u64,
    /// Per-hop Bernoulli loss probabilities to measure.
    pub loss_levels: Vec<f64>,
    /// Scoped multicast probes issued per cell.
    pub probes: usize,
}

impl LossSweepParams {
    /// The default sweep: 0 % / 10 % / 20 % per-hop loss.
    pub fn new(nodes: usize, seed: u64) -> Self {
        LossSweepParams {
            nodes,
            seed,
            loss_levels: vec![0.0, 0.10, 0.20],
            probes: 8,
        }
    }

    /// Bounded profile for the CI gate (`reproduce --lossy --smoke`): small
    /// population, the 10 % acceptance point plus the
    /// lossless sanity point.
    pub fn smoke(seed: u64) -> Self {
        LossSweepParams {
            loss_levels: vec![0.0, 0.10],
            probes: 6,
            ..Self::new(150, seed)
        }
    }
}

/// One (loss level, reliability) cell of the sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LossRow {
    /// Per-hop loss probability, in percent.
    pub loss_pct: f64,
    /// True for the reliability-on leg.
    pub reliable: bool,
    /// The alive in-range nodes over all probes, how many were reached and
    /// with how many app-layer copies (the reliability layer must never
    /// push the duplicate factor above 1.0).
    pub tally: DeliveryTally,
    /// First transmissions of `MulticastDown` (excluding retransmitted
    /// copies).
    pub data_messages: u64,
    /// Retransmitted `MulticastDown` copies.
    pub retransmits: u64,
    /// Hops re-routed after a destination was declared dead.
    pub reroutes: u64,
    /// `MulticastAck` messages (the fixed per-hop cost of reliability).
    pub acks: u64,
}

impl LossRow {
    /// All multicast traffic (data + retransmits + acks) per met
    /// obligation.
    pub(crate) fn messages_per_delivery(&self) -> f64 {
        self.tally
            .per_delivery(self.data_messages + self.retransmits + self.acks)
    }

    /// Retransmitted copies per first transmission — the marginal overhead
    /// the reliability layer pays at this loss level.
    pub fn retransmit_overhead(&self) -> f64 {
        ratio(self.retransmits as f64, self.data_messages as f64, 0.0)
    }
}

/// The full coverage-vs-loss sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct LossSweep {
    /// Population size shared by every cell.
    pub nodes: usize,
    /// One row per (loss level, reliability) cell.
    pub rows: Vec<LossRow>,
}

impl LossSweep {
    /// The cell at `loss_pct` (exact match) for the given leg.
    pub fn row(&self, loss_pct: f64, reliable: bool) -> Option<&LossRow> {
        self.rows
            .iter()
            .find(|r| (r.loss_pct - loss_pct).abs() < 1e-9 && r.reliable == reliable)
    }

    /// The `reproduce --lossy --smoke` gate: at 10 % per-hop loss the
    /// reliable leg restores the coverage the single-shot leg loses.
    pub fn gate(&self) -> Result<String, String> {
        let row = |loss: f64, r| {
            self.row(loss, r)
                .ok_or(format!("no row at {loss}% loss, reliable: {r}"))
        };
        let (l0_off, l0_on) = (row(0.0, false)?, row(0.0, true)?);
        let (base, rel) = (row(10.0, false)?, row(10.0, true)?);
        for lossless in [l0_off, l0_on] {
            ensure!(lossless.tally.coverage_pct() == 100.0, lossless);
            ensure!(lossless.retransmits == 0, lossless);
        }
        ensure!(l0_off.acks == 0, l0_off);
        ensure!(l0_on.acks > 0, l0_on);
        ensure!(base.tally.coverage_pct() < 99.0, base);
        ensure!(rel.tally.coverage_pct() >= 99.0, rel);
        ensure!(rel.tally.duplicate_factor() == 1.0, rel);
        ensure!(rel.retransmits > 0, rel);
        ensure!(rel.retransmit_overhead() < 1.0, rel);
        let (coverage, dup) = (rel.tally.coverage_pct(), rel.tally.duplicate_factor());
        Ok(format!(
            "at 10% per-hop loss: reliability on {coverage:.1}% coverage, dup factor {dup:.2}, \
             {:.2} retx/msg ({} reroutes)",
            rel.retransmit_overhead(),
            rel.reroutes
        ))
    }

    /// Render the sweep as an aligned table.
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("", "loss %", |r: &LossRow| Cell::float(r.loss_pct, 0, 0)),
            Column::new("", "reliability", |r| Cell::Flag(r.reliable, ["off", "on"])),
            Column::new("", "coverage %", |r| {
                Cell::float(r.tally.coverage_pct(), 1, 1)
            }),
            Column::new("", "dup factor", |r| {
                Cell::float(r.tally.duplicate_factor(), 2, 2)
            }),
            Column::new("", "retx/msg", |r| {
                Cell::float(r.retransmit_overhead(), 2, 2)
            }),
            Column::new("", "reroutes", |r| r.reroutes.into()),
            Column::new("", "msgs/delivery", |r| {
                Cell::float(r.messages_per_delivery(), 2, 2)
            }),
        ];
        let title = format!(
            "Figure L — multicast coverage vs per-hop loss (n = {})",
            self.nodes
        );
        Table::of(title, &columns, &self.rows)
    }
}

/// Run one cell: a fresh topology under the given link loss, `probes`
/// scoped multicasts, coverage / duplicate / overhead tallies.
fn measure_loss_cell(params: &LossSweepParams, loss: f64, reliable: bool) -> LossRow {
    let retransmits = if reliable { MAX_RETRANSMITS } else { 0 };
    let config = treep::TreePConfig::paper_case_fixed().with_reliability(retransmits);
    let builder = TopologyBuilder::new(params.nodes).with_config(config);
    let latency = LatencyModel::Fixed(SimDuration::from_millis(5));
    let mut sc = Scenario::build_lossy(&builder, params.seed, latency, loss);

    let mut rng = sc.sim.rng_mut().fork();
    let workload =
        MulticastWorkload::data_only(params.probes).with_range_fraction(PROBE_RANGE_FRACTION);
    let tally = sc.probe_multicasts(&workload, &sc.alive(), PROBE_DRAIN, &mut rng);
    let [data_sends, retransmits, reroutes, acks] = sc.sum(|s| {
        [
            s.sent.get(MessageKind::MulticastDown),
            s.multicast_retransmits,
            s.multicast_reroutes,
            s.sent.get(MessageKind::MulticastAck),
        ]
    });
    LossRow {
        loss_pct: loss * 100.0,
        reliable,
        tally,
        data_messages: data_sends - retransmits,
        retransmits,
        reroutes,
        acks,
    }
}

/// Run the coverage-vs-loss sweep: every loss level with the reliability
/// layer off (single-shot baseline) and on.
pub fn sweep_multicast_loss(params: &LossSweepParams) -> LossSweep {
    let mut rows = Vec::new();
    for &loss in &params.loss_levels {
        for reliable in [false, true] {
            rows.push(measure_loss_cell(params, loss, reliable));
        }
    }
    LossSweep {
        nodes: params.nodes,
        rows,
    }
}

/// The identifier range covering the middle `fraction` of `space`.
fn scope_range(space: treep::IdSpace, fraction: f64) -> KeyRange {
    let width = ((space.size() as f64 * fraction) as u64).max(1);
    let lo = (space.size() - width) / 2;
    KeyRange::new(NodeId(lo), NodeId(lo + width - 1))
}

/// Run the comparison.
pub fn compare_multicast(params: &MulticastParams) -> MulticastComparison {
    let mut rows = Vec::new();
    for &fraction in &params.scopes {
        rows.push(measure_treep(params, fraction));
        rows.push(measure_flooding(params, fraction));
    }
    MulticastComparison {
        nodes: params.nodes,
        rows,
    }
}

fn measure_treep(params: &MulticastParams, fraction: f64) -> MulticastRow {
    let mut sc = Scenario::build(&TopologyBuilder::new(params.nodes), params.seed);
    let range = scope_range(sc.topo.config.space, fraction);
    let origin = sc.topo.nodes[sc.topo.nodes.len() / 7].addr;

    let down = |s: &NodeStats| [s.sent.get(MessageKind::MulticastDown)];
    let sent_before = sc.sum(down);
    let request_id = sc.sim.invoke(origin, |node, ctx| {
        node.start_multicast(range, b"figure-m".to_vec(), ctx)
    });
    sc.sim.run_for(SimDuration::from_secs(5));
    let [messages] = delta(sc.sum(down), sent_before);

    let probe = (origin, request_id.expect("intact run"));
    let mut tally = DeliveryTally::default();
    for (_, id, received) in sc.drain(multicast_receipts) {
        tally.record(range.contains(id).then_some(probe), &received);
    }
    MulticastRow {
        overlay: "TreeP".to_string(),
        scope_fraction: fraction,
        tally,
        // Only nodes inside the range deliver, so the in-range tally is
        // the network-wide one.
        duplicate_factor: tally.duplicate_factor(),
        messages,
    }
}

fn measure_flooding(params: &MulticastParams, fraction: f64) -> MulticastRow {
    let (mut sim, pairs) = FloodingBuilder::new(params.nodes)
        .with_ttl(FLOOD_TTL)
        .build_simulation(params.seed);
    sim.run_until_idle();
    let range = scope_range(treep::IdSpace::default(), fraction);
    let origin = pairs[pairs.len() / 7].0;

    let sent_before = sim.metrics().messages_sent;
    sim.invoke(origin, |node, ctx| {
        node.start_broadcast(ctx);
    });
    sim.run_until_idle();
    let messages = sim.metrics().messages_sent - sent_before;

    let mut in_range = DeliveryTally::default();
    let mut network = DeliveryTally::default();
    for &(addr, id) in &pairs {
        let node = sim.node(addr).expect("intact run");
        let reached = usize::from(node.broadcasts_delivered > 0);
        network.delivered += reached;
        network.copies += node.broadcast_receipts as usize;
        if range.contains(id) {
            in_range.targets += 1;
            in_range.delivered += reached;
        }
    }
    MulticastRow {
        overlay: "Flooding".to_string(),
        scope_fraction: fraction,
        tally: in_range,
        duplicate_factor: network.duplicate_factor(),
        messages,
    }
}

#[cfg(test)]
impl MulticastComparison {
    /// All rows of one overlay.
    pub(crate) fn overlay_rows(&self, overlay: &str) -> Vec<&MulticastRow> {
        self.rows.iter().filter(|r| r.overlay == overlay).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparison() -> MulticastComparison {
        compare_multicast(&MulticastParams::new(150, 41))
    }

    #[test]
    fn both_overlays_measured_at_every_scope() {
        let c = comparison();
        assert_eq!(c.rows.len(), 6);
        assert_eq!(c.overlay_rows("TreeP").len(), 3);
        assert_eq!(c.overlay_rows("Flooding").len(), 3);
    }

    #[test]
    fn treep_covers_every_scope_exactly_once() {
        let c = comparison();
        for row in c.overlay_rows("TreeP") {
            assert!(
                (row.tally.coverage_pct() - 100.0).abs() < 1e-9,
                "TreeP coverage {:.1}% at scope {:.0}%",
                row.tally.coverage_pct(),
                row.scope_fraction * 100.0
            );
            assert!(
                (row.duplicate_factor - 1.0).abs() < 1e-9,
                "TreeP duplicate factor {:.2}",
                row.duplicate_factor
            );
        }
    }

    #[test]
    fn treep_beats_flooding_on_messages_per_delivery_at_equal_coverage() {
        let c = comparison();
        for (t, f) in c
            .overlay_rows("TreeP")
            .iter()
            .zip(c.overlay_rows("Flooding"))
        {
            assert_eq!(t.scope_fraction, f.scope_fraction);
            assert!(
                (f.tally.coverage_pct() - 100.0).abs() < 1e-9,
                "flooding with TTL 32 reaches everything"
            );
            let (treep, flooding) = (
                t.tally.per_delivery(t.messages),
                f.tally.per_delivery(f.messages),
            );
            assert!(
                treep < flooding,
                "scope {:.0}%: TreeP {treep:.2} msgs/delivery must beat flooding {flooding:.2}",
                t.scope_fraction * 100.0,
            );
        }
    }

    #[test]
    fn narrower_scopes_cost_treep_fewer_messages() {
        let c = comparison();
        let rows = c.overlay_rows("TreeP");
        // Absolute message cost shrinks with the scope.
        assert!(
            rows[2].messages <= rows[0].messages,
            "quarter scope must cost <= full scope"
        );
    }

    #[test]
    fn table_renders_all_rows() {
        let c = comparison();
        assert_eq!(c.to_table().len(), c.rows.len());
    }

    #[test]
    fn quick_params_actually_reduce_the_run() {
        let quick = MulticastParams::quick(100, 1);
        let full = MulticastParams::new(100, 1);
        assert!(quick.scopes.len() < full.scopes.len());
    }

    #[test]
    fn loss_sweep_reliability_restores_coverage() {
        let sweep = sweep_multicast_loss(&LossSweepParams::smoke(2005));
        assert_eq!(sweep.rows.len(), 4, "2 loss levels x 2 legs");
        sweep.gate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// A sweep that passes the gate: 100 obligations per cell, single-shot
    /// delivery of 80 at 10 % loss.
    fn passing_sweep() -> LossSweep {
        let row = |loss_pct, reliable, delivered, retransmits, acks| LossRow {
            loss_pct,
            reliable,
            tally: DeliveryTally {
                targets: 100,
                delivered,
                copies: delivered,
            },
            data_messages: 200,
            retransmits,
            reroutes: 0,
            acks,
        };
        LossSweep {
            nodes: 150,
            rows: vec![
                row(0.0, false, 100, 0, 0),
                row(0.0, true, 100, 0, 300),
                row(10.0, false, 80, 0, 0),
                row(10.0, true, 100, 40, 300),
            ],
        }
    }

    #[test]
    fn loss_gate_needs_its_acceptance_row() {
        let mut sweep = passing_sweep();
        assert!(sweep.gate().is_ok(), "{:?}", sweep.gate());
        sweep.rows.retain(|r| !(r.loss_pct == 10.0 && r.reliable));
        let err = sweep.gate().unwrap_err();
        assert_eq!(err, "no row at 10% loss, reliable: true");
    }

    #[test]
    fn loss_gate_names_the_check_that_failed() {
        let mut sweep = passing_sweep();
        sweep.rows[3].tally.copies += 1;
        let err = sweep.gate().unwrap_err();
        let check = "rel.tally.duplicate_factor() == 1.0; rel = LossRow {";
        assert!(err.starts_with(check), "{err}");
    }

    #[test]
    fn loss_sweep_table_renders_every_row() {
        let sweep = sweep_multicast_loss(&LossSweepParams {
            loss_levels: vec![0.0],
            probes: 2,
            ..LossSweepParams::new(80, 3)
        });
        assert_eq!(sweep.to_table().len(), sweep.rows.len());
        assert!(sweep.row(50.0, true).is_none());
    }
}
