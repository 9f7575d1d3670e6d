//! Figure P — subscription-pruned topic publish vs flooding broadcast
//! across subscriber fan-out tiers.
//!
//! A topic publish rides the scoped-multicast spine, but its descent is
//! pruned by the subscription filters the tree summarises upward: branches
//! whose recorded filters provably hold no subscribers are skipped. The
//! interesting axis is the **fan-out** — how many live nodes subscribe to
//! the published topic. At fan-out 1 the publish should collapse to
//! little more than a root-to-subscriber path; at fan-out ≈ n it degrades
//! gracefully to the plain scoped broadcast. A flooding overlay spends the
//! same ~n·degree messages at every tier, so its cost *per interested
//! subscriber* explodes as fan-out shrinks.
//!
//! Per `(overlay, fan-out)` cell the driver reports:
//!
//! * **coverage %** — subscriber delivery obligations met (every live
//!   subscriber must receive every publish);
//! * **duplicate factor** — copies per met obligation (1.0 = exactly
//!   once, structural for TreeP);
//! * **messages / delivery** — overlay messages spent per met obligation,
//!   the headline number the pruning must win;
//! * **branches pruned** (TreeP only) — fan-out edges skipped on filter
//!   evidence.

use crate::runner::{delta, DeliveryTally, Probe, Scenario, FLOOD_TTL};
use analysis::{Cell, Column, Table};
use baselines::FloodingBuilder;
use simnet::{NodeAddr, SimDuration};
use treep::{topic_key, MessageKind, NodeStats, TreePConfig, TreePNode};
use workloads::TopologyBuilder;

/// Virtual time after the publishes before deliveries are tallied.
const DRAIN: SimDuration = SimDuration::from_secs(10);

/// Parameters of one pub/sub comparison run.
#[derive(Debug, Clone)]
pub struct PubSubParams {
    /// Population size shared by both overlays.
    pub nodes: usize,
    /// Seed for topology construction and subscriber/source placement.
    pub seed: u64,
    /// Subscriber fan-out tiers to measure (clamped to the live
    /// population; duplicate tiers after clamping collapse into one).
    pub fanouts: Vec<usize>,
    /// Publishes issued per cell, each from a random live source.
    pub publishes: usize,
}

impl PubSubParams {
    /// Default comparison: fan-out tiers 10⁰–10⁴ (clamped to `nodes`).
    pub fn new(nodes: usize, seed: u64) -> Self {
        PubSubParams {
            nodes,
            seed,
            fanouts: vec![1, 10, 100, 1_000, 10_000],
            publishes: 6,
        }
    }

    /// Bounded profile for the CI gate (`reproduce --pubsub --smoke`):
    /// small population, three tiers, fewer publishes.
    pub fn smoke(seed: u64) -> Self {
        PubSubParams {
            fanouts: vec![1, 10, 100],
            publishes: 4,
            ..Self::new(150, seed)
        }
    }
}

/// One overlay measured at one fan-out tier.
#[derive(Debug, Clone, PartialEq)]
pub struct PubSubRow {
    /// Overlay name ("TreeP" or "Flooding").
    pub overlay: String,
    /// Live subscribers of the published topic in this cell.
    pub subscribers: usize,
    /// The delivery obligations (`subscribers × publishes`), how many were
    /// met and with how many copies (1.0 per obligation = exactly once).
    pub tally: DeliveryTally,
    /// Overlay messages the publishes sent.
    pub messages: u64,
    /// Fan-out edges skipped on subscription-filter evidence (TreeP only;
    /// 0 for the flooding baseline, which cannot prune).
    pub branches_pruned: u64,
}

impl PubSubRow {
    /// Overlay messages sent per met obligation.
    pub fn messages_per_delivery(&self) -> f64 {
        self.tally.per_delivery(self.messages)
    }
}

/// The full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct PubSubComparison {
    /// Population size shared by both overlays.
    pub nodes: usize,
    /// One row per (overlay, fan-out tier).
    pub rows: Vec<PubSubRow>,
}

impl PubSubComparison {
    /// All rows of one overlay, in tier order.
    pub fn overlay_rows(&self, overlay: &str) -> Vec<&PubSubRow> {
        self.rows.iter().filter(|r| r.overlay == overlay).collect()
    }

    /// The `reproduce --pubsub --smoke` gate, the exactly-once and
    /// messages-per-delivery criteria of the TU-Darmstadt prefix-multicast
    /// report at every fan-out tier; `Ok` has one line per tier.
    pub fn gate(&self) -> Result<String, String> {
        let (treep, flooding) = (self.overlay_rows("TreeP"), self.overlay_rows("Flooding"));
        ensure!(!treep.is_empty() && treep.len() == flooding.len());
        let mut summary = Vec::new();
        for (t, f) in treep.into_iter().zip(flooding) {
            ensure!(t.subscribers == f.subscribers, t, f);
            ensure!(t.tally.coverage_pct() == 100.0, t);
            ensure!(t.tally.duplicate_factor() == 1.0, t);
            ensure!(t.messages_per_delivery() < f.messages_per_delivery(), t, f);
            let (coverage, dup) = (t.tally.coverage_pct(), t.tally.duplicate_factor());
            let (fanout, pruned) = (t.subscribers, t.branches_pruned);
            let (mpd, flooding) = (t.messages_per_delivery(), f.messages_per_delivery());
            summary.push(format!(
                "fanout {fanout}: coverage {coverage:.1}%, dup factor {dup:.2}, \
                 {mpd:.2} msgs/delivery vs flooding {flooding:.2} ({pruned} branches pruned)"
            ));
        }
        Ok(summary.join("\n#   "))
    }

    /// The comparison as a table; its JSON is `BENCH_pubsub.json`.
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("overlay", "overlay", |r: &PubSubRow| Cell::text(&r.overlay)),
            Column::new("subscribers", "fanout", |r| r.subscribers.into()),
            Column::new("targets", "", |r| r.tally.targets.into()),
            Column::new("delivered", "", |r| r.tally.delivered.into()),
            Column::new("coverage_pct", "coverage %", |r| {
                Cell::float(r.tally.coverage_pct(), 2, 1)
            }),
            Column::new("duplicate_factor", "dup factor", |r| {
                Cell::float(r.tally.duplicate_factor(), 3, 2)
            }),
            Column::new("messages_per_delivery", "msgs/delivery", |r| {
                Cell::float(r.messages_per_delivery(), 3, 2)
            }),
            Column::new("branches_pruned", "pruned", |r| r.branches_pruned.into()),
        ];
        let title = format!(
            "Figure P — subscription-pruned publish vs flooding (n = {})",
            self.nodes
        );
        Table::of(title, &columns, &self.rows)
            .meta("bench", Cell::text("pubsub"))
            .meta("nodes", self.nodes)
    }
}

/// Run the comparison: every fan-out tier on both overlays.
pub fn compare_pubsub(params: &PubSubParams) -> PubSubComparison {
    let mut tiers: Vec<usize> = params
        .fanouts
        .iter()
        .map(|&s| s.clamp(1, params.nodes))
        .collect();
    tiers.dedup();
    let mut rows = Vec::new();
    for &fanout in &tiers {
        rows.push(measure_treep(params, fanout));
        rows.push(measure_flooding(params, fanout));
    }
    PubSubComparison {
        nodes: params.nodes,
        rows,
    }
}

fn measure_treep(params: &PubSubParams, fanout: usize) -> PubSubRow {
    let config = TreePConfig::paper_case_fixed().with_pubsub();
    let builder = TopologyBuilder::new(params.nodes).with_config(config);
    let mut sc = Scenario::build(&builder, params.seed);
    let topic = topic_key(sc.topo.config.space, "figure-p");
    let alive = sc.alive();
    let mut rng = sc.sim.rng_mut().fork();

    // Subscriber placement: `fanout` distinct live nodes.
    let fanout = fanout.min(alive.len());
    let subscribers: Vec<NodeAddr> = rng
        .sample_indices(alive.len(), fanout)
        .into_iter()
        .map(|i| alive[i].0)
        .collect();
    for &addr in &subscribers {
        sc.sim.invoke(addr, move |node, ctx| {
            node.start_subscribe(topic, ctx);
        });
    }
    // Settle: the event-driven filter ascent.
    sc.sim.run_for(SimDuration::from_secs(3));

    let counters = |s: &NodeStats| {
        [
            s.sent.get(MessageKind::MulticastDown),
            s.pubsub_branches_pruned,
        ]
    };
    let before = sc.sum(counters);
    let mut probes: Vec<Probe> = Vec::with_capacity(params.publishes);
    for i in 0..params.publishes {
        let source = alive[rng.gen_range_usize(0..alive.len())].0;
        let payload = format!("figure-p-{i}").into_bytes();
        if let Some(request_id) = sc.sim.invoke(source, move |node, ctx| {
            node.start_publish(topic, payload, ctx)
        }) {
            probes.push((source, request_id));
        }
    }
    sc.sim.run_for(DRAIN);

    // Every subscriber owes every publish, a fallen one included.
    let receipts = sc.drain(|node: &mut TreePNode| -> Vec<Probe> {
        let deliveries = node.drain_topic_deliveries();
        let key = |d: treep::TopicDelivery| (d.origin.addr, d.request_id);
        deliveries.into_iter().map(key).collect()
    });
    let mut tally = DeliveryTally::default();
    for addr in &subscribers {
        let received = receipts.iter().find(|r| r.0 == *addr);
        tally.record(probes.iter().copied(), received.map_or(&[], |r| &r.2));
    }
    let [messages, branches_pruned] = delta(sc.sum(counters), before);
    PubSubRow {
        overlay: "TreeP".to_string(),
        subscribers: subscribers.len(),
        tally,
        messages,
        branches_pruned,
    }
}

fn measure_flooding(params: &PubSubParams, fanout: usize) -> PubSubRow {
    let (mut sim, pairs) = FloodingBuilder::new(params.nodes)
        .with_ttl(FLOOD_TTL)
        .build_simulation(params.seed);
    sim.run_until_idle();
    let mut rng = sim.rng_mut().fork();
    let fanout = fanout.min(pairs.len());
    let subscribers: Vec<NodeAddr> = rng
        .sample_indices(pairs.len(), fanout)
        .into_iter()
        .map(|i| pairs[i].0)
        .collect();

    let sent_before = sim.metrics().messages_sent;
    for _ in 0..params.publishes {
        let source = pairs[rng.gen_range_usize(0..pairs.len())].0;
        sim.invoke(source, |node, ctx| {
            node.start_broadcast(ctx);
        });
        sim.run_until_idle();
    }
    let messages = sim.metrics().messages_sent - sent_before;

    // A flooding overlay has no notion of a topic: every broadcast reaches
    // everyone, and only the copies landing on the `fanout` notional
    // subscribers count as useful.
    let mut tally = DeliveryTally {
        targets: subscribers.len() * params.publishes,
        ..DeliveryTally::default()
    };
    for &addr in &subscribers {
        let node = sim.node(addr).expect("intact run");
        tally.delivered += (node.broadcasts_delivered as usize).min(params.publishes);
        tally.copies += node.broadcast_receipts as usize;
    }
    PubSubRow {
        overlay: "Flooding".to_string(),
        subscribers: subscribers.len(),
        tally,
        messages,
        branches_pruned: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparison() -> PubSubComparison {
        compare_pubsub(&PubSubParams::smoke(2005))
    }

    #[test]
    fn every_tier_measured_on_both_overlays() {
        let c = comparison();
        assert_eq!(c.rows.len(), 6, "3 tiers x 2 overlays");
        assert_eq!(c.overlay_rows("TreeP").len(), 3);
        assert_eq!(c.overlay_rows("Flooding").len(), 3);
    }

    #[test]
    fn treep_delivers_every_publish_to_every_subscriber_exactly_once() {
        let c = comparison();
        for row in c.overlay_rows("TreeP") {
            assert!(
                (row.tally.coverage_pct() - 100.0).abs() < 1e-9,
                "fanout {}: coverage {:.1}%",
                row.subscribers,
                row.tally.coverage_pct()
            );
            assert!(
                (row.tally.duplicate_factor() - 1.0).abs() < 1e-9,
                "fanout {}: duplicate factor {:.2}",
                row.subscribers,
                row.tally.duplicate_factor()
            );
        }
    }

    #[test]
    fn pruned_publish_beats_flooding_at_every_fanout() {
        comparison().gate().unwrap_or_else(|e| panic!("{e}"));
    }

    /// One tier, fan-out 10, four publishes: TreeP meets its 40 obligations
    /// once each for 90 messages, flooding for 4 000.
    fn passing_comparison() -> PubSubComparison {
        let row = |overlay: &str, copies, messages| PubSubRow {
            overlay: overlay.to_string(),
            subscribers: 10,
            tally: DeliveryTally {
                targets: 40,
                delivered: 40,
                copies,
            },
            messages,
            branches_pruned: 0,
        };
        PubSubComparison {
            nodes: 150,
            rows: vec![row("TreeP", 40, 90), row("Flooding", 400, 4_000)],
        }
    }

    #[test]
    fn pubsub_gate_needs_its_acceptance_row() {
        let mut c = passing_comparison();
        assert!(c.gate().is_ok(), "{:?}", c.gate());
        c.rows.pop();
        let err = c.gate().unwrap_err();
        assert_eq!(err, "!treep.is_empty() && treep.len() == flooding.len()");
    }

    #[test]
    fn pubsub_gate_names_the_check_that_failed() {
        let mut c = passing_comparison();
        c.rows[0].messages = 4_000;
        let err = c.gate().unwrap_err();
        let check = "t.messages_per_delivery() < f.messages_per_delivery(); t = PubSubRow {";
        assert!(err.starts_with(check), "{err}");
    }

    #[test]
    fn sparse_fanout_actually_prunes_branches() {
        let c = comparison();
        let rows = c.overlay_rows("TreeP");
        assert!(
            rows[0].branches_pruned > 0,
            "fanout 1 must skip empty branches, pruned {}",
            rows[0].branches_pruned
        );
        // Narrower interest must not cost more messages in total.
        assert!(rows[0].messages <= rows[2].messages);
    }

    #[test]
    fn table_renders_all_rows_and_tiers_collapse_when_clamped() {
        let c = comparison();
        assert_eq!(c.to_table().len(), c.rows.len());
        let clamped = compare_pubsub(&PubSubParams {
            fanouts: vec![200, 400],
            publishes: 1,
            ..PubSubParams::smoke(3)
        });
        assert_eq!(clamped.rows.len(), 2, "both tiers clamp to n and collapse");
    }

    #[test]
    fn zero_delivery_row_renders_to_well_formed_json() {
        // Nothing delivered: messages per delivery is infinite, which JSON
        // has no number for, and the overlay name wants escaping.
        let comparison = PubSubComparison {
            nodes: 10,
            rows: vec![PubSubRow {
                overlay: "Tree\"P\\".to_string(),
                subscribers: 3,
                tally: DeliveryTally {
                    targets: 12,
                    ..DeliveryTally::default()
                },
                messages: 40,
                branches_pruned: 0,
            }],
        };
        assert!(comparison.rows[0].messages_per_delivery().is_infinite());
        let json = comparison.to_table().to_json();
        analysis::validate_json(&json).unwrap_or_else(|e| panic!("{e}:\n{json}"));
        assert!(json.contains("\"overlay\": \"Tree\\\"P\\\\\", \"subscribers\": 3"));
        assert!(json.contains("\"duplicate_factor\": 0.000, \"messages_per_delivery\": null"));
    }
}
