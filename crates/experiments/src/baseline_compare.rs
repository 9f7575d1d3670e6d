//! TreeP vs Chord vs flooding under identical lookup workloads.
//!
//! The paper motivates TreeP against structured DHTs (Chord et al.) and
//! unstructured flooding networks (Gnutella et al.). This ablation runs the
//! same lookup workload over all three overlays — intact and after failing a
//! fraction of the nodes — and reports success rate, mean hops, and messages
//! per lookup.

use crate::runner::{delta, Scenario};
use analysis::{ratio, Cell, Column, Table};
use baselines::{ChordBuilder, FloodingBuilder};
use simnet::{NodeAddr, SimDuration, Simulation};
use treep::{NodeId, NodeStats, RoutingAlgorithm, TreePNode};
use workloads::{CapabilityDistribution, LookupWorkload, TopologyBuilder};

/// One overlay measured at one failure level.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayRow {
    /// Overlay name ("TreeP", "Chord", "Flooding").
    pub overlay: String,
    /// Fraction of the population failed before the lookups were issued.
    pub failed_fraction: f64,
    /// Number of lookups issued.
    pub lookups: usize,
    /// Percentage of lookups that resolved (0–100).
    pub success_pct: f64,
    /// Mean hops of the successful lookups.
    pub mean_hops: f64,
    /// Lookup-attributable overlay messages per issued lookup.
    pub messages_per_lookup: f64,
}

/// The full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayComparison {
    /// Population size shared by the three overlays.
    pub nodes: usize,
    /// One row per (overlay, failure level).
    pub rows: Vec<OverlayRow>,
}

impl OverlayComparison {
    /// All rows of one overlay.
    pub fn overlay_rows(&self, overlay: &str) -> Vec<&OverlayRow> {
        self.rows.iter().filter(|r| r.overlay == overlay).collect()
    }

    /// Render the comparison as an aligned table.
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("", "overlay", |r: &OverlayRow| Cell::text(&r.overlay)),
            Column::new("", "failed %", |r| {
                Cell::float(r.failed_fraction * 100.0, 0, 0)
            }),
            Column::new("", "lookups", |r| r.lookups.into()),
            Column::new("", "success %", |r| Cell::float(r.success_pct, 1, 1)),
            Column::new("", "mean hops", |r| Cell::float(r.mean_hops, 2, 2)),
            Column::new("", "msgs/lookup", |r| {
                Cell::float(r.messages_per_lookup, 1, 1)
            }),
        ];
        let title = format!("Overlay comparison (n = {})", self.nodes);
        Table::of(title, &columns, &self.rows)
    }
}

/// Run the comparison for the given population size, failure levels and
/// lookup count per level.
pub fn compare_overlays(
    nodes: usize,
    seed: u64,
    failure_fractions: &[f64],
    lookups: usize,
) -> OverlayComparison {
    let mut rows = Vec::new();
    for &fraction in failure_fractions {
        rows.push(measure_treep(nodes, seed, fraction, lookups));
        rows.push(measure_chord(nodes, seed, fraction, lookups));
        rows.push(measure_flooding(nodes, seed, fraction, lookups));
    }
    OverlayComparison { nodes, rows }
}

fn fail_fraction<P: simnet::Protocol>(
    sim: &mut Simulation<P>,
    pairs: &[(NodeAddr, NodeId)],
    fraction: f64,
    keep: NodeAddr,
) -> Vec<(NodeAddr, NodeId)> {
    let victims = ((pairs.len() as f64) * fraction).round() as usize;
    let mut failed = 0usize;
    let mut candidates: Vec<NodeAddr> = pairs.iter().map(|p| p.0).filter(|a| *a != keep).collect();
    // Deterministic victim choice: every third candidate, wrapping, until the
    // quota is reached (the comparison cares about identical failure counts,
    // not identical victims, across overlays).
    let mut idx = 0usize;
    while failed < victims && !candidates.is_empty() {
        let victim = candidates.remove(idx % candidates.len().max(1));
        sim.fail_node(victim);
        failed += 1;
        idx += 2;
    }
    sim.run_for(SimDuration::from_millis(10));
    pairs
        .iter()
        .filter(|(a, _)| sim.is_alive(*a))
        .copied()
        .collect()
}

fn measure_treep(nodes: usize, seed: u64, fraction: f64, lookups: usize) -> OverlayRow {
    let config = {
        let mut c = treep::TreePConfig::paper_case_fixed();
        c.lookup_timeout = SimDuration::from_secs(2);
        c
    };
    let builder = TopologyBuilder::new(nodes)
        .with_config(config)
        .with_capabilities(CapabilityDistribution::Heterogeneous);
    let mut sc = Scenario::build(&builder, seed);
    let pairs = sc.topo.pairs();
    let alive = fail_fraction(&mut sc.sim, &pairs, fraction, pairs[0].0);
    // The whole failure fraction lands at once (unlike the gradual churn of
    // the Section IV runner), so give the self-maintenance protocol time to
    // expire the dead entries (entry_ttl) and re-run the elections that
    // repair the hierarchy before measuring.
    sc.sim.run_for(SimDuration::from_secs(6));

    let lookup_messages = |s: &NodeStats| [s.total_sent() - s.maintenance_sent()];
    let sent_before = sc.sum(lookup_messages);
    let workload = LookupWorkload::new(lookups);
    let mut rng = sc.sim.rng_mut().fork();
    let batches = workload.generate(&alive, &mut rng);
    for batch in &batches {
        sc.sim.invoke(batch.source, |node, ctx| {
            // NGSA is the variant the paper positions for disrupted
            // networks (fall-back paths carried in the request); the
            // failure rows of this comparison are exactly that regime.
            node.start_lookup(batch.target, RoutingAlgorithm::NonGreedyFallback, ctx);
        });
    }
    sc.sim.run_for(SimDuration::from_millis(2_500));

    let outcomes = sc.drain(TreePNode::drain_lookup_outcomes);
    let hops: Vec<f64> = outcomes
        .iter()
        .flat_map(|(_, _, outcomes)| outcomes)
        .filter(|o| o.status.is_success())
        .map(|o| o.hops as f64)
        .collect();
    let [messages] = delta(sc.sum(lookup_messages), sent_before);
    finish_row(
        "TreeP",
        fraction,
        batches.len(),
        hops.len(),
        &hops,
        messages,
    )
}

fn measure_chord(nodes: usize, seed: u64, fraction: f64, lookups: usize) -> OverlayRow {
    let (mut sim, pairs) = ChordBuilder::new(nodes).build_simulation(seed);
    sim.run_for(SimDuration::from_secs(1));
    let alive = fail_fraction(&mut sim, &pairs, fraction, pairs[0].0);
    sim.run_for(SimDuration::from_secs(2));

    let forwarded_before: u64 = alive
        .iter()
        .filter_map(|&(a, _)| sim.node(a))
        .map(|n| n.forwarded)
        .sum();
    let workload = LookupWorkload::new(lookups);
    let mut rng = sim.rng_mut().fork();
    let batches = workload.generate(&alive, &mut rng);
    for batch in &batches {
        sim.invoke(batch.source, |node, ctx| {
            node.start_lookup(batch.target, ctx);
        });
    }
    sim.run_for(SimDuration::from_millis(2_500));

    let mut successes = 0usize;
    let mut hops = Vec::new();
    for &(addr, _) in &alive {
        if let Some(node) = sim.node_mut(addr) {
            for o in node.drain_lookup_outcomes() {
                if o.found {
                    successes += 1;
                    hops.push(o.hops as f64);
                }
            }
        }
    }
    let forwarded_after: u64 = alive
        .iter()
        .filter_map(|&(a, _)| sim.node(a))
        .map(|n| n.forwarded)
        .sum();
    // Each lookup also costs the origin's initial send and the answer.
    let messages = (forwarded_after - forwarded_before) + 2 * batches.len() as u64;
    finish_row("Chord", fraction, batches.len(), successes, &hops, messages)
}

fn measure_flooding(nodes: usize, seed: u64, fraction: f64, lookups: usize) -> OverlayRow {
    let (mut sim, pairs) = FloodingBuilder::new(nodes).build_simulation(seed);
    sim.run_until_idle();
    let alive = fail_fraction(&mut sim, &pairs, fraction, pairs[0].0);

    let forwarded_before: u64 = alive
        .iter()
        .filter_map(|&(a, _)| sim.node(a))
        .map(|n| n.forwarded)
        .sum();
    let workload = LookupWorkload::new(lookups);
    let mut rng = sim.rng_mut().fork();
    let batches = workload.generate(&alive, &mut rng);
    let mut initial_fanout = 0u64;
    for batch in &batches {
        let fanout = sim
            .node(batch.source)
            .map(|n| n.neighbors().len() as u64)
            .unwrap_or(0);
        initial_fanout += fanout;
        sim.invoke(batch.source, |node, ctx| {
            node.start_lookup(batch.target, ctx);
        });
    }
    sim.run_for(SimDuration::from_millis(2_500));

    let mut successes = 0usize;
    let mut hops = Vec::new();
    for &(addr, _) in &alive {
        if let Some(node) = sim.node_mut(addr) {
            for o in node.drain_lookup_outcomes() {
                if o.found {
                    successes += 1;
                    hops.push(o.hops as f64);
                }
            }
        }
    }
    let forwarded_after: u64 = alive
        .iter()
        .filter_map(|&(a, _)| sim.node(a))
        .map(|n| n.forwarded)
        .sum();
    let messages = (forwarded_after - forwarded_before) + initial_fanout + successes as u64;
    finish_row(
        "Flooding",
        fraction,
        batches.len(),
        successes,
        &hops,
        messages,
    )
}

fn finish_row(
    overlay: &str,
    fraction: f64,
    issued: usize,
    successes: usize,
    hops: &[f64],
    messages: u64,
) -> OverlayRow {
    OverlayRow {
        overlay: overlay.to_string(),
        failed_fraction: fraction,
        lookups: issued,
        success_pct: ratio(successes as f64 * 100.0, issued as f64, 0.0),
        mean_hops: ratio(hops.iter().sum(), hops.len() as f64, 0.0),
        messages_per_lookup: ratio(messages as f64, issued as f64, 0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparison() -> OverlayComparison {
        compare_overlays(120, 51, &[0.0, 0.3], 25)
    }

    #[test]
    fn every_overlay_is_measured_at_every_failure_level() {
        let c = comparison();
        assert_eq!(c.rows.len(), 6);
        for overlay in ["TreeP", "Chord", "Flooding"] {
            assert_eq!(c.overlay_rows(overlay).len(), 2, "{overlay}");
        }
    }

    #[test]
    fn intact_overlays_resolve_most_lookups() {
        let c = comparison();
        for row in c.rows.iter().filter(|r| r.failed_fraction == 0.0) {
            assert!(
                row.success_pct >= 80.0,
                "{} resolved only {:.0}% of lookups on an intact overlay",
                row.overlay,
                row.success_pct
            );
        }
    }

    #[test]
    fn flooding_costs_far_more_messages_than_treep() {
        let c = comparison();
        let treep = c.overlay_rows("TreeP")[0].messages_per_lookup;
        let flooding = c.overlay_rows("Flooding")[0].messages_per_lookup;
        assert!(
            flooding > treep * 3.0,
            "flooding ({flooding:.1} msgs/lookup) must dwarf TreeP ({treep:.1})"
        );
    }

    #[test]
    fn structured_overlays_stay_logarithmic() {
        let c = comparison();
        for overlay in ["TreeP", "Chord"] {
            let row = c.overlay_rows(overlay)[0];
            assert!(
                row.mean_hops <= 12.0,
                "{overlay} mean hops {}",
                row.mean_hops
            );
        }
    }

    #[test]
    fn table_renders_all_rows() {
        let c = comparison();
        let table = c.to_table();
        assert_eq!(table.len(), c.rows.len());
    }
}
