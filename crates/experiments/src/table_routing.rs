//! The routing-table accounting of Section III.e.
//!
//! The paper derives analytic bounds for the routing-table size and the
//! number of actively maintained connections per node (`l0 + h` entries for a
//! pure level-0 node, `l0 + li + Li + ci + ca + da + h − i` for a level-`i`
//! node). This experiment measures both quantities per level on a built
//! topology and reports the share of nodes within each bound.

use crate::params::ExperimentParams;
use analysis::{Cell, Column, SummaryStats, Table};
use treep::{analytic_table_bound, TreePConfig, MAX_LEVEL0_CONNECTIONS};
use workloads::TopologyBuilder;

/// Measured table/connection statistics for all nodes whose maximum level is
/// a given value.
#[derive(Debug, Clone)]
pub struct LevelTableRow {
    /// The maximum level this row describes.
    pub level: u32,
    /// Number of nodes at that maximum level.
    pub nodes: usize,
    /// Statistics over the measured total routing-table sizes.
    pub table_size: SummaryStats,
    /// Statistics over the analytic bound evaluated per node.
    pub analytic_bound: SummaryStats,
    /// Statistics over the number of actively maintained connections.
    pub active_connections: SummaryStats,
    /// Fraction of nodes at this level whose routing table holds at most
    /// [`analytic_table_bound`] entries. Values in 0–1.
    pub within_table_bound: f64,
    /// Fraction of nodes at this level whose actively maintained connection
    /// count is at most the Section III.e connection bound — `l0 + 1` for
    /// level-0 nodes, `l0 + ca + 2i + 2` for nodes at level `i > 0` —
    /// evaluated with the configured budgets (`l0 = MAX_LEVEL0_CONNECTIONS`,
    /// `ca = nc`). Values in 0–1.
    pub within_connection_bound: f64,
}

/// The full Section III.e report.
#[derive(Debug, Clone)]
pub struct RoutingTableReport {
    /// Child-policy label of the run.
    pub policy_label: String,
    /// Population size.
    pub nodes: usize,
    /// Height of the built hierarchy.
    pub height: u32,
    /// One row per maximum level, lowest first.
    pub rows: Vec<LevelTableRow>,
}

impl RoutingTableReport {
    /// Render the report as an aligned table (one row per level).
    pub fn to_table(&self) -> Table {
        let columns = [
            Column::new("", "level", |r: &LevelTableRow| r.level.into()),
            Column::new("", "nodes", |r| r.nodes.into()),
            Column::new("", "avg table", |r| Cell::float(r.table_size.mean, 1, 1)),
            Column::new("", "max table", |r| Cell::float(r.table_size.max, 0, 0)),
            Column::new("", "avg bound", |r| {
                Cell::float(r.analytic_bound.mean, 1, 1)
            }),
            Column::new("", "avg active conns", |r| {
                Cell::float(r.active_connections.mean, 1, 1)
            }),
            Column::new("", "tables in bound %", |r| {
                Cell::float(r.within_table_bound * 100.0, 0, 0)
            }),
            Column::new("", "conns in bound %", |r| {
                Cell::float(r.within_connection_bound * 100.0, 0, 0)
            }),
        ];
        let title = format!(
            "Routing-table size per level ({}, n={}, height={})",
            self.policy_label, self.nodes, self.height
        );
        Table::of(title, &columns, &self.rows)
    }
}

/// Build a steady-state topology with `params` and measure the per-level
/// routing-table sizes and active-connection counts.
pub fn routing_table_report(params: &ExperimentParams) -> RoutingTableReport {
    let builder = TopologyBuilder::new(params.nodes)
        .with_config(params.config)
        .with_capabilities(params.capabilities);
    let (sim, topo) = builder.build_simulation(params.seed);

    let mut per_level: std::collections::BTreeMap<u32, LevelAccumulator> =
        std::collections::BTreeMap::new();
    for built in &topo.nodes {
        let Some(node) = sim.node(built.addr) else {
            continue;
        };
        let acc = per_level.entry(node.max_level()).or_default();
        acc.table_sizes.push(node.tables().sizes().total() as f64);
        acc.bounds.push(analytic_table_bound(node) as f64);
        acc.connections.push(node.active_connections() as f64);
        acc.connection_bounds
            .push(connection_bound(&params.config, node.max_level()));
    }

    let rows = per_level
        .into_iter()
        .map(|(level, acc)| LevelTableRow {
            level,
            nodes: acc.table_sizes.len(),
            table_size: SummaryStats::of(&acc.table_sizes),
            analytic_bound: SummaryStats::of(&acc.bounds),
            active_connections: SummaryStats::of(&acc.connections),
            within_table_bound: share_within(&acc.table_sizes, &acc.bounds),
            within_connection_bound: share_within(&acc.connections, &acc.connection_bounds),
        })
        .collect();

    RoutingTableReport {
        policy_label: params.policy_label().to_string(),
        nodes: params.nodes,
        height: topo.height,
        rows,
    }
}

/// The Section III.e actively-maintained-connection bound, evaluated with the
/// configured budgets: `l0 + 1` for level-0 nodes and `l0 + ca + 2i + 2` for
/// nodes at level `i > 0` (`da = 2` direct bus neighbours per level the node
/// belongs to).
fn connection_bound(config: &TreePConfig, level: u32) -> f64 {
    let l0 = MAX_LEVEL0_CONNECTIONS as f64;
    if level == 0 {
        l0 + 1.0
    } else {
        let ca = config.child_policy.upper_bound() as f64;
        l0 + ca + 2.0 * level as f64 + 2.0
    }
}

/// The fraction of `values` at most their paired `bounds`.
fn share_within(values: &[f64], bounds: &[f64]) -> f64 {
    let within = values.iter().zip(bounds).filter(|(v, b)| v <= b).count();
    within as f64 / values.len().max(1) as f64
}

#[derive(Default)]
struct LevelAccumulator {
    table_sizes: Vec<f64>,
    bounds: Vec<f64>,
    connections: Vec<f64>,
    connection_bounds: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> RoutingTableReport {
        routing_table_report(&ExperimentParams::quick(150, 32))
    }

    #[test]
    fn report_covers_every_level() {
        let r = report();
        assert_eq!(r.nodes, 150);
        assert!(r.height >= 2);
        assert_eq!(r.rows.first().unwrap().level, 0);
        let total: usize = r.rows.iter().map(|row| row.nodes).sum();
        assert_eq!(total, 150);
    }

    #[test]
    fn level0_nodes_maintain_few_connections() {
        let r = report();
        let level0 = &r.rows[0];
        // Section III.e: a level-0 node actively maintains only l0 + 1
        // connections; with the configured level-0 budget of 8 that must stay
        // well under 15 even with gossip churn between pruning ticks.
        assert!(
            level0.active_connections.mean < 15.0,
            "level-0 nodes maintain {:.1} connections on average",
            level0.active_connections.mean
        );
        // The full table (including the replicated superior list) stays small
        // and independent of the population size.
        assert!(
            level0.table_size.mean < 40.0,
            "level-0 routing tables ballooned to {:.1} entries",
            level0.table_size.mean
        );
    }

    #[test]
    fn upper_levels_have_more_connections_than_level0() {
        let r = report();
        if r.rows.len() >= 2 {
            let l0 = r.rows[0].active_connections.mean;
            let upper = r.rows.last().unwrap().active_connections.mean;
            assert!(
                upper >= l0,
                "parents maintain at least as many active connections as leaves"
            );
        }
    }

    #[test]
    fn table_rendering_has_one_row_per_level() {
        let r = report();
        let rendered = r.to_table().render();
        // title + header + separator + one line per level
        assert_eq!(rendered.lines().count(), 3 + r.rows.len());
    }
}
