//! The routing-table accounting of Section III.e.
//!
//! The paper derives analytic bounds for the routing-table size and the
//! number of actively maintained connections per node (`l0 + h` entries for a
//! pure level-0 node, `l0 + li + Li + ci + ca + da + h − i` for a level-`i`
//! node). A churn run records both quantities for every node of the overlay
//! it built, before its first failure ([`BuiltTables`]); this module reports
//! them per level, pooled over the runs of K seeds, with the share of nodes
//! within each bound held against the paper's 100 %.

use crate::figures::{compare, Reading, ReadingRow};
use crate::runner::ChurnRunResult;
use analysis::{Cell, Column, SeriesSet, SummaryStats, Table};
use simnet::Simulation;
use std::collections::BTreeMap;
use treep::{analytic_table_bound, TreePConfig, TreePNode, MAX_LEVEL0_CONNECTIONS};
use workloads::BuiltTopology;

/// Every node's routing table right after the build, before any failure,
/// by maximum level: the sample Section III.e is read from.
#[derive(Debug, Clone, Default)]
pub(crate) struct BuiltTables {
    /// Height of the built hierarchy.
    height: u32,
    levels: BTreeMap<u32, LevelAccumulator>,
}

impl BuiltTables {
    /// Read every built node of `topo` off `sim`.
    pub(crate) fn record(
        sim: &Simulation<TreePNode>,
        topo: &BuiltTopology,
        config: &TreePConfig,
    ) -> BuiltTables {
        let mut tables = BuiltTables {
            height: topo.height,
            levels: BTreeMap::new(),
        };
        for built in &topo.nodes {
            let Some(node) = sim.node(built.addr) else {
                continue;
            };
            let acc = tables.levels.entry(node.max_level()).or_default();
            acc.table_sizes.push(node.tables().sizes().total() as f64);
            acc.bounds.push(analytic_table_bound(node) as f64);
            acc.connections.push(node.active_connections() as f64);
            acc.connection_bounds
                .push(connection_bound(config, node.max_level()));
        }
        tables
    }

    /// Add the nodes of `other` to this sample.
    fn pool(&mut self, other: &BuiltTables) {
        self.height = self.height.max(other.height);
        for (level, acc) in &other.levels {
            let pooled = self.levels.entry(*level).or_default();
            pooled.table_sizes.extend(&acc.table_sizes);
            pooled.bounds.extend(&acc.bounds);
            pooled.connections.extend(&acc.connections);
            pooled.connection_bounds.extend(&acc.connection_bounds);
        }
    }

    /// One row per maximum level, lowest first.
    fn rows(&self) -> Vec<LevelTableRow> {
        let row = |(&level, acc): (&u32, &LevelAccumulator)| LevelTableRow {
            level,
            nodes: acc.table_sizes.len(),
            table_size: SummaryStats::of(&acc.table_sizes),
            analytic_bound: SummaryStats::of(&acc.bounds),
            active_connections: SummaryStats::of(&acc.connections),
            within_table_bound: share_within(&acc.table_sizes, &acc.bounds),
            within_connection_bound: share_within(&acc.connections, &acc.connection_bounds),
        };
        self.levels.iter().map(row).collect()
    }
}

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
    /// Per level, the share of nodes within each bound against the paper's
    /// 100 %, median over the seeds.
    pub readings: Vec<ReadingRow>,
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

/// The Section III.e report of the overlays `runs` built (runs of one
/// configuration), every level's nodes pooled over the runs.
pub fn routing_table_report(runs: &[&ChurnRunResult]) -> RoutingTableReport {
    let mut pooled = BuiltTables::default();
    for run in runs {
        pooled.pool(&run.tables);
    }
    let rows = pooled.rows();
    let per_seed: Vec<SeriesSet> = runs
        .iter()
        .map(|run| {
            let mut set = SeriesSet::new();
            for row in run.tables.rows() {
                let level = f64::from(row.level);
                set.push("tables", level, row.within_table_bound * 100.0);
                set.push("conns", level, row.within_connection_bound * 100.0);
            }
            set
        })
        .collect();
    let readings: Vec<Reading> = rows
        .iter()
        .flat_map(|row| {
            ["tables", "conns"].map(|series| (series, f64::from(row.level), 100.0, 100.0))
        })
        .collect();
    let first = runs.first().expect("a report of at least one run");
    let figure = format!("III.e {}", first.policy_label);
    RoutingTableReport {
        policy_label: first.policy_label.clone(),
        nodes: first.nodes,
        height: pooled.height,
        rows,
        readings: compare(&figure, true, &readings, &per_seed),
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

#[derive(Debug, Clone, Default)]
struct LevelAccumulator {
    table_sizes: Vec<f64>,
    bounds: Vec<f64>,
    connections: Vec<f64>,
    connection_bounds: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ExperimentParams;
    use crate::runner::run_churn_experiment;

    /// The report of a run that measures only the intact overlay.
    fn report() -> RoutingTableReport {
        let mut params = ExperimentParams::quick(150, 32).with_lookups_per_step(5);
        params.churn.stop_at_surviving_fraction = 1.0;
        routing_table_report(&[&run_churn_experiment(&params)])
    }

    #[test]
    fn report_covers_every_level() {
        let r = report();
        assert_eq!(r.nodes, 150);
        assert!(r.height >= 2);
        assert_eq!(r.rows.first().unwrap().level, 0);
        let total: usize = r.rows.iter().map(|row| row.nodes).sum();
        assert_eq!(total, 150);
        assert_eq!(r.readings.len(), 2 * r.rows.len());
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
