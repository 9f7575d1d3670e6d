//! Whole-topology audits.
//!
//! The routing decisions of TreeP are purely local, but tests, the topology
//! builder and the Section III.e experiment need a *global* view: is the
//! hierarchy well formed, are the analytic routing-table-size formulas
//! respected, what does the level population look like? This module computes
//! those properties from a collection of node snapshots.

use crate::id::NodeId;
use crate::node::TreePNode;
use crate::tables::MIN_LEVEL0_CONNECTIONS;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Summary of the hierarchy across a set of nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyAudit {
    /// Number of nodes inspected.
    pub nodes: usize,
    /// Number of nodes per level (level 0 counts every node).
    pub level_population: BTreeMap<u32, usize>,
    /// The height of the hierarchy (highest populated level).
    pub height: u32,
    /// Nodes without a parent entry: one in a single tree, one per tree in
    /// a split hierarchy, none for the nodes on and below a parent cycle.
    pub roots: usize,
    /// The roots below the top level.
    pub orphans: usize,
    /// Connected components of the roots at the top level, linked by their
    /// top-level bus entries. Links count only when the top level is the
    /// configured `height`: below it a root still has a level to be
    /// promoted to, so each one is a tree of its own.
    pub top_components: usize,
    /// Nodes whose parent entry refers to an ID outside the inspected set.
    pub dangling_parents: usize,
    /// Nodes whose parent (an inspected node) sits at or below their own
    /// level: the parent demoted and the child never let go of it.
    pub inverted_parents: usize,
    /// Nodes whose parent (an inspected node) does not hold them as an own
    /// child: the parent refused or dropped the child, and the child still
    /// counts on it.
    pub disowned_children: usize,
    /// Cycles in the parent graph. The nodes on and below a cycle have no
    /// root: an ascent from them never turns into a descent.
    pub parent_cycles: usize,
    /// Parents whose own-children count exceeds their configured maximum.
    pub overfull_parents: usize,
    /// Nodes with fewer than the minimum number of level-0 connections.
    pub under_connected: usize,
    /// Average number of own children over the nodes that have any.
    pub avg_children: f64,
    /// Average number of actively maintained connections per node.
    pub avg_active_connections: f64,
    /// Largest routing table observed (total entries).
    pub max_table_size: usize,
}

impl HierarchyAudit {
    /// True when the audit found no structural problem and the roots form
    /// one top: every root sits at the top level (no orphan), and they are
    /// one connected top bus — one node when the top level is below the
    /// configured `height`, where the protocol would elect a root; any
    /// number of them at `height`, where it stops promoting.
    pub fn is_clean(&self) -> bool {
        self.top_components == 1
            && self.orphans == 0
            && self.dangling_parents == 0
            && self.inverted_parents == 0
            && self.disowned_children == 0
            && self.parent_cycles == 0
            && self.overfull_parents == 0
            && self.under_connected == 0
    }
}

/// Inspect a set of live node snapshots.
pub fn audit<'a, I>(nodes: I) -> HierarchyAudit
where
    I: IntoIterator<Item = &'a TreePNode>,
{
    let nodes: Vec<&TreePNode> = nodes.into_iter().collect();
    let index: BTreeMap<NodeId, usize> =
        nodes.iter().enumerate().map(|(i, n)| (n.id(), i)).collect();
    // The parent graph over the inspected nodes (dangling parents left out).
    let parent_of: Vec<Option<usize>> = nodes
        .iter()
        .map(|n| n.tables().parent().and_then(|p| index.get(&p.id).copied()))
        .collect();
    let mut level_population: BTreeMap<u32, usize> = BTreeMap::new();
    let mut dangling_parents = 0usize;
    let mut inverted_parents = 0usize;
    let mut disowned_children = 0usize;
    let mut overfull_parents = 0usize;
    let mut under_connected = 0usize;
    let mut children_sum = 0usize;
    let mut parents_with_children = 0usize;
    let mut active_sum = 0usize;
    let mut max_table_size = 0usize;
    let mut height = 0u32;

    for (node, parent) in nodes.iter().zip(&parent_of) {
        for lvl in 0..=node.max_level() {
            *level_population.entry(lvl).or_insert(0) += 1;
        }
        height = height.max(node.max_level());

        match (node.tables().parent(), parent) {
            (None, _) => {}
            (Some(_), None) => dangling_parents += 1,
            (Some(_), Some(p)) => {
                inverted_parents += usize::from(nodes[*p].max_level() <= node.max_level());
                disowned_children += usize::from(!nodes[*p].tables().is_own_child(node.id()));
            }
        }

        let own = node.tables().own_children_count();
        if own > 0 {
            children_sum += own;
            parents_with_children += 1;
        }
        if own as u32 > node.max_children() {
            overfull_parents += 1;
        }
        if node.tables().level0_degree() < MIN_LEVEL0_CONNECTIONS
            && nodes.len() > MIN_LEVEL0_CONNECTIONS
        {
            under_connected += 1;
        }
        active_sum += node.active_connections();
        max_table_size = max_table_size.max(node.tables().sizes().total());
    }

    // A root below the top level is an orphan, so both counts wait for the
    // height.
    let parentless = || nodes.iter().filter(|n| n.tables().parent().is_none());
    let roots = parentless().count();
    let orphans = parentless().filter(|n| n.max_level() < height).count();
    // Union-find over the roots at the top level: a bus entry naming
    // another one joins their components, unless a level is left to be
    // promoted to.
    let tops: Vec<&TreePNode> = parentless()
        .filter(|n| n.max_level() == height)
        .copied()
        .collect();
    let top_at: BTreeMap<NodeId, usize> =
        tops.iter().enumerate().map(|(k, n)| (n.id(), k)).collect();
    let mut component: Vec<usize> = (0..tops.len()).collect();
    for (k, top) in tops.iter().enumerate() {
        if top.config().height != height {
            continue;
        }
        for peer in top.tables().level_members(height) {
            if let Some(&j) = top_at.get(&peer.id) {
                let (a, b) = (find(&mut component, k), find(&mut component, j));
                component[a] = b;
            }
        }
    }
    let top_components = (0..tops.len())
        .filter(|&k| find(&mut component, k) == k)
        .count();

    // Every node has at most one parent, so a walk up the graph either ends
    // or runs into a node already walked — and running into a node of the
    // walk under way closes a cycle no earlier walk has counted.
    let mut walk_of = vec![usize::MAX; nodes.len()];
    let mut parent_cycles = 0usize;
    for start in 0..nodes.len() {
        let mut cur = Some(start);
        while let Some(i) = cur.filter(|&i| walk_of[i] == usize::MAX) {
            walk_of[i] = start;
            cur = parent_of[i];
        }
        parent_cycles += usize::from(cur.is_some_and(|i| walk_of[i] == start));
    }

    HierarchyAudit {
        nodes: nodes.len(),
        level_population,
        height,
        roots,
        orphans,
        top_components,
        dangling_parents,
        inverted_parents,
        disowned_children,
        parent_cycles,
        overfull_parents,
        under_connected,
        avg_children: if parents_with_children == 0 {
            0.0
        } else {
            children_sum as f64 / parents_with_children as f64
        },
        avg_active_connections: if nodes.is_empty() {
            0.0
        } else {
            active_sum as f64 / nodes.len() as f64
        },
        max_table_size,
    }
}

/// The representative of `k`'s component in a union-find forest, halving
/// the path on the way.
fn find(component: &mut [usize], mut k: usize) -> usize {
    while component[k] != k {
        component[k] = component[component[k]];
        k = component[k];
    }
    k
}

/// The analytic routing-table-size bound of Section III.e for a node:
/// `l0 + h` entries for pure level-0 nodes and
/// `l0 + li + Li + ci + ca + da + h - i` for nodes at level `i > 0`. This
/// helper returns the bound for the measured components so tests can assert
/// `measured_total <= analytic_bound`.
pub fn analytic_table_bound(node: &TreePNode) -> usize {
    let sizes = node.tables().sizes();
    let h = node.config().height as usize;
    let i = node.max_level() as usize;
    if i == 0 {
        // l0 + h (the h term covers the parent + superior chain).
        sizes.level0 + h
    } else {
        sizes.level0
            + sizes.level_neighbors
            + sizes.neighbor_children
            + sizes.own_children
            + 2 // da: direct bus neighbours at the node's level
            + h.saturating_sub(i)
            + 1 // the parent entry itself
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characteristics::{CharacteristicsSummary, NodeCharacteristics};
    use crate::config::{ChildPolicy, TreePConfig};
    use crate::entry::PeerInfo;
    use simnet::{NodeAddr, SimTime};

    fn peer(id: u64, level: u32) -> PeerInfo {
        PeerInfo {
            id: NodeId(id),
            addr: NodeAddr(id),
            max_level: level,
            summary: CharacteristicsSummary::of(
                &NodeCharacteristics::default(),
                ChildPolicy::Fixed(4),
            ),
        }
    }

    fn node(id: u64, level: u32) -> TreePNode {
        let mut n = TreePNode::new(
            TreePConfig::default(),
            NodeId(id),
            NodeCharacteristics::default(),
        )
        .with_addr(NodeAddr(id));
        n.seed_max_level(level);
        n
    }

    #[test]
    fn audit_of_tiny_well_formed_hierarchy() {
        // Root (level 1) with two children; everyone level-0 connected.
        let mut root = node(100, 1);
        let mut a = node(50, 0);
        let mut b = node(150, 0);
        let t = SimTime::ZERO;
        root.seed_child(peer(50, 0), true, t);
        root.seed_child(peer(150, 0), true, t);
        root.seed_level0_neighbor(peer(50, 0), t);
        root.seed_level0_neighbor(peer(150, 0), t);
        a.seed_parent(peer(100, 1), t);
        a.seed_level0_neighbor(peer(100, 1), t);
        a.seed_level0_neighbor(peer(150, 0), t);
        b.seed_parent(peer(100, 1), t);
        b.seed_level0_neighbor(peer(100, 1), t);
        b.seed_level0_neighbor(peer(50, 0), t);

        let nodes = [root, a, b];
        let report = audit(nodes.iter());
        assert_eq!(report.nodes, 3);
        assert_eq!(report.height, 1);
        assert_eq!(report.level_population[&0], 3);
        assert_eq!(report.level_population[&1], 1);
        assert_eq!(report.orphans, 0);
        assert_eq!(report.dangling_parents, 0);
        assert_eq!(report.overfull_parents, 0);
        assert!(report.is_clean(), "{report:?}");
        assert!((report.avg_children - 2.0).abs() < 1e-9);
    }

    #[test]
    fn audit_detects_orphans_and_dangling_parents() {
        let mut root = node(100, 1);
        root.seed_level0_neighbor(peer(50, 0), SimTime::ZERO);
        root.seed_level0_neighbor(peer(150, 0), SimTime::ZERO);
        let mut a = node(50, 0); // orphan: no parent
        a.seed_level0_neighbor(peer(100, 1), SimTime::ZERO);
        a.seed_level0_neighbor(peer(150, 0), SimTime::ZERO);
        let mut b = node(150, 0);
        b.seed_parent(peer(999, 1), SimTime::ZERO); // dangling parent
        b.seed_level0_neighbor(peer(100, 1), SimTime::ZERO);
        b.seed_level0_neighbor(peer(50, 0), SimTime::ZERO);
        let nodes = [root, a, b];
        let report = audit(nodes.iter());
        assert_eq!(report.orphans, 1);
        assert_eq!(report.dangling_parents, 1);
        assert!(!report.is_clean());
    }

    #[test]
    fn two_roots_over_one_ring_are_not_clean() {
        // Two level-1 trees over one intact level-0 ring 50-100-150-200:
        // no orphan, no dangling parent, but two roots that never met.
        let t = SimTime::ZERO;
        let ring = [(50, 0), (100, 1), (150, 0), (200, 1)];
        let mut nodes: Vec<TreePNode> = ring.iter().map(|&(id, lvl)| node(id, lvl)).collect();
        for (i, n) in nodes.iter_mut().enumerate() {
            for (id, lvl) in [ring[(i + 1) % 4], ring[(i + 3) % 4]] {
                n.seed_level0_neighbor(peer(id, lvl), t);
            }
        }
        nodes[0].seed_parent(peer(100, 1), t);
        nodes[1].seed_child(peer(50, 0), true, t);
        nodes[2].seed_parent(peer(200, 1), t);
        nodes[3].seed_child(peer(150, 0), true, t);
        let report = audit(nodes.iter());
        assert_eq!((report.roots, report.orphans), (2, 0), "{report:?}");
        assert_eq!(report.dangling_parents + report.under_connected, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn one_top_bus_at_the_configured_height_is_clean() {
        // Three parentless nodes at the configured height (6), linked by
        // their top bus and an intact level-0 ring.
        let t = SimTime::ZERO;
        let ids = [50, 100, 150];
        let height = TreePConfig::default().height;
        let mut tops: Vec<TreePNode> = ids.iter().map(|&id| node(id, height)).collect();
        for (i, n) in tops.iter_mut().enumerate() {
            for other in [ids[(i + 1) % 3], ids[(i + 2) % 3]] {
                n.seed_level0_neighbor(peer(other, height), t);
                n.seed_level_neighbor(height, peer(other, height), t);
            }
        }
        let report = audit(tops.iter());
        assert_eq!((report.roots, report.top_components), (3, 1), "{report:?}");
        assert!(report.is_clean(), "{report:?}");

        // Two at the same height that never learnt of each other on the bus.
        let mut apart = [node(50, height), node(100, height)];
        apart[0].seed_level0_neighbor(peer(100, height), t);
        apart[1].seed_level0_neighbor(peer(50, height), t);
        let report = audit(apart.iter());
        assert_eq!((report.roots, report.top_components), (2, 2), "{report:?}");
        assert!(!report.is_clean());
    }

    #[test]
    fn a_child_its_parent_does_not_count_is_not_clean() {
        // 50 and 150 name 100 as their parent; 100 holds only 50.
        let t = SimTime::ZERO;
        let mut root = node(100, 1);
        root.seed_child(peer(50, 0), true, t);
        let mut nodes = [root, node(50, 0), node(150, 0)];
        for (i, other) in [(0, [50, 150]), (1, [100, 150]), (2, [100, 50])] {
            for id in other {
                nodes[i].seed_level0_neighbor(peer(id, u32::from(id == 100)), t);
            }
        }
        nodes[1].seed_parent(peer(100, 1), t);
        nodes[2].seed_parent(peer(100, 1), t);
        let report = audit(nodes.iter());
        assert_eq!(report.disowned_children, 1, "{report:?}");
        assert_eq!(report.orphans + report.dangling_parents, 0);
        assert_eq!(report.inverted_parents + report.under_connected, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn audit_detects_inverted_parents_and_cycles() {
        let t = SimTime::ZERO;
        // 10 -> 20 -> 30 -> 10 is a cycle with 40 hanging below it; 50 sits
        // under a proper root 60 but above its own parent's level.
        let parents = [(10, 20), (20, 30), (30, 10), (40, 10), (50, 60)];
        let levels = [(10, 1), (20, 2), (30, 3), (40, 0), (50, 4), (60, 4)];
        let nodes: Vec<TreePNode> = levels
            .iter()
            .map(|&(id, level)| {
                let mut n = node(id, level);
                if let Some(&(_, parent)) = parents.iter().find(|(child, _)| *child == id) {
                    // What the child recorded when it adopted the parent.
                    n.seed_parent(peer(parent, level + 1), t);
                }
                n
            })
            .collect();
        let report = audit(nodes.iter());
        assert_eq!(report.parent_cycles, 1, "{report:?}");
        // 30 -> 10 closes the cycle downwards; 50 -> 60 is level with it.
        assert_eq!(report.inverted_parents, 2, "{report:?}");
        assert_eq!(report.dangling_parents, 0);
        assert!(!report.is_clean());
    }

    #[test]
    fn audit_detects_overfull_parents() {
        let config = TreePConfig {
            child_policy: ChildPolicy::Fixed(2),
            ..TreePConfig::default()
        };
        let mut root = TreePNode::new(config, NodeId(100), NodeCharacteristics::default())
            .with_addr(NodeAddr(100));
        root.seed_max_level(1);
        for id in [1u64, 2, 3] {
            root.seed_child(peer(id, 0), true, SimTime::ZERO);
        }
        root.seed_level0_neighbor(peer(1, 0), SimTime::ZERO);
        root.seed_level0_neighbor(peer(2, 0), SimTime::ZERO);
        let report = audit([&root]);
        assert_eq!(report.overfull_parents, 1);
    }

    #[test]
    fn analytic_bound_holds_for_seeded_nodes() {
        let mut n = node(100, 2);
        let t = SimTime::ZERO;
        n.seed_level0_neighbor(peer(1, 0), t);
        n.seed_level0_neighbor(peer(2, 0), t);
        n.seed_child(peer(3, 0), true, t);
        n.seed_child(peer(4, 0), true, t);
        n.seed_level_neighbor(1, peer(5, 1), t);
        n.seed_parent(peer(6, 3), t);
        let total = n.tables().sizes().total();
        assert!(
            total <= analytic_table_bound(&n) + n.tables().sizes().superiors,
            "{total}"
        );
    }
}
