//! Steady-state topology construction.
//!
//! The paper measures TreeP "when the system reaches its steady state, which
//! is based on the maximum hierarchy size" (Section IV). Reaching that state
//! purely through joins and elections is possible but slow inside a
//! discrete-event simulation, so the builder constructs the steady-state
//! hierarchy directly: it promotes the strongest node of every tessellation
//! group, seeds the six routing tables of every peer accordingly, and then
//! lets the normal maintenance protocol (keep-alives, elections, demotions)
//! take over — in `O(n)` work instead of `O(n · keepalive)` virtual time.
//!
//! What it seeds is the hierarchy's skeleton, not the protocol's fixed
//! point: ring neighbours, one random contact, bus neighbours, parent,
//! children and ancestors — 9.4 registry entries per node at n = 10⁴ (seed
//! 2005), where the settled protocol keeps 19.9 (at 6.75 s). The settle
//! period fills in the difference, the ring contacts, bus members and
//! superiors that gossip teaches, and on the way the tables peak at 32.5
//! entries per node (57.6 before PR 25 stopped second-hand entries from
//! being advertised in a run's first second).

use simnet::{NodeAddr, SimConfig, SimDuration, SimRng, Simulation};
use std::collections::BTreeMap;
use treep::{
    CharacteristicsSummary, NodeCharacteristics, NodeId, PeerInfo, TreePConfig, TreePNode,
};

use crate::capabilities::CapabilityDistribution;

/// Virtual time [`TopologyBuilder::build_simulation`] runs the network for
/// after seeding, so the maintenance protocol refreshes every table at least
/// once.
const SETTLE: SimDuration = SimDuration::from_millis(3_000);

/// One node of a built topology, as planned by the builder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuiltNode {
    /// Transport address inside the simulation.
    pub addr: NodeAddr,
    /// Overlay identifier (position in the 1-D space).
    pub id: NodeId,
    /// Highest hierarchy level the builder promoted the node to.
    pub level: u32,
    /// Capability score of the node (drives promotions and adaptive `nc`).
    pub score: f64,
}

/// The result of building a steady-state topology inside a simulation.
#[derive(Debug, Clone)]
pub struct BuiltTopology {
    /// Protocol configuration shared by every node.
    pub config: TreePConfig,
    /// Every node, sorted by identifier.
    pub nodes: Vec<BuiltNode>,
    /// The height actually reached by the built hierarchy (the top level with
    /// at least one member).
    pub height: u32,
}

impl BuiltTopology {
    /// `(address, identifier)` pairs for every node, the shape expected by
    /// [`crate::lookups::LookupWorkload::generate`].
    pub fn pairs(&self) -> Vec<(NodeAddr, NodeId)> {
        self.nodes.iter().map(|n| (n.addr, n.id)).collect()
    }

    /// `(address, identifier)` pairs restricted to the nodes still alive in
    /// `sim`.
    pub fn alive_pairs(&self, sim: &Simulation<TreePNode>) -> Vec<(NodeAddr, NodeId)> {
        self.nodes
            .iter()
            .filter(|n| sim.is_alive(n.addr))
            .map(|n| (n.addr, n.id))
            .collect()
    }
}

/// Builds a steady-state TreeP hierarchy directly inside a
/// [`simnet::Simulation`].
#[derive(Debug, Clone)]
pub struct TopologyBuilder {
    n: usize,
    config: TreePConfig,
    capabilities: CapabilityDistribution,
}

impl TopologyBuilder {
    /// A builder for `n` nodes with the paper's fixed-`nc` configuration, a
    /// heterogeneous capability mix, and evenly spread identifiers.
    pub fn new(n: usize) -> Self {
        TopologyBuilder {
            n,
            config: TreePConfig::paper_case_fixed(),
            capabilities: CapabilityDistribution::Heterogeneous,
        }
    }

    /// Use a specific protocol configuration (child policy, height, timers).
    pub fn with_config(mut self, config: TreePConfig) -> Self {
        self.config = config;
        self
    }

    /// Use a specific capability distribution.
    pub fn with_capabilities(mut self, capabilities: CapabilityDistribution) -> Self {
        self.capabilities = capabilities;
        self
    }

    /// Average tessellation size used when grouping a level into parents.
    ///
    /// One less than the child-policy upper bound so the even child
    /// distribution below never has to exceed a parent's capacity (`nc` is a
    /// *maximum*, the converged average fanout sits below it).
    fn group_size(&self) -> usize {
        let upper = match self.config.child_policy {
            treep::ChildPolicy::Fixed(nc) => nc,
            treep::ChildPolicy::Adaptive { min, max } => (min + max) / 2,
        };
        (upper.saturating_sub(1).max(2)) as usize
    }

    /// Create a fresh simulation with the given seed, build the topology into
    /// it, run the network for the settle period, and return both.
    pub fn build_simulation(&self, seed: u64) -> (Simulation<TreePNode>, BuiltTopology) {
        self.build_simulation_with(SimConfig::default(), seed)
    }

    /// [`TopologyBuilder::build_simulation`] under a caller-chosen simulator
    /// configuration (e.g. a lossy link model), sharing the same settle
    /// period so lossless and lossy legs of one experiment stay comparable.
    pub fn build_simulation_with(
        &self,
        config: SimConfig,
        seed: u64,
    ) -> (Simulation<TreePNode>, BuiltTopology) {
        let mut sim = Simulation::new(config, seed);
        let topo = self.build(&mut sim);
        sim.run_for(SETTLE);
        (sim, topo)
    }

    /// Build the topology into an existing simulation. The caller is
    /// responsible for running the simulation afterwards (the nodes are added
    /// but their start events have not been processed yet).
    pub fn build(&self, sim: &mut Simulation<TreePNode>) -> BuiltTopology {
        assert!(self.n > 0, "cannot build an empty topology");
        let mut rng = sim.rng_mut().fork();

        // 1. Plan the population: identifiers, characteristics, levels.
        let mut plan = self.plan(&mut rng);

        // 2. Create the protocol nodes inside the simulation, its node
        //    storage sized once for the planned population.
        sim.reserve_nodes(plan.len());
        for entry in plan.iter_mut() {
            let node = TreePNode::new(self.config, entry.id, entry.characteristics);
            entry.addr = sim.add_node(node);
            sim.node_mut(entry.addr)
                .expect("node just added")
                .seed_max_level(entry.level);
        }

        // 3. Seed the routing tables.
        self.seed_tables(sim, &plan, &mut rng);

        let height = plan.iter().map(|e| e.level).max().unwrap_or(0);
        let nodes = plan
            .iter()
            .map(|e| BuiltNode {
                addr: e.addr,
                id: e.id,
                level: e.level,
                score: e.score,
            })
            .collect();
        BuiltTopology {
            config: self.config,
            nodes,
            height,
        }
    }

    // ---- planning --------------------------------------------------------

    fn plan(&self, rng: &mut SimRng) -> Vec<PlanEntry> {
        let characteristics = self.capabilities.sample_population(self.n, rng);

        let mut plan: Vec<PlanEntry> = characteristics
            .into_iter()
            .enumerate()
            .map(|(index, characteristics)| {
                let id = self.config.space.uniform_position(index, self.n);
                PlanEntry {
                    addr: NodeAddr(u64::MAX), // filled in once the node is added
                    id,
                    characteristics,
                    score: characteristics.capability_score(),
                    level: 0,
                }
            })
            .collect();
        plan.sort_by_key(|e| e.id);
        plan.dedup_by_key(|e| e.id);

        // Promote level by level: group the members of level `j` (ordered by
        // identifier) into tessellations and promote the strongest member of
        // each group to level `j + 1`.
        let group = self.group_size();
        for level in 0..self.config.height {
            let members: Vec<usize> = plan
                .iter()
                .enumerate()
                .filter(|(_, e)| e.level >= level)
                .map(|(i, _)| i)
                .collect();
            // A level needs at least three members before promoting one of
            // them: the new parent must end up with two or more children or
            // the demotion countdown immediately undoes the promotion.
            if members.len() < 3 {
                break;
            }
            let groups = partition_into_groups(&members, group);
            if groups.is_empty() {
                break;
            }
            for g in &groups {
                let leader = *g
                    .iter()
                    .max_by(|a, b| {
                        plan[**a]
                            .score
                            .partial_cmp(&plan[**b].score)
                            .unwrap_or(std::cmp::Ordering::Equal)
                            .then_with(|| plan[**b].id.cmp(&plan[**a].id))
                    })
                    .expect("groups are never empty");
                plan[leader].level = plan[leader].level.max(level + 1);
            }
            if groups.len() == 1 {
                // A single tessellation at this level: its leader is the root.
                break;
            }
        }
        plan
    }

    // ---- seeding ---------------------------------------------------------

    fn seed_tables(&self, sim: &mut Simulation<TreePNode>, plan: &[PlanEntry], rng: &mut SimRng) {
        let now = sim.now();
        let infos: Vec<PeerInfo> = plan.iter().map(|e| e.peer_info(&self.config)).collect();
        let n = plan.len();

        // Level-0 ring neighbours plus one random long-range contact.
        for i in 0..n {
            let addr = plan[i].addr;
            let prev = infos[(i + n - 1) % n];
            let next = infos[(i + 1) % n];
            let mut contacts = vec![prev, next];
            let j = rng.gen_range_usize(0..n);
            if j != i {
                contacts.push(infos[j]);
            }
            let node = sim.node_mut(addr).expect("planned node exists");
            for contact in contacts {
                if contact.id != plan[i].id {
                    node.seed_level0_neighbor(contact, now);
                }
            }
        }

        // Bus neighbours at every level > 0.
        let height = plan.iter().map(|e| e.level).max().unwrap_or(0);
        for level in 1..=height {
            let members: Vec<usize> = (0..n).filter(|&i| plan[i].level >= level).collect();
            for (pos, &i) in members.iter().enumerate() {
                if members.len() < 2 {
                    break;
                }
                let left = infos[members[(pos + members.len() - 1) % members.len()]];
                let right = infos[members[(pos + 1) % members.len()]];
                let node = sim.node_mut(plan[i].addr).expect("planned node exists");
                if left.id != plan[i].id {
                    node.seed_level_neighbor(level, left, now);
                }
                if right.id != plan[i].id {
                    node.seed_level_neighbor(level, right, now);
                }
            }
        }

        // Parent / child edges: the nodes whose maximum level is exactly `L`
        // are distributed (by identifier order, evenly) among the nodes whose
        // maximum level is exactly `L + 1`, respecting each parent's child
        // capacity.
        let mut parent_of: BTreeMap<usize, usize> = BTreeMap::new();
        for level in 0..height {
            let children: Vec<usize> = (0..n).filter(|&i| plan[i].level == level).collect();
            let parents: Vec<usize> = (0..n).filter(|&i| plan[i].level == level + 1).collect();
            if children.is_empty() || parents.is_empty() {
                continue;
            }
            let assignment = distribute_children(
                &children,
                &parents
                    .iter()
                    .map(|&p| {
                        plan[p]
                            .characteristics
                            .max_children(self.config.child_policy) as usize
                    })
                    .collect::<Vec<_>>(),
            );
            for (child_pos, parent_pos) in assignment {
                let child = children[child_pos];
                let parent = parents[parent_pos];
                parent_of.insert(child, parent);
                let child_info = infos[child];
                let parent_info = infos[parent];
                sim.node_mut(plan[parent].addr)
                    .expect("planned node exists")
                    .seed_child(child_info, true, now);
                sim.node_mut(plan[child].addr)
                    .expect("planned node exists")
                    .seed_parent(parent_info, now);
            }
        }

        // Superior (ancestor) lists: walk the parent chain upwards.
        #[allow(clippy::needless_range_loop)]
        for i in 0..n {
            let mut ancestors = Vec::new();
            let mut cursor = i;
            while let Some(&p) = parent_of.get(&cursor) {
                ancestors.push(p);
                cursor = p;
                if ancestors.len() > height as usize + 1 {
                    break;
                }
            }
            // Skip the immediate parent (already in the parent slot); seed the
            // rest as superiors, Figure 2 style.
            if ancestors.len() <= 1 {
                continue;
            }
            let node_addr = plan[i].addr;
            let node = sim.node_mut(node_addr).expect("planned node exists");
            for &a in &ancestors[1..] {
                node.seed_superior(infos[a], now);
            }
        }
    }
}

/// Distribute `children` (positions `0..children.len()`) over parents with
/// the given capacities, in order, as evenly as possible. Returns
/// `(child_position, parent_position)` pairs. Children that exceed the total
/// capacity are appended to the last parent — the self-maintenance protocol
/// resolves genuine over-capacity later, a dangling child never does.
fn distribute_children(children: &[usize], capacities: &[usize]) -> Vec<(usize, usize)> {
    let n_children = children.len();
    let n_parents = capacities.len();
    if n_children == 0 || n_parents == 0 {
        return Vec::new();
    }
    let base = n_children / n_parents;
    let extra = n_children % n_parents;
    let mut out = Vec::with_capacity(n_children);
    let mut next_child = 0usize;
    let mut spill = 0usize;
    for (p, &cap) in capacities.iter().enumerate() {
        let want = base + usize::from(p < extra) + spill;
        let is_last = p + 1 == n_parents;
        let take = if is_last {
            n_children - next_child
        } else {
            want.min(cap.max(2))
        };
        spill = want.saturating_sub(take);
        for _ in 0..take {
            if next_child >= n_children {
                break;
            }
            out.push((next_child, p));
            next_child += 1;
        }
    }
    out
}

/// Split the (already ordered) member indices into contiguous groups of
/// roughly `group` elements, merging a too-small tail group into its
/// predecessor so every tessellation holds at least two nodes.
fn partition_into_groups(members: &[usize], group: usize) -> Vec<Vec<usize>> {
    assert!(group >= 2, "tessellation groups need at least two members");
    if members.is_empty() {
        return Vec::new();
    }
    let mut groups: Vec<Vec<usize>> = members.chunks(group).map(|c| c.to_vec()).collect();
    if groups.len() >= 2 && groups.last().map(|g| g.len()).unwrap_or(0) < 3 {
        let tail = groups.pop().expect("checked non-empty");
        groups.last_mut().expect("checked len >= 2").extend(tail);
    }
    groups
}

#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    addr: NodeAddr,
    id: NodeId,
    characteristics: NodeCharacteristics,
    score: f64,
    level: u32,
}

impl PlanEntry {
    fn peer_info(&self, config: &TreePConfig) -> PeerInfo {
        PeerInfo {
            id: self.id,
            addr: self.addr,
            max_level: self.level,
            summary: CharacteristicsSummary::of(&self.characteristics, config.child_policy),
        }
    }
}

#[cfg(test)]
impl BuiltTopology {
    /// Number of members of each level (a node of level `k` is a member of
    /// every level `0..=k`).
    pub(crate) fn level_population(&self) -> BTreeMap<u32, usize> {
        let mut pop = BTreeMap::new();
        for node in &self.nodes {
            for lvl in 0..=node.level {
                *pop.entry(lvl).or_insert(0usize) += 1;
            }
        }
        pop
    }

    /// Addresses of the nodes sitting at the top level of the built
    /// hierarchy.
    pub(crate) fn roots(&self) -> Vec<NodeAddr> {
        self.nodes
            .iter()
            .filter(|n| n.level == self.height)
            .map(|n| n.addr)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treep::{audit, RoutingAlgorithm};

    #[test]
    fn builds_the_requested_number_of_nodes() {
        let (_sim, topo) = TopologyBuilder::new(64).build_simulation(1);
        assert_eq!(topo.nodes.len(), 64);
    }

    #[test]
    fn hierarchy_has_multiple_levels() {
        let (_sim, topo) = TopologyBuilder::new(200).build_simulation(2);
        assert!(
            topo.height >= 2,
            "200 nodes with nc=4 must produce height >= 2, got {}",
            topo.height
        );
        let pop = topo.level_population();
        assert_eq!(pop[&0], 200);
        for lvl in 1..=topo.height {
            assert!(pop[&lvl] < pop[&(lvl - 1)], "levels must shrink upwards");
        }
    }

    #[test]
    fn level_population_follows_fanout_roughly() {
        let (_sim, topo) = TopologyBuilder::new(256).build_simulation(3);
        let pop = topo.level_population();
        // Groups of ~4 ⇒ level 1 holds about a quarter of the population.
        let l1 = pop[&1] as f64;
        assert!(
            (40.0..=90.0).contains(&l1),
            "level-1 population {l1} far from n/4"
        );
    }

    #[test]
    fn built_hierarchy_passes_audit() {
        let builder = TopologyBuilder::new(150);
        let (sim, topo) = builder.build_simulation(4);
        let nodes: Vec<&TreePNode> = topo.nodes.iter().filter_map(|n| sim.node(n.addr)).collect();
        let report = audit(nodes);
        assert_eq!(report.nodes, 150);
        assert_eq!(report.dangling_parents, 0, "{report:?}");
        assert_eq!(report.overfull_parents, 0, "{report:?}");
        assert_eq!(report.orphans, 0, "{report:?}");
    }

    #[test]
    fn promoted_nodes_are_the_strong_ones() {
        let builder =
            TopologyBuilder::new(120).with_capabilities(CapabilityDistribution::Bimodal {
                strong_fraction: 0.3,
            });
        let (_sim, topo) = builder.build_simulation(5);
        let promoted_avg: f64 = {
            let promoted: Vec<f64> = topo
                .nodes
                .iter()
                .filter(|n| n.level > 0)
                .map(|n| n.score)
                .collect();
            promoted.iter().sum::<f64>() / promoted.len() as f64
        };
        let level0_avg: f64 = {
            let level0: Vec<f64> = topo
                .nodes
                .iter()
                .filter(|n| n.level == 0)
                .map(|n| n.score)
                .collect();
            level0.iter().sum::<f64>() / level0.len() as f64
        };
        assert!(
            promoted_avg > level0_avg,
            "promoted nodes must be stronger on average ({promoted_avg} vs {level0_avg})"
        );
    }

    #[test]
    fn lookups_resolve_on_the_built_topology() {
        let (mut sim, topo) = TopologyBuilder::new(100).build_simulation(6);
        let pairs = topo.pairs();
        let (src, _) = pairs[3];
        let (_, target) = pairs[77];
        sim.invoke(src, |node, ctx| {
            node.start_lookup(target, RoutingAlgorithm::Greedy, ctx);
        });
        sim.run_for(SimDuration::from_secs(15));
        let outcomes = sim.node_mut(src).unwrap().drain_lookup_outcomes();
        assert_eq!(outcomes.len(), 1);
        assert!(
            outcomes[0].status.is_success(),
            "lookup on an intact steady-state topology must succeed: {:?}",
            outcomes[0]
        );
    }

    #[test]
    fn alive_pairs_shrink_after_failures() {
        let (mut sim, topo) = TopologyBuilder::new(50).build_simulation(7);
        assert_eq!(topo.alive_pairs(&sim).len(), 50);
        for node in topo.nodes.iter().take(10) {
            sim.fail_node(node.addr);
        }
        sim.run_for(SimDuration::from_millis(10));
        assert_eq!(topo.alive_pairs(&sim).len(), 40);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = TopologyBuilder::new(80).build_simulation(9).1;
        let b = TopologyBuilder::new(80).build_simulation(9).1;
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.height, b.height);
    }

    #[test]
    fn roots_sit_at_the_top_level() {
        let (_sim, topo) = TopologyBuilder::new(90).build_simulation(11);
        let roots = topo.roots();
        assert!(!roots.is_empty());
        for r in roots {
            let node = topo.nodes.iter().find(|n| n.addr == r).unwrap();
            assert_eq!(node.level, topo.height);
        }
    }

    #[test]
    fn partitioning_merges_small_tails() {
        let members: Vec<usize> = (0..9).collect();
        let groups = partition_into_groups(&members, 4);
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups[1].len(),
            5,
            "tail of one merges into the previous group"
        );
        assert!(partition_into_groups(&[], 4).is_empty());
    }

    #[test]
    fn adaptive_policy_builds_flatter_hierarchies() {
        let fixed = TopologyBuilder::new(300)
            .with_config(TreePConfig::paper_case_fixed())
            .build_simulation(13)
            .1;
        let adaptive = TopologyBuilder::new(300)
            .with_config(TreePConfig::paper_case_adaptive())
            .build_simulation(13)
            .1;
        assert!(
            adaptive.height <= fixed.height,
            "larger tessellations cannot make the tree taller (fixed {} vs adaptive {})",
            fixed.height,
            adaptive.height
        );
    }
}
