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
//! One capacity rule plans the hierarchy, a node's capacity being its
//! `max_children` (Section III.a): a tessellation group closes once it holds
//! `max(cap − 1, 2)` members, `cap` being its strongest member's (groups of
//! `max(nc − 1, 2)` under `Fixed(nc)`), and a level is promoted only while
//! the capacities can parent every node below the promoted ones — else it
//! is the top, so a population too weak for a tall tree gets a wide one.
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
pub const SETTLE: SimDuration = SimDuration::from_millis(3_000);

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
                    capacity: characteristics.max_children(self.config.child_policy) as usize,
                    level: 0,
                }
            })
            .collect();
        plan.sort_by_key(|e| e.id);
        plan.dedup_by_key(|e| e.id);

        // Promote level by level: group the members of level `j` (ordered by
        // identifier) into tessellations and promote the strongest member of
        // each group to level `j + 1`, unless the members left at `j` cannot
        // hold level `j − 1` or the promoted ones the members left.
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
            let groups = partition_into_groups(&members, |i| plan[i].capacity);
            let leaders: Vec<usize> = groups
                .iter()
                .map(|g| {
                    *g.iter()
                        .max_by(|a, b| {
                            plan[**a]
                                .score
                                .partial_cmp(&plan[**b].score)
                                .unwrap_or(std::cmp::Ordering::Equal)
                                .then_with(|| plan[**b].id.cmp(&plan[**a].id))
                        })
                        .expect("groups are never empty")
                })
                .collect();
            let capacity = |nodes: &[usize]| nodes.iter().map(|&i| plan[i].capacity).sum::<usize>();
            let below = plan.iter().filter(|e| e.level + 1 == level).count();
            let left = members.len() - leaders.len();
            if below > capacity(&members) - capacity(&leaders) || left > capacity(&leaders) {
                break;
            }
            for &leader in &leaders {
                plan[leader].level = level + 1;
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
        // are distributed (by identifier order, as evenly as the capacities
        // allow) among the nodes whose maximum level is exactly `L + 1`.
        let mut parent_of: BTreeMap<usize, usize> = BTreeMap::new();
        for level in 0..height {
            let children: Vec<usize> = (0..n).filter(|&i| plan[i].level == level).collect();
            let parents: Vec<usize> = (0..n).filter(|&i| plan[i].level == level + 1).collect();
            let capacities: Vec<usize> = parents.iter().map(|&p| plan[p].capacity).collect();
            let assignment = distribute_children(children.len(), &capacities);
            for (&child, parent_pos) in children.iter().zip(assignment) {
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

/// Distribute `n_children` children, in order, over parents with the given
/// capacities, in order: each takes `min(cap, share)` or one less, for the
/// least `share` that holds them all, and the first parents reaching the
/// share take all of it (under one capacity, the first `n mod parents`
/// take one more). Returns each child's parent position. Panics when the
/// capacities cannot hold every child: the plan rules that out, and an
/// overfull parent is an illegal overlay nothing in the protocol repairs.
fn distribute_children(n_children: usize, capacities: &[usize]) -> Vec<usize> {
    let hold = |share: usize| capacities.iter().map(|&c| c.min(share)).sum::<usize>();
    let share = (0..=n_children)
        .find(|&share| hold(share) >= n_children)
        .expect("the plan promotes only what the capacities can parent");
    let mut full = n_children - hold(share.saturating_sub(1));
    let mut out = Vec::with_capacity(n_children);
    for (p, &cap) in capacities.iter().enumerate() {
        let take = if cap >= share && full > 0 {
            full -= 1;
            share
        } else {
            cap.min(share.saturating_sub(1))
        };
        out.extend(std::iter::repeat_n(p, take));
    }
    out
}

/// Split the (already ordered) member indices into contiguous groups by the
/// capacity rule (the largest `capacity` so far is the strongest member's:
/// capacity grows with capability), merging a tail of fewer than three into
/// its predecessor so every tessellation holds at least two nodes.
fn partition_into_groups(members: &[usize], capacity: impl Fn(usize) -> usize) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut open = Vec::new();
    let mut cap = 0;
    for &m in members {
        open.push(m);
        cap = cap.max(capacity(m));
        if open.len() >= cap.saturating_sub(1).max(2) {
            groups.push(std::mem::take(&mut open));
            cap = 0;
        }
    }
    if !open.is_empty() {
        groups.push(open);
    }
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
    /// `max_children` under the configured child policy.
    capacity: usize,
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
        // Settled at paper scale, fixed nc is clean on every seed: one top
        // component, no overfull parent, no orphan. (Variable nc is not yet:
        // see ROADMAP item 13.)
        for seed in 2005..=2009 {
            let builder = TopologyBuilder::new(800).with_config(TreePConfig::paper_case_fixed());
            let (sim, topo) = builder.build_simulation(seed);
            let report = audit(topo.nodes.iter().filter_map(|n| sim.node(n.addr)));
            assert!(report.is_clean(), "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn built_overlay_is_legal_on_both_policies() {
        // Audited as built, before the settle: what the builder hands the
        // protocol.
        for config in [
            TreePConfig::paper_case_fixed(),
            TreePConfig::paper_case_adaptive(),
        ] {
            for n in [800, 10_000] {
                let mut sim = Simulation::new(SimConfig::default(), 2005);
                let topo = TopologyBuilder::new(n).with_config(config).build(&mut sim);
                let report = audit(topo.nodes.iter().filter_map(|b| sim.node(b.addr)));
                assert_eq!(report.nodes, n);
                assert_eq!(report.overfull_parents, 0, "{report:?}");
                assert_eq!(report.orphans, 0, "{report:?}");
                assert_eq!(report.dangling_parents, 0, "{report:?}");
                assert!(report.is_clean(), "{report:?}");
            }
        }
    }

    #[test]
    fn every_population_is_built_within_capacity() {
        // The plan stops promoting where the capacities cannot parent the
        // next level, so no population, however weak, gets an overfull
        // parent or a node left without one.
        let populations = [
            CapabilityDistribution::Heterogeneous,
            CapabilityDistribution::Bimodal {
                strong_fraction: 0.25,
            },
            CapabilityDistribution::Homogeneous(NodeCharacteristics::weak()),
            CapabilityDistribution::Homogeneous(NodeCharacteristics::strong()),
        ];
        for capabilities in populations {
            for n in [4, 18, 23, 150, 300] {
                let mut sim = Simulation::new(SimConfig::default(), 3);
                let topo = TopologyBuilder::new(n)
                    .with_config(TreePConfig::paper_case_adaptive())
                    .with_capabilities(capabilities)
                    .build(&mut sim);
                let report = audit(topo.nodes.iter().filter_map(|b| sim.node(b.addr)));
                assert_eq!(
                    (report.overfull_parents, report.orphans),
                    (0, 0),
                    "{capabilities:?}, n = {n}: {report:?}"
                );
            }
        }
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
        let groups = partition_into_groups(&members, |_| 5);
        assert_eq!(groups.len(), 2);
        assert_eq!(
            groups[1].len(),
            5,
            "tail of one merges into the previous group"
        );
        assert!(partition_into_groups(&[], |_| 5).is_empty());
        // A member of capacity 7 holds its group open to six members; the
        // capacity-3 ones after it close theirs at two.
        let groups = partition_into_groups(&members, |m| if m == 1 { 7 } else { 3 });
        assert_eq!(groups, [vec![0, 1, 2, 3, 4, 5], vec![6, 7, 8]]);
    }

    #[test]
    fn capacity_sizes_the_tree() {
        // Under the paper's adaptive policy a strong node holds 7 children
        // and an always-up desktop 3, against the fixed nc = 4: the plan
        // groups them by 6 and by 2 where fixed nc groups by 3.
        let adaptive = TreePConfig::paper_case_adaptive();
        let desktop = NodeCharacteristics {
            uptime_s: 30 * 24 * 3600,
            ..NodeCharacteristics::default()
        };
        let strong = NodeCharacteristics::strong();
        assert_eq!(strong.max_children(adaptive.child_policy), 7);
        assert_eq!(desktop.max_children(adaptive.child_policy), 3);
        let height = |config: TreePConfig, node: NodeCharacteristics| {
            let mut sim = Simulation::new(SimConfig::default(), 13);
            TopologyBuilder::new(300)
                .with_config(config)
                .with_capabilities(CapabilityDistribution::Homogeneous(node))
                .build(&mut sim)
                .height
        };
        let fixed = height(TreePConfig::paper_case_fixed(), strong);
        let (roomy, cramped) = (height(adaptive, strong), height(adaptive, desktop));
        assert!(
            roomy <= fixed && cramped > fixed,
            "capacity 7 must build no taller than nc = 4 and capacity 3 taller \
             (heights {roomy}, {fixed}, {cramped})"
        );
    }
}
