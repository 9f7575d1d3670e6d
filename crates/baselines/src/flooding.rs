//! A Gnutella-style unstructured flooding overlay used as the unstructured
//! baseline ("they rely on a blind flood lookup algorithm … which are
//! techniques that do not scale well", Section I).

use simnet::{Context, NodeAddr, Protocol, SimConfig, SimDuration, Simulation, TimerToken};
use std::collections::{BTreeMap, BTreeSet};
use treep::{IdSpace, NodeId};

const TIMER_TIMEOUT_BASE: u64 = 1 << 32;

/// Wire messages of the flooding baseline.
#[derive(Debug, Clone)]
pub enum FloodingMessage {
    /// A query flooded through the overlay.
    Query {
        /// `(origin address, origin-local counter)` — globally unique.
        request_id: (NodeAddr, u64),
        /// Identifier being searched for.
        target: NodeId,
        /// Remaining time-to-live.
        ttl: u32,
        /// Hops taken so far.
        hops: u32,
    },
    /// Direct answer sent back to the origin by the node owning the target.
    Hit {
        /// Request identifier echoed back.
        request_id: (NodeAddr, u64),
        /// Identifier of the answering node.
        owner: NodeId,
        /// Hops the query had taken when it reached the owner.
        hops: u32,
    },
    /// A payload flooded to every reachable node (the unstructured
    /// counterpart of TreeP's scoped multicast; flooding has no notion of an
    /// identifier range, so the only possible scope is "everyone").
    Broadcast {
        /// `(origin address, origin-local counter)` — globally unique.
        request_id: (NodeAddr, u64),
        /// Remaining time-to-live.
        ttl: u32,
        /// Hops taken so far.
        hops: u32,
    },
}

/// Outcome of one flooding lookup recorded at the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodingLookupOutcome {
    /// Origin-local request counter.
    pub request_id: u64,
    /// Identifier that was searched for.
    pub target: NodeId,
    /// Whether any hit arrived before the timeout.
    pub found: bool,
    /// Hops of the first hit (0 when none arrived).
    pub hops: u32,
    /// Number of query copies this origin's flood generated that it knows of
    /// (its own fan-out; the network-wide count is in `SimMetrics`).
    pub fanout: u32,
}

/// A peer of the unstructured flooding overlay.
pub struct FloodingNode {
    id: NodeId,
    neighbors: Vec<NodeAddr>,
    max_ttl: u32,
    seen: BTreeSet<(NodeAddr, u64)>,
    next_request: u64,
    pending: BTreeMap<u64, NodeId>,
    outcomes: Vec<FloodingLookupOutcome>,
    lookup_timeout: SimDuration,
    /// Queries this node forwarded on behalf of others (overhead accounting).
    pub forwarded: u64,
    /// Broadcast copies received, *including* suppressed duplicates (the
    /// duplicate-factor numerator of the multicast comparison).
    pub broadcast_receipts: u64,
    /// Distinct broadcasts delivered (first copy of each).
    pub broadcasts_delivered: u64,
}

impl FloodingNode {
    /// Create a node with the given identifier and flood TTL.
    pub(crate) fn new(id: NodeId, max_ttl: u32) -> Self {
        FloodingNode {
            id,
            neighbors: Vec::new(),
            max_ttl,
            seen: BTreeSet::new(),
            next_request: 0,
            pending: BTreeMap::new(),
            outcomes: Vec::new(),
            lookup_timeout: SimDuration::from_secs(2),
            forwarded: 0,
            broadcast_receipts: 0,
            broadcasts_delivered: 0,
        }
    }

    /// The node's neighbour set.
    pub fn neighbors(&self) -> &[NodeAddr] {
        &self.neighbors
    }

    /// Seed the neighbour set (the random graph is built by
    /// [`FloodingBuilder`]).
    pub(crate) fn seed_neighbors(&mut self, neighbors: Vec<NodeAddr>) {
        self.neighbors = neighbors;
    }

    /// Drain the lookup outcomes recorded at this origin.
    pub fn drain_lookup_outcomes(&mut self) -> Vec<FloodingLookupOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Originate a flooded lookup for `target`.
    pub fn start_lookup(&mut self, target: NodeId, ctx: &mut Context<'_, FloodingMessage>) -> u64 {
        let counter = self.next_request;
        self.next_request += 1;
        self.pending.insert(counter, target);
        ctx.set_timer(
            self.lookup_timeout,
            TimerToken(TIMER_TIMEOUT_BASE | counter),
        );
        if target == self.id {
            self.complete(counter, true, 0, 0);
            return counter;
        }
        let request_id = (ctx.self_addr(), counter);
        self.seen.insert(request_id);
        let mut fanout = 0u32;
        for &n in &self.neighbors {
            ctx.send(
                n,
                FloodingMessage::Query {
                    request_id,
                    target,
                    ttl: self.max_ttl,
                    hops: 1,
                },
            );
            fanout += 1;
        }
        if fanout == 0 {
            self.complete(counter, false, 0, 0);
        }
        counter
    }

    /// Originate a flooded broadcast toward every reachable node. Returns
    /// the origin-local counter identifying it.
    pub fn start_broadcast(&mut self, ctx: &mut Context<'_, FloodingMessage>) -> u64 {
        let counter = self.next_request;
        self.next_request += 1;
        let request_id = (ctx.self_addr(), counter);
        self.seen.insert(request_id);
        self.broadcast_receipts += 1;
        self.broadcasts_delivered += 1;
        for &n in &self.neighbors {
            ctx.send(
                n,
                FloodingMessage::Broadcast {
                    request_id,
                    ttl: self.max_ttl,
                    hops: 1,
                },
            );
        }
        counter
    }

    fn complete(&mut self, counter: u64, found: bool, hops: u32, fanout: u32) {
        if let Some(target) = self.pending.remove(&counter) {
            self.outcomes.push(FloodingLookupOutcome {
                request_id: counter,
                target,
                found,
                hops,
                fanout,
            });
        }
    }
}

impl Protocol for FloodingNode {
    type Message = FloodingMessage;

    fn on_message(
        &mut self,
        from: NodeAddr,
        msg: FloodingMessage,
        ctx: &mut Context<'_, FloodingMessage>,
    ) {
        match msg {
            FloodingMessage::Query {
                request_id,
                target,
                ttl,
                hops,
            } => {
                if !self.seen.insert(request_id) {
                    return; // duplicate suppression
                }
                if target == self.id {
                    ctx.send(
                        request_id.0,
                        FloodingMessage::Hit {
                            request_id,
                            owner: self.id,
                            hops,
                        },
                    );
                    return;
                }
                if ttl <= 1 {
                    return;
                }
                for &n in &self.neighbors {
                    if n == from {
                        continue;
                    }
                    self.forwarded += 1;
                    ctx.send(
                        n,
                        FloodingMessage::Query {
                            request_id,
                            target,
                            ttl: ttl - 1,
                            hops: hops + 1,
                        },
                    );
                }
            }
            FloodingMessage::Hit {
                request_id, hops, ..
            } => {
                let fanout = self.neighbors.len() as u32;
                self.complete(request_id.1, true, hops, fanout);
            }
            FloodingMessage::Broadcast {
                request_id,
                ttl,
                hops,
            } => {
                self.broadcast_receipts += 1;
                if !self.seen.insert(request_id) {
                    return; // duplicate: received again through another path
                }
                self.broadcasts_delivered += 1;
                if ttl <= 1 {
                    return;
                }
                for &n in &self.neighbors {
                    if n == from {
                        continue;
                    }
                    self.forwarded += 1;
                    ctx.send(
                        n,
                        FloodingMessage::Broadcast {
                            request_id,
                            ttl: ttl - 1,
                            hops: hops + 1,
                        },
                    );
                }
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_, FloodingMessage>) {
        if token.0 & TIMER_TIMEOUT_BASE != 0 {
            let counter = token.0 & !TIMER_TIMEOUT_BASE;
            let fanout = self.neighbors.len() as u32;
            self.complete(counter, false, 0, fanout);
        }
    }
}

/// Target average degree of the random graph [`FloodingBuilder`] seeds.
const DEGREE: usize = 4;

/// Builds a connected random graph of [`FloodingNode`]s inside a simulation.
#[derive(Debug, Clone)]
pub struct FloodingBuilder {
    n: usize,
    max_ttl: u32,
    space: IdSpace,
}

impl FloodingBuilder {
    /// A graph of `n` nodes with average degree 4 and TTL 7 (classic
    /// Gnutella settings).
    pub fn new(n: usize) -> Self {
        FloodingBuilder {
            n,
            max_ttl: 7,
            space: IdSpace::default(),
        }
    }

    /// Flood TTL.
    pub fn with_ttl(mut self, max_ttl: u32) -> Self {
        self.max_ttl = max_ttl.max(1);
        self
    }

    /// Create the simulation, seed the graph and return `(addr, id)` pairs.
    pub fn build_simulation(
        &self,
        seed: u64,
    ) -> (Simulation<FloodingNode>, Vec<(NodeAddr, NodeId)>) {
        assert!(self.n >= 2, "a flooding overlay needs at least two nodes");
        let mut sim = Simulation::new(SimConfig::default(), seed);
        let mut pairs = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let id = self.space.uniform_position(i, self.n);
            let addr = sim.add_node(FloodingNode::new(id, self.max_ttl));
            pairs.push((addr, id));
        }
        // Ring edges guarantee connectivity; extra random edges provide the
        // Gnutella-like small-world fan-out.
        let n = pairs.len();
        let mut adjacency: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for i in 0..n {
            adjacency[i].insert((i + 1) % n);
            adjacency[(i + 1) % n].insert(i);
        }
        let extra_per_node = DEGREE - 2;
        let mut rng = sim.rng_mut().fork();
        for i in 0..n {
            for _ in 0..extra_per_node {
                let j = rng.gen_range_usize(0..n);
                if j != i {
                    adjacency[i].insert(j);
                    adjacency[j].insert(i);
                }
            }
        }
        for (i, adj) in adjacency.iter().enumerate() {
            let neighbors: Vec<NodeAddr> = adj.iter().map(|&j| pairs[j].0).collect();
            sim.node_mut(pairs[i].0)
                .expect("node just added")
                .seed_neighbors(neighbors);
        }
        (sim, pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_lookup(
        sim: &mut Simulation<FloodingNode>,
        src: NodeAddr,
        target: NodeId,
    ) -> FloodingLookupOutcome {
        sim.invoke(src, |node, ctx| {
            node.start_lookup(target, ctx);
        });
        sim.run_for(SimDuration::from_secs(5));
        let outcomes = sim.node_mut(src).unwrap().drain_lookup_outcomes();
        assert_eq!(outcomes.len(), 1);
        outcomes[0]
    }

    #[test]
    fn builder_creates_a_connected_graph() {
        let (sim, pairs) = FloodingBuilder::new(50).build_simulation(1);
        assert_eq!(pairs.len(), 50);
        for &(addr, _) in &pairs {
            assert!(sim.node(addr).unwrap().neighbors().len() >= 2);
        }
    }

    #[test]
    fn flood_finds_the_target() {
        let (mut sim, pairs) = FloodingBuilder::new(80).build_simulation(2);
        sim.run_until_idle();
        let outcome = run_lookup(&mut sim, pairs[0].0, pairs[55].1);
        assert!(outcome.found, "{outcome:?}");
        assert!(outcome.hops >= 1);
    }

    #[test]
    fn lookup_for_own_id_resolves_locally() {
        let (mut sim, pairs) = FloodingBuilder::new(10).build_simulation(3);
        sim.run_until_idle();
        let outcome = run_lookup(&mut sim, pairs[4].0, pairs[4].1);
        assert!(outcome.found);
        assert_eq!(outcome.hops, 0);
    }

    /// The first node after `origin` that is not one of its neighbours.
    fn non_neighbor(
        sim: &Simulation<FloodingNode>,
        pairs: &[(NodeAddr, NodeId)],
        origin: NodeAddr,
    ) -> NodeId {
        let neighbors = sim.node(origin).unwrap().neighbors();
        pairs
            .iter()
            .find(|(addr, _)| *addr != origin && !neighbors.contains(addr))
            .expect("the origin is not adjacent to every node")
            .1
    }

    #[test]
    fn low_ttl_floods_fail_on_distant_targets() {
        // TTL 1 reaches the origin's neighbours and no one behind them.
        let (mut sim, pairs) = FloodingBuilder::new(40).with_ttl(1).build_simulation(4);
        sim.run_until_idle();
        let target = non_neighbor(&sim, &pairs, pairs[0].0);
        let outcome = run_lookup(&mut sim, pairs[0].0, target);
        assert!(!outcome.found);
    }

    #[test]
    fn flooding_generates_far_more_messages_than_needed() {
        let (mut sim, pairs) = FloodingBuilder::new(100).build_simulation(5);
        sim.run_until_idle();
        let before = sim.metrics().messages_sent;
        let outcome = run_lookup(&mut sim, pairs[0].0, pairs[60].1);
        assert!(outcome.found);
        let cost = sim.metrics().messages_sent - before;
        assert!(
            cost as u32 > outcome.hops * 5,
            "flooding must cost many times the direct path ({} messages for {} hops)",
            cost,
            outcome.hops
        );
    }

    #[test]
    fn duplicate_queries_are_suppressed() {
        let (mut sim, pairs) = FloodingBuilder::new(30).build_simulation(6);
        sim.run_until_idle();
        let _ = run_lookup(&mut sim, pairs[0].0, pairs[15].1);
        let events = sim.metrics().events_dispatched;
        // A second identical lookup must not explode combinatorially.
        let _ = run_lookup(&mut sim, pairs[0].0, pairs[15].1);
        let second_cost = sim.metrics().events_dispatched - events;
        assert!(
            second_cost < 5_000,
            "duplicate suppression keeps the flood bounded, got {second_cost}"
        );
    }

    #[test]
    fn broadcast_reaches_everyone_with_duplicates() {
        let (mut sim, pairs) = FloodingBuilder::new(60).with_ttl(32).build_simulation(9);
        sim.run_until_idle();
        sim.invoke(pairs[0].0, |node, ctx| {
            node.start_broadcast(ctx);
        });
        sim.run_until_idle();
        let mut delivered = 0u64;
        let mut receipts = 0u64;
        for &(addr, _) in &pairs {
            let node = sim.node(addr).unwrap();
            delivered += node.broadcasts_delivered;
            receipts += node.broadcast_receipts;
        }
        assert_eq!(delivered, 60, "TTL 32 floods the whole graph");
        assert!(
            receipts > delivered,
            "flooding inherently produces duplicate copies ({receipts} receipts for {delivered} deliveries)"
        );
    }

    #[test]
    fn failures_disconnect_the_flood() {
        let (mut sim, pairs) = FloodingBuilder::new(60).build_simulation(7);
        sim.run_until_idle();
        // Fail every neighbour of the origin.
        let target = non_neighbor(&sim, &pairs, pairs[0].0);
        for neighbor in sim.node(pairs[0].0).unwrap().neighbors().to_vec() {
            sim.fail_node(neighbor);
        }
        sim.run_for(SimDuration::from_millis(10));
        let outcome = run_lookup(&mut sim, pairs[0].0, target);
        assert!(!outcome.found, "origin is isolated, the lookup must fail");
    }
}
