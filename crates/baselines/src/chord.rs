//! A compact Chord implementation (Stoica et al., SIGCOMM 2001) used as the
//! structured-DHT baseline.
//!
//! The ring lives in the same identifier space as TreeP. Each node keeps a
//! successor list and a finger table; lookups are routed recursively by
//! forwarding to the closest preceding finger. Stabilisation is simplified:
//! the topology is seeded by [`ChordBuilder`] and repaired lazily — a node
//! that notices a dead successor (by keep-alive timeout) promotes the next
//! entry of its successor list.

use simnet::{
    Context, NodeAddr, Protocol, SimConfig, SimDuration, SimTime, Simulation, TimerToken,
};
use std::collections::BTreeMap;
use treep::{IdSpace, NodeId};

const TIMER_STABILIZE: TimerToken = TimerToken(1);
const TIMER_TIMEOUT_BASE: u64 = 1 << 32;

/// Wire messages of the Chord baseline.
#[derive(Debug, Clone)]
pub enum ChordMessage {
    /// A recursive lookup travelling towards the successor of `target`.
    Lookup {
        /// Origin-assigned request identifier.
        request_id: u64,
        /// Transport address of the origin (receives the answer).
        origin: NodeAddr,
        /// Identifier being resolved.
        target: NodeId,
        /// Hops taken so far.
        hops: u32,
    },
    /// The answer sent back to the origin.
    Found {
        /// Request identifier echoed back.
        request_id: u64,
        /// The node responsible for the target identifier.
        owner: NodeId,
        /// Hops the request took.
        hops: u32,
    },
    /// Periodic liveness probe to the successor.
    Ping {
        /// Identifier of the sender.
        from: NodeId,
    },
    /// Answer to a [`ChordMessage::Ping`].
    Pong {
        /// Identifier of the sender.
        from: NodeId,
    },
}

/// Outcome of one Chord lookup recorded at the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChordLookupOutcome {
    /// Request identifier.
    pub request_id: u64,
    /// Identifier that was being resolved.
    pub target: NodeId,
    /// Whether an answer arrived before the timeout.
    pub found: bool,
    /// Hops the request took (0 when it timed out).
    pub hops: u32,
}

/// A Chord peer.
pub struct ChordNode {
    space: IdSpace,
    id: NodeId,
    addr: Option<NodeAddr>,
    /// `(id, addr)` fingers: entry `i` is the first node `>= id + 2^i`.
    fingers: Vec<(NodeId, NodeAddr)>,
    /// Successor list, closest first.
    successors: Vec<(NodeId, NodeAddr)>,
    predecessor: Option<(NodeId, NodeAddr)>,
    last_pong: SimTime,
    next_request: u64,
    pending: BTreeMap<u64, NodeId>,
    outcomes: Vec<ChordLookupOutcome>,
    lookup_timeout: SimDuration,
    stabilize_interval: SimDuration,
    /// Messages forwarded on behalf of other nodes (for overhead accounting).
    pub forwarded: u64,
}

impl ChordNode {
    /// Create a node with the given identifier in `space`.
    pub(crate) fn new(space: IdSpace, id: NodeId) -> Self {
        ChordNode {
            space,
            id,
            addr: None,
            fingers: Vec::new(),
            successors: Vec::new(),
            predecessor: None,
            last_pong: SimTime::ZERO,
            next_request: 0,
            pending: BTreeMap::new(),
            outcomes: Vec::new(),
            lookup_timeout: SimDuration::from_secs(2),
            stabilize_interval: SimDuration::from_millis(500),
            forwarded: 0,
        }
    }

    /// The node's successor, if known.
    pub(crate) fn successor(&self) -> Option<(NodeId, NodeAddr)> {
        self.successors.first().copied()
    }

    /// Seed the successor list (closest first).
    pub(crate) fn seed_successors(&mut self, successors: Vec<(NodeId, NodeAddr)>) {
        self.successors = successors;
    }

    /// Seed the predecessor.
    pub(crate) fn seed_predecessor(&mut self, predecessor: (NodeId, NodeAddr)) {
        self.predecessor = Some(predecessor);
    }

    /// Seed the finger table.
    pub(crate) fn seed_fingers(&mut self, fingers: Vec<(NodeId, NodeAddr)>) {
        self.fingers = fingers;
    }

    /// Drain the lookup outcomes recorded at this origin.
    pub fn drain_lookup_outcomes(&mut self) -> Vec<ChordLookupOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Originate a lookup for `target`.
    pub fn start_lookup(&mut self, target: NodeId, ctx: &mut Context<'_, ChordMessage>) -> u64 {
        let request_id = self.next_request;
        self.next_request += 1;
        self.pending.insert(request_id, target);
        ctx.set_timer(
            self.lookup_timeout,
            TimerToken(TIMER_TIMEOUT_BASE | request_id),
        );
        let origin = ctx.self_addr();
        if self.owns(target) {
            self.complete(request_id, true, 0);
            return request_id;
        }
        match self.next_hop(target) {
            Some((_, addr)) => {
                ctx.send(
                    addr,
                    ChordMessage::Lookup {
                        request_id,
                        origin,
                        target,
                        hops: 1,
                    },
                );
            }
            None => self.complete(request_id, false, 0),
        }
        request_id
    }

    // ---- internals -------------------------------------------------------

    /// Clockwise distance from `a` to `b` on the ring.
    fn ring_distance(&self, a: NodeId, b: NodeId) -> u64 {
        let size = self.space.size();
        let (a, b) = (a.0 % size.max(1), b.0 % size.max(1));
        if b >= a {
            b - a
        } else {
            size - (a - b)
        }
    }

    /// Does this node own `target` (i.e. lie between its predecessor and
    /// itself on the ring)? Without a predecessor the node claims everything
    /// that no better finger exists for.
    fn owns(&self, target: NodeId) -> bool {
        if target == self.id {
            return true;
        }
        match self.predecessor {
            Some((pred, _)) => {
                // target in (pred, self]
                self.ring_distance(pred, target) <= self.ring_distance(pred, self.id)
                    && self.ring_distance(pred, target) > 0
            }
            None => false,
        }
    }

    /// The closest preceding finger (or successor) for `target`.
    fn next_hop(&self, target: NodeId) -> Option<(NodeId, NodeAddr)> {
        let own = self.ring_distance(self.id, target);
        let mut best: Option<((NodeId, NodeAddr), u64)> = None;
        for &(id, addr) in self.fingers.iter().chain(self.successors.iter()) {
            if id == self.id {
                continue;
            }
            // Candidate must precede the target (not overshoot) and improve on
            // our own distance.
            let to_target = self.ring_distance(id, target);
            if to_target < own {
                match best {
                    Some((_, cur)) if cur <= to_target => {}
                    _ => best = Some(((id, addr), to_target)),
                }
            }
        }
        best.map(|(hop, _)| hop)
    }

    fn complete(&mut self, request_id: u64, found: bool, hops: u32) {
        if let Some(target) = self.pending.remove(&request_id) {
            self.outcomes.push(ChordLookupOutcome {
                request_id,
                target,
                found,
                hops,
            });
        }
    }
}

impl Protocol for ChordNode {
    type Message = ChordMessage;

    fn on_start(&mut self, ctx: &mut Context<'_, ChordMessage>) {
        self.addr = Some(ctx.self_addr());
        self.last_pong = ctx.now();
        let jitter = ctx
            .rng()
            .gen_range_u64(0..self.stabilize_interval.as_micros().max(1));
        ctx.set_timer(SimDuration::from_micros(jitter), TIMER_STABILIZE);
    }

    fn on_message(
        &mut self,
        from: NodeAddr,
        msg: ChordMessage,
        ctx: &mut Context<'_, ChordMessage>,
    ) {
        match msg {
            ChordMessage::Lookup {
                request_id,
                origin,
                target,
                hops,
            } => {
                if self.owns(target) || hops > 64 {
                    let found = self.owns(target);
                    if origin == ctx.self_addr() {
                        if found {
                            self.complete(request_id, true, hops);
                        } else {
                            self.complete(request_id, false, hops);
                        }
                    } else {
                        ctx.send(
                            origin,
                            ChordMessage::Found {
                                request_id,
                                owner: self.id,
                                hops,
                            },
                        );
                        if !found {
                            // Treat a TTL overrun as a (wrong-owner) answer;
                            // the origin still learns the lookup terminated.
                        }
                    }
                    return;
                }
                self.forwarded += 1;
                match self.next_hop(target) {
                    Some((_, addr)) => {
                        ctx.send(
                            addr,
                            ChordMessage::Lookup {
                                request_id,
                                origin,
                                target,
                                hops: hops + 1,
                            },
                        );
                    }
                    None => {
                        // Dead end: answer with ourselves as the best effort.
                        ctx.send(
                            origin,
                            ChordMessage::Found {
                                request_id,
                                owner: self.id,
                                hops,
                            },
                        );
                    }
                }
            }
            ChordMessage::Found {
                request_id, hops, ..
            } => {
                self.complete(request_id, true, hops);
            }
            ChordMessage::Ping { from: id } => {
                // Track the sender as our predecessor if it is closer than the
                // current one.
                let better = match self.predecessor {
                    None => true,
                    Some((pred, _)) => {
                        self.ring_distance(pred, self.id) > self.ring_distance(id, self.id)
                    }
                };
                if better && id != self.id {
                    self.predecessor = Some((id, from));
                }
                ctx.send(from, ChordMessage::Pong { from: self.id });
            }
            ChordMessage::Pong { .. } => {
                self.last_pong = ctx.now();
            }
        }
    }

    fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, ChordMessage>) {
        if token == TIMER_STABILIZE {
            // Successor considered dead when it missed two stabilisation
            // rounds; promote the next successor-list entry.
            if ctx.now().saturating_since(self.last_pong).as_micros()
                > self.stabilize_interval.as_micros() * 3
                && self.successors.len() > 1
            {
                self.successors.remove(0);
                self.last_pong = ctx.now();
            }
            if let Some((_, succ_addr)) = self.successor() {
                ctx.send(succ_addr, ChordMessage::Ping { from: self.id });
            }
            ctx.set_timer(self.stabilize_interval, TIMER_STABILIZE);
        } else if token.0 & TIMER_TIMEOUT_BASE != 0 {
            let request_id = token.0 & !TIMER_TIMEOUT_BASE;
            self.complete(request_id, false, 0);
        }
    }
}

/// Length of the successor list [`ChordBuilder`] seeds at every node.
const SUCCESSOR_LIST: usize = 4;

/// Builds a fully stabilised Chord ring inside a simulation.
#[derive(Debug, Clone)]
pub struct ChordBuilder {
    n: usize,
}

impl ChordBuilder {
    /// A ring of `n` nodes in the default identifier space.
    pub fn new(n: usize) -> Self {
        ChordBuilder { n }
    }

    /// Create the simulation, seed the ring and return the `(addr, id)`
    /// pairs sorted by identifier.
    pub fn build_simulation(&self, seed: u64) -> (Simulation<ChordNode>, Vec<(NodeAddr, NodeId)>) {
        assert!(self.n >= 2, "a Chord ring needs at least two nodes");
        let space = IdSpace::default();
        let mut sim = Simulation::new(SimConfig::default(), seed);
        let mut ids: Vec<NodeId> = (0..self.n)
            .map(|i| space.uniform_position(i, self.n))
            .collect();
        ids.sort();
        ids.dedup();
        let mut pairs: Vec<(NodeAddr, NodeId)> = Vec::with_capacity(ids.len());
        for &id in &ids {
            let addr = sim.add_node(ChordNode::new(space, id));
            pairs.push((addr, id));
        }
        let n = pairs.len();
        for (i, &(addr, id)) in pairs.iter().enumerate() {
            let successors: Vec<(NodeId, NodeAddr)> = (1..=SUCCESSOR_LIST)
                .map(|k| {
                    let (a, i2) = (pairs[(i + k) % n].0, pairs[(i + k) % n].1);
                    (i2, a)
                })
                .collect();
            let predecessor = {
                let (a, i2) = pairs[(i + n - 1) % n];
                (i2, a)
            };
            let mut fingers = Vec::new();
            let mut k = 0u32;
            while k < space.bits() {
                let start = NodeId(space.fold(id.0.wrapping_add(1u64 << k)).0);
                // First node clockwise from `start`.
                let owner = pairs
                    .iter()
                    .min_by_key(|(_, oid)| {
                        let size = space.size();
                        let (s, o) = (start.0 % size, oid.0 % size);
                        if o >= s {
                            o - s
                        } else {
                            size - (s - o)
                        }
                    })
                    .copied()
                    .expect("ring is non-empty");
                if owner.1 != id {
                    fingers.push((owner.1, owner.0));
                }
                k += 1;
            }
            fingers.dedup();
            let node = sim.node_mut(addr).expect("node just added");
            node.seed_successors(successors);
            node.seed_predecessor(predecessor);
            node.seed_fingers(fingers);
        }
        (sim, pairs)
    }
}

#[cfg(test)]
impl ChordNode {
    /// The node's identifier.
    pub(crate) fn id(&self) -> NodeId {
        self.id
    }

    /// The node's predecessor, if known.
    pub(crate) fn predecessor(&self) -> Option<(NodeId, NodeAddr)> {
        self.predecessor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_lookup(
        sim: &mut Simulation<ChordNode>,
        src: NodeAddr,
        target: NodeId,
    ) -> ChordLookupOutcome {
        sim.invoke(src, |node, ctx| {
            node.start_lookup(target, ctx);
        });
        sim.run_for(SimDuration::from_secs(5));
        let outcomes = sim.node_mut(src).unwrap().drain_lookup_outcomes();
        assert_eq!(outcomes.len(), 1);
        outcomes[0]
    }

    #[test]
    fn builder_creates_a_consistent_ring() {
        let (sim, pairs) = ChordBuilder::new(32).build_simulation(1);
        assert_eq!(pairs.len(), 32);
        for &(addr, id) in &pairs {
            let node = sim.node(addr).unwrap();
            assert_eq!(node.id(), id);
            assert!(node.successor().is_some());
            assert!(node.predecessor().is_some());
            assert!(!node.fingers.is_empty());
        }
    }

    #[test]
    fn lookup_resolves_on_an_intact_ring() {
        let (mut sim, pairs) = ChordBuilder::new(64).build_simulation(2);
        sim.run_for(SimDuration::from_secs(1));
        let outcome = run_lookup(&mut sim, pairs[0].0, pairs[40].1);
        assert!(outcome.found, "{outcome:?}");
        assert!(outcome.hops >= 1);
        assert!(
            outcome.hops <= 10,
            "O(log 64) expected, got {}",
            outcome.hops
        );
    }

    #[test]
    fn lookup_for_own_id_is_zero_hops() {
        let (mut sim, pairs) = ChordBuilder::new(16).build_simulation(3);
        sim.run_for(SimDuration::from_secs(1));
        let outcome = run_lookup(&mut sim, pairs[5].0, pairs[5].1);
        assert!(outcome.found);
        assert_eq!(outcome.hops, 0);
    }

    #[test]
    fn hops_grow_logarithmically() {
        let mut means = Vec::new();
        for n in [32usize, 256] {
            let (mut sim, pairs) = ChordBuilder::new(n).build_simulation(4);
            sim.run_for(SimDuration::from_secs(1));
            let mut total = 0u32;
            let count = 20;
            for k in 0..count {
                let src = pairs[k % pairs.len()].0;
                let dst = pairs[(k * 7 + n / 2) % pairs.len()].1;
                let o = run_lookup(&mut sim, src, dst);
                assert!(o.found);
                total += o.hops;
            }
            means.push(total as f64 / count as f64);
        }
        assert!(
            means[1] < means[0] * 3.0,
            "256-node ring must not need 3x the hops of a 32-node ring: {means:?}"
        );
    }

    #[test]
    fn lookup_times_out_when_the_ring_is_destroyed() {
        let (mut sim, pairs) = ChordBuilder::new(16).build_simulation(5);
        sim.run_for(SimDuration::from_secs(1));
        // Kill everyone except the origin.
        for &(addr, _) in pairs.iter().skip(1) {
            sim.fail_node(addr);
        }
        sim.run_for(SimDuration::from_millis(10));
        let outcome = run_lookup(&mut sim, pairs[0].0, pairs[8].1);
        assert!(!outcome.found);
    }

    #[test]
    fn dead_successor_is_replaced_from_the_successor_list() {
        let (mut sim, pairs) = ChordBuilder::new(8).build_simulation(6);
        sim.run_for(SimDuration::from_secs(1));
        let victim = sim.node(pairs[0].0).unwrap().successor().unwrap();
        let victim_addr = pairs.iter().find(|(_, id)| *id == victim.0).unwrap().0;
        sim.fail_node(victim_addr);
        sim.run_for(SimDuration::from_secs(5));
        let new_succ = sim.node(pairs[0].0).unwrap().successor().unwrap();
        assert_ne!(new_succ.0, victim.0, "dead successor must be replaced");
    }
}
