//! The simulation engine: owns nodes, virtual time, the event queue and the
//! link model, and drives [`Protocol`] state machines.
//!
//! # One dispatch path
//!
//! [`Simulation`] is the only place in this crate that turns an event into
//! a protocol callback and a callback's actions into new events: `step`
//! pops and accounts one event (digest, telemetry), `dispatch_event` gates
//! it on the target node's state and runs the callback, and
//! `apply_actions` schedules what the callback asked for.
//!
//! # Layout (million-node scale)
//!
//! The per-event dispatch path does no hashing and no allocation:
//!
//! * events come off a hierarchical timer wheel ([`Scheduler`]) in exact
//!   `(time, seq)` order; its tiers queue 24-byte keys, and each event is
//!   stored once, a delivery in the wheel's slab of message-sized slots and
//!   a timer, a start or a crash in its 24-byte control table;
//! * node state lives in one `Vec` of slots; addresses are assigned
//!   densely from 0 and never reused (a crashed node stays, dead but
//!   inspectable), so resolving one is one index (`addr.0`) instead of a
//!   `HashMap` probe;
//! * each callback's actions are recorded into one recycled buffer
//!   ([`Context::with_buffer`]) instead of a fresh `Vec` per event;
//! * the engine looks one event ahead: having popped event *k*, it peeks at
//!   *k + 1* (warm: the wheel hints a granule's slots into cache when the
//!   granule becomes current) and prefetches that node's slot
//!   ([`prefetch`]);
//!   once *k* is dispatched it peeks again and hands the node one
//!   [`Protocol::prefetch`] hint naming *k + 1*'s message (`None` for a
//!   timer, a start or a crash). The node can follow its now-cached
//!   pointers to its own tables, and the message's pointers to the heap
//!   parts its handler reads first. At 10⁴ nodes every node and every
//!   payload is cold when its event comes up, so the handler otherwise
//!   starts by waiting on memory. [`Simulation::invoke`] gives a host
//!   call the same start: it prefetches the node's slot and hands it a
//!   hint with no message before the call runs. A hint changes nothing
//!   that is dispatched, in what order, or with what result.
//!
//! Node sweeps ([`Simulation::alive_nodes`], [`Simulation::all_nodes`])
//! iterate in address order — deterministic by construction, with nothing
//! to sort. An optional FNV-1a [`Simulation::event_digest`] folds every
//! dispatched event so two runs can be compared for identical event order
//! cheaply.

use crate::event::{Event, EventKind};
use crate::link::LinkModel;
use crate::metrics::SimMetrics;
use crate::prefetch::prefetch;
use crate::protocol::{Action, Context, NodeAddr, Protocol, SendTrace};
use crate::rng::SimRng;
use crate::scheduler::{NextEvent, Scheduler};
use crate::telemetry::{FlightEntry, Telemetry, TelemetryConfig, TraceCtx};
use crate::time::{SimDuration, SimTime};

/// Configuration of a simulation run.
#[derive(Debug, Clone, Copy)]
pub struct SimConfig {
    /// Link model applied to every message.
    pub link: LinkModel,
    /// Hard cap on dispatched events; exceeding it panics. Guards against
    /// protocols that accidentally generate unbounded traffic.
    pub max_events: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link: LinkModel::default(),
            max_events: 500_000_000,
        }
    }
}

/// Per-node bookkeeping.
struct NodeSlot<P> {
    proto: P,
    alive: bool,
    started: bool,
}

/// Seed of the 64-bit FNV-1a-style event digest.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One xor-multiply round over a whole 64-bit word. A byte-wise FNV would
/// cost 32 serially dependent multiplies per event on the dispatch hot
/// path; the word-level variant keeps the avalanche we need (any event
/// reordering flips the digest) at one multiply per word.
#[inline]
fn fnv_fold(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(FNV_PRIME)
}

/// Fold one dispatched event into a digest: its time, FIFO sequence,
/// target node and kind discriminant. Two runs with equal digests
/// dispatched the same events in the same order.
#[inline]
fn fold_event<M>(digest: u64, at: SimTime, seq: u64, kind: &EventKind<M>) -> u64 {
    let (tag, node) = event_word(kind);
    let mut d = fnv_fold(digest, at.as_micros());
    d = fnv_fold(d, seq);
    d = fnv_fold(d, tag as u64);
    fnv_fold(d, node)
}

/// The digest's compressed view of an event: a kind tag and a node word.
/// Shared by the digest fold and the flight recorder so a recorder dump
/// reads in the digest's vocabulary.
#[inline]
fn event_word<M>(kind: &EventKind<M>) -> (u8, u64) {
    match kind {
        EventKind::Deliver { src, dest, .. } => (0u8, dest.0 ^ (src.0 << 1)),
        EventKind::Timer { node, token } => (1, node.0 ^ (token.0 << 1)),
        EventKind::Start { node } => (2, node.0),
        EventKind::Fail { node } => (3, node.0),
    }
}

/// The callback of [`Simulation::on_dead_letter`].
type DeadLetterObserver<M> = Box<dyn FnMut(SimTime, NodeAddr, NodeAddr, &M) + Send>;

/// A discrete-event simulation hosting nodes of one protocol type.
pub struct Simulation<P: Protocol> {
    config: SimConfig,
    scheduler: Scheduler<P::Message>,
    /// Node state, indexed by `NodeAddr.0`. Addresses are assigned
    /// densely, so this is a plain `Vec` — no hashing on the dispatch path.
    nodes: Vec<NodeSlot<P>>,
    rng: SimRng,
    metrics: SimMetrics,
    /// Recycled action buffer threaded through every [`Context`].
    action_buf: Vec<Action<P::Message>>,
    /// FNV-1a fold over dispatched events; `None` until enabled.
    digest: Option<u64>,
    /// Telemetry sink (spans, flight recorder, dispatch-cost histograms);
    /// `None` until enabled, and behaviourally inert when on.
    telemetry: Option<Box<Telemetry>>,
    /// Told of every message that dies at a dead or unstarted destination
    /// (see [`Simulation::on_dead_letter`]); `None` until set.
    dead_letter: Option<DeadLetterObserver<P::Message>>,
}

impl<P: Protocol> Simulation<P> {
    /// Create an empty simulation with the given configuration and RNG
    /// seed.
    pub fn new(config: SimConfig, seed: u64) -> Self {
        Simulation {
            config,
            scheduler: Scheduler::new(),
            nodes: Vec::new(),
            rng: SimRng::seed_from(seed),
            metrics: SimMetrics::default(),
            action_buf: Vec::new(),
            digest: None,
            telemetry: None,
            dead_letter: None,
        }
    }

    /// Pre-size the node table for `additional` more nodes, so adding a
    /// large population allocates it once at its final size instead of
    /// doubling its way there.
    pub fn reserve_nodes(&mut self, additional: usize) {
        self.nodes.reserve_exact(additional);
    }

    /// Start folding every dispatched event into an order-sensitive FNV-1a
    /// digest (see [`Simulation::event_digest`]).
    pub fn enable_digest(&mut self) {
        self.digest.get_or_insert(FNV_OFFSET);
    }

    /// Have `observer` called with `(arrival time, sender, destination,
    /// message)` for every message that arrives at a crashed or
    /// never-started node — the letters [`SimMetrics::messages_to_dead`]
    /// only counts. It runs on that cold branch alone, sees the message
    /// just before it is dropped and cannot act on the simulation, so the
    /// event stream and its digest are the same with or without it.
    pub fn on_dead_letter(
        &mut self,
        observer: impl FnMut(SimTime, NodeAddr, NodeAddr, &P::Message) + Send + 'static,
    ) {
        self.dead_letter = Some(Box::new(observer));
    }

    /// Turn telemetry on: causal spans, engine profiling and the flight
    /// recorder (see `crate::telemetry`). Inert with respect to simulation
    /// behaviour — a digest-pinned test holds the engine to that.
    pub fn enable_telemetry(&mut self, config: TelemetryConfig) {
        if self.telemetry.is_none() {
            self.telemetry = Some(Box::new(Telemetry::new(config)));
        }
    }

    /// The telemetry sink, if [`Simulation::enable_telemetry`] was called.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// The event digest so far, if [`Simulation::enable_digest`] was
    /// called. Equal digests ⇒ identical dispatch sequence; `reproduce
    /// --scale` runs each leg twice and compares the two.
    pub fn event_digest(&self) -> Option<u64> {
        self.digest
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.scheduler.now()
    }

    /// Aggregate counters for the run so far.
    pub fn metrics(&self) -> SimMetrics {
        self.metrics
    }

    /// The simulation-wide RNG (workloads may fork it to stay deterministic).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Add a node and schedule its start at the current time. Returns its
    /// address.
    pub fn add_node(&mut self, proto: P) -> NodeAddr {
        let addr = NodeAddr(self.nodes.len() as u64);
        self.nodes.push(NodeSlot {
            proto,
            alive: true,
            started: false,
        });
        self.scheduler
            .schedule(self.now(), EventKind::Start { node: addr });
        addr
    }

    /// Index of `addr` in `nodes`; out of bounds for an address no node
    /// has.
    #[inline]
    fn local(addr: NodeAddr) -> usize {
        addr.0 as usize
    }

    #[inline]
    fn slot(&self, addr: NodeAddr) -> Option<&NodeSlot<P>> {
        self.nodes.get(Self::local(addr))
    }

    #[inline]
    fn slot_mut(&mut self, addr: NodeAddr) -> Option<&mut NodeSlot<P>> {
        self.nodes.get_mut(Self::local(addr))
    }

    /// Immutable access to a node's protocol state (dead nodes remain
    /// inspectable).
    pub fn node(&self, addr: NodeAddr) -> Option<&P> {
        self.slot(addr).map(|s| &s.proto)
    }

    /// Mutable access to a node's protocol state without dispatching actions.
    /// Prefer [`Simulation::invoke`] when the mutation should produce
    /// messages or timers.
    pub fn node_mut(&mut self, addr: NodeAddr) -> Option<&mut P> {
        self.slot_mut(addr).map(|s| &mut s.proto)
    }

    /// Is the node currently alive?
    pub fn is_alive(&self, addr: NodeAddr) -> bool {
        self.slot(addr).map(|s| s.alive).unwrap_or(false)
    }

    /// Addresses of all currently alive nodes, in address order.
    pub fn alive_nodes(&self) -> Vec<NodeAddr> {
        (0..)
            .zip(&self.nodes)
            .filter(|(_, slot)| slot.alive)
            .map(|(addr, _)| NodeAddr(addr))
            .collect()
    }

    /// Addresses of every node ever added, in address order.
    pub fn all_nodes(&self) -> Vec<NodeAddr> {
        (0..self.nodes.len() as u64).map(NodeAddr).collect()
    }

    /// Crash-fail `addr` immediately: the node stops receiving messages and
    /// timers and its protocol gets no notification (Section IV failure
    /// model).
    pub fn fail_node(&mut self, addr: NodeAddr) {
        let at = self.now();
        self.scheduler.schedule(at, EventKind::Fail { node: addr });
    }

    /// Invoke a closure on a live node with a full [`Context`], dispatching
    /// whatever actions it produces. This is how experiments trigger
    /// protocol-level operations (e.g. "start a lookup for key X").
    ///
    /// The node gets the warm start an event gets from the look-ahead: its
    /// slot is prefetched and it is handed one [`Protocol::prefetch`] hint,
    /// with no message, before the closure runs.
    ///
    /// Returns `None` when the node is missing or dead.
    pub fn invoke<R>(
        &mut self,
        addr: NodeAddr,
        f: impl FnOnce(&mut P, &mut Context<'_, P::Message>) -> R,
    ) -> Option<R> {
        let slot = self.nodes.get_mut(Self::local(addr))?;
        prefetch(std::slice::from_ref(slot));
        if !slot.alive {
            return None;
        }
        slot.proto.prefetch(None);
        let buf = std::mem::take(&mut self.action_buf);
        let mut ctx = Context::for_host(
            self.scheduler.now(),
            addr,
            &mut self.rng,
            buf,
            self.telemetry.as_deref_mut(),
            None,
        );
        let out = f(&mut slot.proto, &mut ctx);
        let (actions, traces) = ctx.into_parts();
        self.apply_actions(addr, actions, traces);
        Some(out)
    }

    /// Dispatch a single event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(event) = self.scheduler.pop() else {
            return false;
        };
        if let Some((_, slot)) = self.next_target() {
            prefetch(std::slice::from_ref(slot));
        }
        self.metrics.events_dispatched += 1;
        assert!(
            self.metrics.events_dispatched <= self.config.max_events,
            "simulation exceeded max_events = {} (runaway protocol?)",
            self.config.max_events
        );
        if let Some(d) = self.digest.as_mut() {
            *d = fold_event(*d, event.at, event.seq, &event.kind);
        }
        // Telemetry pre-dispatch: flight-record the event and decide
        // whether this is one of the 1-in-64 dispatches whose wall-clock
        // cost gets measured. All of it is off the hot path when telemetry
        // is off.
        let mut timed_tag = None;
        if let Some(t) = self.telemetry.as_deref_mut() {
            let (tag, node) = event_word(&event.kind);
            t.recorder.record(FlightEntry {
                at: event.at,
                seq: event.seq,
                tag,
                node,
            });
            if t.should_time() {
                timed_tag = Some(tag);
            }
        }
        match timed_tag {
            Some(tag) => {
                let started = std::time::Instant::now();
                self.dispatch_event(event);
                let nanos = started.elapsed().as_nanos() as u64;
                if let Some(t) = self.telemetry.as_deref_mut() {
                    t.record_dispatch(tag, nanos);
                }
            }
            None => self.dispatch_event(event),
        }
        if let Some((next, slot)) = self.next_target() {
            slot.proto.prefetch(next.message);
        }
        true
    }

    /// The next queued event and the slot of the node it targets, if there
    /// is one at that address.
    #[inline]
    fn next_target(&self) -> Option<(NextEvent<'_, P::Message>, &NodeSlot<P>)> {
        let next = self.scheduler.peek()?;
        let slot = self.slot(next.target)?;
        Some((next, slot))
    }

    /// Run until the event queue drains completely.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    /// Run until virtual time reaches `deadline` (events at exactly
    /// `deadline` are processed) or the queue drains.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(t) = self.scheduler.peek_time() {
            if t > deadline {
                break;
            }
            self.step();
        }
    }

    /// Run for `d` more virtual time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Number of events still queued.
    pub fn pending_events(&self) -> usize {
        self.scheduler.len()
    }

    /// The one place an event becomes a protocol callback: find the target
    /// node, gate on its state, run the callback the event kind names, then
    /// apply the actions it recorded.
    fn dispatch_event(&mut self, event: Event<P::Message>) {
        let node = event.target();
        let trace = match event.kind {
            EventKind::Deliver { .. } => self
                .telemetry
                .as_deref_mut()
                .and_then(|t| t.take_inflight(event.seq)),
            _ => None,
        };
        // Field-level lookup (not `slot_mut`) so `self.rng` / `self.metrics`
        // stay independently borrowable alongside the slot.
        let slot = self.nodes.get_mut(Self::local(node));
        let metrics = &mut self.metrics;
        let ready = |slot: &&mut NodeSlot<P>| {
            slot.alive
                && match event.kind {
                    EventKind::Start { .. } => !slot.started,
                    EventKind::Deliver { .. } => slot.started,
                    _ => true,
                }
        };
        let Some(slot) = slot.filter(ready) else {
            match event.kind {
                EventKind::Deliver { src, msg, .. } => {
                    metrics.messages_to_dead += 1;
                    if let Some(observer) = self.dead_letter.as_mut() {
                        observer(event.at, src, node, &msg);
                    }
                }
                EventKind::Timer { .. } => metrics.timers_dropped += 1,
                _ => {}
            }
            return;
        };
        let buf = std::mem::take(&mut self.action_buf);
        let mut ctx = Context::for_host(
            event.at,
            node,
            &mut self.rng,
            buf,
            self.telemetry.as_deref_mut(),
            trace,
        );
        match event.kind {
            EventKind::Start { .. } => {
                slot.started = true;
                metrics.nodes_started += 1;
                slot.proto.on_start(&mut ctx);
            }
            EventKind::Timer { token, .. } => {
                metrics.timers_fired += 1;
                slot.proto.on_timer(token, &mut ctx);
            }
            EventKind::Deliver { src, msg, .. } => {
                metrics.messages_delivered += 1;
                slot.proto.on_message(src, msg, &mut ctx);
            }
            // A crash runs no callback, so the context stays empty.
            EventKind::Fail { .. } => {
                slot.alive = false;
                metrics.nodes_failed += 1;
            }
        }
        let (actions, traces) = ctx.into_parts();
        self.apply_actions(node, actions, traces);
    }

    /// Dispatch recorded actions, then keep the (drained) buffer for the
    /// next callback. A send draws its fate from the link model here, so
    /// its arrival time is fixed when it is sent. `traces` carries the
    /// trace contexts attached to sends (by action index); each traced send
    /// becomes a hop span recorded sender-side, and only the continuation
    /// context travels with the delivery.
    fn apply_actions(
        &mut self,
        origin: NodeAddr,
        mut actions: Vec<Action<P::Message>>,
        traces: Vec<SendTrace>,
    ) {
        let now = self.scheduler.now();
        let mut traces = traces.iter().peekable();
        for (index, action) in actions.drain(..).enumerate() {
            match action {
                Action::Send { dest, msg } => {
                    let sent_trace = traces.next_if(|t| t.action as usize == index);
                    self.metrics.messages_sent += 1;
                    let arrival = match self.config.link.transmit(origin, dest, &mut self.rng) {
                        Some(latency) => Some(now + latency),
                        None => {
                            self.metrics.messages_lost += 1;
                            None
                        }
                    };
                    let hop = match (sent_trace, self.telemetry.as_deref_mut()) {
                        (Some(st), Some(t)) => Some(TraceCtx {
                            trace_id: st.ctx.trace_id,
                            parent_span: t.record_hop(st.label, st.ctx, origin, dest, now, arrival),
                        }),
                        _ => None,
                    };
                    let Some(arrival) = arrival else { continue };
                    let seq = self.scheduler.schedule(
                        arrival,
                        EventKind::Deliver {
                            src: origin,
                            dest,
                            msg,
                        },
                    );
                    if let (Some(ctx), Some(t)) = (hop, self.telemetry.as_deref_mut()) {
                        t.put_inflight(seq, ctx);
                    }
                }
                Action::SetTimer { delay, token } => {
                    self.scheduler.schedule(
                        now + delay,
                        EventKind::Timer {
                            node: origin,
                            token,
                        },
                    );
                }
            }
        }
        self.action_buf = actions;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LatencyModel, LossModel};
    use crate::protocol::TimerToken;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Ping-pong test protocol: node 0 pings node 1 on start, node 1 pongs
    /// back, each side counts what it received; node 0 also arms a timer.
    #[derive(Default)]
    struct PingPong {
        pings: u32,
        pongs: u32,
        timer_fires: u32,
    }

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Protocol for PingPong {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            if ctx.self_addr() == NodeAddr(0) {
                ctx.send(NodeAddr(1), Msg::Ping);
                ctx.set_timer(SimDuration::from_millis(100), TimerToken(7));
            }
        }

        fn on_message(&mut self, from: NodeAddr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    ctx.send(from, Msg::Pong);
                }
                Msg::Pong => self.pongs += 1,
            }
        }

        fn on_timer(&mut self, token: TimerToken, _ctx: &mut Context<'_, Msg>) {
            assert_eq!(token, TimerToken(7));
            self.timer_fires += 1;
        }
    }

    fn ideal_config() -> SimConfig {
        SimConfig {
            link: LinkModel::ideal(),
            max_events: 1_000_000,
        }
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, 1);
        assert_eq!(sim.node(a).unwrap().pongs, 1);
        assert_eq!(sim.node(a).unwrap().timer_fires, 1);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, 2);
        assert_eq!(m.messages_delivered, 2);
        assert_eq!(m.timers_fired, 1);
        assert_eq!(m.nodes_started, 2);
    }

    #[test]
    fn reserved_node_storage_is_not_reallocated() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        sim.reserve_nodes(1_000);
        assert_eq!(sim.nodes.capacity(), 1_000);
        for _ in 0..1_000 {
            sim.add_node(PingPong::default());
        }
        assert_eq!(sim.nodes.capacity(), 1_000);
    }

    #[test]
    fn addresses_outside_the_node_table_resolve_to_nothing() {
        // Two nodes own addresses 0 and 1: the first unused address and the
        // last one run off the table.
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        assert_eq!((a, b), (NodeAddr(0), NodeAddr(1)));
        sim.run_until_idle();
        for addr in [NodeAddr(2), NodeAddr(u64::MAX)] {
            assert!(sim.node(addr).is_none(), "{addr:?}");
            assert!(sim.node_mut(addr).is_none(), "{addr:?}");
            assert!(!sim.is_alive(addr), "{addr:?}");
            assert_eq!(sim.invoke(addr, |_, _| ()), None, "{addr:?}");
        }
        assert!(sim.is_alive(a) && sim.is_alive(b));

        // A send to the last address and one to the first unused address
        // each die as one dead letter.
        for (dead, dest) in [(1, NodeAddr(u64::MAX)), (2, NodeAddr(2))] {
            sim.invoke(a, |_, ctx| ctx.send(dest, Msg::Ping));
            sim.run_until_idle();
            assert_eq!(sim.metrics().messages_to_dead, dead, "{dest:?}");
        }

        // Failing an address nobody has dispatches one event and changes
        // nothing else.
        let before = sim.metrics();
        sim.fail_node(NodeAddr(2));
        sim.run_until_idle();
        let expected = SimMetrics {
            events_dispatched: before.events_dispatched + 1,
            ..before
        };
        assert_eq!(sim.metrics(), expected);
        assert_eq!(sim.alive_nodes(), vec![a, b]);
    }

    #[test]
    fn lossy_link_drops_everything() {
        let config = SimConfig {
            link: LinkModel {
                latency: LatencyModel::Fixed(SimDuration::from_millis(1)),
                loss: LossModel::Bernoulli { p: 1.0 },
            },
            max_events: 10_000,
        };
        let mut sim: Simulation<PingPong> = Simulation::new(config, 1);
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, 0);
        assert_eq!(sim.metrics().messages_lost, 1);
        assert_eq!(sim.metrics().messages_delivered, 0);
    }

    #[test]
    fn failed_node_receives_nothing() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        // Fail b before the ping can be delivered: both the Fail and the
        // Start/Deliver are at t=0, but Fail is scheduled first.
        sim.fail_node(b);
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, 0);
        assert!(!sim.is_alive(b));
        assert_eq!(sim.alive_nodes().len(), 1);
        assert_eq!(sim.metrics().messages_to_dead, 1);
    }

    #[test]
    fn dead_letter_observer_names_each_dead_letter_and_changes_nothing() {
        let run = |observe: bool| {
            let letters = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
            sim.enable_digest();
            if observe {
                let seen = letters.clone();
                sim.on_dead_letter(move |at, src, dest, msg: &Msg| {
                    seen.lock().unwrap().push((at, src, dest, msg.clone()));
                });
            }
            let a = sim.add_node(PingPong::default());
            let b = sim.add_node(PingPong::default());
            sim.fail_node(b);
            sim.run_until_idle();
            let letters = letters.lock().unwrap().clone();
            (sim.event_digest(), sim.metrics(), a, b, letters)
        };
        let (digest, metrics, a, b, letters) = run(true);
        assert_eq!(letters.len() as u64, metrics.messages_to_dead);
        let (at, src, dest, msg) = letters[0].clone();
        assert_eq!((src, dest, msg), (a, b, Msg::Ping));
        assert_eq!(at, SimTime::from_micros(1), "the ideal link takes 1 µs");
        let (plain_digest, plain_metrics, .., none) = run(false);
        assert!(none.is_empty());
        assert_eq!((digest, metrics), (plain_digest, plain_metrics));
    }

    /// One lookahead hint: the node it was called on and the message it
    /// named.
    type Hint = (*const Hinted, Option<Msg>);

    /// `PingPong` whose lookahead hint logs the address of the node it was
    /// called on and the message it was handed.
    struct Hinted {
        inner: PingPong,
        hints: Rc<RefCell<Vec<Hint>>>,
    }

    impl Protocol for Hinted {
        type Message = Msg;

        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            self.inner.on_start(ctx);
        }

        fn on_message(&mut self, from: NodeAddr, msg: Msg, ctx: &mut Context<'_, Msg>) {
            self.inner.on_message(from, msg, ctx);
        }

        fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, Msg>) {
            self.inner.on_timer(token, ctx);
        }

        fn prefetch(&self, next: Option<&Msg>) {
            self.hints.borrow_mut().push((self, next.cloned()));
        }
    }

    #[test]
    fn the_hint_names_the_next_events_node_and_changes_nothing() {
        let hints = Rc::new(RefCell::new(Vec::new()));
        let mut hinted: Simulation<Hinted> = Simulation::new(SimConfig::default(), 3);
        let mut plain: Simulation<PingPong> = Simulation::new(SimConfig::default(), 3);
        hinted.enable_digest();
        plain.enable_digest();
        for _ in 0..6 {
            hinted.add_node(Hinted {
                inner: PingPong::default(),
                hints: hints.clone(),
            });
            plain.add_node(PingPong::default());
        }
        hinted.fail_node(NodeAddr(4));
        plain.fail_node(NodeAddr(4));
        let (mut hinted_steps, mut timer_hints, mut invoke_hints) = (0, 0, 0);
        for round in 0..4u64 {
            // Every node pings another, and one ping goes to an address
            // nobody has: its event has no node to hint. Of the events that
            // carry no message, the starts and node 0's timer are hinted.
            // Each invoke of a live node hints that node once, with no
            // message; node 4 is dead from the first round's events on.
            for a in 0..6u64 {
                let dest = NodeAddr(if a == round { 99 } else { (a + round + 1) % 6 });
                let invoked = hinted.invoke(NodeAddr(a), |_, ctx| ctx.send(dest, Msg::Ping));
                plain.invoke(NodeAddr(a), |_, ctx| ctx.send(dest, Msg::Ping));
                let named = invoked.map(|()| {
                    let node = hinted.node(NodeAddr(a)).expect("invoked");
                    (node as *const Hinted, None)
                });
                assert_eq!(hints.borrow_mut().pop(), named, "round {round}, node {a}");
                assert!(hints.borrow().is_empty(), "one hint per invoke");
                invoke_hints += usize::from(named.is_some());
            }
            let (mut last_hint, mut fired) = (None, hinted.metrics().timers_fired);
            while hinted.step() {
                // This step dispatched the event the last hint named: when
                // it fired a timer, that hint named no message.
                if hinted.metrics().timers_fired > fired {
                    fired = hinted.metrics().timers_fired;
                    if let Some((_, msg)) = last_hint {
                        assert_eq!(msg, None, "a timer is hinted with a message");
                        timer_hints += 1;
                    }
                }
                let named = hinted.scheduler.peek().and_then(|next| {
                    let node = hinted.node(next.target)?;
                    Some((node as *const Hinted, next.message.cloned()))
                });
                assert_eq!(hints.borrow_mut().pop(), named, "round {round}");
                assert!(hints.borrow().is_empty(), "one hint per event");
                hinted_steps += usize::from(named.is_some());
                last_hint = named;
            }
            plain.run_until_idle();
        }
        assert!(hinted_steps > 30, "{hinted_steps} hints");
        assert_eq!(timer_hints, 1, "node 0's timer is hinted, with no message");
        assert_eq!(
            invoke_hints,
            6 * 4 - 3,
            "every invoke but node 4's last three"
        );
        assert!(hinted.metrics().messages_to_dead > 0);
        assert_eq!(
            (hinted.event_digest(), hinted.metrics()),
            (plain.event_digest(), plain.metrics())
        );
    }

    #[test]
    fn timers_of_dead_nodes_are_dropped() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let a = sim.add_node(PingPong::default());
        let _b = sim.add_node(PingPong::default());
        // Run only far enough for on_start (which arms a's 100ms timer).
        sim.run_until(SimTime::from_millis(10));
        sim.fail_node(a);
        sim.run_until_idle();
        assert_eq!(sim.node(a).unwrap().timer_fires, 0);
        assert_eq!(sim.metrics().timers_dropped, 1);
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim: Simulation<PingPong> = Simulation::new(
            SimConfig {
                link: LinkModel {
                    latency: LatencyModel::Fixed(SimDuration::from_millis(20)),
                    loss: LossModel::None,
                },
                max_events: 10_000,
            },
            1,
        );
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until(SimTime::from_millis(5));
        // Ping is in flight (20ms latency) but not yet delivered.
        assert_eq!(sim.node(b).unwrap().pings, 0);
        sim.run_until(SimTime::from_millis(25));
        assert_eq!(sim.node(b).unwrap().pings, 1);
    }

    #[test]
    fn invoke_dispatches_actions() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        let _a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        sim.run_until_idle();
        let before = sim.node(b).unwrap().pings;
        let r = sim.invoke(NodeAddr(0), |_node, ctx| {
            ctx.send(b, Msg::Ping);
            42
        });
        assert_eq!(r, Some(42));
        sim.run_until_idle();
        assert_eq!(sim.node(b).unwrap().pings, before + 1);
        // Invoking a dead node returns None.
        sim.fail_node(b);
        sim.run_until_idle();
        assert_eq!(sim.invoke(b, |_n, _c| ()), None);
    }

    #[test]
    fn deterministic_given_seed() {
        fn run(seed: u64) -> (u64, u64, Option<u64>) {
            let mut sim: Simulation<PingPong> = Simulation::new(SimConfig::default(), seed);
            sim.enable_digest();
            for _ in 0..10 {
                sim.add_node(PingPong::default());
            }
            sim.run_until_idle();
            (
                sim.metrics().messages_delivered,
                sim.now().as_micros(),
                sim.event_digest(),
            )
        }
        assert_eq!(run(7), run(7));
        assert!(run(7).2.is_some());
    }

    #[test]
    fn node_sweeps_are_index_ordered() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        for _ in 0..5 {
            sim.add_node(PingPong::default());
        }
        sim.run_until_idle();
        sim.fail_node(NodeAddr(2));
        sim.run_until_idle();
        assert_eq!(
            sim.all_nodes(),
            (0..5).map(NodeAddr).collect::<Vec<_>>(),
            "all_nodes is address-ordered"
        );
        assert_eq!(
            sim.alive_nodes(),
            vec![NodeAddr(0), NodeAddr(1), NodeAddr(3), NodeAddr(4)],
            "alive_nodes is address-ordered with dead nodes skipped"
        );
    }

    #[test]
    fn telemetry_times_one_dispatch_in_sixty_four() {
        let mut sim: Simulation<PingPong> = Simulation::new(ideal_config(), 1);
        sim.enable_telemetry(TelemetryConfig::default());
        let a = sim.add_node(PingPong::default());
        let b = sim.add_node(PingPong::default());
        for _ in 0..500 {
            sim.invoke(a, |_, ctx| ctx.send(b, Msg::Ping));
            sim.run_until_idle();
        }
        let events = sim.metrics().events_dispatched;
        assert_eq!(events, 1_005);
        assert_eq!(sim.telemetry().unwrap().dispatch_samples(), events / 64);
    }
}
