//! The protocol abstraction hosted by the simulator.
//!
//! A [`Protocol`] is a pure, single-threaded state machine. It never touches
//! sockets or clocks directly; all side effects go through the [`Context`]
//! handed to each callback. This "sans-IO" shape lets the exact same protocol
//! implementation run under the discrete-event simulator (for the paper's
//! experiments) and under a real UDP transport (`treep-net`).

use crate::rng::SimRng;
use crate::telemetry::{Telemetry, TraceCtx};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Address of a node inside the simulated (or real) network.
///
/// This is a transport-level address, distinct from any overlay identifier a
/// protocol may assign on top of it (TreeP maps each address to a position in
/// its 1-D ID space).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeAddr(pub u64);

impl fmt::Display for NodeAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Opaque identifier for a timer registered through [`Context::set_timer`].
///
/// The protocol chooses the token value; it is echoed back verbatim in
/// [`Protocol::on_timer`], so protocols typically encode the timer's purpose
/// in the token (e.g. "keep-alive", "election countdown").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TimerToken(pub u64);

/// An outgoing action recorded by a [`Context`].
#[derive(Debug, Clone)]
pub enum Action<M> {
    /// Send `msg` to `dest`.
    Send {
        /// Destination address.
        dest: NodeAddr,
        /// The protocol message.
        msg: M,
    },
    /// Request a timer callback after `delay`.
    SetTimer {
        /// Delay until the timer fires.
        delay: SimDuration,
        /// Token echoed back on expiry.
        token: TimerToken,
    },
}

/// Execution context passed to every protocol callback.
///
/// It exposes the current virtual time, the node's own address, a
/// deterministic random number generator, and collects the actions (sends,
/// timers) produced by the callback.
pub struct Context<'a, M> {
    now: SimTime,
    self_addr: NodeAddr,
    rng: &'a mut SimRng,
    actions: Vec<Action<M>>,
    telemetry: Option<&'a mut Telemetry>,
    trace: Option<TraceCtx>,
    send_traces: Vec<SendTrace>,
}

/// Trace context attached to one queued [`Action::Send`], by index into the
/// action buffer. Envelope metadata only — the host turns it into a hop
/// span when it schedules (or drops) the delivery.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SendTrace {
    /// Index of the send in the action buffer.
    pub action: u32,
    /// The sender's trace context at send time.
    pub ctx: TraceCtx,
    /// Static label for the hop span (the message kind, when known).
    pub label: &'static str,
}

impl<'a, M> Context<'a, M> {
    /// Create a context. Used by simulation / transport hosts.
    pub fn new(now: SimTime, self_addr: NodeAddr, rng: &'a mut SimRng) -> Self {
        Context::with_buffer(now, self_addr, rng, Vec::new())
    }

    /// Create a context that records actions into a recycled buffer.
    ///
    /// The hot dispatch path runs one context per event; reusing one
    /// cleared `Vec` across events removes a malloc/free per callback. The
    /// buffer is cleared here, so callers may hand back whatever
    /// [`Context::into_actions`] previously returned.
    pub fn with_buffer(
        now: SimTime,
        self_addr: NodeAddr,
        rng: &'a mut SimRng,
        mut buffer: Vec<Action<M>>,
    ) -> Self {
        buffer.clear();
        Context {
            now,
            self_addr,
            rng,
            actions: buffer,
            telemetry: None,
            trace: None,
            send_traces: Vec::new(),
        }
    }

    /// [`Context::with_buffer`] plus the host's telemetry sink and the
    /// trace context the triggering event carried (delivers under an
    /// active trace).
    pub(crate) fn for_host(
        now: SimTime,
        self_addr: NodeAddr,
        rng: &'a mut SimRng,
        buffer: Vec<Action<M>>,
        telemetry: Option<&'a mut Telemetry>,
        trace: Option<TraceCtx>,
    ) -> Self {
        let mut ctx = Context::with_buffer(now, self_addr, rng, buffer);
        ctx.telemetry = telemetry;
        ctx.trace = trace;
        ctx
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The address of the node executing the callback.
    pub fn self_addr(&self) -> NodeAddr {
        self.self_addr
    }

    /// Deterministic random number generator for this node's host.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Queue a message for delivery to `dest`.
    pub fn send(&mut self, dest: NodeAddr, msg: M) {
        self.send_labeled(dest, msg, "msg");
    }

    /// [`Context::send`] with a static label for the hop span when this
    /// execution runs under an active trace (protocol wrappers pass the
    /// message kind). Identical to `send` when telemetry is off.
    pub fn send_labeled(&mut self, dest: NodeAddr, msg: M, label: &'static str) {
        if self.telemetry.is_some() {
            if let Some(ctx) = self.trace {
                self.send_traces.push(SendTrace {
                    action: self.actions.len() as u32,
                    ctx,
                    label,
                });
            }
        }
        self.actions.push(Action::Send { dest, msg });
    }

    /// Open a causal trace for an operation this node originates; every
    /// subsequent send from this context (and, transitively, from the
    /// callbacks its deliveries trigger) records hop spans under it.
    /// Returns `None` when telemetry is disabled.
    pub fn start_trace(&mut self, name: &'static str) -> Option<TraceCtx> {
        let (now, addr) = (self.now, self.self_addr);
        let t = self.telemetry.as_deref_mut()?;
        let ctx = t.start_trace(name, now, addr);
        self.trace = Some(ctx);
        Some(ctx)
    }

    /// Attach an instant annotation (cache hit, prune decision, …) to the
    /// current span. No-op outside an active trace.
    pub fn trace_note(&mut self, label: &'static str) {
        let (now, addr, trace) = (self.now, self.self_addr, self.trace);
        if let (Some(t), Some(ctx)) = (self.telemetry.as_deref_mut(), trace) {
            t.note(label, ctx, now, addr);
        }
    }

    /// The trace context this execution runs under, if any. Protocols stash
    /// it (e.g. in a retransmission record) to resume the trace later.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        self.trace
    }

    /// Override the active trace context — used by protocols to continue a
    /// stashed trace (retransmits fired from timers) or to detach from one.
    pub fn set_trace(&mut self, trace: Option<TraceCtx>) {
        self.trace = trace;
    }

    /// Request that [`Protocol::on_timer`] be invoked after `delay` with
    /// `token`.
    pub fn set_timer(&mut self, delay: SimDuration, token: TimerToken) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Consume the context, returning the recorded actions.
    pub fn into_actions(self) -> Vec<Action<M>> {
        self.actions
    }

    /// Consume the context, returning the recorded actions plus the trace
    /// contexts attached to sends (simulation hosts turn these into hop
    /// spans).
    pub(crate) fn into_parts(self) -> (Vec<Action<M>>, Vec<SendTrace>) {
        (self.actions, self.send_traces)
    }
}

/// A protocol state machine hosted by the simulator or a real transport.
pub trait Protocol {
    /// The wire message type exchanged between nodes.
    type Message: Clone;

    /// Called once when the node is started (joins the network).
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Message>) {}

    /// Called when a message from `from` is delivered to this node.
    fn on_message(
        &mut self,
        from: NodeAddr,
        msg: Self::Message,
        ctx: &mut Context<'_, Self::Message>,
    );

    /// Called when a timer previously registered with
    /// [`Context::set_timer`] expires.
    fn on_timer(&mut self, _token: TimerToken, _ctx: &mut Context<'_, Self::Message>) {}

    /// A hint that this node is the target of the host's next event: start
    /// loading what its handler will read (with [`crate::prefetch`]).
    /// `next` is the message that event delivers, so the node can also load
    /// the parts of it that live behind a pointer; it is `None` when the
    /// event is not a delivery. The hint must change nothing a callback can
    /// observe; the simulator calls it once per event, one event ahead, and
    /// other hosts need not call it at all.
    fn prefetch(&self, _next: Option<&Self::Message>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_records_actions_in_order() {
        let mut rng = SimRng::seed_from(7);
        let mut ctx: Context<'_, u32> =
            Context::new(SimTime::from_millis(5), NodeAddr(3), &mut rng);
        assert_eq!(ctx.now(), SimTime::from_millis(5));
        assert_eq!(ctx.self_addr(), NodeAddr(3));
        ctx.send(NodeAddr(1), 10);
        ctx.set_timer(SimDuration::from_millis(2), TimerToken(99));
        ctx.send(NodeAddr(2), 20);
        let actions = ctx.into_actions();
        assert_eq!(actions.len(), 3);
        match &actions[0] {
            Action::Send { dest, msg } => {
                assert_eq!(*dest, NodeAddr(1));
                assert_eq!(*msg, 10);
            }
            other => panic!("unexpected action {other:?}"),
        }
        match &actions[1] {
            Action::SetTimer { delay, token } => {
                assert_eq!(*delay, SimDuration::from_millis(2));
                assert_eq!(*token, TimerToken(99));
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn context_rng_is_usable() {
        let mut rng = SimRng::seed_from(1);
        let mut ctx: Context<'_, ()> = Context::new(SimTime::ZERO, NodeAddr(0), &mut rng);
        let a = ctx.rng().gen_range_u64(0..100);
        assert!(a < 100);
    }

    #[test]
    fn node_addr_display() {
        assert_eq!(NodeAddr(17).to_string(), "n17");
    }
}
