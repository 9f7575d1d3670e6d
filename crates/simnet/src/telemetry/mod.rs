//! Telemetry: causal spans, engine profiling and a flight recorder —
//! everything off by default, behaviourally inert when on.
//!
//! A [`Telemetry`] holds what its readers read: the span log (exported by
//! [`chrome_trace`]), the flight recorder (dumped by the `flight_assert!`
//! macros) and four [`Histogram`]s of wall-clock nanoseconds per
//! dispatched event, one per event kind (deliver, timer, start, fail; 1
//! event in 64 is timed). Counts of simulated events are
//! [`SimMetrics`](crate::SimMetrics)' alone.
//!
//! # Span model
//!
//! [`Context::start_trace`](crate::Context::start_trace) opens a **root
//! span** for an originated operation and sets the context's [`TraceCtx`].
//! From then on propagation is automatic: every `ctx.send` under an active
//! trace records a **hop span** (opened at send time, closed at delivery,
//! marked [`SpanRecord::lost`] if the link drops it) whose parent is the
//! current span, and the receiver's callback context carries
//! `TraceCtx { trace_id, parent_span: hop }` — so fan-out trees and
//! retransmit chains reconstruct from parent links alone. The context is
//! **simulator-envelope metadata**: it rides the in-memory event queue and
//! is never serialised by any wire codec, which is why enabling tracing
//! cannot change a single byte on the wire. Trace/span ids come from plain
//! counters, never from the simulation RNG, so the deterministic event
//! stream is untouched — a digest-pinned test holds the engine to that.
//!
//! # Export format
//!
//! [`export::chrome_trace`] renders a span log as Chrome-trace JSON (the
//! `traceEvents` array form): one `ph:"X"` complete event per span with
//! `ts`/`dur` in virtual µs, `pid` = trace id, `tid` = receiving node, and
//! one `ph:"i"` instant event per note. The file loads directly in Perfetto
//! or `chrome://tracing`; `reproduce --trace-out FILE` writes one for a
//! seeded run.

mod export;
mod histogram;
mod recorder;
mod span;

pub use export::chrome_trace;
pub(crate) use histogram::Histogram;
pub(crate) use recorder::{FlightEntry, FlightRecorder};
pub use span::TraceCtx;
pub(crate) use span::{NoteRecord, SpanLog, SpanRecord};

use crate::protocol::NodeAddr;
use crate::time::SimTime;
use std::collections::HashMap;

/// Tuning knobs for a [`Telemetry`] instance.
#[derive(Debug, Clone, Copy)]
pub struct TelemetryConfig {
    /// Events retained by the flight recorder. The ring is written on
    /// *every* dispatched event, so its working set should stay within
    /// L2: 4096 × 32-byte entries = 128 KB. Raise it (e.g. via
    /// [`TelemetryConfig::with_recorder_capacity`]) in property tests
    /// that want a longer post-mortem tail and don't care about steps/s.
    pub recorder_capacity: usize,
    /// Spans (and notes) retained by the span log.
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            recorder_capacity: 4 * 1024,
            span_capacity: 1 << 20,
        }
    }
}

impl TelemetryConfig {
    /// A config whose flight recorder retains the last `cap` events.
    pub fn with_recorder_capacity(mut self, cap: usize) -> Self {
        self.recorder_capacity = cap;
        self
    }
}

/// Per-host telemetry state: span log, flight recorder, the engine's
/// cost histograms and the deterministic id allocators. One per
/// [`crate::Simulation`].
#[derive(Debug)]
pub struct Telemetry {
    /// The span log.
    pub spans: SpanLog,
    /// The flight recorder.
    pub recorder: FlightRecorder,
    /// Sampled wall-clock dispatch cost, indexed by digest tag (0 deliver
    /// … 3 fail).
    dispatch: [Histogram; 4],
    next_span: u64,
    next_trace: u64,
    dispatch_tick: u64,
    inflight: HashMap<u64, TraceCtx>,
}

impl Telemetry {
    /// Empty telemetry: ids count from 1.
    pub(crate) fn new(config: TelemetryConfig) -> Self {
        Telemetry {
            spans: SpanLog::new(config.span_capacity),
            recorder: FlightRecorder::new(config.recorder_capacity),
            dispatch: Default::default(),
            next_span: 0,
            next_trace: 0,
            dispatch_tick: 0,
            inflight: HashMap::new(),
        }
    }

    fn alloc_span(&mut self) -> u64 {
        self.next_span += 1;
        self.next_span
    }

    fn alloc_trace(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    /// Open a root span for an originated operation; the returned context
    /// is what child sends propagate.
    pub(crate) fn start_trace(
        &mut self,
        name: &'static str,
        now: SimTime,
        node: NodeAddr,
    ) -> TraceCtx {
        let trace_id = self.alloc_trace();
        let span = self.alloc_span();
        self.spans.push_span(SpanRecord {
            id: span,
            trace_id,
            parent: 0,
            name,
            start: now,
            end: None,
            src: node,
            dest: node,
            lost: false,
        });
        TraceCtx {
            trace_id,
            parent_span: span,
        }
    }

    /// Record one message hop under `ctx`: sent at `start`, delivered at
    /// `end` (`None` = dropped by the link). Returns the hop's span id —
    /// the `parent_span` the receiving execution continues under.
    pub(crate) fn record_hop(
        &mut self,
        label: &'static str,
        ctx: TraceCtx,
        src: NodeAddr,
        dest: NodeAddr,
        start: SimTime,
        end: Option<SimTime>,
    ) -> u64 {
        let id = self.alloc_span();
        self.spans.push_span(SpanRecord {
            id,
            trace_id: ctx.trace_id,
            parent: ctx.parent_span,
            name: label,
            start,
            end,
            src,
            dest,
            lost: end.is_none(),
        });
        id
    }

    /// Attach an instant note to the current span.
    pub(crate) fn note(&mut self, label: &'static str, ctx: TraceCtx, at: SimTime, node: NodeAddr) {
        self.spans.push_note(NoteRecord {
            trace_id: ctx.trace_id,
            span: ctx.parent_span,
            at,
            node,
            label,
        });
    }

    /// Stash the trace context of an in-flight message under its scheduler
    /// sequence number.
    pub(crate) fn put_inflight(&mut self, seq: u64, ctx: TraceCtx) {
        self.inflight.insert(seq, ctx);
    }

    /// Claim the trace context of a delivery, if the message carried one.
    pub(crate) fn take_inflight(&mut self, seq: u64) -> Option<TraceCtx> {
        if self.inflight.is_empty() {
            None
        } else {
            self.inflight.remove(&seq)
        }
    }

    /// True on the 1-in-64 dispatches whose wall-clock cost should be
    /// measured (keeps `Instant::now` off the common path).
    #[inline]
    pub(crate) fn should_time(&mut self) -> bool {
        self.dispatch_tick = self.dispatch_tick.wrapping_add(1);
        self.dispatch_tick & 63 == 0
    }

    /// Record a sampled dispatch cost for digest tag `tag` (0 deliver …
    /// 3 fail).
    pub(crate) fn record_dispatch(&mut self, tag: u8, nanos: u64) {
        self.dispatch[(tag as usize).min(3)].record(nanos);
    }

    /// Total sampled dispatch observations across all event kinds.
    pub fn dispatch_samples(&self) -> u64 {
        self.dispatch.iter().map(Histogram::count).sum()
    }

    /// The dispatch-cost histogram for digest tag `tag`.
    pub fn dispatch_histogram(&self, tag: u8) -> &Histogram {
        &self.dispatch[(tag as usize).min(3)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_sequential() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let a = t.start_trace("op", SimTime::ZERO, NodeAddr(1));
        let b = t.start_trace("op", SimTime::ZERO, NodeAddr(2));
        assert_eq!((a.trace_id, b.trace_id), (1, 2));
        assert_ne!(a.parent_span, b.parent_span);
        assert_eq!(t.spans.spans().len(), 2);
    }

    #[test]
    fn hops_chain_under_roots() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let root = t.start_trace("lookup", SimTime::ZERO, NodeAddr(0));
        let hop = t.record_hop(
            "lookup",
            root,
            NodeAddr(0),
            NodeAddr(1),
            SimTime::ZERO,
            Some(SimTime::from_millis(5)),
        );
        let rec = t.spans.spans().last().unwrap();
        assert_eq!(rec.parent, root.parent_span);
        assert_eq!(rec.id, hop);
        assert!(!rec.lost);
    }

    #[test]
    fn dispatch_timing_is_subsampled() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        let timed = (0..256).filter(|_| t.should_time()).count();
        assert_eq!(timed, 4);
        t.record_dispatch(0, 100);
        assert_eq!(t.dispatch_samples(), 1);
    }

    #[test]
    fn inflight_roundtrip() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        assert_eq!(t.take_inflight(9), None);
        let ctx = TraceCtx {
            trace_id: 5,
            parent_span: 7,
        };
        t.put_inflight(9, ctx);
        assert_eq!(t.take_inflight(9), Some(ctx));
        assert_eq!(t.take_inflight(9), None);
    }
}
