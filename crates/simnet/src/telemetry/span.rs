//! Causal spans: per-operation trace trees built from simulator-envelope
//! metadata.
//!
//! A *trace* is one originated operation (a lookup, a put, a publish …).
//! Within a trace, every message hop becomes a *span* whose parent is the
//! span under which the send was executed, so retransmit chains and fan-out
//! trees fall out of the parent links with no protocol cooperation beyond
//! calling [`crate::Context::start_trace`] at the origination point.
//!
//! Span ids are allocated from plain counters (never the simulation RNG) so
//! tracing cannot perturb the deterministic event stream.

use crate::protocol::NodeAddr;
use crate::time::SimTime;

/// Causal context attached to in-flight messages as simulator-envelope
/// metadata. Never serialised by any wire codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// The operation this execution belongs to.
    pub trace_id: u64,
    /// The span new child spans (sends) hang under.
    pub parent_span: u64,
}

/// One completed (or lost / still-open) span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Unique span id.
    pub id: u64,
    /// Owning trace.
    pub trace_id: u64,
    /// Parent span id; `0` marks an operation root.
    pub parent: u64,
    /// Static label: the operation name for roots, the message kind for hops.
    pub name: &'static str,
    /// Virtual send time (roots: origination time).
    pub start: SimTime,
    /// Virtual delivery time; `None` for roots (closed at export) and for
    /// hops the link dropped.
    pub end: Option<SimTime>,
    /// Sending node (roots: originating node).
    pub src: NodeAddr,
    /// Receiving node (roots: originating node).
    pub dest: NodeAddr,
    /// True when the link model dropped the hop.
    pub lost: bool,
}

/// An instant annotation attached to the current span (cache hits, prune
/// decisions, …).
#[derive(Debug, Clone, Copy)]
pub struct NoteRecord {
    /// Owning trace.
    pub trace_id: u64,
    /// Span the note annotates.
    pub span: u64,
    /// Virtual time of the note.
    pub at: SimTime,
    /// Node that emitted it.
    pub node: NodeAddr,
    /// Static label.
    pub label: &'static str,
}

/// Bounded append-only log of spans and notes.
///
/// When the cap is reached new records are counted but dropped, so a
/// runaway trace cannot exhaust memory.
#[derive(Debug)]
pub struct SpanLog {
    spans: Vec<SpanRecord>,
    notes: Vec<NoteRecord>,
    cap: usize,
    dropped: u64,
}

impl SpanLog {
    /// An empty log that keeps at most `cap` spans (and `cap` notes).
    pub(crate) fn new(cap: usize) -> Self {
        SpanLog {
            spans: Vec::new(),
            notes: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Append a span, or count it as dropped past the cap.
    pub(crate) fn push_span(&mut self, rec: SpanRecord) {
        if self.spans.len() < self.cap {
            self.spans.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// Append a note, or count it as dropped past the cap.
    pub(crate) fn push_note(&mut self, rec: NoteRecord) {
        if self.notes.len() < self.cap {
            self.notes.push(rec);
        } else {
            self.dropped += 1;
        }
    }

    /// All retained spans, in record order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// All retained notes, in record order.
    pub fn notes(&self) -> &[NoteRecord] {
        &self.notes
    }

    /// Records discarded because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_caps_and_counts_drops() {
        let mut log = SpanLog::new(2);
        for i in 0..4 {
            log.push_span(SpanRecord {
                id: i + 1,
                trace_id: 1,
                parent: 0,
                name: "t",
                start: SimTime::ZERO,
                end: None,
                src: NodeAddr(0),
                dest: NodeAddr(0),
                lost: false,
            });
        }
        assert_eq!(log.spans().len(), 2);
        assert_eq!(log.dropped(), 2);
    }
}
