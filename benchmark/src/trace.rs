//! Benchmark-side spans: one around every call into a layer of the
//! repository, recorded from the benchmark's own files, kept in memory and
//! written as Chrome-trace JSON when the run ends.
//!
//! A span has a name (`layer/call`), a start, an end, the span that was
//! open when it began (its parent) and the id of the op batch it belongs
//! to. A layer's self time is its spans' durations minus the part their
//! child spans cover ([`Tracer::self_seconds_by_name`]).

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer/call`, e.g. `simnet/run_for`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Id shared by the spans of one op batch (a measured segment).
    pub batch: u32,
}

/// Handle returned by [`Tracer::begin`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// The span recorder. Disabled tracers record nothing and cost one branch
/// per call, so the untraced replays run the same code path.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    batch: u32,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            batch: 0,
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new op batch; spans opened from now on carry its id.
    pub fn next_batch(&mut self) {
        self.batch += 1;
    }

    /// Open a span.
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch: self.batch,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Close a span opened by [`Tracer::begin`] (spans close innermost first).
    #[inline]
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(index), "spans must close innermost first");
        self.spans[index as usize].end_ns = now;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds (own duration minus child spans) summed per span name.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        let mut out = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let own = span
                .end_ns
                .saturating_sub(span.start_ns)
                .saturating_sub(child);
            *out.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Render the spans as Chrome-trace JSON (the `traceEvents` array form,
    /// `ph:"X"` complete events, `ts`/`dur` in host microseconds). The file
    /// loads in Perfetto and `chrome://tracing`.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"");
        out.push_str(workload);
        out.push_str("\"},\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let dur_ns = span.end_ns.saturating_sub(span.start_ns);
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"batch\":{}}}}}",
                span.name,
                span.name.split('/').next().unwrap_or(""),
                span.start_ns as f64 / 1e3,
                dur_ns as f64 / 1e3,
                i,
                span.parent.map_or(-1, i64::from),
                span.batch,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("a/b");
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer/x");
        let inner = t.begin("inner/y");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        let own = t.self_seconds_by_name();
        assert!(own["inner/y"] >= 0.002);
        assert!(own["outer/x"] < own["inner/y"]);
        analysis::validate_json(&t.chrome_trace("w")).expect("well-formed trace");
    }
}
