//! Chrome-trace / Perfetto JSON export of a span log.
//!
//! Emits the legacy Chrome trace "JSON object" form — a top-level object
//! with a `traceEvents` array — which both `chrome://tracing` and Perfetto
//! load directly. Every span becomes a `ph:"X"` complete event (`ts` and
//! `dur` in virtual microseconds, `pid` = trace id, `tid` = receiving
//! node); notes become `ph:"i"` instants. Root spans have no delivery time
//! of their own, so their duration is closed at export to the latest end of
//! any span in the same trace.

use super::span::SpanLog;
use std::collections::HashMap;
use std::fmt::Write as _;

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Render a span log as a Chrome-trace JSON string.
pub fn chrome_trace(log: &SpanLog) -> String {
    // Close root spans to the latest activity seen anywhere in their trace.
    let mut trace_end: HashMap<u64, u64> = HashMap::new();
    for s in log.spans() {
        let end = s.end.unwrap_or(s.start).as_micros();
        let e = trace_end.entry(s.trace_id).or_insert(end);
        *e = (*e).max(end);
    }

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for s in log.spans() {
        if !first {
            out.push(',');
        }
        first = false;
        let start = s.start.as_micros();
        let end = match s.end {
            Some(e) => e.as_micros(),
            None if s.parent == 0 => *trace_end.get(&s.trace_id).unwrap_or(&start),
            None => start,
        };
        let cat = if s.parent == 0 { "op" } else { "hop" };
        out.push_str("{\"ph\":\"X\",\"name\":\"");
        escape(s.name, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"{cat}\",\"pid\":{},\"tid\":{},\"ts\":{start},\"dur\":{},\
             \"args\":{{\"span\":{},\"parent\":{},\"src\":{},\"dest\":{},\"lost\":{}}}}}",
            s.trace_id,
            s.dest.0,
            end.saturating_sub(start),
            s.id,
            s.parent,
            s.src.0,
            s.dest.0,
            if s.lost { "true" } else { "false" },
        );
    }
    for n in log.notes() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"name\":\"");
        escape(n.label, &mut out);
        let _ = write!(
            out,
            "\",\"cat\":\"note\",\"pid\":{},\"tid\":{},\"ts\":{},\
             \"args\":{{\"span\":{}}}}}",
            n.trace_id,
            n.node.0,
            n.at.as_micros(),
            n.span,
        );
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::NodeAddr;
    use crate::telemetry::span::SpanRecord;
    use crate::time::SimTime;

    #[test]
    fn roots_close_to_latest_descendant() {
        let mut log = SpanLog::new(16);
        log.push_span(SpanRecord {
            id: 1,
            trace_id: 1,
            parent: 0,
            name: "lookup",
            start: SimTime::from_micros(10),
            end: None,
            src: NodeAddr(0),
            dest: NodeAddr(0),
            lost: false,
        });
        log.push_span(SpanRecord {
            id: 2,
            trace_id: 1,
            parent: 1,
            name: "lookup",
            start: SimTime::from_micros(10),
            end: Some(SimTime::from_micros(40)),
            src: NodeAddr(0),
            dest: NodeAddr(7),
            lost: false,
        });
        let json = chrome_trace(&log);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.ends_with("]}"));
        // The root's dur is closed to the hop's end: 40 − 10.
        assert!(json.contains("\"cat\":\"op\",\"pid\":1,\"tid\":0,\"ts\":10,\"dur\":30"));
        assert!(json.contains("\"cat\":\"hop\""));
    }
}
