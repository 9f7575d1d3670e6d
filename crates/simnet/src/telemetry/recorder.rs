//! The flight recorder: a bounded ring of recently dispatched events.
//!
//! Always-cheap (one ring write per event when telemetry is enabled) and
//! dumped only on demand — property tests print the tail when an invariant
//! trips, so a failing seed comes with the event history that led up to it.

use crate::time::SimTime;
use std::fmt::Write as _;

/// One dispatched event, compressed to the digest's view of it.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FlightEntry {
    /// Virtual dispatch time.
    pub at: SimTime,
    /// Scheduler sequence number.
    pub seq: u64,
    /// Event kind tag (0 deliver, 1 timer, 2 start, 3 fail — mirrors the
    /// digest fold).
    pub tag: u8,
    /// The digest's node word (dest ^ src<<1 for delivers).
    pub node: u64,
}

impl FlightEntry {
    fn kind_name(&self) -> &'static str {
        match self.tag {
            0 => "deliver",
            1 => "timer",
            2 => "start",
            3 => "fail",
            _ => "?",
        }
    }
}

/// Fixed-capacity ring buffer of [`FlightEntry`]s.
#[derive(Debug)]
pub struct FlightRecorder {
    buf: Vec<FlightEntry>,
    cap: usize,
    /// Next overwrite position once full == index of the oldest entry;
    /// stays 0 while filling. A compare-and-reset cursor instead of
    /// `total % cap`: this runs once per dispatched event, and a u64
    /// division by a runtime capacity is most of the ring's cost.
    head: usize,
    total: u64,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `cap` events.
    pub(crate) fn new(cap: usize) -> Self {
        FlightRecorder {
            buf: Vec::with_capacity(cap.min(1 << 20)),
            cap: cap.max(1),
            head: 0,
            total: 0,
        }
    }

    /// Record one event, evicting the oldest past capacity.
    #[inline]
    pub(crate) fn record(&mut self, entry: FlightEntry) {
        if self.buf.len() < self.cap {
            self.buf.push(entry);
        } else {
            self.buf[self.head] = entry;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
        self.total += 1;
    }

    /// Number of events currently retained.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Retained entries, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &FlightEntry> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Render the retained tail as one line per event, for printing when an
    /// invariant fails.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "--- flight recorder: last {} of {} events ---",
            self.len(),
            self.total
        );
        for e in self.iter() {
            let _ = writeln!(
                out,
                "  t={:>12}us seq={:<10} {:<7} node_word={}",
                e.at.as_micros(),
                e.seq,
                e.kind_name(),
                e.node
            );
        }
        out
    }
}

/// Assert a condition; on failure, dump the simulation's flight recorder
/// (when telemetry is enabled) before panicking. Drop-in for `assert!` in
/// property tests driving a [`crate::Simulation`].
#[macro_export]
macro_rules! flight_assert {
    ($sim:expr, $cond:expr $(, $($arg:tt)+)?) => {
        if !$cond {
            if let Some(t) = $sim.telemetry() {
                eprintln!("{}", t.recorder.dump());
            }
            panic!($($($arg)+)?);
        }
    };
}

/// [`flight_assert!`] for equality: dumps the flight recorder, then panics
/// with both values.
#[macro_export]
macro_rules! flight_assert_eq {
    ($sim:expr, $left:expr, $right:expr $(, $($arg:tt)+)?) => {{
        let l = $left;
        let r = $right;
        if l != r {
            if let Some(t) = $sim.telemetry() {
                eprintln!("{}", t.recorder.dump());
            }
            assert_eq!(l, r $(, $($arg)+)?);
        }
    }};
}

#[cfg(test)]
impl FlightRecorder {
    /// Events recorded over the recorder's lifetime (≥ retained count).
    pub(crate) fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = FlightRecorder::new(3);
        for seq in 0..5u64 {
            r.record(FlightEntry {
                at: SimTime::from_micros(seq),
                seq,
                tag: 1,
                node: seq,
            });
        }
        assert_eq!(r.total(), 5);
        assert_eq!(r.len(), 3);
        let seqs: Vec<u64> = r.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let dump = r.dump();
        assert!(dump.contains("last 3 of 5"));
        assert!(dump.contains("timer"));
    }
}
