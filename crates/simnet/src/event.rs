//! Events processed by the discrete-event scheduler.

use crate::protocol::{NodeAddr, TimerToken};
use crate::time::SimTime;

/// Sequence number disambiguating events scheduled at the same instant.
///
/// The scheduler orders events by `(time, seq)`; `seq` is assigned in
/// scheduling order so simultaneous events are processed FIFO, which keeps
/// runs deterministic.
pub(crate) type EventSeq = u64;

/// What an event does when it is dispatched.
#[derive(Debug, Clone)]
pub enum EventKind<M> {
    /// Deliver a protocol message to `dest`.
    Deliver {
        /// Sender address.
        src: NodeAddr,
        /// Destination address.
        dest: NodeAddr,
        /// The message payload.
        msg: M,
    },
    /// Fire a timer on `node`.
    Timer {
        /// The node whose timer fires.
        node: NodeAddr,
        /// Token supplied when the timer was registered.
        token: TimerToken,
    },
    /// Start (join) a node that was added to the simulation.
    Start {
        /// The node to start.
        node: NodeAddr,
    },
    /// Crash-fail a node: it goes silent and is removed, the paper's
    /// crash-stop failure.
    Fail {
        /// The node to fail.
        node: NodeAddr,
    },
}

/// A scheduled event: a dispatch time, a tie-breaking sequence number and the
/// action to perform.
#[derive(Debug, Clone)]
pub struct Event<M> {
    /// Virtual time at which the event is dispatched.
    pub at: SimTime,
    /// FIFO tie-breaker for events scheduled at the same time.
    pub seq: EventSeq,
    /// The action.
    pub kind: EventKind<M>,
}

impl<M> Event<M> {
    /// Convenience constructor.
    pub(crate) fn new(at: SimTime, seq: EventSeq, kind: EventKind<M>) -> Self {
        Event { at, seq, kind }
    }

    /// The node primarily affected by this event (destination for
    /// deliveries, the owning node otherwise).
    pub fn target(&self) -> NodeAddr {
        match &self.kind {
            EventKind::Deliver { dest, .. } => *dest,
            EventKind::Timer { node, .. }
            | EventKind::Start { node }
            | EventKind::Fail { node } => *node,
        }
    }

    /// The message a delivery carries; `None` for every other event.
    pub(crate) fn message(&self) -> Option<&M> {
        match &self.kind {
            EventKind::Deliver { msg, .. } => Some(msg),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_extracts_the_affected_node() {
        let e: Event<u8> = Event::new(
            SimTime::from_millis(1),
            0,
            EventKind::Deliver {
                src: NodeAddr(1),
                dest: NodeAddr(2),
                msg: 9,
            },
        );
        assert_eq!(e.target(), NodeAddr(2));

        let t: Event<u8> = Event::new(
            SimTime::ZERO,
            1,
            EventKind::Timer {
                node: NodeAddr(7),
                token: TimerToken(1),
            },
        );
        assert_eq!(t.target(), NodeAddr(7));

        let f: Event<u8> = Event::new(SimTime::ZERO, 2, EventKind::Fail { node: NodeAddr(3) });
        assert_eq!(f.target(), NodeAddr(3));
    }
}
