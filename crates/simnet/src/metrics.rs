//! Global counters maintained by the simulation.

use serde::{Deserialize, Serialize};

/// Aggregate message/event statistics for one simulation run.
///
/// Read by the Section-IV runner's maintenance column (`messages_sent`
/// while the overlay settles after each churn step) and by the benchmark's
/// `simnet.msgs_to_dead` (`messages_to_dead`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimMetrics {
    /// Messages handed to the link layer by protocols.
    pub messages_sent: u64,
    /// Messages actually delivered to a live destination.
    pub messages_delivered: u64,
    /// Messages dropped by the loss model.
    pub messages_lost: u64,
    /// Messages addressed to a node that was dead (or never existed) at
    /// delivery time.
    pub messages_to_dead: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Timer events discarded because their owner had died.
    pub timers_dropped: u64,
    /// Nodes started.
    pub nodes_started: u64,
    /// Nodes crash-failed.
    pub nodes_failed: u64,
    /// Total events dispatched.
    pub events_dispatched: u64,
}

impl SimMetrics {
    /// Difference of every counter against an earlier snapshot; used to
    /// measure the traffic of a single experiment phase.
    pub fn delta_since(&self, earlier: &SimMetrics) -> SimMetrics {
        self.zip_with(earlier, |now, then| now - then)
    }

    fn zip_with(&self, other: &SimMetrics, f: impl Fn(u64, u64) -> u64) -> SimMetrics {
        SimMetrics {
            messages_sent: f(self.messages_sent, other.messages_sent),
            messages_delivered: f(self.messages_delivered, other.messages_delivered),
            messages_lost: f(self.messages_lost, other.messages_lost),
            messages_to_dead: f(self.messages_to_dead, other.messages_to_dead),
            timers_fired: f(self.timers_fired, other.timers_fired),
            timers_dropped: f(self.timers_dropped, other.timers_dropped),
            nodes_started: f(self.nodes_started, other.nodes_started),
            nodes_failed: f(self.nodes_failed, other.nodes_failed),
            events_dispatched: f(self.events_dispatched, other.events_dispatched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_since_subtracts_fieldwise() {
        let earlier = SimMetrics {
            messages_sent: 5,
            timers_fired: 2,
            ..Default::default()
        };
        let later = SimMetrics {
            messages_sent: 9,
            timers_fired: 10,
            nodes_failed: 1,
            ..Default::default()
        };
        let d = later.delta_since(&earlier);
        assert_eq!(d.messages_sent, 4);
        assert_eq!(d.timers_fired, 8);
        assert_eq!(d.nodes_failed, 1);
        assert_eq!(d.messages_delivered, 0);
    }
}
