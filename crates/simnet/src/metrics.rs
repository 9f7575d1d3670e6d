//! Global counters maintained by the simulation.

use serde::{Deserialize, Serialize};

/// Aggregate message/event statistics for one simulation run.
///
/// These counters are what the maintenance-overhead ablation (E-X2 in
/// DESIGN.md) and the baseline comparison report.
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
    /// Nodes stopped gracefully.
    pub nodes_stopped: u64,
    /// Total events dispatched.
    pub events_dispatched: u64,
}

impl SimMetrics {
    /// Fraction of sent messages that were delivered (1.0 when nothing was
    /// sent).
    pub fn delivery_ratio(&self) -> f64 {
        if self.messages_sent == 0 {
            1.0
        } else {
            self.messages_delivered as f64 / self.messages_sent as f64
        }
    }

    /// Difference of every counter against an earlier snapshot; used to
    /// measure the traffic of a single experiment phase.
    pub fn delta_since(&self, earlier: &SimMetrics) -> SimMetrics {
        self.zip_with(earlier, |now, then| now - then)
    }

    /// Sum of every counter with another engine's; a sharded run reports
    /// the total over its shards.
    pub fn plus(&self, other: &SimMetrics) -> SimMetrics {
        self.zip_with(other, |a, b| a + b)
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
            nodes_stopped: f(self.nodes_stopped, other.nodes_stopped),
            events_dispatched: f(self.events_dispatched, other.events_dispatched),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_ratio_handles_zero() {
        let m = SimMetrics::default();
        assert_eq!(m.delivery_ratio(), 1.0);
        let m = SimMetrics {
            messages_sent: 10,
            messages_delivered: 7,
            ..Default::default()
        };
        assert!((m.delivery_ratio() - 0.7).abs() < 1e-12);
    }

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
