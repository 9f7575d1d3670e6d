//! Protocol configuration.

use crate::id::IdSpace;
use crate::tables::MAX_BUS_LEVEL;
use serde::{Deserialize, Serialize};
use simnet::SimDuration;

/// Policy governing the maximum number of children per parent.
///
/// Section IV evaluates both: "In the first case the maximum number of
/// children (nc) is fixed to 4 while in the second nc is defined according to
/// the nodes capabilities such as CPU, Memory, bandwidth, etc."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChildPolicy {
    /// Every parent accepts at most this many children.
    Fixed(u32),
    /// Per-node maximum derived from the capability score, linearly
    /// interpolated between `min` and `max`.
    Adaptive {
        /// Children accepted by the weakest possible parent (>= 2).
        min: u32,
        /// Children accepted by the strongest possible parent.
        max: u32,
    },
}

impl ChildPolicy {
    /// The paper's first experimental configuration (`nc = 4`).
    pub const PAPER_FIXED: ChildPolicy = ChildPolicy::Fixed(4);
    /// The paper's second experimental configuration (capability-driven).
    pub const PAPER_ADAPTIVE: ChildPolicy = ChildPolicy::Adaptive { min: 2, max: 8 };

    /// The largest number of children any node could have under this policy.
    pub fn upper_bound(&self) -> u32 {
        match *self {
            ChildPolicy::Fixed(nc) => nc,
            ChildPolicy::Adaptive { max, .. } => max,
        }
    }
}

/// The parameters of a TreeP deployment that a caller sets: the sizing and
/// timing of the overlay, and one switch per optional layer, each off by
/// default and byte-identical to the layer's absence while off. A value
/// that has one setting at every caller is not a field but a `pub const` of
/// the layer that reads it, in `crate::tables`, `crate::multicast`,
/// `crate::replication` and `crate::pubsub`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TreePConfig {
    /// The 1-D identifier space.
    pub space: IdSpace,
    /// Maximum-children policy.
    pub child_policy: ChildPolicy,
    /// Height of the hierarchy the deployment is sized for. The paper pins
    /// `h = 6` in both experiments; the routing distance function and the
    /// TTL fallback depend on it.
    pub height: u32,
    /// Maximum TTL of a lookup request (paper: 255).
    pub max_ttl: u32,
    /// Interval between keep-alive exchanges with direct neighbours.
    pub keepalive_interval: SimDuration,
    /// Routing-table entries not refreshed within this period are expired
    /// ("The entry will be deleted after the expiration of the timestamp").
    pub entry_ttl: SimDuration,
    /// Base value of the election countdown; the actual countdown is scaled
    /// down by the node's capability score.
    pub election_base: SimDuration,
    /// Base value of the demotion countdown (parent with fewer than two
    /// children); scaled up by the capability score.
    pub demotion_base: SimDuration,
    /// Deadline of every origin-side request (lookup, put/get, versioned,
    /// aggregate, subscription): one not answered within this period is
    /// reported as failed by the origin (the paper's simulator counts them
    /// as lost requests).
    pub lookup_timeout: SimDuration,
    /// Number of copies of every DHT value the overlay maintains: the
    /// responsible node plus its `k - 1` nearest registry neighbours of the
    /// key coordinate (see `crate::replication`). `1` disables replication
    /// entirely (the paper's single-copy DHT): no replica pushes, no
    /// anti-entropy timer, byte-identical behaviour to the unreplicated
    /// protocol.
    pub replication_factor: u32,
    /// Maximum number of times an unacknowledged multicast / convergecast
    /// hop is retransmitted before the peer is declared dead and the
    /// dissemination re-routed (see the reliability layer in
    /// `node::multicast`). `0` disables the reliability layer entirely: no
    /// acks are sent, no retransmission state is kept, and the protocol is
    /// byte-identical to the unacknowledged single-shot dissemination.
    pub max_retransmits: u32,
    /// Read-path: let a routed versioned get be answered by the *first*
    /// node on the route holding a replica whose stamp satisfies the
    /// client, instead of only by the responsible node; that node then
    /// probes the responsible node with the served stamp (read-repair, see
    /// `crate::readpath`). `false` keeps the single-responder behaviour.
    pub replica_reads: bool,
    /// Read-path: number of lines of the per-node hot-key cache filled on
    /// the reply path of versioned gets. `0` disables the cache entirely:
    /// no lines are kept, replies travel straight back to the origin, and
    /// the node's behaviour is byte-identical to the cacheless protocol.
    pub cache_capacity: usize,
    /// Read-path: lifetime of a hot-key cache line after its last fill.
    /// Bounds how stale a cache-served value can be (cache hits do not send
    /// read-repair probes). Only meaningful when `cache_capacity > 0`.
    pub cache_ttl: SimDuration,
    /// Pub/sub: enable the topic layer (see `crate::pubsub`). When off —
    /// the default — no filter reports are sent, no subscription state is
    /// kept, and the protocol is byte-identical to a deployment without
    /// the layer.
    pub pubsub_enabled: bool,
}

impl Default for TreePConfig {
    fn default() -> Self {
        TreePConfig {
            space: IdSpace::default(),
            child_policy: ChildPolicy::PAPER_FIXED,
            height: 6,
            max_ttl: 255,
            keepalive_interval: SimDuration::from_millis(500),
            entry_ttl: SimDuration::from_millis(2_500),
            election_base: SimDuration::from_millis(400),
            demotion_base: SimDuration::from_millis(800),
            lookup_timeout: SimDuration::from_secs(10),
            replication_factor: 1,
            max_retransmits: 0,
            replica_reads: false,
            cache_capacity: 0,
            cache_ttl: SimDuration::from_millis(500),
            pubsub_enabled: false,
        }
    }
}

impl TreePConfig {
    /// Configuration of the paper's first experiment: `nc = 4`, `h = 6`.
    pub fn paper_case_fixed() -> Self {
        TreePConfig {
            child_policy: ChildPolicy::PAPER_FIXED,
            height: 6,
            ..Default::default()
        }
    }

    /// Configuration of the paper's second experiment: capability-driven
    /// `nc`, `h = 6`.
    pub fn paper_case_adaptive() -> Self {
        TreePConfig {
            child_policy: ChildPolicy::PAPER_ADAPTIVE,
            height: 6,
            ..Default::default()
        }
    }

    /// Validate internal consistency; returns a human-readable complaint for
    /// the first problem found.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.height == 0 {
            return Err("height must be at least 1".into());
        }
        if self.height > MAX_BUS_LEVEL {
            return Err(format!(
                "height ({}) must be at most {MAX_BUS_LEVEL}: the routing tables hold one bus per level up to that, and even at nc = 2 that many levels tessellate 2^27 cells",
                self.height
            ));
        }
        if self.max_ttl == 0 {
            return Err("max_ttl must be at least 1".into());
        }
        match self.child_policy {
            ChildPolicy::Fixed(nc) if nc < 2 => {
                return Err(format!("fixed child policy needs nc >= 2, got {nc}"));
            }
            ChildPolicy::Adaptive { min, max } => {
                if min < 2 {
                    return Err(format!("adaptive child policy needs min >= 2, got {min}"));
                }
                if max < min {
                    return Err(format!(
                        "adaptive child policy needs max >= min, got {min}..{max}"
                    ));
                }
            }
            _ => {}
        }
        if self.keepalive_interval.as_micros() == 0 {
            return Err(
                "keepalive_interval must be positive or the maintenance tick re-arms forever"
                    .into(),
            );
        }
        if self.entry_ttl <= self.keepalive_interval {
            return Err(
                "entry_ttl must exceed keepalive_interval or entries expire between refreshes"
                    .into(),
            );
        }
        if self.replication_factor == 0 {
            return Err("replication_factor must be at least 1 (1 = no replication)".into());
        }
        if self.cache_capacity > 0 && self.cache_ttl.as_micros() == 0 {
            return Err("cache_ttl must be positive when the hot-key cache is enabled".into());
        }
        Ok(())
    }

    /// Enable the multicast reliability layer: per-hop acks with up to
    /// `max_retransmits` exponential-backoff retransmissions per hop, and
    /// re-routing once a hop is declared dead.
    pub fn with_reliability(mut self, max_retransmits: u32) -> Self {
        self.max_retransmits = max_retransmits;
        self
    }

    /// Enable the full read-path serving layer: replica-first gets with
    /// read-repair, and (when `cache_capacity > 0`) the per-hop hot-key
    /// cache of that many lines (see `crate::readpath`).
    pub fn with_read_path(mut self, cache_capacity: usize) -> Self {
        self.replica_reads = true;
        self.cache_capacity = cache_capacity;
        self
    }

    /// Enable the topic-based pub/sub layer: subscription filters reported
    /// up the tree next to child spans, and subscription-aware fan-out
    /// pruning of topic publishes (see `crate::pubsub`).
    pub fn with_pubsub(mut self) -> Self {
        self.pubsub_enabled = true;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(TreePConfig::default().validate().is_ok());
        assert!(TreePConfig::paper_case_fixed().validate().is_ok());
        assert!(TreePConfig::paper_case_adaptive().validate().is_ok());
    }

    #[test]
    fn paper_configs_match_section_iv() {
        let fixed = TreePConfig::paper_case_fixed();
        assert_eq!(fixed.child_policy, ChildPolicy::Fixed(4));
        assert_eq!(fixed.height, 6);
        assert_eq!(fixed.max_ttl, 255);
        let adaptive = TreePConfig::paper_case_adaptive();
        assert!(matches!(
            adaptive.child_policy,
            ChildPolicy::Adaptive { .. }
        ));
        assert_eq!(adaptive.height, 6);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let bad = [
            TreePConfig {
                height: 0,
                ..TreePConfig::default()
            },
            TreePConfig {
                child_policy: ChildPolicy::Fixed(1),
                ..TreePConfig::default()
            },
            TreePConfig {
                child_policy: ChildPolicy::Adaptive { min: 1, max: 8 },
                ..TreePConfig::default()
            },
            TreePConfig {
                child_policy: ChildPolicy::Adaptive { min: 5, max: 3 },
                ..TreePConfig::default()
            },
            TreePConfig {
                entry_ttl: SimDuration::from_millis(10),
                keepalive_interval: SimDuration::from_millis(500),
                ..TreePConfig::default()
            },
            TreePConfig {
                max_ttl: 0,
                ..TreePConfig::default()
            },
            TreePConfig {
                replication_factor: 0,
                ..TreePConfig::default()
            },
            TreePConfig {
                cache_capacity: 64,
                cache_ttl: SimDuration::from_micros(0),
                ..TreePConfig::default()
            },
            TreePConfig {
                keepalive_interval: SimDuration::from_micros(0),
                ..TreePConfig::default()
            },
        ];
        for (i, config) in bad.into_iter().enumerate() {
            assert!(
                config.validate().is_err(),
                "bad config {i} must be rejected"
            );
        }
    }

    #[test]
    fn height_is_bounded_by_the_bus_levels_the_tables_hold() {
        let with_height = |height| TreePConfig {
            height,
            ..TreePConfig::default()
        };
        with_height(MAX_BUS_LEVEL).validate().unwrap();
        let complaint = with_height(MAX_BUS_LEVEL + 1).validate().unwrap_err();
        let over = format!("height ({})", MAX_BUS_LEVEL + 1);
        assert!(complaint.starts_with(&over), "{complaint}");
    }

    #[test]
    fn reliability_is_off_by_default_and_composes() {
        let c = TreePConfig::default();
        assert_eq!(c.max_retransmits, 0, "reliability defaults to off");
        let r = TreePConfig::default().with_reliability(4);
        assert_eq!(r.max_retransmits, 4);
        assert!(r.validate().is_ok());
    }

    #[test]
    fn read_path_is_off_by_default_and_composes() {
        let c = TreePConfig::default();
        assert!(!c.replica_reads, "replica reads default to off");
        assert_eq!(c.cache_capacity, 0, "hot-key cache defaults to off");
        let r = TreePConfig::default().with_read_path(64);
        assert!(r.replica_reads);
        assert_eq!(r.cache_capacity, 64);
        assert!(r.cache_ttl.as_micros() > 0);
        assert!(r.validate().is_ok());
        // Cache-off but replica-first is a valid intermediate deployment.
        assert!(TreePConfig::default().with_read_path(0).validate().is_ok());
    }

    #[test]
    fn pubsub_is_off_by_default_and_composes() {
        let c = TreePConfig::default();
        assert!(!c.pubsub_enabled, "pub/sub defaults to off");
        let p = TreePConfig::default().with_pubsub();
        assert!(p.pubsub_enabled);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn child_policy_upper_bound() {
        assert_eq!(ChildPolicy::Fixed(4).upper_bound(), 4);
        assert_eq!(ChildPolicy::Adaptive { min: 2, max: 8 }.upper_bound(), 8);
    }
}
