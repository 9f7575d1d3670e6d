//! Node characteristics and capability scoring.
//!
//! TreeP is explicitly designed for **heterogeneous** networks: promotion to
//! upper layers, election countdowns and (in the adaptive configuration) the
//! maximum number of children all derive from the node's resources — "CPU,
//! Memory, Bandwidth, network load, systems load, Uptime and Storage Space"
//! (Section III.a).

use crate::config::ChildPolicy;
use serde::{Deserialize, Serialize};
use simnet::{SimDuration, SimRng};

/// Static and dynamic resource characteristics of a peer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeCharacteristics {
    /// Number of CPU cores.
    pub cpu_cores: u32,
    /// Memory in megabytes.
    pub memory_mb: u64,
    /// Access bandwidth in megabits per second.
    pub bandwidth_mbps: u64,
    /// Available storage in gigabytes.
    pub storage_gb: u64,
    /// Accumulated uptime in seconds (grows while the node stays connected).
    pub uptime_s: u64,
    /// Current system load in `[0, 1]` (1 = saturated).
    pub system_load: f64,
    /// Current network load in `[0, 1]` (1 = saturated).
    pub network_load: f64,
}

impl Default for NodeCharacteristics {
    fn default() -> Self {
        NodeCharacteristics {
            cpu_cores: 2,
            memory_mb: 2048,
            bandwidth_mbps: 10,
            storage_gb: 50,
            uptime_s: 0,
            system_load: 0.0,
            network_load: 0.0,
        }
    }
}

impl NodeCharacteristics {
    /// A deliberately strong profile (stable, well-connected peer).
    pub fn strong() -> Self {
        NodeCharacteristics {
            cpu_cores: 16,
            memory_mb: 65_536,
            bandwidth_mbps: 1_000,
            storage_gb: 2_000,
            uptime_s: 30 * 24 * 3600,
            system_load: 0.1,
            network_load: 0.1,
        }
    }

    /// A deliberately weak profile (transient edge peer).
    pub fn weak() -> Self {
        NodeCharacteristics {
            cpu_cores: 1,
            memory_mb: 512,
            bandwidth_mbps: 1,
            storage_gb: 4,
            uptime_s: 60,
            system_load: 0.8,
            network_load: 0.7,
        }
    }

    /// Draw a heterogeneous profile from a log-uniform-ish distribution.
    /// Used by the workload generator to model a mixed population.
    pub fn sample(rng: &mut SimRng) -> Self {
        let tier = rng.gen_f64();
        let scale = if tier < 0.1 {
            8.0 // a few server-class peers
        } else if tier < 0.4 {
            3.0 // workstations
        } else {
            1.0 // ordinary desktops / laptops
        };
        NodeCharacteristics {
            cpu_cores: ((1.0 + rng.gen_f64() * 3.0) * scale) as u32,
            memory_mb: ((512.0 + rng.gen_f64() * 3_584.0) * scale) as u64,
            bandwidth_mbps: ((1.0 + rng.gen_f64() * 19.0) * scale) as u64,
            storage_gb: ((10.0 + rng.gen_f64() * 90.0) * scale) as u64,
            uptime_s: (rng.gen_f64() * 14.0 * 24.0 * 3600.0) as u64,
            system_load: rng.gen_f64() * 0.9,
            network_load: rng.gen_f64() * 0.9,
        }
    }

    /// Aggregate capability score in `[0, 1]`.
    ///
    /// Each resource dimension is normalised against a "very strong peer"
    /// reference and the load terms discount the static capacity. The exact
    /// weighting is not specified in the paper; what matters to the protocol
    /// is only the *ordering* it induces (better peers are promoted first and
    /// win elections).
    pub fn capability_score(&self) -> f64 {
        let cpu = (self.cpu_cores as f64 / 16.0).min(1.0);
        let mem = (self.memory_mb as f64 / 65_536.0).min(1.0);
        let bw = (self.bandwidth_mbps as f64 / 1_000.0).min(1.0);
        let sto = (self.storage_gb as f64 / 2_000.0).min(1.0);
        let up = (self.uptime_s as f64 / (30.0 * 24.0 * 3600.0)).min(1.0);
        let static_score = 0.25 * cpu + 0.20 * mem + 0.25 * bw + 0.10 * sto + 0.20 * up;
        let load_penalty = 1.0
            - 0.5 * (self.system_load.clamp(0.0, 1.0) + self.network_load.clamp(0.0, 1.0)) / 2.0
                * 2.0;
        (static_score * load_penalty.max(0.0)).clamp(0.0, 1.0)
    }

    /// Maximum number of children this node may maintain under `policy`
    /// (Section III.a: "This maximum is either defined at start up or can be
    /// dynamically calculated using the nodes' characteristics and their
    /// actual load").
    pub fn max_children(&self, policy: ChildPolicy) -> u32 {
        match policy {
            ChildPolicy::Fixed(nc) => nc,
            ChildPolicy::Adaptive { min, max } => {
                let span = max.saturating_sub(min) as f64;
                (min as f64 + span * self.capability_score()).round() as u32
            }
        }
    }

    /// Election countdown: "a node that has higher characteristics will have
    /// smaller countdown initial value" (Section III.b).
    pub(crate) fn election_countdown(&self, base: SimDuration) -> SimDuration {
        let score = self.capability_score();
        // score 1.0 -> 10% of base, score 0.0 -> 100% of base.
        let factor = 1.0 - 0.9 * score;
        SimDuration::from_micros((base.as_micros() as f64 * factor).max(1.0) as u64)
    }

    /// Demotion countdown: the inverse rule — "the higher is the
    /// characteristic the longer is the countdown", so strong parents hold
    /// their position longer while waiting to regain children.
    pub(crate) fn demotion_countdown(&self, base: SimDuration) -> SimDuration {
        let score = self.capability_score();
        let factor = 1.0 + 4.0 * score;
        SimDuration::from_micros((base.as_micros() as f64 * factor) as u64)
    }

    /// Record `dt` more seconds of uptime.
    pub(crate) fn add_uptime(&mut self, dt_secs: u64) {
        self.uptime_s = self.uptime_s.saturating_add(dt_secs);
    }
}

/// Compact summary of a peer's characteristics, sent by the peer itself in
/// its own [`crate::PeerInfo`] ("when two nodes communicate for the first
/// time they exchange information about their resources and state",
/// Section III.d). Routing-table entries do not keep it, so a relayed
/// `PeerInfo` carries [`CharacteristicsSummary::UNKNOWN`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CharacteristicsSummary {
    /// Capability score in `[0, 1]`, quantised to thousandths.
    pub score_milli: u16,
    /// Maximum children advertised by the peer.
    pub max_children: u32,
}

impl CharacteristicsSummary {
    /// The summary of a peer this node only relays: no score, no children.
    pub const UNKNOWN: CharacteristicsSummary = CharacteristicsSummary {
        score_milli: 0,
        max_children: 0,
    };

    /// Build a summary from full characteristics under a child policy.
    pub fn of(full: &NodeCharacteristics, policy: ChildPolicy) -> Self {
        CharacteristicsSummary {
            score_milli: (full.capability_score() * 1000.0).round() as u16,
            max_children: full.max_children(policy),
        }
    }
}

#[cfg(test)]
impl CharacteristicsSummary {
    /// The capability score as a float.
    pub(crate) fn score(&self) -> f64 {
        self.score_milli as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_ordered_sensibly() {
        let strong = NodeCharacteristics::strong().capability_score();
        let default = NodeCharacteristics::default().capability_score();
        let weak = NodeCharacteristics::weak().capability_score();
        assert!(strong > default, "strong={strong} default={default}");
        assert!(default > weak, "default={default} weak={weak}");
        assert!((0.0..=1.0).contains(&strong));
        assert!((0.0..=1.0).contains(&weak));
    }

    #[test]
    fn load_reduces_score() {
        let mut c = NodeCharacteristics::strong();
        let unloaded = c.capability_score();
        c.system_load = 1.0;
        c.network_load = 1.0;
        let loaded = c.capability_score();
        assert!(loaded < unloaded);
    }

    #[test]
    fn fixed_child_policy_ignores_characteristics() {
        let policy = ChildPolicy::Fixed(4);
        assert_eq!(NodeCharacteristics::strong().max_children(policy), 4);
        assert_eq!(NodeCharacteristics::weak().max_children(policy), 4);
    }

    #[test]
    fn adaptive_child_policy_scales_with_capability() {
        let policy = ChildPolicy::Adaptive { min: 2, max: 8 };
        let strong = NodeCharacteristics::strong().max_children(policy);
        let weak = NodeCharacteristics::weak().max_children(policy);
        assert!(strong > weak);
        assert!((2..=8).contains(&strong));
        assert!((2..=8).contains(&weak));
    }

    #[test]
    fn election_countdown_favours_strong_nodes() {
        let base = SimDuration::from_millis(1000);
        let strong = NodeCharacteristics::strong().election_countdown(base);
        let weak = NodeCharacteristics::weak().election_countdown(base);
        assert!(strong < weak, "strong nodes must time out first");
        assert!(strong.as_micros() >= 1);
        assert!(weak <= base);
    }

    #[test]
    fn demotion_countdown_favours_strong_nodes_staying() {
        let base = SimDuration::from_millis(1000);
        let strong = NodeCharacteristics::strong().demotion_countdown(base);
        let weak = NodeCharacteristics::weak().demotion_countdown(base);
        assert!(strong > weak, "strong parents hold their level longer");
        assert!(weak >= base);
    }

    #[test]
    fn sampled_profiles_are_heterogeneous() {
        let mut rng = SimRng::seed_from(42);
        let scores: Vec<f64> = (0..200)
            .map(|_| NodeCharacteristics::sample(&mut rng).capability_score())
            .collect();
        let min = scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(
            max - min > 0.2,
            "population should span a wide capability range"
        );
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn summary_round_trips_score() {
        let c = NodeCharacteristics::strong();
        let s = CharacteristicsSummary::of(&c, ChildPolicy::Fixed(4));
        assert!((s.score() - c.capability_score()).abs() < 0.001);
        assert_eq!(s.max_children, 4);
    }

    #[test]
    fn uptime_accumulates_and_saturates() {
        let mut c = NodeCharacteristics::default();
        c.add_uptime(100);
        assert_eq!(c.uptime_s, 100);
        c.uptime_s = u64::MAX - 1;
        c.add_uptime(100);
        assert_eq!(c.uptime_s, u64::MAX);
    }
}
