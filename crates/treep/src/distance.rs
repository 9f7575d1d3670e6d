//! The hierarchical distance function `D(a, b)` of Section III.f.
//!
//! The routing/lookup procedure is based on a distance that accounts for the
//! location of the nodes in the topology **and the size of their
//! tessellations**:
//!
//! ```text
//! lvl_a = 0                       =>  D(a, b) = d(a, b)
//! d(a, b) - L / 2^(h - lvl_a) <= 0 =>  D(a, b) = 0
//! otherwise                       =>  D(a, b) = d(a, b) - L / 2^(h - lvl_a)
//! ```
//!
//! where `d` is the plain 1-D Euclidean distance, `L` the size of the
//! identifier space, `h` the height of the hierarchy and `lvl_a` the maximum
//! level of the node `a`. Intuitively a node high in the hierarchy "covers"
//! a radius of `L / 2^(h - lvl_a)` around itself: any target inside that
//! radius is considered reached (distance 0), and targets outside are
//! measured from the edge of the covered region.

use crate::id::{IdSpace, NodeId};
use serde::{Deserialize, Serialize};

/// Evaluates `D(a, b)` for a fixed space and hierarchy height.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchicalDistance {
    space: IdSpace,
    height: u32,
}

impl HierarchicalDistance {
    /// Create the distance function for `space` and hierarchy height
    /// `height`.
    pub fn new(space: IdSpace, height: u32) -> Self {
        HierarchicalDistance { space, height }
    }

    /// The hierarchy height `h`.
    pub(crate) fn height(&self) -> u32 {
        self.height
    }

    /// Plain Euclidean distance `d(a, b)`.
    pub fn euclidean(&self, a: NodeId, b: NodeId) -> u64 {
        self.space.distance(a, b)
    }

    /// Coverage radius `L / 2^(h - lvl)` of a node whose maximum level is
    /// `lvl`.
    pub(crate) fn coverage_radius(&self, lvl: u32) -> u64 {
        self.space.coverage_radius(self.height, lvl)
    }

    /// The hierarchical distance `D(a, b)` where `a` is a node at maximum
    /// level `lvl_a` and `b` is the target coordinate.
    pub(crate) fn hierarchical(&self, a: NodeId, lvl_a: u32, b: NodeId) -> u64 {
        let d = self.euclidean(a, b);
        if lvl_a == 0 {
            return d;
        }
        let radius = self.coverage_radius(lvl_a);
        d.saturating_sub(radius)
    }

    /// True when `b` falls inside the region covered by a node `a` of level
    /// `lvl_a` (i.e. `D(a, b) = 0` through the radius rule).
    pub(crate) fn covers(&self, a: NodeId, lvl_a: u32, b: NodeId) -> bool {
        lvl_a > 0 && self.euclidean(a, b) <= self.coverage_radius(lvl_a)
    }
}

#[cfg(test)]
impl HierarchicalDistance {
    /// The halving criterion used by the greedy algorithm of Figure 3:
    /// forward to `n` only when `D(n, x) <= 1/2 * D(a, x)`.
    pub(crate) fn halves(
        &self,
        next: NodeId,
        next_lvl: u32,
        current: NodeId,
        current_lvl: u32,
        target: NodeId,
    ) -> bool {
        let dn = self.hierarchical(next, next_lvl, target);
        let da = self.hierarchical(current, current_lvl, target);
        dn <= da / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist() -> HierarchicalDistance {
        // 16-bit space (65536 ids), height 6 as in the paper's experiments.
        HierarchicalDistance::new(IdSpace::new(16), 6)
    }

    #[test]
    fn level0_reduces_to_euclidean() {
        let d = dist();
        assert_eq!(d.hierarchical(NodeId(100), 0, NodeId(400)), 300);
        assert_eq!(d.hierarchical(NodeId(400), 0, NodeId(100)), 300);
        assert_eq!(d.hierarchical(NodeId(5), 0, NodeId(5)), 0);
    }

    #[test]
    fn coverage_radius_grows_with_level() {
        let d = dist();
        // L = 65536, h = 6: radius(1) = 2048, radius(2) = 4096, ... radius(6) = 65536.
        assert_eq!(d.coverage_radius(1), 2048);
        assert_eq!(d.coverage_radius(2), 4096);
        assert_eq!(d.coverage_radius(5), 32768);
        assert_eq!(d.coverage_radius(6), 65536);
    }

    #[test]
    fn inside_coverage_is_distance_zero() {
        let d = dist();
        // A level-3 node covers radius 8192.
        assert_eq!(d.hierarchical(NodeId(10_000), 3, NodeId(15_000)), 0);
        assert!(d.covers(NodeId(10_000), 3, NodeId(15_000)));
        // Outside the radius the distance is measured from the boundary.
        assert_eq!(
            d.hierarchical(NodeId(10_000), 3, NodeId(20_000)),
            10_000 - 8_192
        );
        assert!(!d.covers(NodeId(10_000), 3, NodeId(20_000)));
    }

    #[test]
    fn level0_nodes_never_cover() {
        let d = dist();
        assert!(!d.covers(NodeId(100), 0, NodeId(100)));
        assert_eq!(d.hierarchical(NodeId(100), 0, NodeId(100)), 0);
    }

    #[test]
    fn higher_level_nodes_are_closer_to_everything() {
        let d = dist();
        let target = NodeId(60_000);
        let a = NodeId(1_000);
        let mut prev = u64::MAX;
        for lvl in 0..=6 {
            let dd = d.hierarchical(a, lvl, target);
            assert!(dd <= prev, "distance must be non-increasing in level");
            prev = dd;
        }
        // At the root level the whole space is covered.
        assert_eq!(d.hierarchical(a, 6, target), 0);
    }

    #[test]
    fn halving_criterion() {
        let d = dist();
        let target = NodeId(60_000);
        let current = NodeId(0);
        // From a level-0 node at 0, a level-0 node at 35_000 has distance
        // 25_000 <= 60_000 / 2, so it satisfies the halving rule.
        assert!(d.halves(NodeId(35_000), 0, current, 0, target));
        // A node at 20_000 (distance 40_000) does not.
        assert!(!d.halves(NodeId(20_000), 0, current, 0, target));
        // A high-level node far away still qualifies thanks to its coverage.
        assert!(d.halves(NodeId(20_000), 5, current, 0, target));
    }
}
