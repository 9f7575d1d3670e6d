//! Node identifiers and the 1-D identifier space.
//!
//! TreeP maps every peer onto a **1-D space** (Section III): the node ID *is*
//! its spatial coordinate. Levels of the hierarchy tessellate this space into
//! intervals. The space is a bounded segment `[0, size)` — the paper's level
//! buses have two endpoints, i.e. the space is a line, not a ring — and the
//! Euclidean distance `d(a, b)` is simply `|a - b|`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A TreeP node identifier: a coordinate in the 1-D identifier space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u64);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:08x}", self.0)
    }
}

impl NodeId {
    /// The smallest possible identifier.
    pub const MIN: NodeId = NodeId(0);
}

/// The bounded 1-D identifier space `[0, size)`.
///
/// The paper leaves the concrete width open ("the IDs can be assigned
/// randomly or based on a hash of the IP/Port numbers"); we default to a
/// 32-bit space which is plenty for laptop-scale experiments while keeping
/// every intermediate distance computation inside `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IdSpace {
    bits: u32,
}

impl Default for IdSpace {
    fn default() -> Self {
        IdSpace::new(32)
    }
}

impl IdSpace {
    /// Create a space of `2^bits` identifiers. `bits` must be in `1..=63`.
    pub fn new(bits: u32) -> Self {
        assert!(
            (1..=63).contains(&bits),
            "IdSpace bits must be in 1..=63, got {bits}"
        );
        IdSpace { bits }
    }

    /// Number of bits of the space.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Total number of identifiers, `2^bits`.
    pub fn size(&self) -> u64 {
        1u64 << self.bits
    }

    /// Largest valid identifier.
    pub(crate) fn max_id(&self) -> NodeId {
        NodeId(self.size() - 1)
    }

    /// True when `id` lies inside the space.
    pub fn contains(&self, id: NodeId) -> bool {
        id.0 < self.size()
    }

    /// Clamp an arbitrary 64-bit value into the space (used when hashing
    /// external names into identifiers).
    pub fn fold(&self, raw: u64) -> NodeId {
        NodeId(raw & (self.size() - 1))
    }

    /// The Euclidean distance `d(a, b) = |a - b|` of the paper.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u64 {
        a.0.abs_diff(b.0)
    }

    /// The identifier exactly halfway between `a` and `b`.
    pub(crate) fn midpoint(&self, a: NodeId, b: NodeId) -> NodeId {
        NodeId((a.0 / 2) + (b.0 / 2) + ((a.0 % 2 + b.0 % 2) / 2))
    }

    /// Evenly spread `n` identifiers across the space: id `i` sits at
    /// `(i + 1/2) * size / n`. The steady-state topology builder places
    /// every node this way, the balanced outcome of the "preliminary search
    /// for an ID range" the paper mentions (Section III).
    pub fn uniform_position(&self, index: usize, n: usize) -> NodeId {
        assert!(n > 0, "cannot place an id among zero nodes");
        assert!(index < n, "index {index} out of range for {n} nodes");
        let step = self.size() as u128;
        let pos = (step * (2 * index as u128 + 1)) / (2 * n as u128);
        NodeId(pos as u64)
    }

    /// The coverage radius `L / 2^(h - lvl)` used by the hierarchical
    /// distance function (Section III.f), where `L` is the size of the
    /// space, `h` the height of the hierarchy and `lvl` the node's maximum
    /// level. For `lvl >= h` the radius saturates at `L`.
    pub(crate) fn coverage_radius(&self, height: u32, level: u32) -> u64 {
        if level >= height {
            self.size()
        } else {
            self.size() >> (height - level)
        }
    }
}

/// SplitMix64: a tiny, high-quality 64-bit mixer used to hash external
/// resource names into the identifier space.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Hash an arbitrary byte string into the identifier space (FNV-1a folded
/// through SplitMix64). Used by the DHT / resource-discovery layer to map
/// keys onto coordinates.
pub fn hash_key(space: IdSpace, key: &[u8]) -> NodeId {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    space.fold(splitmix64(h))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_size_and_bounds() {
        let s = IdSpace::new(8);
        assert_eq!(s.size(), 256);
        assert_eq!(s.max_id(), NodeId(255));
        assert!(s.contains(NodeId(255)));
        assert!(!s.contains(NodeId(256)));
        assert_eq!(s.fold(257), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "IdSpace bits")]
    fn zero_bits_rejected() {
        IdSpace::new(0);
    }

    #[test]
    fn distance_is_symmetric_absolute_difference() {
        let s = IdSpace::default();
        assert_eq!(s.distance(NodeId(10), NodeId(3)), 7);
        assert_eq!(s.distance(NodeId(3), NodeId(10)), 7);
        assert_eq!(s.distance(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn midpoint_is_between() {
        let s = IdSpace::default();
        assert_eq!(s.midpoint(NodeId(0), NodeId(10)), NodeId(5));
        assert_eq!(s.midpoint(NodeId(3), NodeId(4)), NodeId(3));
        assert_eq!(s.midpoint(NodeId(7), NodeId(7)), NodeId(7));
    }

    #[test]
    fn uniform_positions_are_sorted_and_spread() {
        let s = IdSpace::new(16);
        let n = 50;
        let ids: Vec<NodeId> = (0..n).map(|i| s.uniform_position(i, n)).collect();
        for w in ids.windows(2) {
            assert!(w[0] < w[1], "uniform ids must be strictly increasing");
        }
        assert!(ids[0].0 < s.size() / n as u64);
        assert!(ids[n - 1].0 > s.size() - 2 * s.size() / n as u64);
    }

    #[test]
    fn coverage_radius_halves_per_level() {
        let s = IdSpace::new(16); // size 65536
        let h = 6;
        assert_eq!(s.coverage_radius(h, 0), 65536 >> 6);
        assert_eq!(s.coverage_radius(h, 1), 65536 >> 5);
        assert_eq!(s.coverage_radius(h, 5), 65536 >> 1);
        assert_eq!(s.coverage_radius(h, 6), 65536);
        assert_eq!(s.coverage_radius(h, 9), 65536);
    }

    #[test]
    fn hash_key_is_stable_and_in_space() {
        let space = IdSpace::new(20);
        let k1 = hash_key(space, b"cpu=8,mem=32G");
        let k2 = hash_key(space, b"cpu=8,mem=32G");
        let k3 = hash_key(space, b"cpu=4,mem=16G");
        assert_eq!(k1, k2);
        assert_ne!(k1, k3);
        assert!(space.contains(k1) && space.contains(k3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(0x1234).to_string(), "#00001234");
    }
}
