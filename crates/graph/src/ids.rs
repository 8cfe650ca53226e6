//! Strongly-typed identifiers for road-network entities.
//!
//! Vertices and arcs are addressed by dense `u32` indices. Newtypes keep the
//! two index spaces from being mixed up and make the public API
//! self-documenting.

use std::fmt;

/// Travel-time weight of an arc, in integer time units (we use deciseconds
/// throughout the workspace, which keeps realistic city-scale path costs
/// far below `u64` overflow even after summing across silos).
pub type Weight = u64;

/// A sentinel "unreachable" distance.
///
/// Chosen as `u64::MAX / 4` so that `INFINITY + INFINITY` and
/// `INFINITY + weight` never wrap, which lets relaxation code add first and
/// compare later without branching on reachability.
pub const INFINITY: Weight = u64::MAX / 4;

/// Index of a vertex (road junction) in a [`Graph`](crate::Graph).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Converts to a `usize` for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of a directed arc (road segment direction) in a
/// [`Graph`](crate::Graph).
///
/// Arc ids index the per-silo weight vectors: silo `p`'s private weight for
/// arc `a` is `weights[a.index()]`. An undirected road contributes two arcs
/// with distinct ids.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArcId(pub u32);

impl ArcId {
    /// Converts to a `usize` for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ArcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// Planar coordinates of a vertex (used for geometry-based generators,
/// straight-line lower bounds, and landmark selection tie-breaking).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Coord {
    /// Horizontal position, in meters from the map origin.
    pub x: f64,
    /// Vertical position, in meters from the map origin.
    pub y: f64,
}

impl Coord {
    /// Euclidean distance to another coordinate, in meters.
    #[inline]
    pub fn distance(&self, other: &Coord) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infinity_does_not_overflow_when_summed() {
        assert!(INFINITY.checked_add(INFINITY).is_some());
        const _: () = assert!(INFINITY + 1_000_000 > INFINITY);
    }

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId(42);
        assert_eq!(v.index(), 42);
        assert_eq!(format!("{v}"), "v42");
        assert_eq!(format!("{v:?}"), "v42");
    }

    #[test]
    fn coord_distance_is_euclidean() {
        let a = Coord { x: 0.0, y: 0.0 };
        let b = Coord { x: 3.0, y: 4.0 };
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert_eq!(a.distance(&a), 0.0);
    }
}
