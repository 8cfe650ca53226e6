//! Path representation and cost evaluation.

use crate::graph::Graph;
use crate::ids::{VertexId, Weight};

/// A walk through the road network, stored as its vertex sequence.
///
/// The paper's `ρ = ⟨v0, v1, …, vl⟩`. Costs are always evaluated against an
/// explicit weight vector, because in a federation the *same* path has a
/// different partial cost `φ_p(ρ)` on every silo.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Path {
    vertices: Vec<VertexId>,
}

impl Path {
    /// Creates a path from a vertex sequence. The sequence is trimmed to
    /// its length: searches build it by pushing, and a path outlives the
    /// search as a query answer.
    ///
    /// # Panics
    /// Panics if the sequence is empty; a path has at least its source.
    pub fn new(mut vertices: Vec<VertexId>) -> Self {
        assert!(!vertices.is_empty(), "a path contains at least one vertex");
        vertices.shrink_to_fit();
        Path { vertices }
    }

    /// The trivial path consisting of a single vertex.
    pub fn trivial(v: VertexId) -> Self {
        Path { vertices: vec![v] }
    }

    /// Source vertex `v0`.
    pub fn source(&self) -> VertexId {
        self.vertices[0]
    }

    /// Target vertex `vl`.
    pub fn target(&self) -> VertexId {
        *self.vertices.last().expect("non-empty")
    }

    /// Number of hops (arcs) on the path — the paper's query-scale measure.
    pub fn hops(&self) -> usize {
        self.vertices.len() - 1
    }

    /// The vertex sequence.
    pub fn vertices(&self) -> &[VertexId] {
        &self.vertices
    }

    /// Evaluates the path cost under `weights` (indexed by arc id) on `g`.
    ///
    /// Returns `None` if a consecutive vertex pair is not connected by an
    /// arc, i.e. the sequence is not a real walk in `g`.
    pub fn cost(&self, g: &Graph, weights: &[Weight]) -> Option<Weight> {
        let mut total = 0u64;
        for pair in self.vertices.windows(2) {
            let arc = g.find_arc(pair[0], pair[1])?;
            total += weights[arc.index()];
        }
        Some(total)
    }

    /// Validates that every consecutive pair is an arc of `g`.
    pub fn is_valid(&self, g: &Graph) -> bool {
        self.vertices
            .windows(2)
            .all(|p| g.find_arc(p[0], p[1]).is_some())
    }
}

/// Reconstructs a path from a parent array produced by a search rooted at
/// `source`, walking back from `target`.
///
/// `parents[v]` holds the predecessor of `v` on the shortest path, or `None`
/// if `v` was never reached. Returns `None` when `target` is unreachable.
pub fn path_from_parents(
    source: VertexId,
    target: VertexId,
    parents: &[Option<VertexId>],
) -> Option<Path> {
    if source == target {
        return Some(Path::trivial(source));
    }
    let mut rev = vec![target];
    let mut cur = target;
    while cur != source {
        cur = parents[cur.index()]?;
        rev.push(cur);
        // Cycle guard: a parent chain can never exceed |V| hops.
        if rev.len() > parents.len() {
            return None;
        }
    }
    rev.reverse();
    Some(Path::new(rev))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ids::Coord;

    fn line_graph() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(Coord {
                x: i as f64,
                y: 0.0,
            });
        }
        for i in 0..3u32 {
            b.add_bidirectional(VertexId(i), VertexId(i + 1), (i + 1) as u64);
        }
        b.build()
    }

    #[test]
    fn cost_sums_arc_weights() {
        let g = line_graph();
        let p = Path::new(vec![VertexId(0), VertexId(1), VertexId(2), VertexId(3)]);
        assert_eq!(p.cost(&g, g.static_weights()), Some(1 + 2 + 3));
        assert_eq!(p.hops(), 3);
        assert!(p.is_valid(&g));
    }

    #[test]
    fn cost_rejects_non_adjacent_sequences() {
        let g = line_graph();
        let p = Path::new(vec![VertexId(0), VertexId(2)]);
        assert_eq!(p.cost(&g, g.static_weights()), None);
        assert!(!p.is_valid(&g));
    }

    #[test]
    fn trivial_path_has_zero_cost() {
        let g = line_graph();
        let p = Path::trivial(VertexId(1));
        assert_eq!(p.cost(&g, g.static_weights()), Some(0));
        assert_eq!(p.hops(), 0);
        assert_eq!(p.source(), p.target());
    }

    #[test]
    fn parents_reconstruction_walks_back_to_source() {
        // parents encode 0 -> 1 -> 2.
        let parents = vec![None, Some(VertexId(0)), Some(VertexId(1)), None];
        let p = path_from_parents(VertexId(0), VertexId(2), &parents).unwrap();
        assert_eq!(p.vertices(), &[VertexId(0), VertexId(1), VertexId(2)]);
        assert!(path_from_parents(VertexId(0), VertexId(3), &parents).is_none());
    }

    #[test]
    fn parents_reconstruction_detects_cycles() {
        // Corrupt parent array forming a 1 <-> 2 loop that never reaches 0.
        let parents = vec![None, Some(VertexId(2)), Some(VertexId(1))];
        assert!(path_from_parents(VertexId(0), VertexId(2), &parents).is_none());
    }
}
