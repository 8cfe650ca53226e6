//! Path representation and cost evaluation.

use crate::graph::Graph;
use crate::ids::{VertexId, Weight};

/// A walk through the road network, stored as its vertex sequence.
///
/// The paper's `ρ = ⟨v0, v1, …, vl⟩`. Costs are always evaluated against an
/// explicit weight vector, because in a federation the *same* path has a
/// different partial cost `φ_p(ρ)` on every silo.
///
/// A path outlives its search as a query answer, and answers are kept by
/// the thousand, so the sequence is stored compactly in one byte string:
/// the hop count and the source as LEB128 varints, then every step as the
/// zigzag LEB128 varint of its id difference to the previous vertex.
/// Neighbouring junctions mostly have nearby ids, so a step takes one or
/// two bytes instead of four. The encoding is canonical, so equal paths
/// have equal bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Path {
    bytes: Box<[u8]>,
}

// Shows the vertex sequence, not the encoding.
impl std::fmt::Debug for Path {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Path").field(&self.vertices()).finish()
    }
}

fn push_varint(out: &mut Vec<u8>, mut x: u64) {
    while x >= 0x80 {
        out.push((x as u8) | 0x80);
        x >>= 7;
    }
    out.push(x as u8);
}

/// Reads the varint at `*at`, advancing `*at` past it.
fn read_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut x = 0u64;
    let mut shift = 0;
    loop {
        let b = bytes[*at];
        *at += 1;
        x |= u64::from(b & 0x7F) << shift;
        if b < 0x80 {
            return x;
        }
        shift += 7;
    }
}

impl Path {
    /// Creates a path from a vertex sequence (searches build it by
    /// pushing).
    ///
    /// # Panics
    /// Panics if the sequence is empty; a path has at least its source.
    pub fn new(vertices: Vec<VertexId>) -> Self {
        assert!(!vertices.is_empty(), "a path contains at least one vertex");
        let mut bytes = Vec::with_capacity(vertices.len() + 8);
        push_varint(&mut bytes, (vertices.len() - 1) as u64);
        push_varint(&mut bytes, u64::from(vertices[0].0));
        for pair in vertices.windows(2) {
            let delta = i64::from(pair[1].0) - i64::from(pair[0].0);
            push_varint(&mut bytes, ((delta << 1) ^ (delta >> 63)) as u64);
        }
        Path {
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// The trivial path consisting of a single vertex.
    pub fn trivial(v: VertexId) -> Self {
        Path::new(vec![v])
    }

    /// Source vertex `v0`.
    pub fn source(&self) -> VertexId {
        let mut at = 0;
        read_varint(&self.bytes, &mut at);
        VertexId(read_varint(&self.bytes, &mut at) as u32)
    }

    /// Target vertex `vl`.
    pub fn target(&self) -> VertexId {
        self.iter().last().expect("non-empty")
    }

    /// Number of hops (arcs) on the path — the paper's query-scale measure.
    pub fn hops(&self) -> usize {
        read_varint(&self.bytes, &mut 0) as usize
    }

    /// The vertex sequence, decoded.
    pub fn iter(&self) -> impl Iterator<Item = VertexId> + '_ {
        let mut at = 0;
        let hops = read_varint(&self.bytes, &mut at);
        let mut v = read_varint(&self.bytes, &mut at) as i64;
        std::iter::once(VertexId(v as u32)).chain((0..hops).map(move |_| {
            let z = read_varint(&self.bytes, &mut at);
            v += ((z >> 1) as i64) ^ -((z & 1) as i64);
            VertexId(v as u32)
        }))
    }

    /// The vertex sequence as a vector.
    pub fn vertices(&self) -> Vec<VertexId> {
        self.iter().collect()
    }

    /// Consecutive vertex pairs: the arcs the walk takes.
    fn steps(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.iter().zip(self.iter().skip(1))
    }

    /// Evaluates the path cost under `weights` (indexed by arc id) on `g`.
    ///
    /// Returns `None` if a consecutive vertex pair is not connected by an
    /// arc, i.e. the sequence is not a real walk in `g`.
    pub fn cost(&self, g: &Graph, weights: &[Weight]) -> Option<Weight> {
        let mut total = 0u64;
        for (u, v) in self.steps() {
            let arc = g.find_arc(u, v)?;
            total += weights[arc.index()];
        }
        Some(total)
    }

    /// Validates that every consecutive pair is an arc of `g`.
    pub fn is_valid(&self, g: &Graph) -> bool {
        self.steps().all(|(u, v)| g.find_arc(u, v).is_some())
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
        assert_eq!(p.vertices(), [VertexId(0), VertexId(1), VertexId(2)]);
        assert!(path_from_parents(VertexId(0), VertexId(3), &parents).is_none());
    }

    #[test]
    fn parents_reconstruction_detects_cycles() {
        // Corrupt parent array forming a 1 <-> 2 loop that never reaches 0.
        let parents = vec![None, Some(VertexId(2)), Some(VertexId(1))];
        assert!(path_from_parents(VertexId(0), VertexId(2), &parents).is_none());
    }

    #[test]
    fn compact_encoding_roundtrips_any_sequence() {
        // Forward and backward steps, one-byte and multi-byte deltas, the
        // largest ids, and a repeated vertex.
        let seqs: [&[u32]; 4] = [
            &[5],
            &[0, 1, 47, 46, 0, u32::MAX, 7, 7],
            &[u32::MAX, 0, u32::MAX],
            &[1000, 1001, 1047, 1093, 1092],
        ];
        for seq in seqs {
            let vertices: Vec<VertexId> = seq.iter().map(|&v| VertexId(v)).collect();
            let p = Path::new(vertices.clone());
            assert_eq!(p.vertices(), vertices);
            assert_eq!(p.source(), vertices[0]);
            assert_eq!(p.target(), *vertices.last().unwrap());
            assert_eq!(p.hops(), vertices.len() - 1);
            assert_eq!(p, Path::new(vertices));
        }
        // A grid walk of unit and row-width steps takes a byte per step.
        let walk: Vec<VertexId> = (0..60)
            .map(|i| VertexId(1000 + 46 * (i / 2) + i % 2))
            .collect();
        assert_eq!(Path::new(walk).bytes.len(), 1 + 2 + 59);
    }
}
