//! Compressed-sparse-row road-network graph shared by every silo.
//!
//! A [`Graph`] stores the *public* part of the federation: the topology
//! `(V, E)`, vertex coordinates, and the static free-flow weight set `W0`.
//! Per-silo private weight sets are plain `Vec<Weight>` vectors indexed by
//! [`ArcId`] and live outside this type (see `fedroad-core`).
//!
//! The graph is directed. Both an out-adjacency and an in-adjacency CSR are
//! materialized so forward and backward (bidirectional) searches are equally
//! cheap.
//!
//! The graph also holds the [`LandmarkBounds`] derived from `W0`, computed
//! on first use: public static data every silo could derive locally.

use crate::ids::{ArcId, Coord, VertexId, Weight};
use crate::landmarks::LandmarkBounds;
use std::sync::OnceLock;

/// One outgoing (or, in the reverse view, incoming) arc of a vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    /// The vertex this arc leads to (or comes from, in the reverse view).
    pub head: VertexId,
    /// Dense id of the arc; indexes every weight vector.
    pub id: ArcId,
}

/// Immutable CSR road network: topology, coordinates and static weights.
///
/// Construct via [`GraphBuilder`]. All silos in a federation hold the same
/// `Graph` value; only edge-weight vectors differ between silos.
#[derive(Clone, Debug)]
pub struct Graph {
    out_offsets: Vec<u32>,
    out_heads: Vec<VertexId>,
    out_arc_ids: Vec<ArcId>,
    in_offsets: Vec<u32>,
    in_tails: Vec<VertexId>,
    in_arc_ids: Vec<ArcId>,
    /// `arc_endpoints[a] = (tail, head)` for every arc id `a`.
    arc_endpoints: Vec<(VertexId, VertexId)>,
    coords: Vec<Coord>,
    /// Public static free-flow weights `W0`, indexed by arc id.
    static_weights: Vec<Weight>,
    /// Landmark lower bounds on `W0` distances, computed on first use.
    landmark_bounds: OnceLock<LandmarkBounds>,
}

impl Graph {
    /// Number of vertices `|V|`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of directed arcs. An undirected road counts twice.
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.arc_endpoints.len()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices() as u32).map(VertexId)
    }

    /// Outgoing arcs of `v`.
    #[inline]
    pub fn out_arcs(&self, v: VertexId) -> impl Iterator<Item = Arc> + '_ {
        self.arcs(v, Direction::Forward)
    }

    /// Incoming arcs of `v`; `Arc::head` is the arc's *tail* vertex here.
    #[inline]
    pub fn in_arcs(&self, v: VertexId) -> impl Iterator<Item = Arc> + '_ {
        self.arcs(v, Direction::Backward)
    }

    /// The arcs a search in `direction` leaves `v` by: outgoing arcs
    /// forward, incoming arcs backward (`Arc::head` is then the tail).
    #[inline]
    pub fn arcs(&self, v: VertexId, direction: Direction) -> impl Iterator<Item = Arc> + '_ {
        let (offsets, heads, ids) = match direction {
            Direction::Forward => (&self.out_offsets, &self.out_heads, &self.out_arc_ids),
            Direction::Backward => (&self.in_offsets, &self.in_tails, &self.in_arc_ids),
        };
        let lo = offsets[v.index()] as usize;
        let hi = offsets[v.index() + 1] as usize;
        heads[lo..hi]
            .iter()
            .zip(&ids[lo..hi])
            .map(|(&head, &id)| Arc { head, id })
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: VertexId) -> usize {
        (self.out_offsets[v.index() + 1] - self.out_offsets[v.index()]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: VertexId) -> usize {
        (self.in_offsets[v.index() + 1] - self.in_offsets[v.index()]) as usize
    }

    /// Total degree (in + out) of `v`; the weight-independent "importance"
    /// signal used for contraction ordering.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.out_degree(v) + self.in_degree(v)
    }

    /// Tail and head vertices of arc `a`.
    #[inline]
    pub fn arc_endpoints(&self, a: ArcId) -> (VertexId, VertexId) {
        self.arc_endpoints[a.index()]
    }

    /// Coordinates of `v`.
    #[inline]
    pub fn coord(&self, v: VertexId) -> Coord {
        self.coords[v.index()]
    }

    /// The public static (free-flow) weight of arc `a` — part of `W0`.
    #[inline]
    pub fn static_weight(&self, a: ArcId) -> Weight {
        self.static_weights[a.index()]
    }

    /// The full public static weight vector `W0`, indexed by arc id.
    #[inline]
    pub fn static_weights(&self) -> &[Weight] {
        &self.static_weights
    }

    /// The graph's [`LandmarkBounds`], computed on the first call (a few
    /// full Dijkstra runs on `W0`) and shared by every later one.
    pub fn landmark_bounds(&self) -> &LandmarkBounds {
        self.landmark_bounds
            .get_or_init(|| LandmarkBounds::compute(self))
    }

    /// Whether [`Self::landmark_bounds`] has been computed yet.
    pub fn has_landmark_bounds(&self) -> bool {
        self.landmark_bounds.get().is_some()
    }

    /// Looks up the arc id from `tail` to `head`, if such an arc exists.
    ///
    /// Linear in the out-degree of `tail`, which is tiny on road networks.
    pub fn find_arc(&self, tail: VertexId, head: VertexId) -> Option<ArcId> {
        self.out_arcs(tail).find(|a| a.head == head).map(|a| a.id)
    }

    /// Returns `true` if every vertex can reach every other vertex
    /// (strong connectivity), which dataset generators guarantee so that
    /// random OD queries are always answerable.
    pub fn is_strongly_connected(&self) -> bool {
        if self.num_vertices() == 0 {
            return true;
        }
        let reach_fwd = self.reachable_count(VertexId(0), Direction::Forward);
        let reach_bwd = self.reachable_count(VertexId(0), Direction::Backward);
        reach_fwd == self.num_vertices() && reach_bwd == self.num_vertices()
    }

    fn reachable_count(&self, src: VertexId, dir: Direction) -> usize {
        let mut seen = vec![false; self.num_vertices()];
        let mut stack = vec![src];
        seen[src.index()] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for arc in self.arcs(v, dir) {
                if !seen[arc.head.index()] {
                    seen[arc.head.index()] = true;
                    count += 1;
                    stack.push(arc.head);
                }
            }
        }
        count
    }
}

/// Search direction selector used by bidirectional algorithms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Traverse arcs tail → head.
    Forward,
    /// Traverse arcs head → tail.
    Backward,
}

impl Direction {
    /// The opposite direction.
    #[inline]
    pub fn flip(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use fedroad_graph::{GraphBuilder, Coord, VertexId};
///
/// let mut b = GraphBuilder::new();
/// let s = b.add_vertex(Coord { x: 0.0, y: 0.0 });
/// let t = b.add_vertex(Coord { x: 100.0, y: 0.0 });
/// b.add_arc(s, t, 80);
/// b.add_arc(t, s, 80);
/// let g = b.build();
/// assert_eq!(g.num_vertices(), 2);
/// assert_eq!(g.num_arcs(), 2);
/// assert_eq!(g.find_arc(s, t).is_some(), true);
/// ```
#[derive(Default, Debug, Clone)]
pub struct GraphBuilder {
    coords: Vec<Coord>,
    arcs: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a vertex at `coord` and returns its id.
    pub fn add_vertex(&mut self, coord: Coord) -> VertexId {
        let id = VertexId(self.coords.len() as u32);
        self.coords.push(coord);
        id
    }

    /// Adds a directed arc with static weight `w0`, returning its id.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added, or if `w0` is zero
    /// (zero-weight arcs break shortest-path uniqueness arguments and do not
    /// occur on road networks).
    pub fn add_arc(&mut self, tail: VertexId, head: VertexId, w0: Weight) -> ArcId {
        assert!(tail.index() < self.coords.len(), "unknown tail vertex");
        assert!(head.index() < self.coords.len(), "unknown head vertex");
        assert!(w0 > 0, "arc weights must be positive");
        let id = ArcId(self.arcs.len() as u32);
        self.arcs.push((tail, head, w0));
        id
    }

    /// Adds a road in both directions with the same static weight; returns
    /// the two arc ids (forward, backward).
    pub fn add_bidirectional(&mut self, u: VertexId, v: VertexId, w0: Weight) -> (ArcId, ArcId) {
        (self.add_arc(u, v, w0), self.add_arc(v, u, w0))
    }

    /// Number of vertices added so far.
    pub fn num_vertices(&self) -> usize {
        self.coords.len()
    }

    /// Number of arcs added so far.
    pub fn num_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Freezes the builder into an immutable CSR [`Graph`].
    pub fn build(self) -> Graph {
        let n = self.coords.len();
        let m = self.arcs.len();

        let mut out_offsets = vec![0u32; n + 1];
        let mut in_offsets = vec![0u32; n + 1];
        for &(tail, head, _) in &self.arcs {
            out_offsets[tail.index() + 1] += 1;
            in_offsets[head.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
            in_offsets[i + 1] += in_offsets[i];
        }

        let mut out_heads = vec![VertexId(0); m];
        let mut out_arc_ids = vec![ArcId(0); m];
        let mut in_tails = vec![VertexId(0); m];
        let mut in_arc_ids = vec![ArcId(0); m];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        let mut arc_endpoints = Vec::with_capacity(m);
        let mut static_weights = Vec::with_capacity(m);

        for (i, &(tail, head, w0)) in self.arcs.iter().enumerate() {
            let id = ArcId(i as u32);
            let oc = &mut out_cursor[tail.index()];
            out_heads[*oc as usize] = head;
            out_arc_ids[*oc as usize] = id;
            *oc += 1;
            let ic = &mut in_cursor[head.index()];
            in_tails[*ic as usize] = tail;
            in_arc_ids[*ic as usize] = id;
            *ic += 1;
            arc_endpoints.push((tail, head));
            static_weights.push(w0);
        }

        Graph {
            out_offsets,
            out_heads,
            out_arc_ids,
            in_offsets,
            in_tails,
            in_arc_ids,
            arc_endpoints,
            coords: self.coords,
            static_weights,
            landmark_bounds: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3 and back edges.
        let mut b = GraphBuilder::new();
        for i in 0..4 {
            b.add_vertex(Coord {
                x: i as f64,
                y: 0.0,
            });
        }
        b.add_bidirectional(VertexId(0), VertexId(1), 10);
        b.add_bidirectional(VertexId(0), VertexId(2), 20);
        b.add_bidirectional(VertexId(1), VertexId(3), 30);
        b.add_bidirectional(VertexId(2), VertexId(3), 5);
        b.build()
    }

    #[test]
    fn csr_adjacency_matches_inserted_arcs() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_arcs(), 8);
        let heads: Vec<_> = g.out_arcs(VertexId(0)).map(|a| a.head).collect();
        assert_eq!(heads, vec![VertexId(1), VertexId(2)]);
        let tails: Vec<_> = g.in_arcs(VertexId(3)).map(|a| a.head).collect();
        assert_eq!(tails, vec![VertexId(1), VertexId(2)]);
    }

    #[test]
    fn arc_ids_index_static_weights() {
        let g = diamond();
        let a = g.find_arc(VertexId(2), VertexId(3)).unwrap();
        assert_eq!(g.static_weight(a), 5);
        assert_eq!(g.arc_endpoints(a), (VertexId(2), VertexId(3)));
    }

    #[test]
    fn degrees_count_both_directions() {
        let g = diamond();
        assert_eq!(g.out_degree(VertexId(0)), 2);
        assert_eq!(g.in_degree(VertexId(0)), 2);
        assert_eq!(g.degree(VertexId(0)), 4);
    }

    #[test]
    fn diamond_is_strongly_connected() {
        assert!(diamond().is_strongly_connected());
    }

    #[test]
    fn one_way_pair_is_not_strongly_connected() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Coord { x: 0.0, y: 0.0 });
        let v = b.add_vertex(Coord { x: 1.0, y: 0.0 });
        b.add_arc(u, v, 1);
        assert!(!b.build().is_strongly_connected());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_arcs_are_rejected() {
        let mut b = GraphBuilder::new();
        let u = b.add_vertex(Coord { x: 0.0, y: 0.0 });
        let v = b.add_vertex(Coord { x: 1.0, y: 0.0 });
        b.add_arc(u, v, 0);
    }

    #[test]
    fn find_arc_returns_none_for_missing_edge() {
        let g = diamond();
        assert_eq!(g.find_arc(VertexId(0), VertexId(3)), None);
    }
}
