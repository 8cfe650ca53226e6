//! Plain Dijkstra single-source search with flexible stopping.

use crate::graph::{Direction, Graph};
use crate::ids::{VertexId, Weight, INFINITY};
use crate::path::{path_from_parents, Path};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Output of a (possibly truncated) Dijkstra run.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// `dist[v]` = shortest distance from the source to `v`, or
    /// [`INFINITY`](crate::INFINITY) if `v` was not settled before the run
    /// stopped.
    pub dist: Vec<Weight>,
    /// Predecessor of each vertex on its shortest path.
    pub parent: Vec<Option<VertexId>>,
    /// Vertices in the order they were settled.
    pub settled: Vec<VertexId>,
}

impl SsspResult {
    /// Reconstructs the shortest path from the run's source to `target`, if
    /// `target` was settled.
    pub fn path_to(&self, source: VertexId, target: VertexId) -> Option<Path> {
        if self.dist[target.index()] >= INFINITY {
            return None;
        }
        path_from_parents(source, target, &self.parent)
    }
}

/// Full single-source shortest paths from `source` under `weights`.
pub fn sssp(g: &Graph, weights: &[Weight], source: VertexId) -> SsspResult {
    sssp_until(g, weights, source, Direction::Forward, |_, _| false)
}

/// Dijkstra from `source` in the given `direction`, stopping early after a
/// vertex is settled for which `stop(vertex, distance)` returns `true`.
///
/// The stopping vertex itself is settled and recorded, so
/// `stop = |v, _| v == target` yields a correct point-to-point search.
pub fn sssp_until(
    g: &Graph,
    weights: &[Weight],
    source: VertexId,
    direction: Direction,
    mut stop: impl FnMut(VertexId, Weight) -> bool,
) -> SsspResult {
    // Coarse instrumentation only (one span + one counter per run): the
    // relaxation loop itself stays untouched, which is what keeps the
    // disabled-recorder overhead within the ≤5% budget the obs overhead
    // test pins.
    let _span = fedroad_obs::span("graph.dijkstra");
    debug_assert_eq!(weights.len(), g.num_arcs(), "weights indexed by arc id");
    let n = g.num_vertices();
    let mut dist = vec![INFINITY; n];
    let mut parent = vec![None; n];
    let mut settled_flag = vec![false; n];
    let mut settled = Vec::new();
    let mut heap = BinaryHeap::new();

    dist[source.index()] = 0;
    heap.push(Reverse((0u64, source)));

    while let Some(Reverse((d, v))) = heap.pop() {
        if settled_flag[v.index()] {
            continue; // stale heap entry (lazy deletion)
        }
        settled_flag[v.index()] = true;
        settled.push(v);
        if stop(v, d) {
            break;
        }
        for arc in g.arcs(v, direction) {
            let nd = d + weights[arc.id.index()];
            if nd < dist[arc.head.index()] {
                dist[arc.head.index()] = nd;
                parent[arc.head.index()] = Some(v);
                heap.push(Reverse((nd, arc.head)));
            }
        }
    }

    fedroad_obs::counter_add("graph.dijkstra.runs", 1);
    fedroad_obs::counter_add("graph.dijkstra.settled", settled.len() as u64);
    SsspResult {
        dist,
        parent,
        settled,
    }
}

/// A distance-only, A\*-ordered sweep that settles vertices on demand.
///
/// Each [`dist`](Self::dist) lookup resumes the sweep just until the asked
/// vertex settles, so a caller that reads only vertices near the source
/// never pays for the rest of the graph. The heap keys a vertex `u` by its
/// tentative distance plus `potential(u)`, a lower bound on the distance
/// left to some goal. With a *consistent* potential, one at most
/// [`INFINITY`](crate::INFINITY) with `potential(v) ≤ w(arc) +
/// potential(u)` for every arc the sweep relaxes from `v` to `u`, every
/// vertex's distance is final when it settles. Every lookup then returns
/// what a full [`sssp_until`] run from the same source would hold in
/// `dist`, in any lookup order; the potential only decides which vertices
/// settle first. The zero potential gives plain Dijkstra. Every call on
/// one sweep must pass the same potential.
pub struct ResumableDijkstra<'g> {
    g: &'g Graph,
    weights: &'g [Weight],
    direction: Direction,
    dist: Vec<Weight>,
    settled: Vec<bool>,
    /// `(dist + potential, vertex)`, with stale entries left in place.
    heap: BinaryHeap<Reverse<(Weight, VertexId)>>,
}

impl<'g> ResumableDijkstra<'g> {
    /// A sweep from `source` in `direction` with nothing settled yet.
    pub fn new(
        g: &'g Graph,
        weights: &'g [Weight],
        source: VertexId,
        direction: Direction,
    ) -> Self {
        debug_assert_eq!(weights.len(), g.num_arcs(), "weights indexed by arc id");
        let n = g.num_vertices();
        let mut dist = vec![INFINITY; n];
        dist[source.index()] = 0;
        ResumableDijkstra {
            g,
            weights,
            direction,
            dist,
            settled: vec![false; n],
            // The source is alone in the heap, so its key is never compared.
            heap: BinaryHeap::from(vec![Reverse((0, source))]),
        }
    }

    /// Shortest distance between the source and `v` in the sweep's
    /// direction, or [`INFINITY`](crate::INFINITY) if `v` is unreachable.
    /// `potential` must be consistent (see the type's docs).
    pub fn dist(&mut self, v: VertexId, mut potential: impl FnMut(VertexId) -> Weight) -> Weight {
        // An empty heap means every reachable vertex has settled, so an
        // unsettled `v` still holds INFINITY.
        while !self.settled[v.index()] && self.settle_next(&mut potential) {}
        self.dist[v.index()]
    }

    /// Runs the sweep to the end and returns every vertex's distance: the
    /// distance-only full run landmark tables need.
    pub fn into_distances(mut self) -> Vec<Weight> {
        while self.settle_next(&mut |_| 0) {}
        self.dist
    }

    /// Settles the next vertex and relaxes its arcs; `false` once the heap
    /// is empty.
    #[inline]
    fn settle_next(&mut self, potential: &mut impl FnMut(VertexId) -> Weight) -> bool {
        let u = loop {
            let Some(Reverse((_, u))) = self.heap.pop() else {
                return false;
            };
            if !self.settled[u.index()] {
                break u; // else a stale heap entry (lazy deletion)
            }
        };
        self.settled[u.index()] = true;
        let d = self.dist[u.index()];
        for arc in self.g.arcs(u, self.direction) {
            let nd = d + self.weights[arc.id.index()];
            if nd < self.dist[arc.head.index()] {
                self.dist[arc.head.index()] = nd;
                self.heap
                    .push(Reverse((nd + potential(arc.head), arc.head)));
            }
        }
        true
    }
}

/// Point-to-point shortest path; returns the distance and the path, or
/// `None` if `target` is unreachable from `source`.
pub fn spsp(
    g: &Graph,
    weights: &[Weight],
    source: VertexId,
    target: VertexId,
) -> Option<(Weight, Path)> {
    let run = sssp_until(g, weights, source, Direction::Forward, |v, _| v == target);
    let d = run.dist[target.index()];
    if d >= INFINITY {
        return None;
    }
    Some((d, run.path_to(source, target)?))
}

/// The `k` nearest vertices to `source` (including `source` itself at
/// distance 0), in ascending distance order — the paper's kNN query.
pub fn k_nearest(
    g: &Graph,
    weights: &[Weight],
    source: VertexId,
    k: usize,
) -> Vec<(VertexId, Weight)> {
    let mut out = Vec::with_capacity(k);
    let run = sssp_until(g, weights, source, Direction::Forward, |v, d| {
        out.push((v, d));
        out.len() >= k
    });
    // If the component ran out before k vertices, `out` holds what exists.
    let _ = run;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid_city, GridCityParams};
    use crate::graph::GraphBuilder;
    use crate::ids::Coord;
    use crate::traffic::{gen_silo_weights, CongestionLevel};
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    /// The paper's Figure 3 joint road network Ḡ (8 vertices, 11 edges).
    pub(crate) fn figure3_joint() -> Graph {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_vertex(Coord {
                x: (i % 4) as f64,
                y: (i / 4) as f64,
            });
        }
        // Joint weights from the paper example: the SPSP v7→v3 is
        // ⟨v7, v8, v3⟩ with cost 7. Vertices are 1-indexed in the paper.
        let v = |i: u32| VertexId(i - 1);
        let edges: &[(u32, u32, u64)] = &[
            (1, 2, 6),
            (1, 6, 3),
            (2, 3, 6),
            (2, 8, 2),
            (3, 4, 5),
            (3, 8, 3),
            (4, 5, 3),
            (4, 8, 4),
            (5, 6, 3),
            (6, 7, 2),
            (7, 8, 4),
        ];
        for &(a, bb, w) in edges {
            b.add_bidirectional(v(a), v(bb), w);
        }
        b.build()
    }

    #[test]
    fn paper_example_spsp_v7_v3() {
        let g = figure3_joint();
        let (d, p) = spsp(&g, g.static_weights(), VertexId(6), VertexId(2)).unwrap();
        assert_eq!(d, 7);
        assert_eq!(p.vertices(), &[VertexId(6), VertexId(7), VertexId(2)]);
    }

    #[test]
    fn paper_example_knn_from_v2() {
        let g = figure3_joint();
        let knn = k_nearest(&g, g.static_weights(), VertexId(1), 3);
        // Paper Example 2: (v2, ⟨v2⟩), (v8, ⟨v2,v8⟩), (v3, ⟨v2,v8,v3⟩).
        assert_eq!(
            knn,
            vec![(VertexId(1), 0), (VertexId(7), 2), (VertexId(2), 5)]
        );
    }

    #[test]
    fn sssp_distances_satisfy_triangle_on_arcs() {
        let g = figure3_joint();
        let run = sssp(&g, g.static_weights(), VertexId(0));
        for v in g.vertices() {
            for arc in g.out_arcs(v) {
                assert!(
                    run.dist[arc.head.index()] <= run.dist[v.index()] + g.static_weight(arc.id),
                    "relaxed arc violates shortest-path property"
                );
            }
        }
    }

    #[test]
    fn backward_search_matches_forward_on_reversed_pair() {
        let g = figure3_joint();
        let fwd = sssp(&g, g.static_weights(), VertexId(6));
        let bwd = sssp_until(
            &g,
            g.static_weights(),
            VertexId(2),
            Direction::Backward,
            |_, _| false,
        );
        // Undirected graph: dist(v7→v3) forward == dist(v3→v7) backward.
        assert_eq!(fwd.dist[VertexId(2).index()], bwd.dist[VertexId(6).index()]);
    }

    #[test]
    fn unreachable_vertices_stay_infinite() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(Coord { x: 0.0, y: 0.0 });
        let c = b.add_vertex(Coord { x: 1.0, y: 0.0 });
        b.add_arc(a, c, 1);
        let g = b.build();
        let run = sssp(&g, g.static_weights(), c);
        assert_eq!(run.dist[a.index()], INFINITY);
        assert!(spsp(&g, g.static_weights(), c, a).is_none());
    }

    #[test]
    fn knn_truncates_on_small_components() {
        let mut b = GraphBuilder::new();
        let a = b.add_vertex(Coord { x: 0.0, y: 0.0 });
        let c = b.add_vertex(Coord { x: 1.0, y: 0.0 });
        b.add_bidirectional(a, c, 1);
        let g = b.build();
        let knn = k_nearest(&g, g.static_weights(), a, 10);
        assert_eq!(knn.len(), 2);
    }

    /// Checks a fresh resumable sweep from every source, in both
    /// directions, against a full `sssp_until` run: every vertex is looked
    /// up in shuffled order, asked twice in a row, and asked again once the
    /// sweep has gone further. Each sweep runs unguided and aimed at a
    /// random goal with the graph's landmark bounds, which must stay
    /// consistent under `weights` (no arc below free flow).
    fn assert_sweeps_match_full_runs(g: &Graph, weights: &[Weight], seed: u64) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let bounds = g.landmark_bounds();
        let vertices: Vec<VertexId> = g.vertices().collect();
        for direction in [Direction::Forward, Direction::Backward] {
            for source in g.vertices() {
                let full = sssp_until(g, weights, source, direction, |_, _| false).dist;
                let goal = *vertices.choose(&mut rng).expect("non-empty graph");
                // Forward sweeps aim `u → goal`; backward ones `goal → u`.
                let guided = |u: VertexId| match direction {
                    Direction::Forward => bounds.lower_bound(u, goal),
                    Direction::Backward => bounds.lower_bound(goal, u),
                };
                let mut plain = ResumableDijkstra::new(g, weights, source, direction);
                let mut aimed = ResumableDijkstra::new(g, weights, source, direction);
                let mut order = vertices.clone();
                order.shuffle(&mut rng);
                for &v in order.iter().chain(&order) {
                    let want = full[v.index()];
                    for _ in 0..2 {
                        assert_eq!(plain.dist(v, |_| 0), want, "{direction:?} {source}->{v}");
                        assert_eq!(
                            aimed.dist(v, guided),
                            want,
                            "aimed at {goal}: {source}->{v}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resumable_sweep_matches_full_runs_in_any_lookup_order() {
        let g = grid_city(&GridCityParams::small(), 4);
        let weights = gen_silo_weights(&g, CongestionLevel::Heavy, 1, 4).remove(0);
        assert_sweeps_match_full_runs(&g, &weights, 4);

        // One-way rows (alternating) and upward-only columns: most pairs
        // are unreachable, so the landmark tables hold capped entries.
        let side = 7u32;
        let mut b = GraphBuilder::new();
        for i in 0..side * side {
            b.add_vertex(Coord {
                x: f64::from(i % side),
                y: f64::from(i / side),
            });
        }
        let at = |x: u32, y: u32| VertexId(y * side + x);
        for y in 0..side {
            for x in 0..side {
                let w = 5 + u64::from((x * 7 + y * 3) % 11);
                if x + 1 < side {
                    let (l, r) = (at(x, y), at(x + 1, y));
                    let (tail, head) = if y % 2 == 0 { (l, r) } else { (r, l) };
                    b.add_arc(tail, head, w);
                }
                if y + 1 < side && (x + y) % 3 != 0 {
                    b.add_arc(at(x, y), at(x, y + 1), w + 3);
                }
            }
        }
        let g = b.build();
        assert_sweeps_match_full_runs(&g, g.static_weights(), 6);
    }

    #[test]
    fn resumable_sweep_reports_unreachable_vertices_as_infinite() {
        // Two two-way pairs joined by one one-way arc, plus an isolated
        // vertex: no vertex reaches all others.
        let mut b = GraphBuilder::new();
        let v: Vec<VertexId> = (0..5)
            .map(|i| {
                b.add_vertex(Coord {
                    x: i as f64,
                    y: 0.0,
                })
            })
            .collect();
        b.add_bidirectional(v[0], v[1], 2);
        b.add_bidirectional(v[2], v[3], 1);
        b.add_arc(v[1], v[2], 5);
        let g = b.build();

        let mut fwd = ResumableDijkstra::new(&g, g.static_weights(), v[2], Direction::Forward);
        assert_eq!(fwd.dist(v[0], |_| 0), INFINITY);
        assert_eq!(fwd.dist(v[3], |_| 0), 1);
        assert_eq!(fwd.dist(v[4], |_| 0), INFINITY);
        let mut bwd = ResumableDijkstra::new(&g, g.static_weights(), v[2], Direction::Backward);
        assert_eq!(bwd.dist(v[0], |_| 0), 7);
        assert_eq!(bwd.dist(v[3], |_| 0), 1);
        assert_eq!(bwd.dist(v[4], |_| 0), INFINITY);

        assert_sweeps_match_full_runs(&g, g.static_weights(), 5);
    }
}
