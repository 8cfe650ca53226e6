//! Landmark selection and vertex↔landmark distance tables.
//!
//! Landmarks are chosen on the *public static* graph (they must be agreed by
//! all silos without communication, and the paper states they are "public
//! and static regardless of the changes of the edge weights"). Distance
//! tables, by contrast, can be computed under any weight set: the static
//! `W0` (for ALT and Fed-ALT-Max's landmark pick) or, in `fedroad-core`,
//! collaboratively under the joint weights (for Fed-ALT).
//!
//! [`LandmarkBounds`] packs a few landmarks' `W0` distances vertex-major,
//! within one cache line per vertex, for the goal-directed Fed-AMPS
//! sweeps; the [`Graph`] holds one, computed on first use.

use crate::algo::ResumableDijkstra;
use crate::graph::{Direction, Graph};
use crate::ids::{VertexId, Weight, INFINITY};
use std::fmt;

/// A full distance-only sweep from `source` under `weights`.
fn distances(g: &Graph, weights: &[Weight], source: VertexId, direction: Direction) -> Vec<Weight> {
    ResumableDijkstra::new(g, weights, source, direction).into_distances()
}

/// Selects `count` landmarks by the farthest-point heuristic on the static
/// weights: start from the vertex farthest from vertex 0, then repeatedly
/// add the vertex maximizing the minimum distance to the chosen set.
///
/// Deterministic: depends only on the graph, so every silo computes the
/// same set locally.
pub fn select_landmarks(g: &Graph, count: usize) -> Vec<VertexId> {
    select_farthest(g, count, |_, _, _| {})
}

/// [`select_landmarks`], handing `visit(l, landmark, from)` each chosen
/// landmark's forward `W0` distances as the selection computes them.
fn select_farthest(
    g: &Graph,
    count: usize,
    mut visit: impl FnMut(usize, VertexId, &[Weight]),
) -> Vec<VertexId> {
    assert!(count >= 1, "need at least one landmark");
    assert!(g.num_vertices() >= count, "more landmarks than vertices");
    let w0 = g.static_weights();

    // min_dist[v] = distance from v to the closest chosen landmark
    // (symmetrized via forward search from each landmark).
    let mut min_dist = vec![INFINITY; g.num_vertices()];
    let mut landmarks = Vec::with_capacity(count);

    // Seed: farthest vertex from v0 (a boundary vertex, per ALT practice).
    let from_v0 = distances(g, w0, VertexId(0), Direction::Forward);
    let mut next = arg_max_finite(&from_v0).unwrap_or(VertexId(0));
    loop {
        let from = distances(g, w0, next, Direction::Forward);
        for (md, &d) in min_dist.iter_mut().zip(&from) {
            *md = (*md).min(d);
        }
        visit(landmarks.len(), next, &from);
        landmarks.push(next);
        if landmarks.len() == count {
            break;
        }
        next = (0..g.num_vertices() as u32)
            .map(VertexId)
            .filter(|v| !landmarks.contains(v))
            .max_by_key(|v| {
                let d = min_dist[v.index()];
                // Deterministic tie-break on the id keeps silos consistent.
                (if d >= INFINITY { 0 } else { d }, u32::MAX - v.0)
            })
            .expect("count <= |V| checked above");
    }
    landmarks
}

fn arg_max_finite(dist: &[Weight]) -> Option<VertexId> {
    dist.iter()
        .enumerate()
        .filter(|(_, &d)| d < INFINITY)
        .max_by_key(|(i, &d)| (d, usize::MAX - i))
        .map(|(i, _)| VertexId(i as u32))
}

/// Vertex↔landmark distance tables under one weight set.
///
/// `to[l][v]` = dist(v → landmark l), `from[l][v]` = dist(landmark l → v),
/// both needed for correct triangle-inequality bounds on directed graphs.
#[derive(Clone, Debug)]
pub struct LandmarkTable {
    /// Landmark vertex ids, in selection order.
    pub landmarks: Vec<VertexId>,
    /// `to[l][v]` = dist(v → landmarks\[l\]).
    pub to: Vec<Vec<Weight>>,
    /// `from[l][v]` = dist(landmarks\[l\] → v).
    pub from: Vec<Vec<Weight>>,
}

impl LandmarkTable {
    /// Computes both distance tables for `landmarks` under `weights`.
    ///
    /// Uses one backward and one forward Dijkstra per landmark
    /// (`2·|L|` single-source runs).
    pub fn compute(g: &Graph, weights: &[Weight], landmarks: &[VertexId]) -> Self {
        let to = landmarks
            .iter()
            .map(|&l| distances(g, weights, l, Direction::Backward))
            .collect();
        let from = landmarks
            .iter()
            .map(|&l| distances(g, weights, l, Direction::Forward))
            .collect();
        LandmarkTable {
            landmarks: landmarks.to_vec(),
            to,
            from,
        }
    }

    /// Number of landmarks `|L|`.
    pub fn len(&self) -> usize {
        self.landmarks.len()
    }

    /// True when no landmarks are present.
    pub fn is_empty(&self) -> bool {
        self.landmarks.is_empty()
    }

    /// The lower bound on dist(v → t) contributed by landmark `l` alone:
    /// `max(to[l][v] − to[l][t], from[l][t] − from[l][v], 0)`.
    #[inline]
    pub fn bound_by(&self, l: usize, v: VertexId, t: VertexId) -> Weight {
        let a = self.to[l][v.index()].saturating_sub(self.to[l][t.index()]);
        let b = self.from[l][t.index()].saturating_sub(self.from[l][v.index()]);
        sanitize(a.max(b))
    }

    /// The tightest lower bound over all landmarks (classic ALT).
    pub fn best_bound(&self, v: VertexId, t: VertexId) -> Weight {
        (0..self.len())
            .map(|l| self.bound_by(l, v, t))
            .max()
            .unwrap_or(0)
    }

    /// The index of the landmark giving the tightest bound (ties to the
    /// smallest index) — Fed-ALT-Max's plain-text "farthest landmark" pick.
    pub fn best_landmark(&self, v: VertexId, t: VertexId) -> usize {
        (0..self.len())
            .max_by_key(|&l| (self.bound_by(l, v, t), usize::MAX - l))
            .expect("non-empty landmark set")
    }
}

/// Differences involving unreachable (INFINITY) entries are meaningless;
/// clamp them to 0 so the bound stays admissible.
#[inline]
fn sanitize(d: Weight) -> Weight {
    if d >= INFINITY / 2 {
        0
    } else {
        d
    }
}

/// Landmarks behind [`LandmarkBounds`]. Four, not more, because the
/// table is built at set-up, where each landmark costs a full sweep (two
/// on directed graphs): on FLA-S, eight landmarks cut a Fed-AMPS query's
/// sweeps by about a further quarter but took twice as long to build.
pub const BOUND_LANDMARKS: usize = 4;

/// One vertex's `W0` distances from and to each landmark, capped at
/// `u32::MAX` (which unreachable vertices read as well): 32 bytes, so a
/// row never straddles a cache line.
#[derive(Clone, Copy, Default)]
#[repr(C, align(32))]
struct BoundRow {
    from: [u32; BOUND_LANDMARKS],
    to: [u32; BOUND_LANDMARKS],
}

/// ALT lower bounds (Goldberg & Harrelson, SODA 2005) on free-flow `W0`
/// distances from [`BOUND_LANDMARKS`] farthest-point landmarks, stored
/// vertex-major so one bound reads two cache lines, one per endpoint.
///
/// Public static data: it depends only on the graph. The
/// [`Graph`] holds one ([`Graph::landmark_bounds`]).
#[derive(Clone)]
pub struct LandmarkBounds {
    rows: Vec<BoundRow>,
}

impl LandmarkBounds {
    /// Selects the landmarks, keeping the forward sweep the selection runs
    /// from each, and adds one backward full sweep per landmark on `W0`.
    /// When every arc has a reverse arc of the same free-flow weight (as
    /// on two-way road networks), backward distances equal forward ones
    /// and the backward sweeps are skipped.
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_vertices();
        let mut rows = vec![BoundRow::default(); n];
        if n == 0 {
            return LandmarkBounds { rows };
        }
        let w0 = g.static_weights();
        let symmetric = g.vertices().all(|v| {
            g.out_arcs(v).all(|a| {
                g.out_arcs(a.head)
                    .any(|b| b.head == v && w0[b.id.index()] == w0[a.id.index()])
            })
        });
        let cap = |d: Weight| d.min(u32::MAX as Weight) as u32;
        select_farthest(g, BOUND_LANDMARKS.min(n), |l, landmark, from| {
            let backward;
            let to = if symmetric {
                from
            } else {
                backward = distances(g, w0, landmark, Direction::Backward);
                &backward
            };
            for (row, (&t, &f)) in rows.iter_mut().zip(to.iter().zip(from)) {
                row.to[l] = cap(t);
                row.from[l] = cap(f);
            }
        });
        LandmarkBounds { rows }
    }

    /// A lower bound on the `W0` distance from `a` to `b`: the largest of
    /// `to[a] − to[b]` and `from[b] − from[a]` over the landmarks, each
    /// clamped at 0.
    ///
    /// With either end fixed, the bound is consistent in the other along
    /// every arc: capping at `u32::MAX` keeps each term a triangle-
    /// inequality difference, so no term needs a special case for
    /// unreachable vertices (a term with a capped entry can exceed the
    /// true distance only where that distance is infinite).
    #[inline]
    pub fn lower_bound(&self, a: VertexId, b: VertexId) -> Weight {
        let (a, b) = (&self.rows[a.index()], &self.rows[b.index()]);
        let mut best = 0;
        for l in 0..BOUND_LANDMARKS {
            best = best
                .max(a.to[l].saturating_sub(b.to[l]))
                .max(b.from[l].saturating_sub(a.from[l]));
        }
        Weight::from(best)
    }
}

impl fmt::Debug for LandmarkBounds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LandmarkBounds")
            .field("vertices", &self.rows.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{spsp, sssp_until};
    use crate::gen::{grid_city, GridCityParams, RoadNetworkPreset};

    #[test]
    fn distance_only_sweeps_keep_the_landmarks_and_tables() {
        // Fed-ALT-Max's landmark pick, and so every figure count, rests on
        // these: the CAL-S pick the full `sssp_until` runs made.
        let g = RoadNetworkPreset::CalS.generate(7);
        let landmarks = select_landmarks(&g, 32);
        let picked: Vec<u32> = landmarks.iter().map(|v| v.0).collect();
        assert_eq!(
            picked,
            [
                1839, 0, 89, 1610, 897, 21, 919, 1860, 831, 448, 1370, 1298, 333, 28, 2070, 1105,
                1449, 1873, 437, 733, 460, 840, 864, 36, 367, 1758, 9, 1240, 1089, 1168, 2109, 506
            ]
        );
        let w0 = g.static_weights();
        let table = LandmarkTable::compute(&g, w0, &landmarks);
        for (l, &lm) in landmarks.iter().enumerate() {
            let full = |direction| sssp_until(&g, w0, lm, direction, |_, _| false).dist;
            assert_eq!(table.to[l], full(Direction::Backward), "to landmark {lm}");
            assert_eq!(
                table.from[l],
                full(Direction::Forward),
                "from landmark {lm}"
            );
        }
    }

    #[test]
    fn selection_is_deterministic_and_distinct() {
        let g = grid_city(&GridCityParams::small(), 5);
        let a = select_landmarks(&g, 6);
        let b = select_landmarks(&g, 6);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 6, "landmarks must be distinct");
    }

    #[test]
    fn bounds_are_admissible() {
        let g = grid_city(&GridCityParams::small(), 8);
        let w = g.static_weights();
        let lms = select_landmarks(&g, 4);
        let table = LandmarkTable::compute(&g, w, &lms);
        let n = g.num_vertices() as u32;
        for (s, t) in [(0, n - 1), (5, n / 2), (n / 3, 7), (n - 3, 2)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let (true_d, _) = spsp(&g, w, s, t).unwrap();
            let bound = table.best_bound(s, t);
            assert!(
                bound <= true_d,
                "ALT bound {bound} exceeds true distance {true_d}"
            );
            let packed = g.landmark_bounds().lower_bound(s, t);
            assert!(packed <= true_d, "packed bound {packed} > {true_d}");
        }
    }

    #[test]
    fn best_landmark_attains_best_bound() {
        let g = grid_city(&GridCityParams::small(), 2);
        let table = LandmarkTable::compute(&g, g.static_weights(), &select_landmarks(&g, 5));
        let (s, t) = (VertexId(3), VertexId(90));
        let l = table.best_landmark(s, t);
        assert_eq!(table.bound_by(l, s, t), table.best_bound(s, t));
    }

    #[test]
    fn bound_to_self_is_zero() {
        let g = grid_city(&GridCityParams::small(), 2);
        let table = LandmarkTable::compute(&g, g.static_weights(), &select_landmarks(&g, 3));
        assert_eq!(table.best_bound(VertexId(7), VertexId(7)), 0);
    }
}
