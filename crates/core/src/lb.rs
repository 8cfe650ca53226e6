//! Federated lower-bound estimation (§V, Algorithm 4): Fed-ALT,
//! Fed-ALT-Max and Fed-AMPS potentials for the federated A* search.
//!
//! All three produce **per-silo partial** estimates whose mean is an
//! admissible *and consistent* lower bound on the joint distance, so the
//! bidirectional A* they guide is exact:
//!
//! * **Fed-ALT** — the tightest landmark bound, found by securely
//!   comparing all `|L|` candidate joint bounds (`|L| − 1` Fed-SACs *per
//!   estimation* — the communication cost the other two avoid).
//! * **Fed-ALT-Max** — picks the "farthest landmark" once per query using
//!   the public static distance matrix `Φ₀`, then evaluates only that
//!   landmark's bound: zero extra Fed-SACs, slightly looser bounds.
//! * **Fed-AMPS** — each silo's *local* shortest-path distance; the mean of
//!   partial shortest-path costs lower-bounds the joint cost (Equation 3).
//!   Pure local computation, and the most accurate of the three
//!   (reproduced in Figure 11). Each silo's sweep settles only as far as
//!   the search asks, in A\* order toward the query's other endpoint
//!   under the graph's public landmark bounds on free-flow distances, so
//!   it settles the vertices between `s` and `t` first; every estimate is
//!   still the exact local distance.

use crate::federation::SiloWeights;
use crate::partials::{JointComparator, PartialKey};
use crate::sssp::fed_sssp;
use crate::view::SearchView;
use fedroad_graph::algo::ResumableDijkstra;
use fedroad_graph::landmarks::LandmarkTable;
use fedroad_graph::{Direction, Graph, VertexId, Weight, INFINITY};
use fedroad_queue::QueueKind;
use std::collections::HashMap;

/// Which lower-bound estimator a query engine uses — the §V experiment knob.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LowerBoundKind {
    /// No potential: plain (bidirectional) Dijkstra ordering.
    None,
    /// Fed-ALT with `num_landmarks` landmarks (MPC-heavy estimation).
    Alt {
        /// Size of the landmark set `|L|`.
        num_landmarks: usize,
    },
    /// Fed-ALT-Max with `num_landmarks` landmarks (plain-text landmark
    /// selection on the public static weights).
    AltMax {
        /// Size of the landmark set `|L|`.
        num_landmarks: usize,
    },
    /// Fed-AMPS: mean of per-silo local shortest-path costs.
    Amps,
}

/// Per-silo partial distances between every vertex and every landmark,
/// pre-computed **collaboratively** so the underlying witness paths are the
/// *joint* shortest paths (individually computed tables would be
/// inconsistent — the paper's Fed-ALT correctness requirement).
#[derive(Clone, Debug)]
pub struct LandmarkPartials {
    /// The landmark set (public, chosen on static weights).
    pub landmarks: Vec<VertexId>,
    /// `to[l][v][p]` = silo `p`'s partial cost of the joint shortest path
    /// `v → landmarks[l]`.
    pub to: Vec<Vec<Vec<u64>>>,
    /// `from[l][v][p]` = silo `p`'s partial cost of the joint shortest
    /// path `landmarks[l] → v`.
    pub from: Vec<Vec<Vec<u64>>>,
}

impl LandmarkPartials {
    /// Builds the tables with `2·|L|` full federated SSSP runs. All queue
    /// comparisons go through `cmp` (this is the heavy pre-processing
    /// communication the paper attributes to Fed-ALT).
    pub fn build(
        view: &dyn SearchView,
        num_silos: usize,
        landmarks: &[VertexId],
        cmp: &mut dyn JointComparator,
    ) -> Self {
        let n = view.num_vertices();
        let mut to = Vec::with_capacity(landmarks.len());
        let mut from = Vec::with_capacity(landmarks.len());
        for &l in landmarks {
            let mut table_to = vec![vec![0u64; num_silos]; n];
            let res = fed_sssp(
                view,
                num_silos,
                l,
                usize::MAX,
                Direction::Backward,
                QueueKind::TmTree,
                cmp,
            );
            for (v, g) in res.settled {
                table_to[v.index()] = g;
            }
            to.push(table_to);

            let mut table_from = vec![vec![0u64; num_silos]; n];
            let res = fed_sssp(
                view,
                num_silos,
                l,
                usize::MAX,
                Direction::Forward,
                QueueKind::TmTree,
                cmp,
            );
            for (v, g) in res.settled {
                table_from[v.index()] = g;
            }
            from.push(table_from);
        }
        LandmarkPartials {
            landmarks: landmarks.to_vec(),
            to,
            from,
        }
    }

    /// Per-silo partial bound on `d(v → t)` by landmark `l` (to-table
    /// triangle inequality `d(v,t) ≥ d(v,l) − d(t,l)`, distributed over
    /// silos). Entries may be negative per silo.
    pub fn partial_bound_toward(&self, l: usize, v: VertexId, t: VertexId) -> PartialKey {
        self.to[l][v.index()]
            .iter()
            .zip(&self.to[l][t.index()])
            .map(|(&a, &b)| a as i64 - b as i64)
            .collect()
    }

    /// Per-silo partial bound on `d(s → v)` by landmark `l` (from-table:
    /// `d(s,v) ≥ d(l,v) − d(l,s)`).
    pub fn partial_bound_from(&self, l: usize, s: VertexId, v: VertexId) -> PartialKey {
        self.from[l][v.index()]
            .iter()
            .zip(&self.from[l][s.index()])
            .map(|(&a, &b)| a as i64 - b as i64)
            .collect()
    }
}

/// A federated A* potential: per-silo partial lower bounds whose joint
/// (mean) value is admissible and consistent for the WJRN.
// `from_source` is domain terminology (the bound from the query source),
// not a conversion constructor.
#[allow(clippy::wrong_self_convention)]
pub trait FedPotential {
    /// Partial lower bounds on the remaining distance `d(v → t)`.
    fn toward_target(&mut self, v: VertexId, cmp: &mut dyn JointComparator) -> PartialKey;

    /// Partial lower bounds on the prefix distance `d(s → v)`.
    fn from_source(&mut self, v: VertexId, cmp: &mut dyn JointComparator) -> PartialKey;

    /// Joint (summed) estimate toward the target — evaluation hook for the
    /// Figure 11 accuracy experiment; not used in queries.
    fn joint_estimate(&mut self, v: VertexId, cmp: &mut dyn JointComparator) -> i64 {
        self.toward_target(v, cmp).iter().sum()
    }

    /// Whether this is the trivial zero potential (no goal direction) —
    /// selects between the symmetric and the guided hierarchical search.
    fn is_zero(&self) -> bool {
        false
    }

    /// Whether the *joint* estimate is non-negative by construction.
    ///
    /// Landmark differences can go negative (admissibility still holds);
    /// hierarchical (one-sided) searches then clamp them at zero — which
    /// their per-direction stopping rule requires — at the cost of one
    /// Fed-SAC sign test per memoized estimate. Local-distance potentials
    /// (Fed-AMPS, zero) are non-negative for free.
    fn joint_nonnegative(&self) -> bool {
        false
    }
}

/// The zero potential: degrades A* to Dijkstra.
pub struct ZeroFedPotential {
    num_silos: usize,
}

impl ZeroFedPotential {
    /// Zero potential for a `P`-silo federation.
    pub fn new(num_silos: usize) -> Self {
        ZeroFedPotential { num_silos }
    }
}

impl FedPotential for ZeroFedPotential {
    fn toward_target(&mut self, _v: VertexId, _cmp: &mut dyn JointComparator) -> PartialKey {
        vec![0; self.num_silos]
    }

    fn from_source(&mut self, _v: VertexId, _cmp: &mut dyn JointComparator) -> PartialKey {
        vec![0; self.num_silos]
    }

    fn is_zero(&self) -> bool {
        true
    }

    fn joint_nonnegative(&self) -> bool {
        true
    }
}

/// Fed-ALT: per estimation, the tightest of `|L|` joint bounds, found with
/// `|L| − 1` secure comparisons. Memoized per vertex.
pub struct FedAltPotential<'a> {
    tables: &'a LandmarkPartials,
    s: VertexId,
    t: VertexId,
    cache_toward: HashMap<u32, PartialKey>,
    cache_from: HashMap<u32, PartialKey>,
}

impl<'a> FedAltPotential<'a> {
    /// A potential for the query `(s, t)` over pre-computed tables.
    pub fn new(tables: &'a LandmarkPartials, s: VertexId, t: VertexId) -> Self {
        assert!(!tables.landmarks.is_empty());
        FedAltPotential {
            tables,
            s,
            t,
            cache_toward: HashMap::new(),
            cache_from: HashMap::new(),
        }
    }

    fn secure_max(
        candidates: impl Iterator<Item = PartialKey>,
        cmp: &mut dyn JointComparator,
    ) -> PartialKey {
        let mut best: Option<PartialKey> = None;
        for cand in candidates {
            best = Some(match best {
                None => cand,
                Some(b) => {
                    if cmp.less(&b, &cand) {
                        cand
                    } else {
                        b
                    }
                }
            });
        }
        best.expect("non-empty landmark set")
    }
}

impl FedPotential for FedAltPotential<'_> {
    fn toward_target(&mut self, v: VertexId, cmp: &mut dyn JointComparator) -> PartialKey {
        if let Some(k) = self.cache_toward.get(&v.0) {
            return k.clone();
        }
        let (tables, t) = (self.tables, self.t);
        let key = Self::secure_max(
            (0..tables.landmarks.len()).map(|l| tables.partial_bound_toward(l, v, t)),
            cmp,
        );
        self.cache_toward.insert(v.0, key.clone());
        key
    }

    fn from_source(&mut self, v: VertexId, cmp: &mut dyn JointComparator) -> PartialKey {
        if let Some(k) = self.cache_from.get(&v.0) {
            return k.clone();
        }
        let (tables, s) = (self.tables, self.s);
        let key = Self::secure_max(
            (0..tables.landmarks.len()).map(|l| tables.partial_bound_from(l, s, v)),
            cmp,
        );
        self.cache_from.insert(v.0, key.clone());
        key
    }
}

/// Fed-ALT-Max: the "farthest landmark" `l₀*` is chosen **once per query**
/// from the public static matrix `Φ₀`, in plain text; every estimation then
/// evaluates that single landmark's bound locally — zero Fed-SACs.
pub struct FedAltMaxPotential<'a> {
    tables: &'a LandmarkPartials,
    l_star: usize,
    s: VertexId,
    t: VertexId,
}

impl<'a> FedAltMaxPotential<'a> {
    /// Selects `l₀*` for the query `(s, t)` from the static table (which
    /// must cover the same landmark set as `tables`).
    pub fn new(
        tables: &'a LandmarkPartials,
        static_table: &LandmarkTable,
        s: VertexId,
        t: VertexId,
    ) -> Self {
        assert_eq!(
            static_table.landmarks, tables.landmarks,
            "static and federated tables must share the landmark set"
        );
        // Plain-text argmax of the static to-bound Φ₀[s][l] − Φ₀[t][l].
        let l_star = (0..tables.landmarks.len())
            .max_by_key(|&l| {
                let bound =
                    static_table.to[l][s.index()] as i64 - static_table.to[l][t.index()] as i64;
                (bound, usize::MAX - l)
            })
            .expect("non-empty landmark set");
        FedAltMaxPotential {
            tables,
            l_star,
            s,
            t,
        }
    }

    /// The index of the chosen landmark (test hook).
    pub fn chosen_landmark(&self) -> usize {
        self.l_star
    }
}

impl FedPotential for FedAltMaxPotential<'_> {
    fn toward_target(&mut self, v: VertexId, _cmp: &mut dyn JointComparator) -> PartialKey {
        self.tables.partial_bound_toward(self.l_star, v, self.t)
    }

    fn from_source(&mut self, v: VertexId, _cmp: &mut dyn JointComparator) -> PartialKey {
        self.tables.partial_bound_from(self.l_star, self.s, v)
    }
}

/// Fed-AMPS: each silo's exact local distance, from one silo-local sweep
/// per silo and direction (the paper's "pay more local computation").
///
/// A sweep starts at the first estimate asked in its direction and
/// settles only as far as the vertex asked, so a search that reads only
/// `toward_target` never sweeps from `s`. Each sweep is A\*-ordered
/// toward the other endpoint: the backward sweep from `t` keys a vertex
/// `u` by its distance plus a lower bound on the distance `s → u` (the
/// forward sweep from `s` aims at `t` the same way), so it settles the
/// vertices between `s` and `t` first. The bound is the graph's public
/// [`LandmarkBounds`](fedroad_graph::landmarks::LandmarkBounds) on
/// free-flow distances, computed once per vertex and query and shared by
/// the silos, each scaling it by its smallest weight-to-free-flow ratio
/// ([`SiloWeights::scale_free_flow`]) so that it stays consistent for any
/// silo weights. A vertex's distance is final when it settles, so every
/// estimate equals the one a full Dijkstra sweep gives.
pub struct FedAmpsPotential<'a> {
    graph: &'a Graph,
    silos: &'a [SiloWeights],
    s: VertexId,
    t: VertexId,
    /// The backward sweeps from `t` (not started until first asked).
    to_t: Option<GuidedSweeps<'a>>,
    /// The forward sweeps from `s` (not started until first asked).
    from_s: Option<GuidedSweeps<'a>>,
}

/// One direction's per-silo sweeps and the free-flow bound they share.
struct GuidedSweeps<'a> {
    sweeps: Vec<ResumableDijkstra<'a>>,
    /// `free_flow[u]` = 1 + the free-flow bound between `u` and the goal,
    /// or 0 while not yet computed.
    free_flow: Vec<Weight>,
}

impl<'a> FedAmpsPotential<'a> {
    /// A potential for the query `(s, t)`; runs no sweep yet.
    pub fn new(graph: &'a Graph, silos: &'a [SiloWeights], s: VertexId, t: VertexId) -> Self {
        FedAmpsPotential {
            graph,
            silos,
            s,
            t,
            to_t: None,
            from_s: None,
        }
    }

    /// Each silo's local distance between `v` and the query endpoint the
    /// `direction` sweeps from, with unreachable vertices bounded by 0.
    /// Starts that direction's sweeps on first use.
    fn local_bounds(&mut self, direction: Direction, v: VertexId) -> PartialKey {
        let (graph, silos, s, t) = (self.graph, self.silos, self.s, self.t);
        let (guided, root) = match direction {
            Direction::Backward => (&mut self.to_t, t),
            Direction::Forward => (&mut self.from_s, s),
        };
        let GuidedSweeps { sweeps, free_flow } = guided.get_or_insert_with(|| GuidedSweeps {
            sweeps: silos
                .iter()
                .map(|w| ResumableDijkstra::new(graph, w.as_slice(), root, direction))
                .collect(),
            free_flow: vec![0; graph.num_vertices()],
        });
        let landmarks = graph.landmark_bounds();
        // Backward from `t`, a vertex `u` is `s → u` away from the goal;
        // forward from `s`, `u → t`.
        let mut bound = |u: VertexId| {
            let memo = &mut free_flow[u.index()];
            if *memo == 0 {
                *memo = 1 + match direction {
                    Direction::Backward => landmarks.lower_bound(s, u),
                    Direction::Forward => landmarks.lower_bound(u, t),
                };
            }
            *memo - 1
        };
        sweeps
            .iter_mut()
            .zip(silos)
            .map(
                |(sweep, w)| match sweep.dist(v, |u| w.scale_free_flow(bound(u))) {
                    INFINITY => 0,
                    d => d as i64,
                },
            )
            .collect()
    }
}

impl FedPotential for FedAmpsPotential<'_> {
    fn toward_target(&mut self, v: VertexId, _cmp: &mut dyn JointComparator) -> PartialKey {
        self.local_bounds(Direction::Backward, v)
    }

    fn from_source(&mut self, v: VertexId, _cmp: &mut dyn JointComparator) -> PartialKey {
        self.local_bounds(Direction::Forward, v)
    }

    fn joint_nonnegative(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedch::WeightChange;
    use crate::federation::{Federation, FederationConfig};
    use crate::oracle::JointOracle;
    use crate::partials::{PlainComparator, SacComparator};
    use crate::view::BaseView;
    use fedroad_graph::algo::sssp_until;
    use fedroad_graph::gen::{grid_city, GridCityParams, RoadNetworkPreset};
    use fedroad_graph::landmarks::select_landmarks;
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_graph::ArcId;
    use fedroad_mpc::SacBackend;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn make_fed(seed: u64) -> Federation {
        let g = grid_city(&GridCityParams::small(), seed);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, seed);
        Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed,
            },
        )
    }

    fn build_tables(fed: &mut Federation, count: usize) -> LandmarkPartials {
        let landmarks = select_landmarks(fed.graph(), count);
        let (graph, silos, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        LandmarkPartials::build(&BaseView::new(graph, silos), 3, &landmarks, &mut cmp)
    }

    fn joint_distance(fed: &Federation, oracle: &JointOracle, s: VertexId, t: VertexId) -> i64 {
        oracle.spsp_scaled(fed, s, t).unwrap().0 as i64
    }

    #[test]
    fn landmark_tables_hold_joint_partial_costs() {
        let mut fed = make_fed(3);
        let oracle = JointOracle::new(&fed);
        let tables = build_tables(&mut fed, 4);
        for (l, &lm) in tables.landmarks.iter().enumerate() {
            for v in [VertexId(0), VertexId(33), VertexId(71)] {
                let sum_to: u64 = tables.to[l][v.index()].iter().sum();
                assert_eq!(sum_to, joint_distance(&fed, &oracle, v, lm) as u64);
                let sum_from: u64 = tables.from[l][v.index()].iter().sum();
                assert_eq!(sum_from, joint_distance(&fed, &oracle, lm, v) as u64);
            }
        }
    }

    #[test]
    fn all_bounds_are_admissible_for_the_joint_distance() {
        let mut fed = make_fed(5);
        let oracle = JointOracle::new(&fed);
        let tables = build_tables(&mut fed, 6);
        let static_table =
            LandmarkTable::compute(fed.graph(), fed.graph().static_weights(), &tables.landmarks);
        let (s, t) = (VertexId(2), VertexId(95));

        let mut plain = PlainComparator::default();
        let mut alt = FedAltPotential::new(&tables, s, t);
        let mut alt_max = FedAltMaxPotential::new(&tables, &static_table, s, t);

        let graph = fed.graph();
        let mut amps = FedAmpsPotential::new(graph, fed.silos(), s, t);

        for v in (0..graph.num_vertices() as u32).step_by(7).map(VertexId) {
            let true_d = joint_distance(&fed, &oracle, v, t);
            for (name, est) in [
                ("Fed-ALT", alt.joint_estimate(v, &mut plain)),
                ("Fed-ALT-Max", alt_max.joint_estimate(v, &mut plain)),
                ("Fed-AMPS", amps.joint_estimate(v, &mut plain)),
            ] {
                assert!(est <= true_d, "{name} bound {est} > true {true_d} at {v}");
            }
            // Backward bounds too.
            let true_b = joint_distance(&fed, &oracle, s, v);
            for (name, est) in [
                (
                    "Fed-ALT",
                    alt.from_source(v, &mut plain).iter().sum::<i64>(),
                ),
                (
                    "Fed-ALT-Max",
                    alt_max.from_source(v, &mut plain).iter().sum::<i64>(),
                ),
                (
                    "Fed-AMPS",
                    amps.from_source(v, &mut plain).iter().sum::<i64>(),
                ),
            ] {
                assert!(est <= true_b, "{name} backward bound {est} > {true_b}");
            }
        }
    }

    #[test]
    fn amps_estimates_query_distances_far_tighter_than_alt() {
        // Figure 11's claim, on its own metric: the relative error of the
        // joint-distance estimate for query pairs. Fed-AMPS lands well
        // under 1 % while landmark bounds carry triangle-inequality slack.
        let mut fed = make_fed(7);
        let oracle = JointOracle::new(&fed);
        let tables = build_tables(&mut fed, 4);
        let graph = fed.graph();
        let n = graph.num_vertices() as u32;
        let mut plain = PlainComparator::default();
        let (mut err_alt, mut err_amps, mut count) = (0.0f64, 0.0f64, 0u32);
        for q in 0..15u32 {
            let (s, t) = (VertexId((q * 131) % n), VertexId((q * 197 + n / 2) % n));
            if s == t {
                continue;
            }
            let truth = joint_distance(&fed, &oracle, s, t) as f64;
            let mut alt = FedAltPotential::new(&tables, s, t);
            let mut amps = FedAmpsPotential::new(graph, fed.silos(), s, t);
            err_alt += (truth - alt.joint_estimate(s, &mut plain).max(0) as f64) / truth;
            err_amps += (truth - amps.joint_estimate(s, &mut plain).max(0) as f64) / truth;
            count += 1;
        }
        let (err_alt, err_amps) = (err_alt / count as f64, err_amps / count as f64);
        assert!(
            err_amps < err_alt,
            "AMPS ({err_amps:.4}) should beat ALT ({err_alt:.4})"
        );
        assert!(err_amps < 0.02, "AMPS error {err_amps:.4} should be < 2 %");
    }

    #[test]
    fn lazy_amps_estimates_equal_full_sweep_tables() {
        let fed = make_fed(13);
        let graph = fed.graph();
        let n = graph.num_vertices() as u32;
        let (s, t) = (VertexId(4), VertexId(n - 9));
        let full_sweeps = |root, direction| -> Vec<Vec<u64>> {
            fed.silos()
                .iter()
                .map(|w| sssp_until(graph, w.as_slice(), root, direction, |_, _| false).dist)
                .collect()
        };
        let (to_t, from_s) = (
            full_sweeps(t, Direction::Backward),
            full_sweeps(s, Direction::Forward),
        );
        let bounds = |dists: &[Vec<u64>], v: VertexId| -> PartialKey {
            dists
                .iter()
                .map(|d| match d[v.index()] {
                    INFINITY => 0,
                    x => x as i64,
                })
                .collect()
        };
        let mut plain = PlainComparator::default();
        let mut amps = FedAmpsPotential::new(graph, fed.silos(), s, t);
        // Walk inward from both ends, alternating directions, so each
        // lookup lands sometimes ahead of and sometimes behind its sweep's
        // frontier.
        for i in 0..n {
            let (a, b) = (VertexId(i), VertexId(n - 1 - i));
            for (v, toward) in [(a, true), (b, false), (a, false), (b, true)] {
                let (got, want) = if toward {
                    (amps.toward_target(v, &mut plain), bounds(&to_t, v))
                } else {
                    (amps.from_source(v, &mut plain), bounds(&from_s, v))
                };
                assert_eq!(got, want, "{v} toward_target={toward}");
            }
        }
    }

    /// A 6 × 6 grid with one-way rows (alternating) and upward-only
    /// columns, plus an isolated vertex: most pairs are unreachable one
    /// way or both.
    fn one_way_grid() -> Graph {
        let side = 6u32;
        let mut b = fedroad_graph::GraphBuilder::new();
        for i in 0..=side * side {
            b.add_vertex(fedroad_graph::Coord {
                x: f64::from(i % side) * 100.0,
                y: f64::from(i / side) * 100.0,
            });
        }
        let at = |x: u32, y: u32| VertexId(y * side + x);
        for y in 0..side {
            for x in 0..side - 1 {
                let w = 90 + u64::from((x * 7 + y * 3) % 20);
                let (l, r) = (at(x, y), at(x + 1, y));
                let (tail, head) = if y % 2 == 0 { (l, r) } else { (r, l) };
                b.add_arc(tail, head, w);
                if y + 1 < side {
                    b.add_arc(at(x, y), at(x, y + 1), 110 + w % 7);
                }
            }
        }
        b.build()
    }

    /// `P` silos whose weights scatter from half to twice free flow, so a
    /// fifth or so of the arcs lie below it.
    fn scattered_federation(g: Graph, seed: u64) -> Federation {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let silos = (0..3)
            .map(|_| {
                g.static_weights()
                    .iter()
                    .map(|&w0| (w0 as f64 * rng.gen_range(0.5..2.0)).round().max(1.0) as u64)
                    .collect()
            })
            .collect();
        let config = FederationConfig {
            backend: SacBackend::Modeled,
            seed,
        };
        Federation::new(g, silos, config)
    }

    /// Asks a fresh potential for every vertex in shuffled order, both
    /// directions interleaved, and checks each estimate against per-silo
    /// full Dijkstra runs.
    fn assert_guided_estimates_exact(fed: &Federation, s: VertexId, t: VertexId, seed: u64) {
        let graph = fed.graph();
        let full = |root, direction| -> Vec<Vec<u64>> {
            fed.silos()
                .iter()
                .map(|w| sssp_until(graph, w.as_slice(), root, direction, |_, _| false).dist)
                .collect()
        };
        let (to_t, from_s) = (full(t, Direction::Backward), full(s, Direction::Forward));
        let want = |dists: &[Vec<u64>], v: VertexId| -> PartialKey {
            dists
                .iter()
                .map(|d| match d[v.index()] {
                    INFINITY => 0,
                    x => x as i64,
                })
                .collect()
        };
        let mut order: Vec<VertexId> = graph.vertices().collect();
        order.shuffle(&mut ChaCha12Rng::seed_from_u64(seed));
        let mut plain = PlainComparator::default();
        let mut amps = FedAmpsPotential::new(graph, fed.silos(), s, t);
        for (i, &v) in order.iter().enumerate() {
            let (a, b) = (v, order[order.len() - 1 - i]);
            assert_eq!(
                amps.toward_target(a, &mut plain),
                want(&to_t, a),
                "{s}->{t}: {a} to t"
            );
            assert_eq!(
                amps.from_source(b, &mut plain),
                want(&from_s, b),
                "{s}->{t}: s to {b}"
            );
        }
    }

    #[test]
    fn guided_sweeps_equal_full_dijkstra_for_any_silo_weights() {
        for (g, seed) in [
            (RoadNetworkPreset::CalS.generate(3), 3),
            (one_way_grid(), 4),
        ] {
            let mut fed = scattered_federation(g, seed);
            let n = fed.graph().num_vertices() as u32;
            let pairs = [(0, n - 1), (n - 1, 0), (n / 3, 2 * n / 3), (5, n / 2 + 1)];
            for (k, &(s, t)) in pairs.iter().enumerate() {
                assert_guided_estimates_exact(&fed, VertexId(s), VertexId(t), k as u64);
            }
            // Live updates far below free flow must lower the silos'
            // scales, or the bound would overestimate through those arcs.
            let m = fed.graph().num_arcs() as u32;
            let lowered: Vec<ArcId> = (0..m).step_by(9).map(ArcId).collect();
            let changes: Vec<WeightChange> = lowered
                .iter()
                .flat_map(|&arc| {
                    (0..3).map(move |silo| WeightChange {
                        arc,
                        silo,
                        weight: 1,
                    })
                })
                .collect();
            assert_eq!(fed.apply_weight_updates(&changes), lowered);
            let (tail, head) = fed.graph().arc_endpoints(lowered[lowered.len() / 2]);
            for (k, &(s, t)) in [(tail.0, head.0), (head.0, tail.0)]
                .iter()
                .chain(&pairs)
                .enumerate()
            {
                assert_guided_estimates_exact(&fed, VertexId(s), VertexId(t), 10 + k as u64);
            }
        }
    }

    #[test]
    fn fed_alt_spends_l_minus_1_sacs_per_estimation() {
        let mut fed = make_fed(9);
        let tables = build_tables(&mut fed, 5);
        let before = fed.sac_cumulative_stats().invocations;
        {
            let (_, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let mut alt = FedAltPotential::new(&tables, VertexId(0), VertexId(50));
            alt.toward_target(VertexId(10), &mut cmp);
            // Memoized second call: no extra SACs.
            alt.toward_target(VertexId(10), &mut cmp);
        }
        assert_eq!(fed.sac_cumulative_stats().invocations - before, 4);
    }

    #[test]
    fn alt_max_spends_zero_sacs() {
        let mut fed = make_fed(11);
        let tables = build_tables(&mut fed, 5);
        let static_table =
            LandmarkTable::compute(fed.graph(), fed.graph().static_weights(), &tables.landmarks);
        let before = fed.sac_cumulative_stats().invocations;
        {
            let (_, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let mut p = FedAltMaxPotential::new(&tables, &static_table, VertexId(0), VertexId(50));
            p.toward_target(VertexId(10), &mut cmp);
            p.from_source(VertexId(20), &mut cmp);
        }
        assert_eq!(fed.sac_cumulative_stats().invocations, before);
    }
}
