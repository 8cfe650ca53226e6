//! Deterministic synthetic road-network generators.
//!
//! The paper evaluates on three real road networks (CAL: 21k vertices,
//! BJ: 338k, FLA: 1.07M). Those datasets are not available in this
//! environment, so we generate structurally similar stand-ins: perturbed
//! planar grids with randomly deleted streets and a sparse overlay of
//! fast "arterial" chains, which reproduces the two properties the paper's
//! techniques exploit — near-planarity with small degrees (contraction
//! hierarchies) and strong goal-direction (A* lower bounds). The presets
//! [`RoadNetworkPreset`] keep the paper's 1 : 4 : 10 size ladder at laptop
//! scale; the DIMACS parser in [`crate::dimacs`] lets the real datasets drop
//! in unchanged.
//!
//! All generators are deterministic functions of their seed.

use crate::graph::{Graph, GraphBuilder};
use crate::ids::{Coord, VertexId, Weight};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Free-flow speed of an ordinary street, meters/second (≈ 50 km/h).
pub const STREET_SPEED_MPS: f64 = 13.9;
/// Free-flow speed of an arterial road, meters/second (≈ 90 km/h).
pub const ARTERIAL_SPEED_MPS: f64 = 25.0;
/// Weights are expressed in deciseconds of travel time.
pub const WEIGHT_UNITS_PER_SECOND: f64 = 10.0;

/// Parameters of the perturbed-grid city generator.
#[derive(Clone, Debug)]
pub struct GridCityParams {
    /// Grid columns.
    pub cols: u32,
    /// Grid rows.
    pub rows: u32,
    /// Spacing between adjacent junctions, meters.
    pub cell_meters: f64,
    /// Probability that a candidate street between adjacent junctions is
    /// kept. Connectivity is restored afterwards, so any value in `(0, 1]`
    /// yields a strongly connected network.
    pub street_keep_prob: f64,
    /// Number of long arterial chains overlaid on the grid.
    pub arterials: u32,
    /// Coordinate jitter as a fraction of `cell_meters`.
    pub jitter: f64,
}

impl GridCityParams {
    /// A tiny city (≈ 100 vertices) for unit tests.
    pub fn small() -> Self {
        GridCityParams {
            cols: 10,
            rows: 10,
            cell_meters: 200.0,
            street_keep_prob: 0.9,
            arterials: 2,
            jitter: 0.2,
        }
    }

    /// A square city with roughly `target_vertices` junctions.
    pub fn with_target_vertices(target_vertices: u32) -> Self {
        let side = (target_vertices as f64).sqrt().round().max(2.0) as u32;
        GridCityParams {
            cols: side,
            rows: side,
            cell_meters: 220.0,
            street_keep_prob: 0.82,
            arterials: (side / 10).max(2),
            jitter: 0.25,
        }
    }
}

/// Generates a strongly connected perturbed-grid city.
///
/// Static weights (`W0`) are free-flow travel times in deciseconds derived
/// from Euclidean arc length and the street/arterial speed.
pub fn grid_city(params: &GridCityParams, seed: u64) -> Graph {
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xF3D5_0AD5_1234_5678);
    let (cols, rows) = (params.cols, params.rows);
    assert!(cols >= 2 && rows >= 2, "grid must be at least 2x2");
    let mut b = GraphBuilder::new();

    // Jittered junction coordinates.
    for r in 0..rows {
        for c in 0..cols {
            let jx = rng.gen_range(-params.jitter..=params.jitter) * params.cell_meters;
            let jy = rng.gen_range(-params.jitter..=params.jitter) * params.cell_meters;
            b.add_vertex(Coord {
                x: c as f64 * params.cell_meters + jx,
                y: r as f64 * params.cell_meters + jy,
            });
        }
    }
    let vid = |c: u32, r: u32| VertexId(r * cols + c);

    // Candidate grid streets; each kept independently.
    let mut kept: Vec<(VertexId, VertexId)> = Vec::new();
    let mut dropped: Vec<(VertexId, VertexId)> = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                let e = (vid(c, r), vid(c + 1, r));
                if rng.gen_bool(params.street_keep_prob) {
                    kept.push(e);
                } else {
                    dropped.push(e);
                }
            }
            if r + 1 < rows {
                let e = (vid(c, r), vid(c, r + 1));
                if rng.gen_bool(params.street_keep_prob) {
                    kept.push(e);
                } else {
                    dropped.push(e);
                }
            }
        }
    }

    // Restore connectivity: union-find over kept streets, then re-add
    // dropped streets (in random order) that join distinct components.
    let n = (cols * rows) as usize;
    let mut uf = UnionFind::new(n);
    for &(u, v) in &kept {
        uf.union(u.index(), v.index());
    }
    dropped.shuffle(&mut rng);
    for (u, v) in dropped {
        if uf.union(u.index(), v.index()) {
            kept.push((u, v));
        }
    }

    fn street_weight(
        params: &GridCityParams,
        u: VertexId,
        v: VertexId,
        cols: u32,
        speed: f64,
    ) -> Weight {
        // Grid distance (pre-jitter) keeps weights symmetric per street.
        let (uc, ur) = ((u.0 % cols) as f64, (u.0 / cols) as f64);
        let (vc, vr) = ((v.0 % cols) as f64, (v.0 / cols) as f64);
        let dx = (uc - vc) * params.cell_meters;
        let dy = (ur - vr) * params.cell_meters;
        let d = (dx * dx + dy * dy).sqrt().max(params.cell_meters * 0.5);
        ((d / speed) * WEIGHT_UNITS_PER_SECOND).round().max(1.0) as Weight
    }

    // Accumulate undirected edge weights in a map so arterials *upgrade*
    // streets rather than adding parallel arcs — the graph stays simple,
    // which downstream path-evaluation relies on.
    let mut edge_weights: std::collections::BTreeMap<(u32, u32), Weight> =
        std::collections::BTreeMap::new();
    for &(u, v) in &kept {
        let key = (u.0.min(v.0), u.0.max(v.0));
        edge_weights.insert(key, street_weight(params, u, v, cols, STREET_SPEED_MPS));
    }

    // Arterial chains: straight runs across the grid at higher speed. On
    // segments where the street was deleted, the arterial re-adds it.
    for _ in 0..params.arterials {
        let horizontal: bool = rng.gen();
        let chain: Vec<(VertexId, VertexId)> = if horizontal {
            let r = rng.gen_range(0..rows);
            (0..cols - 1).map(|c| (vid(c, r), vid(c + 1, r))).collect()
        } else {
            let c = rng.gen_range(0..cols);
            (0..rows - 1).map(|r| (vid(c, r), vid(c, r + 1))).collect()
        };
        for (u, v) in chain {
            let key = (u.0.min(v.0), u.0.max(v.0));
            let w = street_weight(params, u, v, cols, ARTERIAL_SPEED_MPS);
            edge_weights
                .entry(key)
                .and_modify(|old| *old = (*old).min(w))
                .or_insert(w);
        }
    }

    for (&(u, v), &w) in &edge_weights {
        b.add_bidirectional(VertexId(u), VertexId(v), w);
    }

    let g = b.build();
    debug_assert!(g.is_strongly_connected());
    g
}

/// Laptop-scale stand-ins for the paper's three datasets (Table I).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RoadNetworkPreset {
    /// Stand-in for CAL (California, 21k vertices) at ≈ 2.1k vertices.
    CalS,
    /// Stand-in for BJ (Beijing, 338k vertices) at ≈ 8.4k vertices.
    BjS,
    /// Stand-in for FLA (Florida, 1.07M vertices) at ≈ 21k vertices.
    FlaS,
}

impl RoadNetworkPreset {
    /// All presets, in paper order.
    pub const ALL: [RoadNetworkPreset; 3] = [
        RoadNetworkPreset::CalS,
        RoadNetworkPreset::BjS,
        RoadNetworkPreset::FlaS,
    ];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            RoadNetworkPreset::CalS => "CAL-S",
            RoadNetworkPreset::BjS => "BJ-S",
            RoadNetworkPreset::FlaS => "FLA-S",
        }
    }

    /// The real dataset this preset stands in for.
    pub fn paper_dataset(self) -> &'static str {
        match self {
            RoadNetworkPreset::CalS => "CAL (California, 21,048 vertices)",
            RoadNetworkPreset::BjS => "BJ (Beijing, 338,024 vertices)",
            RoadNetworkPreset::FlaS => "FLA (Florida, 1,070,376 vertices)",
        }
    }

    /// Approximate vertex count of the stand-in.
    pub fn target_vertices(self) -> u32 {
        match self {
            RoadNetworkPreset::CalS => 2_100,
            RoadNetworkPreset::BjS => 8_400,
            RoadNetworkPreset::FlaS => 21_000,
        }
    }

    /// Hop-bucket boundaries for query grouping, scaled from the paper's
    /// (CAL used 0/50/100/150/200/250 at 21k vertices; we scale by the
    /// square root of the size ratio, the expected hop scaling on planar
    /// graphs).
    pub fn hop_buckets(self) -> [usize; 6] {
        match self {
            RoadNetworkPreset::CalS => [0, 16, 32, 48, 64, 80],
            RoadNetworkPreset::BjS => [0, 32, 64, 96, 128, 160],
            RoadNetworkPreset::FlaS => [0, 50, 100, 150, 200, 250],
        }
    }

    /// Generates the stand-in network for `seed`.
    pub fn generate(self, seed: u64) -> Graph {
        grid_city(
            &GridCityParams::with_target_vertices(self.target_vertices()),
            seed ^ (self as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// Minimal union-find used by the connectivity-restoration pass.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, x: usize) -> u32 {
        let p = self.parent[x];
        if p as usize == x {
            return p;
        }
        let root = self.find(p as usize);
        self.parent[x] = root;
        root
    }

    /// Unions the two sets; returns `true` if they were distinct.
    fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra as usize] = rb;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_city_is_deterministic_per_seed() {
        let a = grid_city(&GridCityParams::small(), 42);
        let b = grid_city(&GridCityParams::small(), 42);
        assert_eq!(a.num_arcs(), b.num_arcs());
        assert_eq!(a.static_weights(), b.static_weights());
        let c = grid_city(&GridCityParams::small(), 43);
        // Overwhelmingly likely to differ.
        assert!(a.num_arcs() != c.num_arcs() || a.static_weights() != c.static_weights());
    }

    #[test]
    fn grid_city_is_strongly_connected_even_with_heavy_deletion() {
        let params = GridCityParams {
            street_keep_prob: 0.4,
            ..GridCityParams::small()
        };
        for seed in 0..5 {
            assert!(grid_city(&params, seed).is_strongly_connected());
        }
    }

    #[test]
    fn weights_are_positive_travel_times() {
        let g = grid_city(&GridCityParams::small(), 7);
        for &w in g.static_weights() {
            // 200 m at 50 km/h ≈ 144 ds; arterials ≈ 80 ds.
            assert!((40..=400).contains(&w), "weight {w} out of plausible range");
        }
    }

    #[test]
    fn presets_hit_their_size_targets() {
        let g = RoadNetworkPreset::CalS.generate(1);
        let n = g.num_vertices() as f64;
        let target = RoadNetworkPreset::CalS.target_vertices() as f64;
        assert!((n - target).abs() / target < 0.1, "n={n} target={target}");
        assert!(g.is_strongly_connected());
    }

    #[test]
    fn preset_metadata_is_consistent() {
        for p in RoadNetworkPreset::ALL {
            assert!(!p.name().is_empty());
            assert!(p.hop_buckets().windows(2).all(|w| w[0] < w[1]));
        }
    }
}
