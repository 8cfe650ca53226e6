//! Federation assembly for experiments.

use crate::BENCH_SEED;
use fedroad_core::{Federation, FederationConfig, JointOracle};
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
use fedroad_graph::{ArcId, Graph, Weight};
use fedroad_mpc::SacBackend;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha12Rng;

/// The paper's default federation: 3 silos, moderate congestion (§VIII-A).
pub const DEFAULT_SILOS: usize = 3;

/// A dataset instantiated as a federation plus its evaluation oracle.
pub struct Bench {
    /// Which stand-in dataset this is.
    pub preset: RoadNetworkPreset,
    /// The shared road network (cloned out of the federation for
    /// convenience in workload generation).
    pub graph: Graph,
    /// The federation under test.
    pub fed: Federation,
    /// Ideal-world oracle for correctness checks and accuracy metrics.
    pub oracle: JointOracle,
}

/// Builds the standard benchmark federation for a preset.
///
/// Uses the `Modeled` Fed-SAC backend: identical results and identical
/// cost accounting to the real protocol (pinned by `fedroad-mpc` tests),
/// which is what lets the full sweeps run on a laptop.
pub fn build(preset: RoadNetworkPreset, silos: usize, congestion: CongestionLevel) -> Bench {
    let graph = preset.generate(BENCH_SEED);
    let weights = gen_silo_weights(&graph, congestion, silos, BENCH_SEED);
    let fed = Federation::new(
        graph.clone(),
        weights,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: BENCH_SEED,
        },
    );
    let oracle = JointOracle::new(&fed);
    Bench {
        preset,
        graph,
        fed,
        oracle,
    }
}

/// The same federation as `bench.fed` (network, silo weights, seed) on
/// the real secret-sharing backend, for measuring wall time next to the
/// `Modeled` counts.
pub fn real_twin(bench: &Bench) -> Federation {
    let weights = bench
        .fed
        .silos()
        .iter()
        .map(|silo| silo.as_slice().to_vec())
        .collect();
    Federation::new(
        bench.graph.clone(),
        weights,
        FederationConfig {
            backend: SacBackend::Real,
            seed: BENCH_SEED,
        },
    )
}

/// A random weight-update batch for silo 0: a `fraction` of the arcs
/// (rounded up), each raised by up to half its weight. Returns the
/// changed arcs and silo 0's new weight vector; the federation is left
/// as it is.
pub fn silo0_update(
    bench: &Bench,
    fraction: f64,
    rng: &mut ChaCha12Rng,
) -> (Vec<ArcId>, Vec<Weight>) {
    let m = bench.graph.num_arcs();
    let k = ((m as f64) * fraction).ceil() as usize;
    let mut arc_ids: Vec<u32> = (0..m as u32).collect();
    arc_ids.shuffle(rng);
    let changed: Vec<ArcId> = arc_ids[..k].iter().map(|&i| ArcId(i)).collect();
    let mut weights = bench.fed.silo(0).as_slice().to_vec();
    for a in &changed {
        weights[a.index()] += rng.gen_range(1..=weights[a.index()] / 2 + 1);
    }
    (changed, weights)
}

/// The dataset list honoring `--quick`.
pub fn presets(quick: bool) -> Vec<RoadNetworkPreset> {
    if quick {
        vec![RoadNetworkPreset::CalS]
    } else {
        RoadNetworkPreset::ALL.to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_consistent_federation() {
        let b = build(RoadNetworkPreset::CalS, 3, CongestionLevel::Moderate);
        assert_eq!(b.fed.num_silos(), 3);
        assert_eq!(b.graph.num_vertices(), b.fed.graph().num_vertices());
        assert!(b.graph.is_strongly_connected());
    }

    #[test]
    fn builds_are_deterministic() {
        let a = build(RoadNetworkPreset::CalS, 2, CongestionLevel::Slight);
        let b = build(RoadNetworkPreset::CalS, 2, CongestionLevel::Slight);
        assert_eq!(a.oracle.scaled_weights(), b.oracle.scaled_weights());
    }
}
