//! The differential suite behind the CCH split: however many weight
//! perturbations a customized [`FedChIndex`] absorbs, it must stay
//! **bit-identical** to an index rebuilt from scratch on the current
//! weights — same shortcut weights, same winning middles, and therefore
//! the same SPSP distances and the same paths. The update analogue of
//! `batch_equals_sequential.rs`: "looks right" and "is right" diverge
//! silently in index dynamics, so equality is pinned structurally, not
//! just behaviourally.

use fedroad::core::lb::ZeroFedPotential;
use fedroad::queue::QueueKind;
use fedroad::{
    fed_spsp, gen_silo_weights, grid_city, CongestionLevel, FedChIndex, FedChView, Federation,
    FederationConfig, GridCityParams, JointOracle, SacBackend, SacComparator, VertexId,
    WeightChange,
};
use fedroad_graph::{ArcId, Graph};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

fn make_fed(g: &Graph, level: CongestionLevel, silos: usize, seed: u64) -> Federation {
    let w = gen_silo_weights(g, level, silos, seed);
    Federation::new(
        g.clone(),
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed,
        },
    )
}

fn build_index(fed: &mut Federation, core: usize) -> FedChIndex {
    let (graph, silos, engine) = fed.split_mut();
    let mut cmp = SacComparator::new(engine);
    FedChIndex::build(graph, silos, core, &mut cmp)
}

/// The bit-identity claim: every overlay arc of the customized index
/// carries exactly the weights and middle vertex a from-scratch rebuild
/// produces.
fn assert_structurally_identical(g: &Graph, customized: &FedChIndex, rebuilt: &FedChIndex) {
    assert_eq!(
        customized.stats().overlay_arcs,
        rebuilt.stats().overlay_arcs
    );
    for v in g.vertices() {
        assert_eq!(
            customized.up_out(v),
            rebuilt.up_out(v),
            "up_out({v:?}) diverged from rebuild"
        );
        assert_eq!(
            customized.up_in(v),
            rebuilt.up_in(v),
            "up_in({v:?}) diverged from rebuild"
        );
    }
}

/// The behavioural claim: identical SPSP paths (not just costs) through
/// both indexes, and the costs match the ideal-world oracle.
fn assert_queries_identical(
    fed: &mut Federation,
    customized: &FedChIndex,
    rebuilt: &FedChIndex,
    pairs: &[(VertexId, VertexId)],
) {
    let oracle = JointOracle::new(fed);
    let num = fed.num_silos();
    let graph = fed.graph().clone();
    for &(s, t) in pairs {
        let mut run = |index: &FedChIndex| {
            let (_, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let view = FedChView::new(index, &graph);
            let mut zero = ZeroFedPotential::new(num);
            fed_spsp(&view, num, s, t, &mut zero, QueueKind::TmTree, &mut cmp)
        };
        let a = run(customized);
        let b = run(rebuilt);
        assert_eq!(a.path, b.path, "paths diverged on {s:?}->{t:?}");
        let path = a.path.expect("grid cities are strongly connected");
        let truth = oracle.spsp_scaled(fed, s, t).expect("connected").0;
        assert_eq!(
            oracle.path_cost_scaled(fed, &path),
            Some(truth),
            "customized index inexact on {s:?}->{t:?}"
        );
    }
}

/// Drives `rounds` random perturbation rounds (mixed silos, point updates
/// through the live path) against one long-lived customized index,
/// cross-checking structure + queries against a rebuild every round.
fn run_rounds(g: &Graph, level: CongestionLevel, silos: usize, seed: u64, rounds: u64) {
    let core = (g.num_vertices() / 10).max(1);
    let mut fed = make_fed(g, level, silos, seed);
    let mut index = build_index(&mut fed, core);
    let mut rng = ChaCha12Rng::seed_from_u64(seed ^ 0xD1FF);
    let m = g.num_arcs() as u32;
    let n = g.num_vertices() as u32;
    let statics = g.static_weights().to_vec();

    for round in 0..rounds {
        // A mixed-silo batch of point updates: each entry re-observes one
        // arc on one silo somewhere between free flow and 4× jammed.
        let k = rng.gen_range(1..=(m / 16).max(2)) as usize;
        let changes: Vec<WeightChange> = (0..k)
            .map(|_| {
                let arc = ArcId(rng.gen_range(0..m));
                let base = statics[arc.index()];
                WeightChange {
                    arc,
                    silo: rng.gen_range(0..silos),
                    weight: rng.gen_range(base..=base * 4),
                }
            })
            .collect();
        let changed = fed.apply_weight_updates(&changes);
        {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &changed, &mut cmp);
        }

        let rebuilt = build_index(&mut fed, core);
        assert_structurally_identical(g, &index, &rebuilt);
        let pairs = [
            (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n))),
            (
                VertexId(round as u32 % n),
                VertexId(n - 1 - (round as u32 % n)),
            ),
        ];
        assert_queries_identical(&mut fed, &index, &rebuilt, &pairs);
    }
}

#[test]
fn hundreds_of_rounds_stay_bit_identical_across_presets() {
    // 4 congestion presets × 60 rounds = 240 perturbation rounds, each
    // cross-checked structurally and behaviourally against a rebuild.
    let g = grid_city(&GridCityParams::small(), 71);
    for (i, level) in CongestionLevel::ALL.iter().enumerate() {
        run_rounds(&g, *level, 3, 71 + i as u64, 60);
    }
}

#[test]
fn larger_graph_and_more_silos_stay_bit_identical() {
    let g = grid_city(&GridCityParams::with_target_vertices(220), 73);
    run_rounds(&g, CongestionLevel::Moderate, 4, 73, 25);
}

#[test]
fn congestion_wave_stream_stays_bit_identical() {
    // The exact update stream the live-traffic driver feeds the index.
    use fedroad::CongestionWave;
    let g = grid_city(&GridCityParams::small(), 79);
    let core = (g.num_vertices() / 10).max(1);
    let mut fed = make_fed(&g, CongestionLevel::Moderate, 3, 79);
    let mut index = build_index(&mut fed, core);
    let baseline: Vec<Vec<u64>> = (0..3).map(|p| fed.silo(p).as_slice().to_vec()).collect();
    let mut wave = CongestionWave::new(&g, 3, CongestionLevel::Heavy, 2, 79);
    for round in 0..40u32 {
        let changes: Vec<WeightChange> = wave
            .tick(&g, &baseline)
            .into_iter()
            .map(|u| WeightChange {
                arc: u.arc,
                silo: u.silo,
                weight: u.weight,
            })
            .collect();
        let changed = fed.apply_weight_updates(&changes);
        {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &changed, &mut cmp);
        }
        let rebuilt = build_index(&mut fed, core);
        assert_structurally_identical(&g, &index, &rebuilt);
        if round % 8 == 0 {
            let n = g.num_vertices() as u32;
            assert_queries_identical(
                &mut fed,
                &index,
                &rebuilt,
                &[(VertexId(round % n), VertexId((round * 7 + n / 2) % n))],
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized perturbation sequences under proptest shrinking: any
    /// counterexample minimizes to the smallest divergent round.
    #[test]
    fn random_perturbation_sequences_stay_bit_identical(
        seed in 0u64..1000,
        silos in 2usize..=4,
        rounds in 5u64..=12,
    ) {
        let g = grid_city(&GridCityParams::small(), 83);
        run_rounds(&g, CongestionLevel::Moderate, silos, seed, rounds);
    }
}
