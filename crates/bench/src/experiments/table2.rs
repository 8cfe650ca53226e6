//! Table II — federated shortcut index construction time and dynamic
//! update time as a function of the fraction of edges with changed
//! weights (0.1 %, 1 %, 10 %).

use crate::experiments::fig7_8::shared_index;
use crate::report::{heading, table, Reporter};
use crate::setup::{self, DEFAULT_SILOS};
use fedroad_core::{FedChIndex, Method, SacComparator};
use fedroad_graph::traffic::CongestionLevel;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::time::Instant;

const CHANGE_FRACTIONS: [f64; 3] = [0.001, 0.01, 0.10];

/// Runs the construction/update timing sweep.
pub fn run(quick: bool) -> Reporter {
    let mut rep = Reporter::new();
    // The index FedRoad serves from: the guided lines' core.
    let config = Method::FedRoad.config();
    heading(&format!(
        "Table II — index construction & update wall time [s] (Modeled backend, FedRoad's \
         {:.0} % core)",
        config.core_fraction * 100.0
    ));
    let mut rows = Vec::new();

    for preset in setup::presets(quick) {
        let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);

        let t0 = Instant::now();
        let index = shared_index(&mut bench, &config);
        let construction_s = t0.elapsed().as_secs_f64();

        let mut row = Vec::new();
        let mut rng = ChaCha12Rng::seed_from_u64(crate::BENCH_SEED ^ 0x7AB2);
        for &frac in &CHANGE_FRACTIONS {
            // Independent perturbation per fraction, on a fresh copy of the
            // index and silo-0 weights.
            let mut index = FedChIndex::clone(&index);
            let (changed, w) = setup::silo0_update(&bench, frac, &mut rng);
            let original = bench.fed.silo(0).as_slice().to_vec();
            bench.fed.update_silo_weights(0, w);

            let t0 = Instant::now();
            let stats = {
                let (graph, silos, engine) = bench.fed.split_mut();
                let mut cmp = SacComparator::new(engine);
                index.update(graph, silos, &changed, &mut cmp)
            };
            let update_s = t0.elapsed().as_secs_f64();
            row.push(update_s);

            // Spot-check exactness of the updated index.
            {
                use fedroad_core::lb::ZeroFedPotential;
                use fedroad_core::{fed_spsp, FedChView, JointOracle};
                use fedroad_queue::QueueKind;
                let oracle = JointOracle::new(&bench.fed);
                let n = bench.graph.num_vertices() as u32;
                let num_silos = bench.fed.num_silos();
                for (s, t) in [(1u32, n - 2), (n / 3, n / 2)] {
                    let (s, t) = (fedroad_graph::VertexId(s), fedroad_graph::VertexId(t));
                    let truth = oracle.spsp_scaled(&bench.fed, s, t).unwrap().0;
                    let path = {
                        let (graph, _, engine) = bench.fed.split_mut();
                        let mut cmp = SacComparator::new(engine);
                        let view = FedChView::new(&index, graph);
                        let mut zero = ZeroFedPotential::new(num_silos);
                        fed_spsp(
                            &view,
                            num_silos,
                            s,
                            t,
                            &mut zero,
                            QueueKind::TmTree,
                            &mut cmp,
                        )
                        .path
                        .expect("connected")
                    };
                    assert_eq!(
                        oracle.path_cost_scaled(&bench.fed, &path),
                        Some(truth),
                        "updated index is stale on {}",
                        preset.name()
                    );
                }
            }

            rep.record(
                "table2",
                preset.name(),
                "update",
                format!("{}%", frac * 100.0),
                vec![
                    ("update_s".into(), update_s),
                    ("touched_shortcuts".into(), stats.touched as f64),
                    ("changed_shortcuts".into(), stats.changed as f64),
                ],
            );

            // Restore silo 0 for the next fraction.
            bench.fed.update_silo_weights(0, original);
        }
        row.push(construction_s);
        rep.record(
            "table2",
            preset.name(),
            "construction",
            "-",
            vec![
                ("construction_s".into(), construction_s),
                ("core_fraction".into(), config.core_fraction),
            ],
        );
        rows.push((preset.name().to_string(), row));
    }

    table("dataset", &["0.1%", "1%", "10%", "construction"], &rows);
    println!(
        "(expected shape: update time grows with changed fraction, all far below construction)"
    );
    rep
}
