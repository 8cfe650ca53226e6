//! Operational lifecycle: export the shared network as DIMACS (the format
//! real road datasets ship in), build the federated shortcut index once,
//! persist each silo's private view of it, and restore everything in a
//! "new session" — queries keep working without re-running the expensive
//! collaborative preprocessing.
//!
//! Run with: `cargo run --release --example persistence`

use fedroad::core::fedch::{FedChIndex, FedChView};
use fedroad::core::lb::ZeroFedPotential;
use fedroad::core::spsp::fed_spsp;
use fedroad::{
    gen_silo_weights, grid_city, CongestionLevel, Federation, FederationConfig, GridCityParams,
    JointOracle, QueueKind, SacBackend, SacComparator, VertexId,
};
use fedroad_graph::ch::contraction_order;
use fedroad_graph::dimacs::{parse_dimacs, write_co, write_gr};

fn main() {
    // --- Session 1: build everything ------------------------------------
    let city = grid_city(&GridCityParams::with_target_vertices(300), 5);
    println!(
        "session 1: city with {} junctions / {} arcs",
        city.num_vertices(),
        city.num_arcs()
    );

    // The public topology round-trips through DIMACS — the interchange
    // format of the paper's real datasets (CAL/FLA).
    let gr = write_gr(&city);
    let co = write_co(&city);
    println!(
        "  exported DIMACS: {} bytes .gr, {} bytes .co",
        gr.len(),
        co.len()
    );

    let silos = gen_silo_weights(&city, CongestionLevel::Moderate, 3, 5);
    let mut fed = Federation::new(
        city,
        silos.clone(),
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 5,
        },
    );

    // Collaborative index construction (the expensive part).
    let order = contraction_order(fed.graph(), 0);
    let core = (order.len() / 10).max(1);
    let index = {
        let (g, s, e) = fed.split_mut();
        let mut cmp = SacComparator::new(e);
        FedChIndex::build(g, s, &order, core, &mut cmp)
    };
    println!(
        "  built federated shortcut index: {} shortcuts ({} Fed-SACs spent)",
        index.stats().shortcuts,
        fed.sac_cumulative_stats().invocations
    );

    // Each silo persists only ITS view — one weight column per arc.
    let silo_blobs: Vec<String> = (0..3)
        .map(|p| index.silo_view(p).to_json().expect("serializable"))
        .collect();
    let full_blob = index.to_json().expect("serializable");
    println!(
        "  persisted: full index {} KiB; per-silo views {} KiB each",
        full_blob.len() / 1024,
        silo_blobs[0].len() / 1024
    );

    // --- Session 2: restore and query ------------------------------------
    let old_city = fed.graph().clone();
    let city = parse_dimacs(&gr, Some(&co)).expect("own export parses");
    let restored = FedChIndex::from_json(&full_blob).expect("own blob parses");

    // Arc *ids* are an internal detail and the DIMACS round-trip reorders
    // them; private weights are keyed by road segment (tail, head), so each
    // silo re-aligns its vector to the restored graph's id space.
    let remap_by_segment = |weights: &Vec<u64>| -> Vec<u64> {
        let mut out = vec![0u64; city.num_arcs()];
        for v in city.vertices() {
            for arc in city.out_arcs(v) {
                let old_arc = old_city.find_arc(v, arc.head).expect("same topology");
                out[arc.id.index()] = weights[old_arc.index()];
            }
        }
        out
    };
    let silos: Vec<Vec<u64>> = silos.iter().map(remap_by_segment).collect();

    let mut fed = Federation::new(
        city,
        silos,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 99, // fresh protocol randomness; data unchanged
        },
    );
    println!("\nsession 2: topology restored from DIMACS, index from JSON,");
    println!("           silo weights re-aligned to the restored arc ids");

    let oracle = JointOracle::new(&fed);
    let n = fed.graph().num_vertices() as u32;
    for (s, t) in [(0u32, n - 1), (17, n / 2)] {
        let (s, t) = (VertexId(s), VertexId(t));
        let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let outcome = {
            let num_silos = fed.num_silos();
            let (graph, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let view = FedChView::new(&restored, graph);
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
        };
        let path = outcome.path.expect("connected");
        assert_eq!(
            oracle.path_cost_scaled(&fed, &path),
            Some(truth),
            "restored index answered suboptimally"
        );
        println!(
            "  query {s} → {t}: {} hops, verified optimal ({} Fed-SACs, no preprocessing)",
            path.hops(),
            outcome.queue_counts.total()
        );
    }
    println!("\nno collaborative preprocessing was repeated in session 2.");
}
