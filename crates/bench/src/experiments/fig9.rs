//! Figure 9 — query time versus the number of data silos (2–8), for the
//! four headline methods, on the first hop group of each dataset.

use crate::experiments::fig7_8::{run_method, SharedIndexes};
use crate::report::{heading, table, Reporter};
use crate::setup;
use crate::workload::hop_bucketed_queries;
use crate::BENCH_SEED;
use fedroad_core::Method;
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::CongestionLevel;
use fedroad_mpc::NetworkModel;

/// Runs the scalability sweep.
pub fn run(quick: bool) -> Reporter {
    let per_group = if quick { 3 } else { 10 };
    let lan = NetworkModel::lan();
    let mut rep = Reporter::new();

    for preset in setup::presets(quick) {
        // FLA-S index construction is the dominant cost; thin the silo grid
        // there to keep the full sweep in minutes.
        let silo_counts: Vec<usize> = if preset == RoadNetworkPreset::FlaS {
            vec![2, 4, 6, 8]
        } else {
            (2..=8).collect()
        };
        heading(&format!(
            "Figure 9 — query time vs #silos, {} (first hop group)",
            preset.name()
        ));

        let mut rows: Vec<(String, Vec<f64>)> = Method::FIGURE7
            .iter()
            .map(|m| (m.name().to_string(), Vec::new()))
            .collect();

        for &silos in &silo_counts {
            let mut bench = setup::build(preset, silos, CongestionLevel::Moderate);
            let groups = hop_bucketed_queries(
                &bench.graph,
                &preset.hop_buckets()[..2],
                per_group,
                BENCH_SEED,
            );
            let pairs = groups[0].pairs.clone();
            let mut indexes = SharedIndexes::default();
            for (mi, method) in Method::FIGURE7.iter().enumerate() {
                let engine = indexes.engine(&mut bench, method.config());
                let cell = run_method(&mut bench, &engine, &pairs, &lan);
                rows[mi].1.push(cell.time_s);
                rep.record(
                    "fig9",
                    preset.name(),
                    method.name(),
                    silos,
                    vec![
                        ("time_s".into(), cell.time_s),
                        ("sacs".into(), cell.sacs),
                        ("comm_kib".into(), cell.comm_kib),
                    ],
                );
            }
        }

        let col_labels: Vec<String> = silo_counts.iter().map(|s| format!("P={s}")).collect();
        let cols: Vec<&str> = col_labels.iter().map(|s| s.as_str()).collect();
        println!("\nmean modeled query time [s] vs silo count:");
        table("method \\ #silos", &cols, &rows);
        println!("(expected shape: near-linear growth with P; method ordering preserved)");
    }
    rep
}
