//! Figure 10 — all query costs are (linearly) proportional to the number
//! of Fed-SAC invocations: the ablation validating that the MPC operator
//! is the bottleneck.

use crate::experiments::fig7_8::SharedIndexes;
use crate::report::{heading, table, Reporter};
use crate::setup::{self, DEFAULT_SILOS};
use crate::workload::hop_bucketed_queries;
use crate::BENCH_SEED;
use fedroad_core::Method;
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::CongestionLevel;
use fedroad_mpc::NetworkModel;

/// Pearson correlation coefficient.
fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let (mx, my) = (xs.iter().sum::<f64>() / n, ys.iter().sum::<f64>() / n);
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let (vx, vy): (f64, f64) = (
        xs.iter().map(|x| (x - mx).powi(2)).sum(),
        ys.iter().map(|y| (y - my).powi(2)).sum(),
    );
    cov / (vx.sqrt() * vy.sqrt())
}

/// Runs the cost-vs-Fed-SAC correlation study on CAL-S.
pub fn run(quick: bool) -> Reporter {
    let preset = RoadNetworkPreset::CalS;
    let per_group = if quick { 3 } else { 10 };
    let lan = NetworkModel::lan();
    let mut rep = Reporter::new();
    heading("Figure 10 — query costs vs #Fed-SAC (CAL-S, all methods & scales)");

    let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
    let groups = hop_bucketed_queries(&bench.graph, &preset.hop_buckets(), per_group, BENCH_SEED);
    let mut indexes = SharedIndexes::default();

    let (mut sacs, mut times, mut bytes, mut rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for method in Method::FIGURE7 {
        let engine = indexes.engine(&mut bench, method.config());
        for group in &groups {
            for &(s, t) in &group.pairs {
                let st = engine.spsp(&mut bench.fed, s, t).stats;
                sacs.push(st.sac_invocations as f64);
                times.push(st.modeled_time_s(&lan));
                bytes.push(st.per_party_bytes as f64);
                rounds.push(st.rounds as f64);
            }
        }
    }

    let rows = vec![
        ("modeled time".to_string(), vec![pearson(&sacs, &times)]),
        ("per-silo bytes".to_string(), vec![pearson(&sacs, &bytes)]),
        ("rounds".to_string(), vec![pearson(&sacs, &rounds)]),
    ];
    table("cost metric", &["Pearson r vs #Fed-SAC"], &rows);
    for (name, vals) in &rows {
        rep.record(
            "fig10",
            preset.name(),
            name,
            "-",
            vec![("pearson_r".into(), vals[0])],
        );
        assert!(
            vals[0] > 0.99,
            "{name} should be linearly proportional to Fed-SAC usage"
        );
    }
    println!(
        "({} query points; r ≈ 1 confirms the MPC operator is the bottleneck)",
        sacs.len()
    );
    rep
}
