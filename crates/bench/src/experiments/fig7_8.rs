//! Figures 7 and 8 — query running time (modeled, LAN) and per-silo
//! communication volume versus query scale (hop bucket), for the four
//! headline methods on all three datasets.

use crate::report::{heading, table, Reporter};
use crate::setup::{self, DEFAULT_SILOS};
use crate::workload::hop_bucketed_queries;
use crate::BENCH_SEED;
use fedroad_core::{EngineConfig, Method, QueryEngine, QueryStats};
use fedroad_core::{FedChIndex, SacComparator};
use fedroad_graph::traffic::CongestionLevel;
use fedroad_mpc::NetworkModel;
use std::sync::Arc;

/// Aggregated means of one (method, group) cell.
#[derive(Clone, Copy, Default)]
pub struct Cell {
    /// Mean modeled end-to-end time, seconds.
    pub time_s: f64,
    /// Mean per-silo communication, KiB.
    pub comm_kib: f64,
    /// Mean Fed-SAC invocations.
    pub sacs: f64,
    /// Mean communication rounds.
    pub rounds: f64,
}

/// Runs one method over a query list and returns means, verifying every
/// path against the ideal-world oracle.
pub fn run_method(
    bench: &mut crate::setup::Bench,
    engine: &QueryEngine,
    pairs: &[(fedroad_graph::VertexId, fedroad_graph::VertexId)],
    lan: &NetworkModel,
) -> Cell {
    let mut acc = Cell::default();
    for &(s, t) in pairs {
        let result = engine.spsp(&mut bench.fed, s, t);
        let path = result.path.expect("benchmark graphs are connected");
        let truth = bench
            .oracle
            .spsp_scaled(&bench.fed, s, t)
            .expect("connected")
            .0;
        assert_eq!(
            bench.oracle.path_cost_scaled(&bench.fed, &path),
            Some(truth),
            "suboptimal answer from a benchmarked method"
        );
        let st: QueryStats = result.stats;
        acc.time_s += st.modeled_time_s(lan);
        acc.comm_kib += st.per_party_bytes as f64 / 1024.0;
        acc.sacs += st.sac_invocations as f64;
        acc.rounds += st.rounds as f64;
    }
    let k = pairs.len() as f64;
    Cell {
        time_s: acc.time_s / k,
        comm_kib: acc.comm_kib / k,
        sacs: acc.sacs / k,
        rounds: acc.rounds / k,
    }
}

/// Builds the shortcut index `config` asks for (its core size) over the
/// bench federation, to be shared by `Arc`.
pub fn shared_index(bench: &mut crate::setup::Bench, config: &EngineConfig) -> Arc<FedChIndex> {
    let core = config.core_size(bench.fed.graph().num_vertices());
    let (graph, silos, engine) = bench.fed.split_mut();
    let mut cmp = SacComparator::new(engine);
    Arc::new(FedChIndex::build(graph, silos, core, &mut cmp))
}

/// The shortcut indexes of one sweep, one per distinct core size: the
/// guided lines and +Fed-Shortcut keep different cores (see
/// [`Method::config`]), so each line gets the index built for its own
/// core, and lines with the same core share one construction.
#[derive(Default)]
pub struct SharedIndexes(Vec<Arc<FedChIndex>>);

impl SharedIndexes {
    /// Builds `config`'s engine over `bench`, constructing its shortcut
    /// index on the first request for that core size.
    pub fn engine(&mut self, bench: &mut crate::setup::Bench, config: EngineConfig) -> QueryEngine {
        let index = config.use_shortcuts.then(|| {
            let core = config.core_size(bench.fed.graph().num_vertices());
            match self.0.iter().find(|index| index.core_size() == core) {
                Some(index) => Arc::clone(index),
                None => {
                    let index = shared_index(bench, &config);
                    self.0.push(Arc::clone(&index));
                    index
                }
            }
        });
        QueryEngine::build_with(&mut bench.fed, config, index.as_ref())
    }
}

/// Runs the full sweep.
pub fn run(quick: bool) -> Reporter {
    let per_group = if quick { 4 } else { 20 };
    let lan = NetworkModel::lan();
    let mut rep = Reporter::new();

    for preset in setup::presets(quick) {
        let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
        let groups =
            hop_bucketed_queries(&bench.graph, &preset.hop_buckets(), per_group, BENCH_SEED);
        let mut indexes = SharedIndexes::default();

        heading(&format!(
            "Figures 7+8 — {} ({}), {} queries per hop group",
            preset.name(),
            preset.paper_dataset(),
            per_group
        ));
        let col_labels: Vec<String> = groups.iter().map(|g| g.label()).collect();
        let cols: Vec<&str> = col_labels.iter().map(|s| s.as_str()).collect();
        let mut time_rows = Vec::new();
        let mut comm_rows = Vec::new();

        for method in Method::FIGURE7 {
            let engine = indexes.engine(&mut bench, method.config());
            let mut times = Vec::new();
            let mut comms = Vec::new();
            for group in &groups {
                let cell = run_method(&mut bench, &engine, &group.pairs, &lan);
                times.push(cell.time_s);
                comms.push(cell.comm_kib);
                rep.record(
                    "fig7_8",
                    preset.name(),
                    method.name(),
                    group.label(),
                    vec![
                        ("time_s".into(), cell.time_s),
                        ("comm_kib".into(), cell.comm_kib),
                        ("sacs".into(), cell.sacs),
                        ("rounds".into(), cell.rounds),
                    ],
                );
            }
            time_rows.push((method.name().to_string(), times));
            comm_rows.push((method.name().to_string(), comms));
        }

        println!("\nFigure 7 — mean modeled query time [s] by hop group:");
        table("method \\ hops", &cols, &time_rows);
        println!("\nFigure 8 — mean per-silo communication [KiB] by hop group:");
        table("method \\ hops", &cols, &comm_rows);
        let first = &time_rows[0].1;
        let last = &time_rows[time_rows.len() - 1].1;
        let speedup = first.last().unwrap() / last.last().unwrap();
        println!(
            "(longest-group speedup Naive-Dijk → FedRoad: {speedup:.0}x; paper reports ~100x)"
        );
    }
    rep
}
