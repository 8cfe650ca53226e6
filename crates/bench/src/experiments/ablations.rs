//! Ablations over this implementation's own design knobs (beyond the
//! paper's figures): the core fraction of the shortcut index, which
//! [`Method::config`]'s per-line cores are picked from, and the TM-tree
//! balance factor α.

use crate::experiments::fig7_8::shared_index;
use crate::report::{heading, table, Reporter};
use crate::setup::{self, Bench, DEFAULT_SILOS};
use crate::workload::hop_bucketed_queries;
use crate::BENCH_SEED;
use fedroad_core::{
    EngineConfig, FedChIndex, Federation, LowerBoundKind, Method, QueryEngine, SacComparator,
};
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::CongestionLevel;
use fedroad_graph::{ArcId, VertexId, Weight};
use fedroad_queue::{PriorityQueue, QueueKind, TmTree};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;
use std::time::Instant;

/// The core sweep's grid: fractions of the vertices left uncontracted.
const CORE_GRID: [f64; 6] = [0.05, 0.1, 0.2, 0.3, 0.5, 1.0];

/// The two line families [`Method::config`] gives their own core: the
/// guided FedRoad (+Fed-AMPS shares its core) and the unguided
/// +Fed-Shortcut.
const CORE_LINES: [Method; 2] = [Method::FedRoad, Method::FedShortcut];

/// Record names of the per-core index costs, in `index_values` order.
const INDEX_METRICS: [&str; 6] = [
    "build_sacs",
    "build_s",
    "customize_sacs",
    "overlay_arcs",
    "shortcuts",
    "triangles",
];

/// Per-query costs of one line at one core.
struct LineCost {
    sacs: f64,
    rounds: f64,
    bytes: f64,
    /// Median wall time of the same queries on the Real backend.
    real_p50_ms: f64,
}

/// Runs `config` over `pairs` on the Modeled bench federation (the
/// counts) and on its Real twin (the wall time), both over `index`.
/// Every answer must be exact, and the two backends must agree on the
/// path and on every query's Fed-SAC count.
fn line_cost(
    bench: &mut Bench,
    real: &mut Federation,
    config: EngineConfig,
    index: &Arc<FedChIndex>,
    pairs: &[(VertexId, VertexId)],
) -> LineCost {
    let modeled = QueryEngine::build_with(&mut bench.fed, config, Some(index));
    let measured = QueryEngine::build_with(real, config, Some(index));
    let (mut sacs, mut rounds, mut bytes) = (0u64, 0u64, 0u64);
    let mut walls = Vec::with_capacity(pairs.len());
    for &(s, t) in pairs {
        let r = modeled.spsp(&mut bench.fed, s, t);
        let truth = bench.oracle.spsp_scaled(&bench.fed, s, t).unwrap().0;
        assert_eq!(
            bench
                .oracle
                .path_cost_scaled(&bench.fed, r.path.as_ref().unwrap()),
            Some(truth),
            "core {} on {s}->{t}",
            config.core_fraction
        );
        let real_r = measured.spsp(real, s, t);
        assert_eq!(real_r.path, r.path, "backends disagree on {s}->{t}");
        assert_eq!(
            real_r.stats.sac_invocations, r.stats.sac_invocations,
            "backends count different Fed-SACs on {s}->{t}"
        );
        sacs += r.stats.sac_invocations;
        rounds += r.stats.rounds;
        bytes += r.stats.bytes;
        walls.push(real_r.stats.wall_time_s);
    }
    walls.sort_by(|a, b| a.total_cmp(b));
    let k = pairs.len() as f64;
    LineCost {
        sacs: sacs as f64 / k,
        rounds: rounds as f64 / k,
        bytes: bytes as f64 / k,
        real_p50_ms: walls[walls.len() / 2] * 1e3,
    }
}

/// Fed-SACs that customizing a copy of `index` to `batch` costs; silo 0's
/// weights are restored afterwards.
fn customize_sacs(bench: &mut Bench, index: &FedChIndex, batch: &(Vec<ArcId>, Vec<Weight>)) -> u64 {
    let (changed, weights) = batch;
    let original = bench.fed.silo(0).as_slice().to_vec();
    bench.fed.update_silo_weights(0, weights.clone());
    let mut index = index.clone();
    let before = bench.fed.sac_cumulative_stats().invocations;
    {
        let (graph, silos, engine) = bench.fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        index.update(graph, silos, changed, &mut cmp);
    }
    let sacs = bench.fed.sac_cumulative_stats().invocations - before;
    bench.fed.update_silo_weights(0, original);
    sacs
}

/// Core-fraction sweep: what each core costs the index (build, one
/// customize batch, its size) and each line family's queries, and which
/// core minimises each family's query Fed-SACs over the presets.
fn core_sweep(rep: &mut Reporter, quick: bool) {
    let (presets, cores): (Vec<RoadNetworkPreset>, &[f64]) = if quick {
        (vec![RoadNetworkPreset::CalS], &[0.1, 0.3, 1.0])
    } else {
        (RoadNetworkPreset::ALL.to_vec(), &CORE_GRID)
    };
    let per_group = if quick { 2 } else { 4 };
    // Σ ln(query Fed-SACs) per line and core, for the geometric means.
    let mut log_sacs = vec![vec![0.0f64; cores.len()]; CORE_LINES.len()];
    for &preset in &presets {
        heading(&format!(
            "Ablation — core fraction of the shortcut index ({}, {} queries per hop group, \
             Real p50 next to Modeled counts)",
            preset.name(),
            per_group
        ));
        let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
        let mut real = setup::real_twin(&bench);
        let pairs: Vec<_> =
            hop_bucketed_queries(&bench.graph, &preset.hop_buckets(), per_group, BENCH_SEED)
                .into_iter()
                .flat_map(|g| g.pairs)
                .collect();
        // One fixed update batch: silo 0's weight rises on 1 % of the arcs.
        let mut rng = ChaCha12Rng::seed_from_u64(BENCH_SEED ^ 0xC0E);
        let batch = setup::silo0_update(&bench, 0.01, &mut rng);
        let (mut index_rows, mut query_rows) = (Vec::new(), Vec::new());
        for (ci, &core) in cores.iter().enumerate() {
            let at_core = |line: Method| EngineConfig {
                core_fraction: core,
                ..line.config()
            };
            let before = bench.fed.sac_cumulative_stats().invocations;
            let t0 = Instant::now();
            let index = shared_index(&mut bench, &at_core(Method::FedRoad));
            let build_s = t0.elapsed().as_secs_f64();
            let build_sacs = (bench.fed.sac_cumulative_stats().invocations - before) as f64;
            let customize = customize_sacs(&mut bench, &index, &batch) as f64;
            let stats = index.stats();
            let index_values = [
                build_sacs,
                build_s,
                customize,
                stats.overlay_arcs as f64,
                stats.shortcuts as f64,
                stats.triangles as f64,
            ];
            index_rows.push((
                format!("core = {:.0}%", core * 100.0),
                index_values.to_vec(),
            ));
            for (li, line) in CORE_LINES.into_iter().enumerate() {
                let cost = line_cost(&mut bench, &mut real, at_core(line), &index, &pairs);
                log_sacs[li][ci] += cost.sacs.ln();
                query_rows.push((
                    format!("{} @ {:.0}%", line.name(), core * 100.0),
                    vec![
                        cost.sacs,
                        cost.rounds,
                        cost.bytes / 1024.0,
                        cost.real_p50_ms,
                    ],
                ));
                let mut values = vec![
                    ("query_sacs".into(), cost.sacs),
                    ("query_rounds".into(), cost.rounds),
                    ("query_bytes".into(), cost.bytes),
                    ("real_p50_ms".into(), cost.real_p50_ms),
                ];
                values.extend(
                    INDEX_METRICS
                        .map(String::from)
                        .into_iter()
                        .zip(index_values),
                );
                rep.record(
                    "ablations",
                    preset.name(),
                    &format!("core/{}", line.name()),
                    core,
                    values,
                );
            }
        }
        table(
            "index",
            &[
                "build Fed-SACs",
                "build [s]",
                "customize SACs",
                "overlay arcs",
                "shortcuts",
                "triangles",
            ],
            &index_rows,
        );
        println!("(customize: one batch raising silo 0's weight on 1 % of the arcs)");
        table(
            "line @ core",
            &["Fed-SACs/q", "rounds/q", "KiB/q", "Real p50 [ms]"],
            &query_rows,
        );
    }

    heading(&format!(
        "Core choice — geometric mean of query Fed-SACs over {}",
        presets
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let cols: Vec<String> = cores.iter().map(|c| format!("{:.0}%", c * 100.0)).collect();
    let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for (li, line) in CORE_LINES.into_iter().enumerate() {
        let geomeans: Vec<f64> = log_sacs[li]
            .iter()
            .map(|sum| (sum / presets.len() as f64).exp())
            .collect();
        let best = (0..cores.len())
            .min_by(|&a, &b| geomeans[a].total_cmp(&geomeans[b]))
            .unwrap();
        println!(
            "{}: minimum at core {:.0}% (Method::config uses {:.0}%)",
            line.name(),
            cores[best] * 100.0,
            line.config().core_fraction * 100.0
        );
        for (&core, &g) in cores.iter().zip(&geomeans) {
            rep.record(
                "ablations",
                "geomean",
                &format!("core/{}", line.name()),
                core,
                vec![("query_sacs".into(), g)],
            );
        }
        rows.push((line.name().to_string(), geomeans));
    }
    table("line \\ core", &cols, &rows);
}

/// TM-tree balance factor ablation on a synthetic batched workload.
fn tm_alpha(rep: &mut Reporter, quick: bool) {
    heading("Ablation — TM-tree balance factor α (batched queue workload)");
    let alphas = if quick {
        vec![2usize, 4]
    } else {
        vec![2usize, 4, 8, 16]
    };
    let rounds = if quick { 400u64 } else { 2_000 };
    let mut rows = Vec::new();
    for &alpha in &alphas {
        let mut q = TmTree::new(alpha);
        let mut cmp = |a: &u64, b: &u64| a < b;
        let mut x = 0x9E3779B97F4A7C15u64;
        for round in 0..rounds {
            let batch: Vec<u64> = (0..9)
                .map(|i| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x.wrapping_add(i)
                })
                .collect();
            q.push_batch(batch, &mut cmp);
            if round % 2 == 0 {
                q.pop(&mut cmp);
            }
        }
        while q.pop(&mut cmp).is_some() {}
        let c = q.counts();
        rows.push((
            format!("alpha = {alpha}"),
            vec![
                c.build as f64,
                c.merge as f64,
                c.pop as f64,
                c.total() as f64,
            ],
        ));
        rep.record(
            "ablations",
            "-",
            "tm_alpha",
            alpha,
            vec![
                ("build".into(), c.build as f64),
                ("merge".into(), c.merge as f64),
                ("pop".into(), c.pop as f64),
            ],
        );
    }
    table("balance factor", &["build", "merge", "pop", "total"], &rows);
    println!("(the paper's alpha = 4 balances merge cascades against pop path lengths)");
}

/// Queue-structure ablation inside the *naive* engine — the paper's
/// baseline (6), showing the TM-tree is a standalone component.
fn naive_with_tm(rep: &mut Reporter, quick: bool) {
    heading("Ablation — TM-tree over Naive-Dijk (the paper's baseline 6)");
    let preset = RoadNetworkPreset::CalS;
    let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
    let groups = hop_bucketed_queries(
        &bench.graph,
        &preset.hop_buckets(),
        if quick { 2 } else { 8 },
        BENCH_SEED,
    );
    let pairs: Vec<_> = groups[2].pairs.clone();
    let mut rows = Vec::new();
    for (name, queue) in [("Heap", QueueKind::Heap), ("TM-tree", QueueKind::TmTree)] {
        let config = EngineConfig {
            use_shortcuts: false,
            lower_bound: LowerBoundKind::None,
            queue,
            ..Method::NaiveDijk.config()
        };
        let engine = QueryEngine::build(&mut bench.fed, config);
        let mut sacs = 0.0;
        for &(s, t) in &pairs {
            sacs += engine.spsp(&mut bench.fed, s, t).stats.sac_invocations as f64;
        }
        sacs /= pairs.len() as f64;
        rows.push((format!("Naive-Dijk + {name}"), vec![sacs]));
        rep.record(
            "ablations",
            preset.name(),
            "naive_queue",
            name,
            vec![("query_sacs".into(), sacs)],
        );
    }
    let gain = rows[0].1[0] / rows[1].1[0];
    table("configuration", &["mean query Fed-SACs"], &rows);
    println!(
        "(TM-tree helps the naive search {gain:.2}x — smaller than over the shortcut \
index, as §VIII-B(5) observes: shortcuts raise the average degree, making batching pay more)"
    );
}

/// Round-batching extension: identical results and comparison counts,
/// fewer communication rounds (beyond the paper: MP-SPDZ-style
/// vectorization of the TM-tree's independent tournament duels).
fn round_batching(rep: &mut Reporter, quick: bool) {
    heading("Ablation — round-batched Fed-SAC (extension; CAL-S, FedRoad engine)");
    let preset = RoadNetworkPreset::CalS;
    let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
    let groups = hop_bucketed_queries(
        &bench.graph,
        &preset.hop_buckets(),
        if quick { 2 } else { 8 },
        BENCH_SEED,
    );
    let pairs: Vec<_> = groups.last().unwrap().pairs.clone();
    let mut rows = Vec::new();
    for (name, batch) in [("sequential (paper)", false), ("round-batched", true)] {
        let config = EngineConfig {
            batch_rounds: batch,
            ..Method::FedRoad.config()
        };
        let engine = QueryEngine::build_with(&mut bench.fed, config, None);
        let (mut sacs, mut rounds) = (0.0f64, 0.0f64);
        for &(s, t) in &pairs {
            let r = engine.spsp(&mut bench.fed, s, t);
            let truth = bench.oracle.spsp_scaled(&bench.fed, s, t).unwrap().0;
            assert_eq!(
                bench.oracle.path_cost_scaled(&bench.fed, &r.path.unwrap()),
                Some(truth)
            );
            sacs += r.stats.sac_invocations as f64;
            rounds += r.stats.rounds as f64;
        }
        let k = pairs.len() as f64;
        rows.push((name.to_string(), vec![sacs / k, rounds / k]));
        rep.record(
            "ablations",
            preset.name(),
            "round_batching",
            name,
            vec![("sacs".into(), sacs / k), ("rounds".into(), rounds / k)],
        );
    }
    table("mode", &["query Fed-SACs", "MPC rounds"], &rows);
    let saving = rows[0].1[1] / rows[1].1[1];
    println!("(identical results and comparison counts; {saving:.1}x fewer rounds)");
}

/// Runs all ablations.
pub fn run(quick: bool) -> Reporter {
    let mut rep = Reporter::new();
    core_sweep(&mut rep, quick);
    tm_alpha(&mut rep, quick);
    naive_with_tm(&mut rep, quick);
    round_batching(&mut rep, quick);
    rep
}
