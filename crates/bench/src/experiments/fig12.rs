//! Figure 12 — priority-queue comparison counts (Fed-SAC usage) split into
//! sub-queue building, merging into the global queue, and popping, for the
//! binary heap, the leftist heap and the TM-tree, plus the `#push` floor.

use crate::experiments::fig7_8::shared_index;
use crate::report::{heading, table, Reporter};
use crate::setup::{self, DEFAULT_SILOS};
use crate::workload::hop_bucketed_queries;
use crate::BENCH_SEED;
use fedroad_core::{EngineConfig, LowerBoundKind, QueryEngine};
use fedroad_graph::gen::RoadNetworkPreset;
use fedroad_graph::traffic::CongestionLevel;
use fedroad_queue::QueueKind;

/// Runs the queue ablation (BJ-S; CAL-S with `--quick`).
pub fn run(quick: bool) -> Reporter {
    let preset = if quick {
        RoadNetworkPreset::CalS
    } else {
        RoadNetworkPreset::BjS
    };
    let per_group = if quick { 3 } else { 20 };
    let mut rep = Reporter::new();
    heading(&format!(
        "Figure 12 — queue comparison counts over {} queries ({}, Fed-Shortcut + Fed-AMPS)",
        per_group * 5,
        preset.name()
    ));

    let mut bench = setup::build(preset, DEFAULT_SILOS, CongestionLevel::Moderate);
    let groups = hop_bucketed_queries(&bench.graph, &preset.hop_buckets(), per_group, BENCH_SEED);
    let index = shared_index(&mut bench, &EngineConfig::default());

    let mut rows = Vec::new();
    let mut tm_push_cost = u64::MAX;
    let mut heap_push_cost = 0;
    let mut pushes_total = 0u64;
    for kind in QueueKind::ALL {
        let config = EngineConfig {
            use_shortcuts: true,
            lower_bound: LowerBoundKind::Amps,
            queue: kind,
            ..EngineConfig::default()
        };
        let engine = QueryEngine::build_with(&mut bench.fed, config, Some(&index));
        let (mut build, mut merge, mut pop, mut pushes) = (0u64, 0u64, 0u64, 0u64);
        for group in &groups {
            for &(s, t) in &group.pairs {
                let st = engine.spsp(&mut bench.fed, s, t).stats;
                build += st.queue_counts.build;
                merge += st.queue_counts.merge;
                pop += st.queue_counts.pop;
                pushes += st.queue_pushes;
            }
        }
        rows.push((
            kind.name().to_string(),
            vec![
                build as f64,
                merge as f64,
                pop as f64,
                (build + merge + pop) as f64,
            ],
        ));
        rep.record(
            "fig12",
            preset.name(),
            kind.name(),
            "-",
            vec![
                ("build".into(), build as f64),
                ("merge".into(), merge as f64),
                ("pop".into(), pop as f64),
                ("pushes".into(), pushes as f64),
            ],
        );
        match kind {
            QueueKind::TmTree => tm_push_cost = build + merge,
            QueueKind::Heap => heap_push_cost = merge,
            QueueKind::LeftistHeap => {}
        }
        pushes_total = pushes;
    }
    rows.push((
        "#push (floor)".to_string(),
        vec![0.0, 0.0, 0.0, pushes_total as f64],
    ));

    table("queue", &["build", "merge", "pop", "total"], &rows);
    println!("(expected shape: TM-tree push cost ≈ #push; heap pushes cost log|Q| each)");
    assert!(
        tm_push_cost < heap_push_cost,
        "TM-tree push comparisons must undercut the heap"
    );
    assert!(
        tm_push_cost as f64 <= 1.6 * pushes_total as f64,
        "TM-tree amortized push cost should be close to 1"
    );
    rep
}
