//! Differential suite: concurrent batch execution is bit-identical to
//! sequential execution.
//!
//! The `BatchExecutor` changes *when* and *with whom* secure comparisons
//! execute (cross-query round coalescing), but Fed-SAC comparison bits are
//! pure functions of their inputs, so control flow — and therefore every
//! path, every distance, every comparison count — must be exactly the
//! sequential engine's. Each test runs 64 seeded random (s, t) pairs
//! through both paths for one `EngineConfig` and compares `QueryResult`s
//! field by field; batching may merge rounds but must never *add* duels,
//! so the batch's total comparison count never exceeds the sequential sum.

use fedroad::{
    gen_silo_weights, grid_city, BatchExecutor, BatchScheduler, CongestionLevel, EngineConfig,
    Federation, FederationConfig, GridCityParams, Method, QueryEngine, QueryResult, SacBackend,
    SacEngine, VertexId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

const NUM_SILOS: usize = 3;
const NUM_QUERIES: usize = 64;
const WORKERS: usize = 4;

fn make_fed(seed: u64) -> Federation {
    let g = grid_city(&GridCityParams::small(), seed);
    let w = gen_silo_weights(&g, CongestionLevel::Moderate, NUM_SILOS, seed);
    Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed,
        },
    )
}

fn random_pairs(num_vertices: u32, count: usize, seed: u64) -> Vec<(VertexId, VertexId)> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let s = rng.gen_range(0..num_vertices);
            let mut t = rng.gen_range(0..num_vertices);
            if t == s {
                t = (t + 1) % num_vertices;
            }
            (VertexId(s), VertexId(t))
        })
        .collect()
}

fn assert_batch_equals_sequential(config: EngineConfig, label: &str) {
    let mut fed = make_fed(0xD1FF);
    let engine = QueryEngine::build(&mut fed, config);
    let pairs = random_pairs(fed.graph().num_vertices() as u32, NUM_QUERIES, 0xFED_5EED);

    let executions_before = fed.engine().batch_count();
    let sac_before = fed.sac_cumulative_stats();
    let sequential: Vec<QueryResult> = pairs
        .iter()
        .map(|&(s, t)| engine.spsp(&mut fed, s, t))
        .collect();
    let sequential_executions = fed.engine().batch_count() - executions_before;
    let sequential_sac = fed.sac_cumulative_stats().delta_since(&sac_before);
    let sequential_invocations: u64 = sequential.iter().map(|r| r.stats.sac_invocations).sum();

    let snapshot = Arc::new(engine.snapshot(&fed));
    let run_on_fresh_scheduler = |workers: usize| {
        let scheduler = Arc::new(BatchScheduler::lockstep(SacEngine::new(
            NUM_SILOS,
            SacBackend::Modeled,
            0xBA7C4,
        )));
        BatchExecutor::new(Arc::clone(&snapshot), scheduler, workers).run(&pairs)
    };

    // One worker has no partner to coalesce with, so the scheduler fires
    // one round per request: the session target must issue exactly the
    // requests the engine target issued sequentially.
    let alone = run_on_fresh_scheduler(1).report;
    assert_eq!(
        alone.scheduler.rounds, sequential_executions,
        "{label}: protocol executions diverged between the engine and session targets"
    );
    assert_eq!(
        (alone.sac.net.rounds, alone.sac.net.bytes),
        (sequential_sac.net.rounds, sequential_sac.net.bytes),
        "{label}: rounds and bytes diverged between the engine and session targets"
    );

    let outcome = run_on_fresh_scheduler(WORKERS);

    assert_eq!(outcome.results.len(), sequential.len());
    for (i, (batch, seq)) in outcome.results.iter().zip(&sequential).enumerate() {
        let (s, t) = pairs[i];
        assert_eq!(
            batch.path, seq.path,
            "{label}: path diverged on query {i} ({s}->{t})"
        );
        assert_eq!(
            batch.stats.sac_invocations, seq.stats.sac_invocations,
            "{label}: comparison count diverged on query {i}"
        );
        assert_eq!(
            batch.stats.settled, seq.stats.settled,
            "{label}: settled-vertex count diverged on query {i}"
        );
        assert_eq!(
            batch.stats.queue_counts, seq.stats.queue_counts,
            "{label}: queue comparison split diverged on query {i}"
        );
        assert_eq!(
            batch.stats.queue_pushes, seq.stats.queue_pushes,
            "{label}: queue push count diverged on query {i}"
        );
    }

    let batch_invocations: u64 = outcome
        .results
        .iter()
        .map(|r| r.stats.sac_invocations)
        .sum();
    assert!(
        batch_invocations <= sequential_invocations,
        "{label}: batching added duels: {batch_invocations} > {sequential_invocations}"
    );
    // And the scheduler's own accounting agrees with the per-query sums.
    assert_eq!(
        outcome.report.sac.invocations, batch_invocations,
        "{label}: engine-side duel accounting diverged from per-query counters"
    );
    assert_eq!(outcome.report.queries, NUM_QUERIES);
    assert_eq!(
        outcome.report.scheduler.coalesced_duels, batch_invocations,
        "{label}: every duel must flow through the round scheduler"
    );
}

#[test]
fn naive_dijk_batch_equals_sequential() {
    assert_batch_equals_sequential(Method::NaiveDijk.config(), "Naive-Dijk");
}

#[test]
fn naive_dijk_tm_batch_equals_sequential() {
    assert_batch_equals_sequential(Method::NaiveDijkTm.config(), "Naive-Dijk+TM-tree");
}

#[test]
fn fed_shortcut_batch_equals_sequential() {
    assert_batch_equals_sequential(Method::FedShortcut.config(), "+Fed-Shortcut");
}

#[test]
fn fed_shortcut_alt_max_batch_equals_sequential() {
    assert_batch_equals_sequential(Method::FedShortcutAltMax.config(), "+Fed-ALT-Max");
}

#[test]
fn fed_shortcut_alt_batch_equals_sequential() {
    assert_batch_equals_sequential(Method::FedShortcutAlt.config(), "+Fed-ALT");
}

#[test]
fn fed_shortcut_amps_batch_equals_sequential() {
    assert_batch_equals_sequential(Method::FedShortcutAmps.config(), "+Fed-AMPS");
}

#[test]
fn fedroad_batch_equals_sequential() {
    assert_batch_equals_sequential(Method::FedRoad.config(), "FedRoad");
}

#[test]
fn round_batched_tm_tree_configs_equal_sequential() {
    // The TM-tree methods with the round-batching extension on: per-level
    // tournament duels are *submitted* as deferred requests and may merge
    // with other queries' rounds — results must still be untouched.
    for method in [Method::NaiveDijkTm, Method::FedRoad] {
        let config = EngineConfig {
            batch_rounds: true,
            ..method.config()
        };
        assert_batch_equals_sequential(config, &format!("{} +batch_rounds", method.name()));
    }
}
