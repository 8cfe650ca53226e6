//! Long-horizon index dynamics: repeated real-time traffic refreshes with
//! partial index updates must keep queries exact indefinitely — the
//! production lifecycle of §IV "Federated Index Updating".

use fedroad::{
    gen_silo_weights, grid_city, BatchExecutor, BatchScheduler, CongestionLevel, Federation,
    FederationConfig, GridCityParams, IndexSnapshot, JointOracle, Method, QueryEngine, QueryResult,
    SacBackend, SacEngine, VertexId, WeightChange,
};
use fedroad_graph::ArcId;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use std::sync::Arc;

#[test]
fn repeated_updates_stay_exact_over_many_rounds() {
    let g = grid_city(&GridCityParams::with_target_vertices(160), 3);
    let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 3);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 3,
        },
    );
    let mut engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
    let mut rng = ChaCha12Rng::seed_from_u64(99);
    let m = fed.graph().num_arcs();
    let n = fed.graph().num_vertices() as u32;

    for round in 0..8u64 {
        // Random traffic refresh: a random silo re-observes a random
        // subset of arcs, increasing or decreasing congestion.
        let silo = rng.gen_range(0..3);
        let k = rng.gen_range(1..=m / 20);
        let changed: Vec<ArcId> = (0..k).map(|_| ArcId(rng.gen_range(0..m as u32))).collect();
        let mut w = fed.silo(silo).as_slice().to_vec();
        let base = fed.graph().static_weights().to_vec();
        for a in &changed {
            let b = base[a.index()];
            w[a.index()] = rng.gen_range(b..=b * 2);
        }
        fed.update_silo_weights(silo, w);
        engine.update_index(&mut fed, &changed).expect("has index");

        // Fresh oracle for the *current* weights; queries must match it.
        let oracle = JointOracle::new(&fed);
        for _ in 0..4 {
            let (s, t) = (VertexId(rng.gen_range(0..n)), VertexId(rng.gen_range(0..n)));
            let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
            let result = engine.spsp(&mut fed, s, t);
            assert_eq!(
                oracle.path_cost_scaled(&fed, &result.path.unwrap()),
                Some(truth),
                "round {round}: stale index on {s}->{t}"
            );
        }
    }
}

#[test]
fn update_equals_rebuild_for_query_purposes() {
    // After an update, the index answers exactly like a from-scratch
    // rebuild would (the shortcut sets may differ in redundant entries;
    // answers may not).
    let g = grid_city(&GridCityParams::with_target_vertices(140), 17);
    let w = gen_silo_weights(&g, CongestionLevel::Moderate, 2, 17);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 17,
        },
    );
    let mut updated_engine = QueryEngine::build(&mut fed, Method::FedShortcut.config());

    // Perturb and update.
    let m = fed.graph().num_arcs();
    let changed: Vec<ArcId> = (0..m).step_by(41).map(|i| ArcId(i as u32)).collect();
    let mut w0 = fed.silo(0).as_slice().to_vec();
    for a in &changed {
        w0[a.index()] = w0[a.index()] * 3 / 2 + 1;
    }
    fed.update_silo_weights(0, w0);
    updated_engine.update_index(&mut fed, &changed).unwrap();

    // Rebuild from scratch on the new weights.
    let rebuilt_engine = QueryEngine::build(&mut fed, Method::FedShortcut.config());

    let oracle = JointOracle::new(&fed);
    let n = fed.graph().num_vertices() as u32;
    for (s, t) in [(0, n - 1), (9, n / 2), (n - 5, 3), (n / 4, 3 * n / 4)] {
        let (s, t) = (VertexId(s), VertexId(t));
        let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let a = updated_engine.spsp(&mut fed, s, t);
        let b = rebuilt_engine.spsp(&mut fed, s, t);
        assert_eq!(oracle.path_cost_scaled(&fed, &a.path.unwrap()), Some(truth));
        assert_eq!(oracle.path_cost_scaled(&fed, &b.path.unwrap()), Some(truth));
    }
}

#[test]
fn decreasing_weights_are_handled_too() {
    // Congestion clearing (weights decreasing back toward free flow) can
    // invalidate previously-needed shortcuts' optimality — updates must
    // handle both directions of change.
    let g = grid_city(&GridCityParams::with_target_vertices(140), 23);
    let w = gen_silo_weights(&g, CongestionLevel::Heavy, 3, 23);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 23,
        },
    );
    let mut engine = QueryEngine::build(&mut fed, Method::FedRoad.config());

    // Clear all congestion on silo 1: back to static weights.
    let statics = fed.graph().static_weights().to_vec();
    let old = fed.silo(1).as_slice().to_vec();
    let changed: Vec<ArcId> = (0..old.len())
        .filter(|&i| old[i] != statics[i])
        .map(|i| ArcId(i as u32))
        .collect();
    assert!(!changed.is_empty());
    fed.update_silo_weights(1, statics);
    engine.update_index(&mut fed, &changed).unwrap();

    let oracle = JointOracle::new(&fed);
    let n = fed.graph().num_vertices() as u32;
    for (s, t) in [(0, n - 1), (n / 3, 5)] {
        let (s, t) = (VertexId(s), VertexId(t));
        let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let result = engine.spsp(&mut fed, s, t);
        assert_eq!(
            oracle.path_cost_scaled(&fed, &result.path.unwrap()),
            Some(truth)
        );
    }
}

#[test]
fn toggling_one_edge_between_extremes_stays_exact() {
    // The adversarial case for incremental customization: the same arc
    // flips between free flow and jammed over and over, repeatedly
    // promoting and demoting the shortcuts through it. Every toggle must
    // leave the index exact, and every effective toggle must bump the
    // epoch exactly once.
    let g = grid_city(&GridCityParams::with_target_vertices(150), 47);
    let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 47);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 47,
        },
    );
    let mut engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
    let arc = ArcId(7);
    let low = fed.graph().static_weights()[arc.index()];
    let high = low * 50;
    let n = fed.graph().num_vertices() as u32;

    for round in 0..12u64 {
        let to = if round % 2 == 0 { high } else { low };
        let mut w0 = fed.silo(0).as_slice().to_vec();
        w0[arc.index()] = to;
        fed.update_silo_weights(0, w0);
        let epoch_before = engine.fedch().expect("has index").epoch();
        let stats = engine.update_index(&mut fed, &[arc]).expect("has index");
        assert!(
            stats.applied > 0,
            "round {round}: the toggle is a real change"
        );
        assert_eq!(
            engine.fedch().expect("has index").epoch(),
            epoch_before + 1,
            "round {round}: each effective toggle bumps the epoch once"
        );

        let oracle = JointOracle::new(&fed);
        for (s, t) in [(0, n - 1), (n / 3, 2 * n / 3), (5, n - 9)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
            let result = engine.spsp(&mut fed, s, t);
            assert_eq!(
                oracle.path_cost_scaled(&fed, &result.path.unwrap()),
                Some(truth),
                "round {round}: stale index on {s}->{t}"
            );
        }
    }
}

#[test]
fn zero_delta_update_does_not_dirty_the_index_or_bump_the_epoch() {
    // A no-op refresh (re-announcing weights the index already holds)
    // must be absorbed for free: no weight applied, no shortcut touched,
    // and — critically for snapshot publishers keyed on the epoch — no
    // epoch bump.
    let g = grid_city(&GridCityParams::with_target_vertices(120), 53);
    let w = gen_silo_weights(&g, CongestionLevel::Moderate, 2, 53);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 53,
        },
    );
    let mut engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
    let epoch_before = engine.fedch().expect("has index").epoch();

    // Re-announce every arc without changing anything.
    let all: Vec<ArcId> = (0..fed.graph().num_arcs())
        .map(|i| ArcId(i as u32))
        .collect();
    let stats = engine.update_index(&mut fed, &all).expect("has index");
    assert_eq!(stats.applied, 0, "zero-delta changes must be filtered");
    assert_eq!(
        stats.touched, 0,
        "a no-op batch must not dirty any shortcut"
    );
    assert_eq!(stats.changed, 0);
    assert_eq!(
        engine.fedch().expect("has index").epoch(),
        epoch_before,
        "a no-op batch must not bump the epoch"
    );

    // The point-update path agrees: same-value updates report no change.
    let same: Vec<fedroad::WeightChange> = (0..8)
        .map(|i| fedroad::WeightChange {
            arc: ArcId(i),
            silo: 1,
            weight: fed.silo(1).weight(ArcId(i)),
        })
        .collect();
    assert!(
        fed.apply_weight_updates(&same).is_empty(),
        "unchanged weights must not report changed arcs"
    );
}

#[test]
fn stale_index_demonstrably_misroutes() {
    // The motivating counterpart of the update machinery: refresh weights
    // *without* updating the index and some queries come back suboptimal.
    // (Deterministic seed; the perturbation reshapes optimal routes.)
    let g = grid_city(&GridCityParams::with_target_vertices(200), 29);
    let w = gen_silo_weights(&g, CongestionLevel::Free, 2, 29);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 29,
        },
    );
    let engine = QueryEngine::build(&mut fed, Method::FedShortcut.config());

    // Heavy congestion appears on silo 0 after the index was built.
    let mut rng = ChaCha12Rng::seed_from_u64(43);
    let mut w0 = fed.silo(0).as_slice().to_vec();
    for entry in w0.iter_mut() {
        if rng.gen_bool(0.5) {
            *entry *= 4;
        }
    }
    fed.update_silo_weights(0, w0);
    // NOTE: deliberately no engine.update_index(...) here.

    let oracle = JointOracle::new(&fed);
    let n = fed.graph().num_vertices() as u32;
    let mut mismatches = 0;
    for q in 0..10u32 {
        let (s, t) = (VertexId((q * 37) % n), VertexId((q * 71 + n / 2) % n));
        if s == t {
            continue;
        }
        let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let path = engine.spsp(&mut fed, s, t).path.unwrap();
        if oracle.path_cost_scaled(&fed, &path) != Some(truth) {
            mismatches += 1;
        }
    }
    assert!(
        mismatches > 0,
        "a stale index should misroute under reshaped congestion"
    );
}

#[test]
fn snapshots_stay_frozen_across_copy_on_write_updates() {
    // Snapshots share the graph, the silo weights and the index with the
    // live federation by `Arc`; the writers copy on write. A snapshot taken
    // before an update must keep answering exactly as it did, while the
    // live engine and fresh snapshots see the update.
    let g = grid_city(&GridCityParams::with_target_vertices(160), 71);
    let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 71);
    let mut fed = Federation::new(
        g,
        w,
        FederationConfig {
            backend: SacBackend::Modeled,
            seed: 71,
        },
    );
    let mut engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
    let n = fed.graph().num_vertices() as u32;
    let pairs: Vec<(VertexId, VertexId)> = [(0, n - 1), (7, n / 2), (n / 3, 5), (n - 9, 12)]
        .into_iter()
        .map(|(s, t)| (VertexId(s), VertexId(t)))
        .collect();
    let run = |snapshot: &Arc<IndexSnapshot>| -> Vec<QueryResult> {
        let scheduler = Arc::new(BatchScheduler::lockstep(SacEngine::new(
            3,
            SacBackend::Modeled,
            71,
        )));
        BatchExecutor::new(Arc::clone(snapshot), scheduler, 2)
            .run(&pairs)
            .results
    };

    let old = Arc::new(engine.snapshot(&fed));
    let old_oracle = JointOracle::new(&fed);
    let old_epoch = old.epoch();
    let before = run(&old);

    // Triple every 7th arc on every silo.
    let changes: Vec<WeightChange> = (0..fed.graph().num_arcs())
        .step_by(7)
        .flat_map(|i| (0..3).map(move |silo| (ArcId(i as u32), silo)))
        .map(|(arc, silo)| WeightChange {
            arc,
            silo,
            weight: fed.silo(silo).weight(arc) * 3,
        })
        .collect();
    let changed = fed.apply_weight_updates(&changes);
    assert!(!changed.is_empty());
    engine.update_index(&mut fed, &changed).expect("has index");
    let new_epoch = engine.fedch().expect("has index").epoch();
    assert!(new_epoch > old_epoch, "the update must bump the epoch");
    assert_eq!(old.epoch(), old_epoch, "the old snapshot keeps its epoch");

    // The old snapshot answers bit-identically, exact under the old weights.
    let after = run(&old);
    for ((b, a), &(s, t)) in before.iter().zip(&after).zip(&pairs) {
        assert_eq!(
            b.path, a.path,
            "old snapshot changed its answer on {s}->{t}"
        );
        assert_eq!(b.stats.sac_invocations, a.stats.sac_invocations);
        let truth = old_oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let path = a.path.as_ref().expect("connected");
        assert_eq!(old_oracle.path_cost_scaled(&fed, path), Some(truth));
    }

    // The live engine and a fresh snapshot are exact under the new weights.
    let new_oracle = JointOracle::new(&fed);
    let fresh = Arc::new(engine.snapshot(&fed));
    assert_eq!(fresh.epoch(), new_epoch);
    let fresh_results = run(&fresh);
    let mut moved = 0;
    for (r, &(s, t)) in fresh_results.iter().zip(&pairs) {
        let truth = new_oracle.spsp_scaled(&fed, s, t).unwrap().0;
        let live = engine.spsp(&mut fed, s, t).path.expect("connected");
        assert_eq!(new_oracle.path_cost_scaled(&fed, &live), Some(truth));
        let path = r.path.as_ref().expect("connected");
        assert_eq!(new_oracle.path_cost_scaled(&fed, path), Some(truth));
        if old_oracle.spsp_scaled(&fed, s, t).unwrap().0 != truth {
            moved += 1;
        }
    }
    assert!(moved > 0, "the update must change some joint distance");

    // An empty change list is absorbed without touching the index.
    assert!(fed.apply_weight_updates(&[]).is_empty());
    engine.update_index(&mut fed, &[]).expect("has index");
    assert_eq!(engine.fedch().expect("has index").epoch(), new_epoch);
}
