//! Set-up: the federation, the index and the serving state a workload's
//! timed phase runs against. Everything here counts in `setup_s`.

use crate::workload::{City, CITY_SEED, SILOS};
use fedroad_core::{
    BatchExecutor, Federation, FederationConfig, IndexSnapshot, LowerBoundKind, Method, QueryEngine,
};
use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
use fedroad_graph::{Graph, VertexId, Weight};
use fedroad_mpc::{BatchScheduler, SacBackend, SacEngine};
use std::sync::Arc;
use std::time::Instant;

/// A set-up federation ready to serve queries.
pub struct Instance {
    /// The shared road network (a copy kept for input generation, the
    /// congestion wave and the oracle replay).
    pub graph: Arc<Graph>,
    /// The silos' quiescent weights, the baseline the wave reverts to.
    pub quiescent: Vec<Vec<Weight>>,
    /// The live federation (Real Fed-SAC backend).
    pub fed: Federation,
    /// The FedRoad engine built over it.
    pub engine: QueryEngine,
    /// The first published snapshot.
    pub snapshot: Arc<IndexSnapshot>,
    /// The round scheduler every query's comparisons go through (Real
    /// backend).
    pub scheduler: Arc<BatchScheduler>,
    /// Seconds the whole set-up took, warm-up queries included.
    pub setup_s: f64,
    /// Seconds `QueryEngine::build` took.
    pub build_s: f64,
}

/// Sets up `city`'s federation: generate the network and silo weights,
/// build the FedRoad engine on the Real backend, capture the first
/// snapshot, and answer `warmup` queries so that lazily set-up state and
/// caches are warm before the timed phase.
pub fn set_up(city: City, warmup: &[(VertexId, VertexId)]) -> Instance {
    let start = Instant::now();
    let graph = city.generate();
    let quiescent = gen_silo_weights(&graph, CongestionLevel::Moderate, SILOS, CITY_SEED);
    let mut fed = Federation::new(
        graph.clone(),
        quiescent.clone(),
        FederationConfig {
            backend: SacBackend::Real,
            seed: CITY_SEED,
        },
    );
    let build_start = Instant::now();
    let engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
    let build_s = build_start.elapsed().as_secs_f64();
    let config = engine.config();
    // The traced run rebuilds this query path from public pieces; it
    // covers exactly this configuration.
    assert!(
        config.use_shortcuts && config.lower_bound == LowerBoundKind::Amps && !config.batch_rounds,
        "the benchmark drives the FedRoad configuration"
    );
    let snapshot = Arc::new(engine.snapshot(&fed));
    let scheduler = Arc::new(BatchScheduler::lockstep(SacEngine::new(
        SILOS,
        SacBackend::Real,
        CITY_SEED ^ 0x5C4E_D000,
    )));
    let executor = BatchExecutor::new(Arc::clone(&snapshot), Arc::clone(&scheduler), 1);
    for &pair in warmup {
        std::hint::black_box(executor.run(&[pair]));
    }
    Instance {
        graph: Arc::new(graph),
        quiescent,
        fed,
        engine,
        snapshot,
        scheduler,
        setup_s: start.elapsed().as_secs_f64(),
        build_s,
    }
}
