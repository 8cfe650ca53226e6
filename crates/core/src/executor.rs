//! Concurrent batch query execution over an immutable index snapshot.
//!
//! [`QueryEngine::spsp`](crate::engine::QueryEngine::spsp) answers one
//! query at a time against a `&mut Federation` — correct, but serial: each
//! Fed-SAC comparison pays its full round cost alone. The paper's cost
//! model (§VI, `R·(L + S/B)`) says those rounds dominate, and they are the
//! one cost that *concurrent* queries can share: a protocol execution
//! carrying duels from eight queries costs the same rounds as one carrying
//! a single duel.
//!
//! This module splits serving-time state along that line:
//!
//! * [`IndexSnapshot`] — everything read-only a query needs (topology,
//!   per-silo weights, FedCh shortcuts, landmark tables), held as `Arc`s
//!   shared with the live federation and engine, so any number of worker
//!   threads query it concurrently without touching the mutable
//!   [`Federation`](crate::federation::Federation). Its `run_spsp` is the
//!   one query dispatch every caller goes through.
//! * [`SacComparator::session`] — each query's comparator: the same
//!   [`SacComparator`] the sequential path uses, routing every ready
//!   comparison through a shared [`BatchScheduler`] session, where duels
//!   from many in-flight queries coalesce into one protocol round.
//! * [`LiveExecutor`] — the worker pool: N queries, W workers, one
//!   scheduler, each query answered by whatever snapshot a
//!   [`SnapshotCell`] holds when it starts.
//! * [`BatchExecutor`] — a [`LiveExecutor`] over a cell nobody publishes
//!   to; returns per-query [`QueryResult`]s (identical to sequential
//!   execution — pinned by the differential suite) plus a [`BatchReport`]
//!   of what coalescing bought.
//!
//! Per-query **round/byte attribution is undefined** under cross-query
//! coalescing — a merged round belongs to every query it carries — so
//! per-query [`QueryStats`] report `rounds = bytes = messages = 0` and the
//! aggregate truth lives in [`BatchReport::sac`] /
//! [`BatchReport::scheduler`]. Comparison *counts* remain exact per query.

use crate::engine::{EngineConfig, QueryResult, QueryStats};
use crate::fedch::{FedChIndex, FedChView};
use crate::federation::SiloWeights;
use crate::lb::{
    FedAltMaxPotential, FedAltPotential, FedAmpsPotential, FedPotential, LandmarkPartials,
    LowerBoundKind, ZeroFedPotential,
};
use crate::partials::{JointComparator, SacComparator};
use crate::spsp::{fed_spsp, SpspOutcome};
use crate::view::{BaseView, SearchView};
use fedroad_graph::landmarks::LandmarkTable;
use fedroad_graph::{Graph, VertexId};
use fedroad_mpc::{BatchScheduler, SacStats, SchedulerStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The state one query runs against: the engine configuration, topology,
/// per-silo weights, and whatever indexes the configuration uses, each an
/// `Arc` shared with the live federation and engine it came from. Build
/// one with [`QueryEngine::snapshot`](crate::engine::QueryEngine::snapshot)
/// — a handful of reference-count bumps. It stays frozen however the live
/// federation changes afterwards: the writers copy a shared component on
/// write instead of mutating it.
#[derive(Clone, Debug)]
pub struct IndexSnapshot {
    pub(crate) config: EngineConfig,
    pub(crate) graph: Arc<Graph>,
    pub(crate) silos: Arc<Vec<SiloWeights>>,
    pub(crate) fedch: Option<Arc<FedChIndex>>,
    pub(crate) landmark_partials: Option<Arc<LandmarkPartials>>,
    pub(crate) static_table: Option<Arc<LandmarkTable>>,
}

impl IndexSnapshot {
    /// The configuration the snapshot was captured under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The index epoch the snapshot was captured at (0 without a shortcut
    /// index). Live executors tag every result with the epoch of the
    /// snapshot that answered it.
    pub fn epoch(&self) -> u64 {
        self.fedch.as_ref().map_or(0, |index| index.epoch())
    }

    /// Number of silos in the federation the snapshot came from.
    pub fn num_silos(&self) -> usize {
        self.silos.len()
    }

    /// The snapshot's topology.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Runs one SPSP query: builds the configured potential and searches
    /// the configured view, with every secure comparison going through
    /// `cmp`. The only query dispatch — the sequential engine, the
    /// executors and the security replay all call it, which makes "batch
    /// equals sequential" true by construction.
    pub(crate) fn run_spsp(
        &self,
        s: VertexId,
        t: VertexId,
        cmp: &mut dyn JointComparator,
    ) -> SpspOutcome {
        let num_silos = self.num_silos();
        // `QueryEngine::build` preprocesses landmarks (and the static
        // table) for every Alt/AltMax configuration, so these expects
        // cannot fire on an engine-built snapshot.
        let mut potential: Box<dyn FedPotential + '_> = match self.config.lower_bound {
            LowerBoundKind::None => Box::new(ZeroFedPotential::new(num_silos)),
            LowerBoundKind::Amps => Box::new(FedAmpsPotential::new(&self.graph, &self.silos, s, t)),
            LowerBoundKind::Alt { .. } => Box::new(FedAltPotential::new(
                self.landmark_partials
                    .as_deref()
                    .expect("Alt requires landmark preprocessing"),
                s,
                t,
            )),
            LowerBoundKind::AltMax { .. } => Box::new(FedAltMaxPotential::new(
                self.landmark_partials
                    .as_deref()
                    .expect("AltMax requires landmark preprocessing"),
                self.static_table.as_deref().expect("static table"),
                s,
                t,
            )),
        };
        let view: Box<dyn SearchView + '_> = match self.fedch.as_deref() {
            Some(index) => Box::new(FedChView::new(index, &self.graph)),
            None => Box::new(BaseView::new(&self.graph, &self.silos)),
        };
        fed_spsp(
            view.as_ref(),
            num_silos,
            s,
            t,
            potential.as_mut(),
            self.config.queue,
            cmp,
        )
    }
}

/// Aggregate accounting of one [`BatchExecutor::run`] — the cross-query
/// truth that per-query stats cannot carry under coalescing.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchReport {
    /// Queries executed.
    pub queries: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock seconds for the whole batch.
    pub wall_time_s: f64,
    /// Fed-SAC cost delta over the run (zero for the threaded scheduler
    /// backend, whose parties account internally per round).
    pub sac: SacStats,
    /// Coalescing counters delta over the run.
    pub scheduler: SchedulerStats,
}

/// Results plus aggregate report of one batch run.
#[derive(Clone, Debug)]
pub struct BatchOutcome {
    /// Per-query results, in input order — bit-identical to sequential
    /// execution of the same queries (pinned by the differential suite).
    pub results: Vec<QueryResult>,
    /// Aggregate accounting.
    pub report: BatchReport,
}

/// A worker pool running many SPSP queries against one [`IndexSnapshot`],
/// with every secure comparison routed through a shared cross-query
/// [`BatchScheduler`]: a [`LiveExecutor`] over a [`SnapshotCell`] nobody
/// publishes to, plus the aggregate [`BatchReport`].
pub struct BatchExecutor {
    live: LiveExecutor,
}

impl BatchExecutor {
    /// Creates an executor with `workers` threads (at least one).
    pub fn new(
        snapshot: Arc<IndexSnapshot>,
        scheduler: Arc<BatchScheduler>,
        workers: usize,
    ) -> Self {
        let cell = Arc::new(SnapshotCell::new(snapshot));
        BatchExecutor {
            live: LiveExecutor::new(cell, scheduler, workers),
        }
    }

    /// Runs every `(s, t)` query on the worker pool and returns results in
    /// input order, plus what the batch cost in aggregate.
    pub fn run(&self, queries: &[(VertexId, VertexId)]) -> BatchOutcome {
        let LiveExecutor {
            scheduler, workers, ..
        } = &self.live;
        let sac_before = scheduler.sac_cumulative_stats().unwrap_or_default();
        let sched_before = scheduler.stats();
        let start = Instant::now();
        // `is_active` so the flight recorder sees batch spans even when the
        // aggregate recorder is off; the pool's gauges gate themselves.
        let obs = fedroad_obs::is_active();
        if obs {
            fedroad_obs::span_begin(
                "executor.batch",
                &[
                    (
                        "queries",
                        fedroad_obs::ObsValue::Count(queries.len() as u64),
                    ),
                    ("workers", fedroad_obs::ObsValue::Count(*workers as u64)),
                ],
            );
        }

        let results: Vec<QueryResult> = self
            .live
            .run(queries)
            .into_iter()
            .map(|live| live.result)
            .collect();

        let sched = scheduler.stats().delta_since(&sched_before);
        let report = BatchReport {
            queries: queries.len(),
            workers: *workers,
            wall_time_s: start.elapsed().as_secs_f64(),
            sac: scheduler
                .sac_cumulative_stats()
                .unwrap_or_default()
                .delta_since(&sac_before),
            scheduler: sched,
        };
        if obs {
            fedroad_obs::counter_add("executor.queries", queries.len() as u64);
            fedroad_obs::span_end(
                "executor.batch",
                &[
                    (
                        "queries",
                        fedroad_obs::ObsValue::Count(queries.len() as u64),
                    ),
                    ("workers", fedroad_obs::ObsValue::Count(*workers as u64)),
                    ("rounds", fedroad_obs::ObsValue::Count(sched.rounds)),
                    (
                        "coalesced",
                        fedroad_obs::ObsValue::Count(sched.coalesced_requests),
                    ),
                ],
            );
        }
        BatchOutcome { results, report }
    }
}

/// Runs one query against `snapshot` inside a fresh scheduler session.
fn run_one_on(
    snapshot: &IndexSnapshot,
    scheduler: &BatchScheduler,
    s: VertexId,
    t: VertexId,
) -> QueryResult {
    let start = Instant::now();
    let session = scheduler.register();
    let mut cmp = SacComparator::session(&session, snapshot.num_silos());
    if snapshot.config.batch_rounds {
        cmp = cmp.with_batching();
    }
    let outcome = snapshot.run_spsp(s, t, &mut cmp);
    let stats = QueryStats {
        sac_invocations: cmp.invocations(),
        // Per-query round/byte attribution is undefined under
        // cross-query coalescing (a merged round belongs to every
        // query it carries); see the aggregate BatchReport.
        rounds: 0,
        bytes: 0,
        messages: 0,
        per_party_bytes: 0,
        settled: outcome.settled,
        queue_counts: outcome.queue_counts,
        queue_pushes: outcome.queue_pushes,
        wall_time_s: start.elapsed().as_secs_f64(),
    };
    QueryResult {
        path: outcome.path,
        stats,
    }
}

/// The publication point between the index updater and live queries: one
/// `Arc` slot holding the current [`IndexSnapshot`]. The updater
/// [`publish`](Self::publish)es a freshly captured snapshot after each
/// customization epoch; queries [`load`](Self::load) whatever is current
/// when they *start* and keep that `Arc` until they finish — an in-flight
/// query never observes a half-swapped index, only a slightly stale but
/// internally consistent one (tagged with its epoch).
pub struct SnapshotCell {
    current: Mutex<Arc<IndexSnapshot>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `snapshot`.
    pub fn new(snapshot: Arc<IndexSnapshot>) -> Self {
        fedroad_obs::gauge_set("executor.snapshot_epoch", snapshot.epoch());
        SnapshotCell {
            current: Mutex::new(snapshot),
        }
    }

    /// Atomically replaces the published snapshot. Readers that already
    /// hold the previous `Arc` drain on it; new loads see this one.
    pub fn publish(&self, snapshot: Arc<IndexSnapshot>) {
        fedroad_obs::gauge_set("executor.snapshot_epoch", snapshot.epoch());
        let mut guard = self
            .current
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        *guard = snapshot;
    }

    /// The currently published snapshot (an `Arc` clone; the critical
    /// section is one pointer copy).
    pub fn load(&self) -> Arc<IndexSnapshot> {
        Arc::clone(
            &self
                .current
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Epoch of the currently published snapshot.
    pub fn epoch(&self) -> u64 {
        self.load().epoch()
    }
}

/// One live query result plus the epoch of the snapshot that answered it.
#[derive(Clone, Debug)]
pub struct LiveQueryResult {
    /// The query result (bit-identical to a [`BatchExecutor`] run against
    /// the same snapshot).
    pub result: QueryResult,
    /// Epoch of the [`IndexSnapshot`] this query ran against.
    pub epoch: u64,
}

/// The worker pool: N queries, W workers, one scheduler. Reads its
/// snapshot from a [`SnapshotCell`] *per query*, so an updater thread can
/// publish new epochs while a batch is in flight, and each result records
/// which epoch answered it. Queries already running keep their snapshot
/// `Arc` until they drain.
pub struct LiveExecutor {
    cell: Arc<SnapshotCell>,
    scheduler: Arc<BatchScheduler>,
    workers: usize,
}

impl LiveExecutor {
    /// Creates a live executor with `workers` threads (at least one).
    pub fn new(cell: Arc<SnapshotCell>, scheduler: Arc<BatchScheduler>, workers: usize) -> Self {
        LiveExecutor {
            cell,
            scheduler,
            workers: workers.max(1),
        }
    }

    /// The snapshot cell queries load from.
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// Runs every `(s, t)` query on the worker pool, loading the current
    /// snapshot per query, and returns epoch-tagged results in input
    /// order.
    ///
    /// Workers claim queries from a shared cursor; each query registers a
    /// fresh scheduler session for its lifetime (registered sessions are
    /// what the round barrier waits on, so idle workers never stall
    /// in-flight queries).
    pub fn run(&self, queries: &[(VertexId, VertexId)]) -> Vec<LiveQueryResult> {
        fedroad_obs::gauge_set("executor.workers", self.workers as u64);
        fedroad_obs::gauge_set("executor.queue_depth", queries.len() as u64);
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<Option<LiveQueryResult>>> = Mutex::new(vec![None; queries.len()]);
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| loop {
                    // lint: lock-ok(the cursor only hands out indices; results are published through the slots mutex and the scope join)
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(s, t)) = queries.get(i) else {
                        break;
                    };
                    // Worker-utilization gauges: claimed-but-unfinished
                    // queries count as busy; queue depth is what nobody has
                    // claimed yet. Pure shapes, never values.
                    fedroad_obs::gauge_sub("executor.queue_depth", 1);
                    fedroad_obs::gauge_add("executor.busy_workers", 1);
                    // The load-then-run order is the whole protocol: the
                    // epoch recorded here is the snapshot the query runs
                    // on, however many publishes happen meanwhile.
                    let snapshot = self.cell.load();
                    let tagged = LiveQueryResult {
                        result: run_one_on(&snapshot, &self.scheduler, s, t),
                        epoch: snapshot.epoch(),
                    };
                    fedroad_obs::gauge_sub("executor.busy_workers", 1);
                    let mut guard = slots
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    guard[i] = Some(tagged);
                });
            }
        });
        slots
            .into_inner()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .into_iter()
            // Every slot was filled: the scope joined all workers and the
            // cursor covers every index exactly once.
            .map(|slot| slot.expect("worker filled every claimed slot"))
            .collect()
    }
}
