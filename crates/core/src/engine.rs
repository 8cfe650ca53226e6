//! The FedRoad query engine: preprocessing + configurable federated
//! queries, with per-query cost reports.
//!
//! An engine is built once per federation and configuration (which index,
//! which lower bound, which priority queue — the knobs of the paper's
//! comparative analysis, §VIII-B) and then serves SPSP and kNN queries.
//!
//! Every SPSP query, here, in [`crate::executor`] and in
//! [`crate::security`], runs against an [`IndexSnapshot`] — `Arc` handles
//! to the federation's graph and silo weights and this engine's indexes —
//! and differs only in the comparator it passes.

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::executor::IndexSnapshot;
use crate::fedch::{CustomizeStats, FedChIndex};
use crate::federation::Federation;
use crate::lb::{LandmarkPartials, LowerBoundKind};
use crate::partials::SacComparator;
use crate::sssp::{fed_sssp, FedSsspResult};
use crate::view::BaseView;
use fedroad_graph::landmarks::{select_landmarks, LandmarkTable};
use fedroad_graph::{ArcId, Direction, Path, VertexId};
use fedroad_mpc::{NetworkModel, SacStats};
use fedroad_queue::{CompareCounts, QueueKind};
use std::sync::Arc;
use std::time::Instant;

/// Engine configuration: the three optimization knobs of the paper.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Build and search over the federated shortcut index (§IV).
    pub use_shortcuts: bool,
    /// Lower-bound estimator guiding the A* search (§V).
    pub lower_bound: LowerBoundKind,
    /// Priority-queue structure (§VI).
    pub queue: QueueKind,
    /// Fraction of vertices kept as the uncontracted core of the shortcut
    /// index (the paper contracts the "unimportant" set `V_c`; queries
    /// climb the hierarchy into the core and cross it with A* pruning).
    ///
    /// [`Method::config`] gives the guided lines (a lower bound steers
    /// the A*) a larger core than the unguided +Fed-Shortcut line: with
    /// near-exact Fed-AMPS bounds the A* settles little beyond the path,
    /// so a deep hierarchy only adds the climb through `t`'s fill-in
    /// cone, while an unguided search needs the small core to prune at
    /// all. The `ablations` core sweep measures both.
    pub core_fraction: f64,
    /// Round-batching extension (off by default for paper-faithful
    /// accounting): independent comparison batches — the TM-tree's
    /// per-level tournament duels — share one Fed-SAC protocol execution,
    /// cutting communication *rounds* without changing any comparison
    /// count or result.
    pub batch_rounds: bool,
}

impl EngineConfig {
    /// Vertices the shortcut index keeps uncontracted on an `n`-vertex
    /// network: `⌈n · core_fraction⌉`, at least one and at most `n`.
    pub fn core_size(&self, n: usize) -> usize {
        (((n as f64) * self.core_fraction).ceil().max(1.0) as usize).min(n)
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Method::FedRoad.config()
    }
}

/// Core fraction of the lines whose A* a lower bound guides.
const GUIDED_CORE_FRACTION: f64 = 0.50;
/// Core fraction of the unguided +Fed-Shortcut line.
const UNGUIDED_CORE_FRACTION: f64 = 0.05;

/// The named method lines of the paper's comparative analysis (§VIII-B).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// Baseline (1): bidirectional federated Dijkstra, binary heap.
    NaiveDijk,
    /// Baseline (6): Naive-Dijk with the TM-tree (standalone component).
    NaiveDijkTm,
    /// Baseline (2): + federated shortcut index.
    FedShortcut,
    /// Baseline (4): shortcut index + Fed-ALT-Max pruning.
    FedShortcutAltMax,
    /// Extra line: shortcut index + Fed-ALT pruning (MPC-heavy estimation).
    FedShortcutAlt,
    /// Baseline (3): shortcut index + Fed-AMPS pruning.
    FedShortcutAmps,
    /// Baseline (5), the full system: shortcuts + Fed-AMPS + TM-tree.
    FedRoad,
}

impl Method {
    /// The four headline methods of Figures 7–9, in plot order.
    pub const FIGURE7: [Method; 4] = [
        Method::NaiveDijk,
        Method::FedShortcut,
        Method::FedShortcutAmps,
        Method::FedRoad,
    ];

    /// Display name matching the paper's legends.
    pub fn name(self) -> &'static str {
        match self {
            Method::NaiveDijk => "Naive-Dijk",
            Method::NaiveDijkTm => "Naive-Dijk+TM-tree",
            Method::FedShortcut => "+Fed-Shortcut",
            Method::FedShortcutAltMax => "+Fed-ALT-Max",
            Method::FedShortcutAlt => "+Fed-ALT",
            Method::FedShortcutAmps => "+Fed-AMPS",
            Method::FedRoad => "+TM-tree (FedRoad)",
        }
    }

    /// The engine configuration this method denotes.
    pub fn config(self) -> EngineConfig {
        let (use_shortcuts, lower_bound, queue) = match self {
            Method::NaiveDijk => (false, LowerBoundKind::None, QueueKind::Heap),
            Method::NaiveDijkTm => (false, LowerBoundKind::None, QueueKind::TmTree),
            Method::FedShortcut => (true, LowerBoundKind::None, QueueKind::Heap),
            Method::FedShortcutAltMax => (
                true,
                LowerBoundKind::AltMax { num_landmarks: 32 },
                QueueKind::Heap,
            ),
            Method::FedShortcutAlt => (
                true,
                LowerBoundKind::Alt { num_landmarks: 32 },
                QueueKind::Heap,
            ),
            Method::FedShortcutAmps => (true, LowerBoundKind::Amps, QueueKind::Heap),
            Method::FedRoad => (true, LowerBoundKind::Amps, QueueKind::TmTree),
        };
        // Each line family's core minimises the geometric mean of query
        // Fed-SACs over CAL-S, BJ-S and FLA-S in the `ablations` core
        // sweep (results/ablations.json). Every guided line shares one
        // core, so the figures' TM-tree step compares like with like.
        let core_fraction = match lower_bound {
            LowerBoundKind::None => UNGUIDED_CORE_FRACTION,
            _ => GUIDED_CORE_FRACTION,
        };
        EngineConfig {
            use_shortcuts,
            lower_bound,
            queue,
            core_fraction,
            batch_rounds: false,
        }
    }
}

/// Cost report of one query (or one preprocessing run).
#[derive(Clone, Copy, Debug, Default)]
pub struct QueryStats {
    /// Fed-SAC invocations — the paper's primary cost driver.
    pub sac_invocations: u64,
    /// MPC communication rounds.
    pub rounds: u64,
    /// Total online bytes across silos.
    pub bytes: u64,
    /// Total messages across silos.
    pub messages: u64,
    /// Average per-silo online bytes (what Figure 8 reports).
    pub per_party_bytes: u64,
    /// Vertices settled across both search directions.
    pub settled: usize,
    /// Priority-queue comparisons by phase.
    pub queue_counts: CompareCounts,
    /// Items pushed into the priority queues.
    pub queue_pushes: u64,
    /// Wall-clock seconds of local computation.
    pub wall_time_s: f64,
}

impl QueryStats {
    /// Modeled end-to-end time: local wall time plus network time under
    /// `model` (the paper's `R·(L + S/B)` applied to the recorded traffic).
    pub fn modeled_time_s(&self, model: &NetworkModel) -> f64 {
        let net = fedroad_mpc::NetStats {
            rounds: self.rounds,
            messages: self.messages,
            bytes: self.bytes,
            per_party_bytes: self.per_party_bytes,
        };
        self.wall_time_s + model.modeled_time_s(&net)
    }

    fn from_delta(before: &SacStats, after: &SacStats, wall: f64) -> Self {
        QueryStats {
            sac_invocations: after.invocations - before.invocations,
            rounds: after.net.rounds - before.net.rounds,
            bytes: after.net.bytes - before.net.bytes,
            messages: after.net.messages - before.net.messages,
            per_party_bytes: after.net.per_party_bytes - before.net.per_party_bytes,
            settled: 0,
            queue_counts: CompareCounts::default(),
            queue_pushes: 0,
            wall_time_s: wall,
        }
    }
}

/// Result of a federated SPSP query: the path (the only sensitive-free
/// output — joint costs are never revealed) plus the cost report.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The joint shortest path, or `None` when unreachable.
    pub path: Option<Path>,
    /// Cost accounting for this query.
    pub stats: QueryStats,
}

/// A built FedRoad query engine.
#[derive(Debug)]
pub struct QueryEngine {
    config: EngineConfig,
    fedch: Option<Arc<FedChIndex>>,
    landmark_partials: Option<Arc<LandmarkPartials>>,
    static_table: Option<Arc<LandmarkTable>>,
    preprocessing: QueryStats,
}

impl QueryEngine {
    /// Runs all preprocessing the configuration requires: federated
    /// shortcut-index construction (Algorithm 3) and/or collaborative
    /// landmark-table computation.
    pub fn build(fed: &mut Federation, config: EngineConfig) -> Self {
        Self::build_with(fed, config, None)
    }

    /// Like [`Self::build`], but reuses a previously built shortcut index
    /// when the configuration wants one — the index depends only on the
    /// federation and the core size, not on the lower bound or queue
    /// choice, so experiment sweeps share one construction per core (by
    /// `Arc`, without copying it).
    ///
    /// # Panics
    ///
    /// If `shared_index` keeps a different number of core vertices than
    /// `config` asks for: handing a line another line's index is a bug in
    /// the caller.
    pub fn build_with(
        fed: &mut Federation,
        config: EngineConfig,
        shared_index: Option<&Arc<FedChIndex>>,
    ) -> Self {
        let before = fed.sac_cumulative_stats();
        let start = Instant::now();
        let _span = fedroad_obs::span("engine.build");

        let core_size = config.core_size(fed.graph().num_vertices());
        let graph = Arc::clone(&fed.graph);
        let fedch = std::thread::scope(|scope| {
            // Fed-AMPS aims its sweeps with the graph's landmark bounds:
            // compute them beside the index build, not in the first query.
            if config.lower_bound == LowerBoundKind::Amps {
                scope.spawn(|| graph.landmark_bounds());
            }
            config.use_shortcuts.then(|| match shared_index {
                Some(index) => {
                    if index.core_size() != core_size {
                        // lint: panic-ok(a mismatched shared index is a caller bug, not a protocol input)
                        panic!(
                            "shared shortcut index keeps {} core vertices, but this \
                             configuration needs {core_size}",
                            index.core_size()
                        );
                    }
                    Arc::clone(index)
                }
                None => {
                    let (graph, silos, engine) = fed.split_mut();
                    let mut cmp = SacComparator::new(engine);
                    Arc::new(FedChIndex::build(graph, silos, core_size, &mut cmp))
                }
            })
        });

        let num_landmarks = match config.lower_bound {
            LowerBoundKind::Alt { num_landmarks } | LowerBoundKind::AltMax { num_landmarks } => {
                Some(num_landmarks)
            }
            _ => None,
        };
        let (landmark_partials, static_table) = match num_landmarks {
            Some(count) => {
                let landmarks = select_landmarks(fed.graph(), count);
                let static_table =
                    LandmarkTable::compute(fed.graph(), fed.graph().static_weights(), &landmarks);
                let num_silos = fed.num_silos();
                let (graph, silos, engine) = fed.split_mut();
                let mut cmp = SacComparator::new(engine);
                let view = BaseView::new(graph, silos);
                let tables = LandmarkPartials::build(&view, num_silos, &landmarks, &mut cmp);
                (Some(Arc::new(tables)), Some(Arc::new(static_table)))
            }
            None => (None, None),
        };

        let preprocessing = QueryStats::from_delta(
            &before,
            &fed.sac_cumulative_stats(),
            start.elapsed().as_secs_f64(),
        );
        QueryEngine {
            config,
            fedch,
            landmark_partials,
            static_table,
            preprocessing,
        }
    }

    /// The configuration this engine was built with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Costs of the preprocessing phase.
    pub fn preprocessing_stats(&self) -> &QueryStats {
        &self.preprocessing
    }

    /// The shortcut index, when configured (test/bench hook).
    pub fn fedch(&self) -> Option<&FedChIndex> {
        self.fedch.as_deref()
    }

    /// The state every query reads — configuration, topology, silo
    /// weights, and this engine's indexes — as `Arc` handles, for the
    /// sequential path below and for concurrent execution via
    /// [`BatchExecutor`](crate::executor::BatchExecutor). Capturing copies
    /// nothing, and the snapshot stays frozen: later weight refreshes or
    /// [`Self::update_index`] calls copy on write instead of reaching it.
    pub fn snapshot(&self, fed: &Federation) -> IndexSnapshot {
        IndexSnapshot {
            config: self.config,
            graph: Arc::clone(&fed.graph),
            silos: Arc::clone(&fed.silos),
            fedch: self.fedch.clone(),
            landmark_partials: self.landmark_partials.clone(),
            static_table: self.static_table.clone(),
        }
    }

    /// Answers a single-pair shortest-path query.
    pub fn spsp(&self, fed: &mut Federation, s: VertexId, t: VertexId) -> QueryResult {
        let before = fed.sac_cumulative_stats();
        let start = Instant::now();
        let _span = fedroad_obs::span("query.spsp");
        let outcome = {
            let snapshot = self.snapshot(fed);
            let mut cmp = SacComparator::new(fed.engine_mut());
            if self.config.batch_rounds {
                cmp = cmp.with_batching();
            }
            snapshot.run_spsp(s, t, &mut cmp)
        };
        let wall = start.elapsed().as_secs_f64();
        let mut stats = QueryStats::from_delta(&before, &fed.sac_cumulative_stats(), wall);
        stats.settled = outcome.settled;
        stats.queue_counts = outcome.queue_counts;
        stats.queue_pushes = outcome.queue_pushes;
        QueryResult {
            path: outcome.path,
            stats,
        }
    }

    /// Like [`Self::spsp`], but with the global recorder enabled for the
    /// duration of the query, returning the captured
    /// [`fedroad_obs::QueryTrace`] alongside the result: the phase
    /// timeline (shortcut climb, core A*, per-execution Fed-SAC spans,
    /// TM-tree level instants) plus cost totals that match
    /// [`QueryStats`] exactly. Only events recorded on the calling thread
    /// are captured, so concurrent recorder users don't pollute the trace.
    pub fn spsp_traced(
        &self,
        fed: &mut Federation,
        s: VertexId,
        t: VertexId,
    ) -> (QueryResult, fedroad_obs::QueryTrace) {
        let was_enabled = fedroad_obs::is_enabled();
        fedroad_obs::enable();
        let begin_ns = fedroad_obs::now_ns();
        let before = fed.sac_cumulative_stats();
        let batches_before = fed.engine().batch_count();
        let (result, events) = fedroad_obs::capture(|| self.spsp(fed, s, t));
        let after = fed.sac_cumulative_stats();
        let end_ns = fedroad_obs::now_ns();
        if !was_enabled {
            fedroad_obs::disable();
        }
        let delta = after.delta_since(&before);
        let trace = fedroad_obs::QueryTrace {
            label: format!("spsp {}->{}", s.0, t.0),
            begin_ns,
            end_ns,
            events,
            totals: fedroad_obs::QueryTotals {
                sac_invocations: delta.invocations,
                sac_batches: fed.engine().batch_count() - batches_before,
                rounds: delta.net.rounds,
                messages: delta.net.messages,
                bytes: delta.net.bytes,
                per_party_bytes: delta.net.per_party_bytes,
            },
        };
        (result, trace)
    }

    /// Answers a kNN (truncated single-source) query: the `k` vertices
    /// nearest to `source` on the WJRN, with their paths (Algorithm 1).
    ///
    /// Always runs on the base network, per the paper's Fed-SSSP.
    pub fn knn(
        &self,
        fed: &mut Federation,
        source: VertexId,
        k: usize,
    ) -> (Vec<(VertexId, Path)>, QueryStats) {
        let before = fed.sac_cumulative_stats();
        let start = Instant::now();
        let _span = fedroad_obs::span("query.knn");
        let num_silos = fed.num_silos();
        let n = fed.graph().num_vertices();
        let result: FedSsspResult = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            if self.config.batch_rounds {
                cmp = cmp.with_batching();
            }
            let view = BaseView::new(graph, silos);
            fed_sssp(
                &view,
                num_silos,
                source,
                k,
                Direction::Forward,
                self.config.queue,
                &mut cmp,
            )
        };
        let wall = start.elapsed().as_secs_f64();
        let mut stats = QueryStats::from_delta(&before, &fed.sac_cumulative_stats(), wall);
        stats.settled = result.settled.len();
        stats.queue_counts = result.queue_counts;
        stats.queue_pushes = result.queue_pushes;
        let out = result
            .settled
            .iter()
            // lint: panic-ok(every vertex in `settled` has a parent chain by construction)
            .map(|(v, _)| (*v, result.path_to(*v, n).expect("settled")))
            .collect();
        (out, stats)
    }

    /// Answers a full single-source query: joint shortest paths from
    /// `source` to **every** reachable vertex (the paper's SSSP; a kNN
    /// with `k = |V|`).
    pub fn sssp(
        &self,
        fed: &mut Federation,
        source: VertexId,
    ) -> (Vec<(VertexId, Path)>, QueryStats) {
        let n = fed.graph().num_vertices();
        self.knn(fed, source, n)
    }

    /// Propagates a real-time weight refresh into the shortcut index
    /// (§IV "Federated Index Updating"). No-op without an index. An empty
    /// change list leaves the index, and any snapshot sharing it,
    /// untouched; otherwise the index is copied first if a snapshot still
    /// holds it.
    pub fn update_index(
        &mut self,
        fed: &mut Federation,
        changed_arcs: &[ArcId],
    ) -> Option<CustomizeStats> {
        let index = self.fedch.as_mut()?;
        if changed_arcs.is_empty() {
            return Some(CustomizeStats::default());
        }
        let index = Arc::make_mut(index);
        let (graph, silos, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        Some(index.update(graph, silos, changed_arcs, &mut cmp))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::federation::FederationConfig;
    use crate::oracle::JointOracle;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;

    fn make_fed(seed: u64) -> Federation {
        let g = grid_city(&GridCityParams::small(), seed);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, seed);
        Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed,
            },
        )
    }

    #[test]
    fn build_leaves_the_landmark_bounds_amps_reads_computed() {
        let mut fed = make_fed(53);
        assert!(!fed.graph().has_landmark_bounds());
        QueryEngine::build(&mut fed, Method::FedShortcut.config());
        assert!(
            !fed.graph().has_landmark_bounds(),
            "only Fed-AMPS reads them"
        );
        QueryEngine::build(&mut fed, Method::FedRoad.config());
        assert!(
            fed.graph().has_landmark_bounds(),
            "the first query must not pay"
        );
    }

    #[test]
    fn every_method_answers_exactly() {
        let methods = [
            Method::NaiveDijk,
            Method::NaiveDijkTm,
            Method::FedShortcut,
            Method::FedShortcutAltMax,
            Method::FedShortcutAlt,
            Method::FedShortcutAmps,
            Method::FedRoad,
        ];
        let mut fed = make_fed(51);
        let oracle = JointOracle::new(&fed);
        let n = fed.graph().num_vertices() as u32;
        let pairs = [(0, n - 1), (7, 70), (93, 11)];
        for method in methods {
            let engine = QueryEngine::build(&mut fed, method.config());
            for &(s, t) in &pairs {
                let (s, t) = (VertexId(s), VertexId(t));
                let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
                let result = engine.spsp(&mut fed, s, t);
                let path = result.path.expect("connected");
                let cost = oracle.path_cost_scaled(&fed, &path).unwrap();
                assert_eq!(cost, truth, "{} wrong on {s}->{t}", method.name());
                assert!(result.stats.sac_invocations > 0);
            }
        }
    }

    #[test]
    fn optimizations_reduce_sac_usage_in_order() {
        // The paper's headline: each added technique reduces Fed-SAC usage.
        // Needs a city big enough for hierarchy and pruning to pay off
        // (on toy grids the constant costs dominate).
        let g = grid_city(&GridCityParams::with_target_vertices(550), 53);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 53);
        let mut fed = Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed: 53,
            },
        );
        let n = fed.graph().num_vertices() as u32;
        // Average over several long queries.
        let pairs = [(0, n - 1), (22, n - 3), (n / 2, n - 1), (1, n - 30)];
        let mut sacs = Vec::new();
        for method in Method::FIGURE7 {
            let engine = QueryEngine::build(&mut fed, method.config());
            let total: u64 = pairs
                .iter()
                .map(|&(s, t)| {
                    engine
                        .spsp(&mut fed, VertexId(s), VertexId(t))
                        .stats
                        .sac_invocations
                })
                .sum();
            sacs.push((method.name(), total));
        }
        // Naive > Shortcut > AMPS > TM-tree.
        assert!(sacs[0].1 > sacs[1].1, "shortcuts must beat naive: {sacs:?}");
        assert!(sacs[1].1 > sacs[2].1, "AMPS must beat shortcuts: {sacs:?}");
        assert!(sacs[2].1 > sacs[3].1, "TM-tree must beat heap: {sacs:?}");
    }

    #[test]
    fn fedroad_core_spends_fewer_fedsacs_than_the_old_default() {
        // Pins the per-line core decision: FedRoad at its own core answers
        // exactly and beats the 10 % core every line used to share.
        let mut fed = make_fed(67);
        let oracle = JointOracle::new(&fed);
        let n = fed.graph().num_vertices() as u32;
        let pairs = [(0, n - 1), (7, 70), (93, 11), (n / 2, 3), (n - 5, 40)];
        let mut query_sacs = |config: EngineConfig| -> u64 {
            let engine = QueryEngine::build(&mut fed, config);
            pairs
                .iter()
                .map(|&(s, t)| {
                    let (s, t) = (VertexId(s), VertexId(t));
                    let result = engine.spsp(&mut fed, s, t);
                    let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
                    let cost = oracle.path_cost_scaled(&fed, &result.path.unwrap());
                    assert_eq!(
                        cost,
                        Some(truth),
                        "core {} on {s}->{t}",
                        config.core_fraction
                    );
                    result.stats.sac_invocations
                })
                .sum()
        };
        let chosen = query_sacs(Method::FedRoad.config());
        let old_default = query_sacs(EngineConfig {
            core_fraction: 0.10,
            ..Method::FedRoad.config()
        });
        assert!(
            chosen < old_default,
            "FedRoad's core must beat 10 %: {chosen} !< {old_default}"
        );
    }

    #[test]
    fn build_with_refuses_an_index_of_another_core() {
        let mut fed = make_fed(69);
        let n = fed.graph().num_vertices();
        let guided = QueryEngine::build(&mut fed, Method::FedRoad.config());
        let index = Arc::new(guided.fedch().unwrap().clone());
        let unguided = Method::FedShortcut.config();
        let (have, want) = (index.core_size(), unguided.core_size(n));
        assert_ne!(have, want, "the two lines should use different cores");
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            QueryEngine::build_with(&mut fed, unguided, Some(&index))
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(
            msg.contains(&format!("keeps {have} core vertices"))
                && msg.contains(&format!("needs {want}")),
            "{msg}"
        );
    }

    #[test]
    fn core_size_rounds_up_and_stays_in_range() {
        let at = |core_fraction: f64| EngineConfig {
            core_fraction,
            ..Method::FedRoad.config()
        };
        assert_eq!(at(0.10).core_size(95), 10);
        assert_eq!(at(0.0).core_size(95), 1);
        assert_eq!(at(1.0).core_size(95), 95);
        assert_eq!(at(1.5).core_size(95), 95);
    }

    #[test]
    fn knn_matches_oracle_order() {
        let mut fed = make_fed(55);
        let oracle = JointOracle::new(&fed);
        let engine = QueryEngine::build(&mut fed, Method::NaiveDijkTm.config());
        let source = VertexId(10);
        let (results, stats) = engine.knn(&mut fed, source, 6);
        assert_eq!(results.len(), 6);
        assert!(stats.sac_invocations > 0);
        let truth = oracle.sssp_scaled(&fed, source);
        let dists: Vec<u64> = results
            .iter()
            .map(|(_, p)| oracle.path_cost_scaled(&fed, p).unwrap())
            .collect();
        assert!(dists.windows(2).all(|w| w[0] <= w[1]));
        for ((v, _), d) in results.iter().zip(&dists) {
            assert_eq!(*d, truth[v.index()]);
        }
    }

    #[test]
    fn full_sssp_covers_every_vertex_optimally() {
        let mut fed = make_fed(63);
        let oracle = JointOracle::new(&fed);
        let engine = QueryEngine::build(&mut fed, Method::NaiveDijkTm.config());
        let source = VertexId(5);
        let (results, _) = engine.sssp(&mut fed, source);
        assert_eq!(results.len(), fed.graph().num_vertices());
        let truth = oracle.sssp_scaled(&fed, source);
        for (v, path) in &results {
            assert_eq!(
                oracle.path_cost_scaled(&fed, path),
                Some(truth[v.index()]),
                "SSSP path to {v} not optimal"
            );
        }
    }

    #[test]
    fn preprocessing_stats_are_recorded() {
        let mut fed = make_fed(57);
        let engine = QueryEngine::build(&mut fed, Method::FedShortcutAlt.config());
        let pre = engine.preprocessing_stats();
        assert!(pre.sac_invocations > 0, "index + tables need MPC work");
        assert!(engine.fedch().is_some());
    }

    #[test]
    fn round_batching_preserves_results_and_cuts_rounds() {
        let mut fed = make_fed(61);
        let n = fed.graph().num_vertices() as u32;
        let plain_cfg = Method::FedRoad.config();
        let batched_cfg = EngineConfig {
            batch_rounds: true,
            ..plain_cfg
        };
        let plain = QueryEngine::build(&mut fed, plain_cfg);
        let batched = QueryEngine::build(&mut fed, batched_cfg);
        for (s, t) in [(0, n - 1), (7, 70)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let a = plain.spsp(&mut fed, s, t);
            let b = batched.spsp(&mut fed, s, t);
            assert_eq!(a.path, b.path, "batching must not change results");
            assert_eq!(
                a.stats.sac_invocations, b.stats.sac_invocations,
                "comparison count unchanged"
            );
            assert!(
                b.stats.rounds < a.stats.rounds,
                "batching must reduce rounds: {} !< {}",
                b.stats.rounds,
                a.stats.rounds
            );
        }
    }

    #[test]
    fn index_update_keeps_queries_exact() {
        let mut fed = make_fed(59);
        let mut engine = QueryEngine::build(&mut fed, Method::FedRoad.config());
        // Perturb silo 0 on a few arcs.
        let m = fed.graph().num_arcs();
        let changed: Vec<ArcId> = (0..m).step_by(61).map(|i| ArcId(i as u32)).collect();
        let mut w = fed.silo(0).as_slice().to_vec();
        for a in &changed {
            w[a.index()] += 29;
        }
        fed.update_silo_weights(0, w);
        engine.update_index(&mut fed, &changed).expect("has index");

        let oracle = JointOracle::new(&fed);
        let n = fed.graph().num_vertices() as u32;
        for (s, t) in [(0, n - 1), (33, 66)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
            let result = engine.spsp(&mut fed, s, t);
            let cost = oracle
                .path_cost_scaled(&fed, &result.path.unwrap())
                .unwrap();
            assert_eq!(cost, truth);
        }
    }
}
