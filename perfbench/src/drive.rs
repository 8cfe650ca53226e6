//! The timed phases: closed-loop query clients, the updater beside them,
//! and the records both leave behind.

use crate::setup::Instance;
use crate::trace::{ns_since, traced_query, Split, TracedParts};
use crate::workload::{WorkloadSpec, SILOS};
use fedroad_core::{
    BatchExecutor, FedChIndex, Federation, IndexSnapshot, LiveExecutor, QueryEngine, SiloWeights,
    SnapshotCell, WeightChange,
};
use fedroad_graph::traffic::{CongestionLevel, CongestionWave};
use fedroad_graph::{Graph, Path, VertexId, Weight};
use fedroad_mpc::{BatchScheduler, SacBackend, SacEngine, SacStats, SchedulerStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Congestion-wave radius in hops.
const WAVE_RADIUS: usize = 2;

/// One congestion-wave tick is due every this often.
const TICK_PERIOD: Duration = Duration::from_millis(200);

/// When a phase stops issuing queries.
#[derive(Clone, Copy, Debug)]
pub struct Limit {
    /// Measured duration.
    pub duration: Duration,
    /// Stop after this many queries, whichever comes first.
    pub max_ops: Option<usize>,
    /// Run the updater for exactly this many ticks instead of until the
    /// clients stop.
    pub ticks: Option<usize>,
}

/// What one answered query returned.
#[derive(Clone, Debug)]
pub struct Answer {
    /// The path.
    pub path: Option<Path>,
    /// Fed-SAC invocations the query made.
    pub fedsac: u64,
    /// Epoch of the snapshot that answered.
    pub epoch: u64,
    /// Published epoch when the query returned, minus `epoch`.
    pub lag: u64,
    /// The traced run's path equalled the untraced call's path (`None`
    /// when not checked inline).
    pub matches_untraced: Option<bool>,
}

/// One attempted query.
#[derive(Clone, Debug)]
pub struct Op {
    /// Index into the OD-pair list.
    pub pair: usize,
    /// Wall time around the public call (traced: the split's wall).
    pub wall_ns: u64,
    /// The answer, or the panic message.
    pub result: Result<Answer, String>,
    /// Where the time went (traced run only).
    pub split: Option<Split>,
}

/// One updater tick: a batch of weight updates handed in, and what the
/// program did with it.
#[derive(Clone, Debug, Default)]
pub struct Tick {
    /// The weight updates handed in.
    pub changes: Vec<WeightChange>,
    /// In `Federation::apply_weight_updates`.
    pub apply_ns: u64,
    /// In `QueryEngine::update_index`.
    pub customize_ns: u64,
    /// In `QueryEngine::snapshot`.
    pub capture_ns: u64,
    /// In `SnapshotCell::publish`.
    pub publish_ns: u64,
    /// Fed-SAC invocations of the customization.
    pub customize_fedsac: u64,
    /// Overlay arcs recomputed.
    pub touched: u64,
    /// Overlay arcs whose weight changed.
    pub changed: u64,
    /// Index epoch after the tick.
    pub epoch: u64,
    /// Whether the tick bumped the epoch and published a snapshot.
    pub published: bool,
    /// The tick panicked.
    pub failed: bool,
}

impl Tick {
    /// Wall time from handing the updates in to the new snapshot being
    /// published.
    pub fn epoch_ns(&self) -> u64 {
        self.apply_ns + self.customize_ns + self.capture_ns + self.publish_ns
    }
}

/// Records of one timed phase.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Every attempted query, in the order it was sent.
    pub ops: Vec<Op>,
    /// Updater ticks, in order.
    pub ticks: Vec<Tick>,
    /// Seconds from the first query sent to the last one returned.
    pub wall_s: f64,
    /// Scheduler engine Fed-SAC cost over the phase.
    pub sac: SacStats,
    /// Scheduler coalescing counters over the phase.
    pub sched: SchedulerStats,
}

/// Runs `clients` closed-loop clients: each takes the next OD pair from a
/// shared cursor (cycling through `num_pairs`), calls `op` on it and only
/// then takes the next, until `limit` says stop. A panicking op is caught
/// and recorded as failed.
fn closed_loop<F>(clients: usize, limit: &Limit, num_pairs: usize, op: F) -> (Vec<Op>, f64)
where
    F: Fn(usize) -> (Answer, Option<Split>) + Sync,
{
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let mut ops: Vec<(usize, Op)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while start.elapsed() < limit.duration {
                        let seq = cursor.fetch_add(1, Ordering::Relaxed);
                        if limit.max_ops.is_some_and(|max| seq >= max) {
                            break;
                        }
                        let pair = seq % num_pairs;
                        let op_start = Instant::now();
                        let outcome = catch_unwind(AssertUnwindSafe(|| op(pair)));
                        let wall_ns = ns_since(op_start);
                        let op = match outcome {
                            Ok((answer, split)) => Op {
                                pair,
                                wall_ns: split.as_ref().map_or(wall_ns, |s| s.wall),
                                result: Ok(answer),
                                split,
                            },
                            Err(panic) => Op {
                                pair,
                                wall_ns,
                                result: Err(panic_message(panic.as_ref())),
                                split: None,
                            },
                        };
                        mine.push((seq, op));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client loop catches op panics"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    ops.sort_by_key(|(seq, _)| *seq);
    (ops.into_iter().map(|(_, op)| op).collect(), wall_s)
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}

/// A copy of the state queries read, owned by the benchmark, so that the
/// traced run can call the query's public pieces itself; published beside
/// the program's snapshot of the same epoch.
pub struct TracedSnapshot {
    graph: Arc<Graph>,
    silos: Vec<SiloWeights>,
    index: FedChIndex,
    program: Arc<IndexSnapshot>,
}

impl TracedSnapshot {
    fn capture(
        graph: &Arc<Graph>,
        fed: &Federation,
        engine: &QueryEngine,
        program: Arc<IndexSnapshot>,
    ) -> Self {
        TracedSnapshot {
            graph: Arc::clone(graph),
            silos: fed.silos().to_vec(),
            index: engine.fedch().expect("FedRoad builds an index").clone(),
            program,
        }
    }

    fn parts(&self) -> TracedParts<'_> {
        TracedParts {
            graph: &self.graph,
            silos: &self.silos,
            index: &self.index,
            queue: self.program.config().queue,
        }
    }
}

/// Where the updater publishes and the live client loads.
struct Cells {
    /// The program's snapshot cell.
    program: Arc<SnapshotCell>,
    /// The benchmark's copy of the same epoch (traced phases only).
    traced: Mutex<Option<Arc<TracedSnapshot>>>,
}

impl Cells {
    fn set_traced(&self, copy: TracedSnapshot) {
        *self.traced.lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::new(copy));
    }

    fn load_traced(&self) -> Arc<TracedSnapshot> {
        let guard = self.traced.lock().unwrap_or_else(|p| p.into_inner());
        Arc::clone(guard.as_ref().expect("set before the traced phase"))
    }
}

/// Updater state carried from one phase to the next.
pub struct Live {
    wave: CongestionWave,
    cells: Cells,
}

impl Live {
    /// Starts the live state: a wave seeded from `wave_seed` and a cell
    /// publishing the instance's first snapshot.
    pub fn new(inst: &Instance, wave_seed: u64) -> Self {
        Live {
            wave: CongestionWave::new(
                &inst.graph,
                SILOS,
                CongestionLevel::Heavy,
                WAVE_RADIUS,
                wave_seed,
            ),
            cells: Cells {
                program: Arc::new(SnapshotCell::new(Arc::clone(&inst.snapshot))),
                traced: Mutex::new(None),
            },
        }
    }
}

/// One tick: hand the wave's next updates to the program and, when the
/// index changed, publish the new epoch.
fn one_tick(
    fed: &mut Federation,
    engine: &mut QueryEngine,
    cell: &SnapshotCell,
    changes: &[WeightChange],
) -> (Tick, Option<Arc<IndexSnapshot>>) {
    let mut tick = Tick::default();
    let epoch_of = |engine: &QueryEngine| engine.fedch().map_or(0, |i| i.epoch());
    let before = epoch_of(engine);
    let start = Instant::now();
    let changed = fed.apply_weight_updates(changes);
    tick.apply_ns = ns_since(start);
    let sac_before = fed.sac_cumulative_stats().invocations;
    let start = Instant::now();
    let stats = engine.update_index(fed, &changed).unwrap_or_default();
    tick.customize_ns = ns_since(start);
    tick.customize_fedsac = fed.sac_cumulative_stats().invocations - sac_before;
    tick.touched = stats.touched;
    tick.changed = stats.changed;
    tick.epoch = epoch_of(engine);
    let mut published = None;
    if tick.epoch != before {
        let start = Instant::now();
        let snapshot = Arc::new(engine.snapshot(fed));
        tick.capture_ns = ns_since(start);
        let start = Instant::now();
        cell.publish(Arc::clone(&snapshot));
        tick.publish_ns = ns_since(start);
        tick.published = true;
        published = Some(snapshot);
    }
    (tick, published)
}

/// The updater thread's borrowed state.
struct Updater<'a> {
    graph: &'a Arc<Graph>,
    quiescent: &'a [Vec<Weight>],
    fed: &'a mut Federation,
    engine: &'a mut QueryEngine,
    wave: &'a mut CongestionWave,
    cells: &'a Cells,
    traced: bool,
}

impl Updater<'_> {
    /// Runs ticks back to back until `stop` (or for exactly `ticks`). A
    /// panicking tick is recorded as failed and ends the updater.
    fn run(self, stop: &AtomicBool, ticks: Option<usize>) -> Vec<Tick> {
        let Updater {
            graph,
            quiescent,
            fed,
            engine,
            wave,
            cells,
            traced,
        } = self;
        let mut out: Vec<Tick> = Vec::new();
        let mut due = Instant::now();
        while match ticks {
            Some(n) => out.len() < n,
            None => !stop.load(Ordering::Relaxed),
        } {
            let changes: Vec<WeightChange> = wave
                .tick(graph, quiescent)
                .iter()
                .map(|u| WeightChange {
                    arc: u.arc,
                    silo: u.silo,
                    weight: u.weight,
                })
                .collect();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                one_tick(fed, engine, &cells.program, &changes)
            }));
            let Ok((mut tick, published)) = outcome else {
                out.push(Tick {
                    changes,
                    failed: true,
                    ..Tick::default()
                });
                break;
            };
            if let (true, Some(program)) = (traced, published) {
                cells.set_traced(TracedSnapshot::capture(graph, fed, engine, program));
            }
            tick.changes = changes;
            out.push(tick);
            due = (due + TICK_PERIOD).max(Instant::now());
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
        }
        out
    }
}

/// A scheduler for re-answering queries outside the timed spans (the
/// Modeled backend reveals the same bits as the Real one, faster).
pub fn check_scheduler() -> Arc<BatchScheduler> {
    Arc::new(BatchScheduler::lockstep(SacEngine::new(
        SILOS,
        SacBackend::Modeled,
        1,
    )))
}

/// Runs one timed phase of `spec` on `inst`: untraced (the program's
/// executors answer every query) or traced (the benchmark calls the
/// query's public pieces and splits their time). With `live`, an updater
/// thread streams the wave's updates beside the client.
pub fn run_phase(
    spec: &WorkloadSpec,
    inst: &mut Instance,
    live: Option<&mut Live>,
    pairs: &[(VertexId, VertexId)],
    limit: &Limit,
    traced: bool,
) -> Phase {
    let sac_before = inst.scheduler.sac_cumulative_stats().unwrap_or_default();
    let sched_before = inst.scheduler.stats();
    let Instance {
        graph,
        quiescent,
        fed,
        engine,
        snapshot,
        scheduler: shared,
        ..
    } = inst;
    let scheduler: &BatchScheduler = shared;
    let (ops, wall_s, ticks) = match live {
        None if !traced => {
            let executor = BatchExecutor::new(Arc::clone(snapshot), Arc::clone(shared), 1);
            let (ops, wall_s) = closed_loop(spec.clients, limit, pairs.len(), |i| {
                let mut out = executor.run(&pairs[i..=i]);
                let result = out.results.pop().expect("one query, one result");
                let answer = Answer {
                    path: result.path,
                    fedsac: result.stats.sac_invocations,
                    epoch: snapshot.epoch(),
                    lag: 0,
                    matches_untraced: None,
                };
                (answer, None)
            });
            (ops, wall_s, Vec::new())
        }
        None => {
            let parts = TracedParts {
                graph: fed.graph(),
                silos: fed.silos(),
                index: engine.fedch().expect("FedRoad builds an index"),
                queue: engine.config().queue,
            };
            let (ops, wall_s) = closed_loop(spec.clients, limit, pairs.len(), |i| {
                let (s, t) = pairs[i];
                let (path, split) = traced_query(&parts, scheduler, s, t);
                let answer = Answer {
                    path,
                    fedsac: split.fedsac_pairs(),
                    epoch: snapshot.epoch(),
                    lag: 0,
                    matches_untraced: None,
                };
                (answer, Some(split))
            });
            (ops, wall_s, Vec::new())
        }
        Some(live) => {
            let Live { wave, cells } = live;
            let cells: &Cells = cells;
            if traced {
                cells.set_traced(TracedSnapshot::capture(
                    graph,
                    fed,
                    engine,
                    cells.program.load(),
                ));
            }
            let executor = LiveExecutor::new(Arc::clone(&cells.program), Arc::clone(shared), 1);
            let checker = check_scheduler();
            let stop = AtomicBool::new(false);
            let updater = Updater {
                graph,
                quiescent,
                fed,
                engine,
                wave,
                cells,
                traced,
            };
            std::thread::scope(|scope| {
                let stop = &stop;
                let handle = scope.spawn(move || updater.run(stop, limit.ticks));
                let (ops, wall_s) = closed_loop(spec.clients, limit, pairs.len(), |i| {
                    if traced {
                        live_traced_op(cells, scheduler, &checker, pairs[i])
                    } else {
                        live_op(&executor, &cells.program, pairs[i])
                    }
                });
                stop.store(true, Ordering::Relaxed);
                let ticks = handle.join().expect("the updater catches tick panics");
                (ops, wall_s, ticks)
            })
        }
    };
    Phase {
        ops,
        ticks,
        wall_s,
        sac: scheduler
            .sac_cumulative_stats()
            .unwrap_or_default()
            .delta_since(&sac_before),
        sched: scheduler.stats().delta_since(&sched_before),
    }
}

/// One untraced live query: the executor loads the current epoch.
fn live_op(
    executor: &LiveExecutor,
    cell: &SnapshotCell,
    pair: (VertexId, VertexId),
) -> (Answer, Option<Split>) {
    let result = executor.run(&[pair]).pop().expect("one query, one result");
    let answer = Answer {
        path: result.result.path,
        fedsac: result.result.stats.sac_invocations,
        epoch: result.epoch,
        lag: cell.epoch().saturating_sub(result.epoch),
        matches_untraced: None,
    };
    (answer, None)
}

/// One traced live query on the current epoch, then (outside the timed
/// split) the same query through the program's executor on the same
/// epoch, whose path must be identical.
fn live_traced_op(
    cells: &Cells,
    scheduler: &BatchScheduler,
    checker: &Arc<BatchScheduler>,
    (s, t): (VertexId, VertexId),
) -> (Answer, Option<Split>) {
    let snap = cells.load_traced();
    let (path, split) = traced_query(&snap.parts(), scheduler, s, t);
    let epoch = snap.program.epoch();
    let lag = cells.program.epoch().saturating_sub(epoch);
    let untraced = BatchExecutor::new(Arc::clone(&snap.program), Arc::clone(checker), 1)
        .run(&[(s, t)])
        .results
        .pop()
        .expect("one query, one result")
        .path;
    let answer = Answer {
        matches_untraced: Some(untraced == path),
        path,
        fedsac: split.fedsac_pairs(),
        epoch,
        lag,
    };
    (answer, Some(split))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{EndToEnd, END_TO_END};

    #[test]
    fn a_panicking_op_is_caught_counted_and_every_metric_still_computes() {
        let limit = Limit {
            duration: Duration::from_secs(60),
            max_ops: Some(4),
            ticks: None,
        };
        let (ops, wall_s) = closed_loop(1, &limit, 4, |pair| {
            assert_ne!(pair, 2, "injected failure");
            let answer = Answer {
                path: None,
                fedsac: 7,
                epoch: 0,
                lag: 0,
                matches_untraced: None,
            };
            (answer, None)
        });
        assert_eq!(ops.len(), 4);
        assert!(ops[2]
            .result
            .as_ref()
            .unwrap_err()
            .contains("injected failure"));
        let ok: Vec<bool> = ops.iter().map(|op| op.result.is_ok()).collect();
        let phase = Phase {
            ops,
            wall_s,
            ..Phase::default()
        };
        let (e2e, report_only, _) = EndToEnd {
            phase: &phase,
            ok: &ok,
            setups_s: &[1.0],
            peak_rss_mb: 1.0,
        }
        .compute();
        let names: Vec<&str> = e2e.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert_eq!(report_only[0].name, "failed_frac");
        assert_eq!(report_only[0].value, 0.25);
        assert_eq!(e2e[3].value, 7.0, "fedsac_per_query over answered ops");
    }
}
