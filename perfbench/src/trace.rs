//! The traced query path: the same public pieces the executor runs —
//! the Fed-AMPS potential constructor, then `fed_spsp` over `FedChView`
//! with every comparison sent through a `SacSession` — each timed from
//! the benchmark's side of the call.

use fedroad_core::lb::FedAmpsPotential;
use fedroad_core::partials::KEY_OFFSET;
use fedroad_core::{fed_spsp, FedChIndex, FedChView, JointComparator, PartialKey, SiloWeights};
use fedroad_graph::{Graph, Path, VertexId};
use fedroad_mpc::{BatchScheduler, SacSession};
use fedroad_queue::{CompareCounts, QueueKind};
use std::time::Instant;

/// Nanoseconds since `start`.
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// A comparator sending each comparison through a scheduler session, as
/// the executor's own session comparator does for the FedRoad
/// configuration (no round batching: one request per comparison). It
/// times the calls that block on the scheduler.
struct SessionCmp<'s> {
    session: &'s SacSession<'s>,
    blocked_ns: u64,
}

fn to_ring(key: &PartialKey) -> Vec<u64> {
    key.iter().map(|&v| (v + KEY_OFFSET) as u64).collect()
}

impl JointComparator for SessionCmp<'_> {
    fn less(&mut self, a: &PartialKey, b: &PartialKey) -> bool {
        let pair = [(to_ring(a), to_ring(b))];
        let start = Instant::now();
        let bits = self
            .session
            .compare_many(&pair)
            .expect("Fed-SAC on range-checked keys");
        self.blocked_ns += ns_since(start);
        bits[0]
    }
}

/// Wraps a comparator and times every call into it: the Fed-SAC layer as
/// seen from the search.
struct TimingCmp<C> {
    inner: C,
    ns: u64,
    /// `pairs_per_call[k]` = calls that carried `k` pairs.
    pairs_per_call: Vec<u64>,
}

impl<C: JointComparator> TimingCmp<C> {
    fn new(inner: C) -> Self {
        TimingCmp {
            inner,
            ns: 0,
            pairs_per_call: Vec::new(),
        }
    }

    fn count(&mut self, pairs: usize) {
        if self.pairs_per_call.len() <= pairs {
            self.pairs_per_call.resize(pairs + 1, 0);
        }
        self.pairs_per_call[pairs] += 1;
    }
}

impl<C: JointComparator> JointComparator for TimingCmp<C> {
    fn less(&mut self, a: &PartialKey, b: &PartialKey) -> bool {
        let start = Instant::now();
        let bit = self.inner.less(a, b);
        self.ns += ns_since(start);
        self.count(1);
        bit
    }

    fn less_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> Vec<bool> {
        let start = Instant::now();
        let bits = self.inner.less_batch(pairs);
        self.ns += ns_since(start);
        self.count(pairs.len());
        bits
    }
}

/// The read-only state one traced query runs on.
pub struct TracedParts<'a> {
    /// The road network.
    pub graph: &'a Graph,
    /// Per-silo weights.
    pub silos: &'a [SiloWeights],
    /// The shortcut index.
    pub index: &'a FedChIndex,
    /// The engine's priority queue.
    pub queue: QueueKind,
}

/// Where one traced query's wall time went, in nanoseconds, plus the
/// search's own counts. `wall = potential + spsp_self + fedsac +
/// unattributed` holds exactly.
#[derive(Clone, Debug, Default)]
pub struct Split {
    /// Whole query, session registration to session drop.
    pub wall: u64,
    /// Inside `FedAmpsPotential::new`.
    pub potential: u64,
    /// Inside `fed_spsp`, minus the time inside the comparator.
    pub spsp_self: u64,
    /// Inside the comparator (Fed-SAC kernels plus scheduler waits).
    pub fedsac: u64,
    /// The rest: session set-up, view construction, glue.
    pub unattributed: u64,
    /// Part of `fedsac` blocked in `SacSession::compare_many`.
    pub blocked: u64,
    /// Comparator calls by pairs carried: `pairs_per_call[k]` calls
    /// carried `k` pairs.
    pub pairs_per_call: Vec<u64>,
    /// Vertices settled.
    pub settled: usize,
    /// Queue pushes.
    pub pushes: u64,
    /// Queue comparisons by phase.
    pub queue_counts: CompareCounts,
}

impl Split {
    /// Comparator calls.
    pub fn calls(&self) -> u64 {
        self.pairs_per_call.iter().sum()
    }

    /// Fed-SAC invocations: pairs summed over comparator calls.
    pub fn fedsac_pairs(&self) -> u64 {
        self.pairs_per_call
            .iter()
            .enumerate()
            .map(|(pairs, &calls)| pairs as u64 * calls)
            .sum()
    }
}

/// Answers one query on `parts`, with comparisons routed through a fresh
/// session of `scheduler`, and splits its wall time by layer.
pub fn traced_query(
    parts: &TracedParts<'_>,
    scheduler: &BatchScheduler,
    s: VertexId,
    t: VertexId,
) -> (Option<Path>, Split) {
    let start = Instant::now();
    let session = scheduler.register();
    let pot_start = Instant::now();
    let mut potential = FedAmpsPotential::new(parts.graph, parts.silos, s, t);
    let potential_ns = ns_since(pot_start);
    let view = FedChView::new(parts.index, parts.graph);
    let mut cmp = TimingCmp::new(SessionCmp {
        session: &session,
        blocked_ns: 0,
    });
    let spsp_start = Instant::now();
    let outcome = fed_spsp(
        &view,
        parts.silos.len(),
        s,
        t,
        &mut potential,
        parts.queue,
        &mut cmp,
    );
    let spsp_ns = ns_since(spsp_start);
    // The potential and the session end inside the timed wall, as they
    // do inside the executor's query.
    drop(potential);
    let TimingCmp {
        inner,
        ns: fedsac,
        pairs_per_call,
    } = cmp;
    let blocked = inner.blocked_ns;
    drop(session);
    let wall = ns_since(start);
    let spsp_self = spsp_ns - fedsac;
    let split = Split {
        wall,
        potential: potential_ns,
        spsp_self,
        fedsac,
        unattributed: wall - potential_ns - spsp_self - fedsac,
        blocked,
        pairs_per_call,
        settled: outcome.settled,
        pushes: outcome.queue_pushes,
        queue_counts: outcome.queue_counts,
    };
    (outcome.path, split)
}
