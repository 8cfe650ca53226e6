//! Fed-SPSP: federated point-to-point search with optional A* potentials,
//! over either the base network or a federated shortcut index (§II-D,
//! §III). All comparisons — queue ordering, meeting detection, stopping
//! tests, potential maxima — go through Fed-SAC; control flow branches on
//! nothing else.
//!
//! Three search modes, selected by the view and the potential:
//!
//! 1. **Flat bidirectional** (base network, the paper's Naive-Dijk /
//!    Naive-Dijk+TM-tree baselines; also base network + potential). Two
//!    frontiers alternate. Lower bounds use the *average potential*
//!    construction in doubled units: g-costs accumulate **twice** the arc
//!    weights and keys are `k_f(v) = 2g_f(v) + π_t(v) − π_s(v)` forward,
//!    the negated addend backward. With consistent potentials, reduced
//!    arc costs stay non-negative and the classic sum rule stops the
//!    search: `top_f + top_b ≥ μ` (all in doubled units). Meetings are
//!    detected at relax time — an arc into an opposite-side-settled vertex
//!    closes a path; settle-time-only detection misses optimal crossings.
//!
//!    Every arc of a flat view is relaxable from both directions, which
//!    the sum rule's coverage argument needs. On hierarchy (one-sided)
//!    views that argument **breaks** — a down-arc is invisible to the
//!    forward search, and `top_f` can grow past an undiscovered optimal
//!    meeting — so those views use:
//!
//! 2. **Symmetric hierarchical** (shortcut view, zero potential — the
//!    paper's +Fed-Shortcut). Meetings are detected at vertices holding a
//!    best label from each side (maintained with one Fed-SAC per improving
//!    push, doubling as decrease-key emulation), and each direction stops
//!    independently at the first pop with key ≥ μ — sound because with
//!    non-negative potentials every key lower-bounds any through-path.
//!
//! 3. **Guided** (shortcut view + lower bound — +Fed-AMPS/ALT-Max/ALT and
//!    the full FedRoad engine): a backward sweep covers the target's
//!    contracted cone, then a forward A* crosses the core;
//!    the *full* (not averaged) potential is what delivers the paper's
//!    Figure 7 speedups.

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::lb::FedPotential;
use crate::partials::{add_keys, EntryComparator, JointComparator, KeyedEntry, PartialKey};
use crate::view::SearchView;
use fedroad_graph::{Direction, Path, VertexId, Weight};
use fedroad_queue::{CompareCounts, PriorityQueue, QueueKind};
use std::collections::HashMap;

/// A queued exploration state of one search direction.
#[derive(Clone, Debug)]
struct Entry {
    v: VertexId,
    /// Per-silo doubled path cost `2·φ_p`.
    g: Vec<u64>,
    /// Per-silo key `2·φ_p ± (π_t − π_s)`.
    key: PartialKey,
    parent: Option<VertexId>,
    /// Middle vertex of the final arc if it was a shortcut.
    middle: Option<VertexId>,
}

impl KeyedEntry for Entry {
    fn key(&self) -> &PartialKey {
        &self.key
    }
}

/// How the best-so-far s–t connection was discovered.
#[derive(Clone, Debug)]
enum Meeting {
    /// An arc relaxed on `side` from the settled `from` into `crossing`,
    /// which the opposite side has settled (coverage views).
    Arc {
        side: usize,
        from: VertexId,
        crossing: VertexId,
        middle: Option<VertexId>,
    },
    /// Vertex `v` carries a label from each side (one-sided views such as
    /// CH upward graphs, where arc meetings can be invisible to one side).
    /// Each label records how `v` was reached: `None` for a search seed,
    /// else the settled parent and the connecting arc's middle.
    Label {
        v: VertexId,
        f_reach: Option<(VertexId, Option<VertexId>)>,
        b_reach: Option<(VertexId, Option<VertexId>)>,
    },
}

/// Outcome of a federated SPSP search.
#[derive(Clone, Debug)]
pub struct SpspOutcome {
    /// The joint shortest path (unpacked to base-graph vertices), or
    /// `None` when the target is unreachable.
    pub path: Option<Path>,
    /// Vertices settled across both directions.
    pub settled: usize,
    /// Queue comparison counts (both directions summed).
    pub queue_counts: CompareCounts,
    /// Items pushed into the priority queues (both directions).
    pub queue_pushes: u64,
}

/// One label pushed into a vertex: doubled partial costs plus how the
/// vertex was reached (`None` = search seed).
type Label = (Vec<u64>, Option<(VertexId, Option<VertexId>)>);

/// Settled bookkeeping: vertex → (doubled partial costs, parent, middle).
type SettledMap = HashMap<u32, (Vec<u64>, Option<VertexId>, Option<VertexId>)>;

struct Side {
    dir: Direction,
    queue: Box<dyn PriorityQueue<Entry>>,
    /// settled vertex → (doubled partial costs, parent, middle).
    settled: SettledMap,
    /// Best label pushed per vertex so far (one-sided views only):
    /// meeting-detection material. Maintained with one Fed-SAC per
    /// duplicate push — far cheaper than cross-producting all labels.
    labels: HashMap<u32, Label>,
    /// Key of the most recently popped entry (monotone non-decreasing).
    last_key: Option<PartialKey>,
    /// Queue drained.
    exhausted: bool,
    /// Per-direction stopping rule fired (one-sided views).
    done: bool,
}

impl Side {
    fn new(dir: Direction, queue_kind: QueueKind) -> Self {
        Side {
            dir,
            queue: queue_kind.instantiate::<Entry>(),
            settled: HashMap::new(),
            labels: HashMap::new(),
            last_key: None,
            exhausted: false,
            done: false,
        }
    }

    fn finished(&self) -> bool {
        self.exhausted || self.done
    }
}

/// Memoizing wrapper around a [`FedPotential`] that optionally clamps the
/// joint estimate at zero (one Fed-SAC sign test per vertex) — required
/// for the per-direction stopping rule on one-sided views.
struct PotentialOracle<'a> {
    pot: &'a mut dyn FedPotential,
    clamp: bool,
    num_silos: usize,
    cache_toward: HashMap<u32, PartialKey>,
    cache_from: HashMap<u32, PartialKey>,
}

impl<'a> PotentialOracle<'a> {
    fn new(pot: &'a mut dyn FedPotential, clamp: bool, num_silos: usize) -> Self {
        PotentialOracle {
            pot,
            clamp,
            num_silos,
            cache_toward: HashMap::new(),
            cache_from: HashMap::new(),
        }
    }

    fn clamped(&mut self, toward: bool, v: VertexId, cmp: &mut dyn JointComparator) -> PartialKey {
        let cache = if toward {
            &self.cache_toward
        } else {
            &self.cache_from
        };
        if let Some(k) = cache.get(&v.0) {
            return k.clone();
        }
        let raw = if toward {
            self.pot.toward_target(v, cmp)
        } else {
            self.pot.from_source(v, cmp)
        };
        let key = if self.clamp {
            let zeros = vec![0i64; self.num_silos];
            if cmp.less(&raw, &zeros) {
                zeros
            } else {
                raw
            }
        } else {
            raw
        };
        let cache = if toward {
            &mut self.cache_toward
        } else {
            &mut self.cache_from
        };
        cache.insert(v.0, key.clone());
        key
    }

    /// Forward key addend at `v`: `π_t(v) − π_s(v)`; backward: negation.
    fn addend(&mut self, v: VertexId, dir: Direction, cmp: &mut dyn JointComparator) -> PartialKey {
        let toward = self.clamped(true, v, cmp);
        let from = self.clamped(false, v, cmp);
        match dir {
            Direction::Forward => toward.iter().zip(&from).map(|(a, b)| a - b).collect(),
            Direction::Backward => from.iter().zip(&toward).map(|(a, b)| a - b).collect(),
        }
    }
}

/// Runs a bidirectional federated SPSP query from `s` to `t`.
///
/// `potential` supplies per-silo partial lower bounds (use
/// [`crate::lb::ZeroFedPotential`] for plain bidirectional Dijkstra —
/// the paper's Naive-Dijk baseline when combined with
/// [`crate::view::BaseView`]).
pub fn fed_spsp(
    view: &dyn SearchView,
    num_silos: usize,
    s: VertexId,
    t: VertexId,
    potential: &mut dyn FedPotential,
    queue_kind: QueueKind,
    cmp: &mut dyn JointComparator,
) -> SpspOutcome {
    if s == t {
        return SpspOutcome {
            path: Some(Path::trivial(s)),
            settled: 0,
            queue_counts: CompareCounts::default(),
            queue_pushes: 0,
        };
    }

    let mut sides = [
        Side::new(Direction::Forward, queue_kind),
        Side::new(Direction::Backward, queue_kind),
    ];

    let coverage = view.bidirectional_arc_coverage();
    if !coverage && !potential.is_zero() {
        // Hierarchical + goal-directed: the guided core search applies the
        // *full* (not averaged) potential, which is where the paper's
        // lower-bound speedups come from.
        return fed_spsp_guided(view, num_silos, s, t, potential, queue_kind, cmp);
    }
    // Symmetric search: both directions interleave inside one phase span.
    let _phase = fedroad_obs::span("phase.bidirectional");
    // One-sided views stop per direction, which requires non-negative
    // joint potentials: clamp landmark potentials at zero.
    let clamp = !coverage && !potential.joint_nonnegative();
    let mut oracle = PotentialOracle::new(potential, clamp, num_silos);

    // Seed both frontiers.
    for (side, origin) in [(0, s), (1, t)] {
        let dir = sides[side].dir;
        let addend = oracle.addend(origin, dir, cmp);
        let entry = Entry {
            v: origin,
            g: vec![0; num_silos],
            key: addend,
            parent: None,
            middle: None,
        };
        if !coverage {
            sides[side].labels.insert(origin.0, (entry.g.clone(), None));
        }
        sides[side]
            .queue
            .push(entry, &mut EntryComparator::new(cmp));
    }

    // Best meeting: doubled joint cost partials and the crossing arc.
    let mut mu: Option<(PartialKey, Meeting)> = None;
    let mut turn = 0usize;
    let mut settled_total = 0usize;

    loop {
        if sides[0].finished() && sides[1].finished() {
            break;
        }
        // Alternate directions; skip a finished side.
        let idx = if sides[turn % 2].finished() {
            (turn + 1) % 2
        } else {
            turn % 2
        };
        turn += 1;

        // Pop the next unsettled entry of this side.
        let entry = loop {
            let popped = {
                let side = &mut sides[idx];
                side.queue.pop(&mut EntryComparator::new(cmp))
            };
            match popped {
                None => {
                    sides[idx].exhausted = true;
                    break None;
                }
                Some(e) if sides[idx].settled.contains_key(&e.v.0) => continue,
                Some(e) => break Some(e),
            }
        };
        let Some(entry) = entry else { continue };

        // Per-direction stopping rule (one-sided views): once this
        // direction's minimum key reaches μ, nothing it would still settle
        // can improve the meeting — the other direction may continue.
        // Sound because keys are lower bounds on any through-path's doubled
        // cost (non-negative potentials).
        if !coverage {
            if let Some((best, _)) = &mu {
                if !cmp.less(&entry.key, best) {
                    sides[idx].done = true;
                    continue;
                }
            }
        }

        // Settle.
        sides[idx]
            .settled
            .insert(entry.v.0, (entry.g.clone(), entry.parent, entry.middle));
        sides[idx].last_key = Some(entry.key.clone());
        settled_total += 1;

        // Expand, collecting meeting candidates: an arc into a vertex the
        // *other* direction has settled closes a full s–t path. Checking at
        // relaxation time (on both sides) is what makes the classic
        // stopping rule sound — settle-time-only meeting detection can
        // miss the optimal crossing edge.
        let other = 1 - idx;
        let dir = sides[idx].dir;
        let mut raw: Vec<(VertexId, Vec<Weight>, Option<VertexId>)> = Vec::new();
        let mut candidates: Vec<(PartialKey, Meeting)> = Vec::new();
        {
            let same = &sides[idx].settled;
            let opposite = &sides[other].settled;
            view.expand(entry.v, dir, &mut |head, w, middle| {
                if coverage {
                    if let Some((g_other, _, _)) = opposite.get(&head.0) {
                        // Doubled joint cost of the full path through the arc.
                        let cand: PartialKey = entry
                            .g
                            .iter()
                            .zip(w)
                            .zip(g_other)
                            .map(|((a, ww), b)| (a + 2 * ww + b) as i64)
                            .collect();
                        candidates.push((
                            cand,
                            Meeting::Arc {
                                side: idx,
                                from: entry.v,
                                crossing: head,
                                middle,
                            },
                        ));
                    }
                }
                if same.contains_key(&head.0) {
                    return;
                }
                raw.push((head, w.to_vec(), middle));
            });
        }
        if !coverage {
            // One-sided views: a per-vertex best label is maintained with
            // one Fed-SAC per duplicate push. Labels that fail to improve
            // the best are discarded entirely (decrease-key emulation —
            // the better label settles first anyway), which keeps the
            // queue one-entry-per-vertex and pops cheap. Meetings are
            // detected at vertices labeled by both directions: every
            // *improving* push competes against the opposite side's
            // current best; since exact labels are minimal, the
            // exact×exact pairing is generated at the later exact push.
            raw.retain(|(head, w, middle)| {
                let g: Vec<u64> = entry.g.iter().zip(w).map(|(a, b)| a + 2 * b).collect();
                let reach = Some((entry.v, *middle));
                let improves = match sides[idx].labels.get(&head.0) {
                    None => true,
                    Some((best_g, _)) => {
                        let new_key: PartialKey = g.iter().map(|&x| x as i64).collect();
                        let best_key: PartialKey = best_g.iter().map(|&x| x as i64).collect();
                        cmp.less(&new_key, &best_key)
                    }
                };
                if !improves {
                    return false;
                }
                if let Some((g_other, o_reach)) = sides[other].labels.get(&head.0) {
                    let cand: PartialKey =
                        g.iter().zip(g_other).map(|(a, b)| (a + b) as i64).collect();
                    let (f_reach, b_reach) = if idx == 0 {
                        (reach, *o_reach)
                    } else {
                        (*o_reach, reach)
                    };
                    candidates.push((
                        cand,
                        Meeting::Label {
                            v: *head,
                            f_reach,
                            b_reach,
                        },
                    ));
                }
                sides[idx].labels.insert(head.0, (g, reach));
                true
            });
        }
        for (cand, meeting) in candidates {
            mu = Some(match mu.take() {
                None => (cand, meeting),
                Some((best, best_m)) => {
                    if cmp.less(&cand, &best) {
                        (cand, meeting)
                    } else {
                        (best, best_m)
                    }
                }
            });
        }

        // Coverage views: classic sum rule (1 Fed-SAC per settle once both
        // sides have popped and μ exists). Unsound for one-sided views,
        // which rely on the per-direction rule at pop time instead.
        if coverage {
            if let (Some((best, _)), Some(kf), Some(kb)) =
                (&mu, &sides[0].last_key, &sides[1].last_key)
            {
                let frontier_sum = add_keys(kf, kb);
                if !cmp.less(&frontier_sum, best) {
                    break;
                }
            }
        }

        let mut batch = Vec::with_capacity(raw.len());
        for (head, w, middle) in raw {
            let g: Vec<u64> = entry.g.iter().zip(&w).map(|(a, b)| a + 2 * b).collect();
            let addend = oracle.addend(head, dir, cmp);
            let key: PartialKey = g
                .iter()
                .zip(&addend)
                .map(|(&gp, &ap)| gp as i64 + ap)
                .collect();
            batch.push(Entry {
                v: head,
                g,
                key,
                parent: Some(entry.v),
                middle,
            });
        }
        sides[idx]
            .queue
            .push_batch(batch, &mut EntryComparator::new(cmp));
    }

    let mut queue_counts = sides[0].queue.counts();
    queue_counts.merge_from(&sides[1].queue.counts());
    let queue_pushes = sides[0].queue.pushed() + sides[1].queue.pushed();

    let Some((_, meeting)) = mu else {
        return SpspOutcome {
            path: None,
            settled: settled_total,
            queue_counts,
            queue_pushes,
        };
    };

    // Assemble forward-orientation hops: s → … → (meeting) → … → t.
    let mut hops: Vec<(VertexId, VertexId, Option<VertexId>)> = Vec::new();
    match meeting {
        Meeting::Arc {
            side,
            from,
            crossing,
            middle,
        } => {
            // s → … → f_end —(crossing arc)→ b_end → … → t.
            let (f_end, b_end, arc_tail, arc_head) = if side == 0 {
                (from, crossing, from, crossing)
            } else {
                (crossing, from, crossing, from)
            };
            push_forward_hops(&mut hops, &sides[0].settled, f_end);
            hops.push((arc_tail, arc_head, middle));
            push_backward_hops(&mut hops, &sides[1].settled, b_end);
        }
        Meeting::Label {
            v,
            f_reach,
            b_reach,
        } => {
            // s → … → f_parent → v → b_parent → … → t, where either reach
            // may be absent when v is a search seed.
            match f_reach {
                Some((parent, middle)) => {
                    push_forward_hops(&mut hops, &sides[0].settled, parent);
                    hops.push((parent, v, middle));
                }
                None => debug_assert_eq!(v, s),
            }
            match b_reach {
                Some((parent, middle)) => {
                    hops.push((v, parent, middle));
                    push_backward_hops(&mut hops, &sides[1].settled, parent);
                }
                None => debug_assert_eq!(v, t),
            }
        }
    }

    let mut vertices = vec![s];
    for (tail, head, middle) in hops {
        unpack_hop(view, tail, head, middle, &mut vertices);
    }
    debug_assert_eq!(vertices.last().copied(), Some(t));

    SpspOutcome {
        path: Some(Path::new(vertices)),
        settled: settled_total,
        queue_counts,
        queue_pushes,
    }
}

/// Guided hierarchical SPSP (used when a lower bound is available on a
/// partial-hierarchy view): the paper's combination of the federated
/// shortcut index with federated A* pruning.
///
/// Phase 1 — a plain federated Dijkstra ascends from `t` through the
/// *contracted* region only (core vertices are settled but not expanded),
/// covering every possible descent of an up–core–down path.
///
/// Phase 2 — forward A* from `s` with the **full** potential
/// `k(v) = 2g(v) + 2π_t(v)` crosses the hierarchy and the core. Meeting
/// candidates arise when a forward push improves the best label of a
/// backward-settled vertex; the search stops at the first pop with
/// `k ≥ μ`. Admissibility of `π_t` (any sign) suffices for soundness:
/// a future meeting at `u` costs `2g_f(u) + 2g_b(u) ≥ 2g_f(u) + 2π_t(u)
/// = k(u) ≥ k(pop)`.
fn fed_spsp_guided(
    view: &dyn SearchView,
    num_silos: usize,
    s: VertexId,
    t: VertexId,
    potential: &mut dyn FedPotential,
    queue_kind: QueueKind,
    cmp: &mut dyn JointComparator,
) -> SpspOutcome {
    let mut settled_total = 0usize;

    // ---- Phase 1: backward cone from t --------------------------------
    // The "shortcut climb": the backward search ascends the contraction
    // hierarchy until every frontier rests in the core.
    let climb = fedroad_obs::span("phase.shortcut_climb");
    let mut bwd = Side::new(Direction::Backward, queue_kind);
    bwd.labels.insert(t.0, (vec![0; num_silos], None));
    bwd.queue.push(
        Entry {
            v: t,
            g: vec![0; num_silos],
            key: vec![0; num_silos],
            parent: None,
            middle: None,
        },
        &mut EntryComparator::new(cmp),
    );
    while let Some(entry) = bwd.queue.pop(&mut EntryComparator::new(cmp)) {
        if bwd.settled.contains_key(&entry.v.0) {
            continue;
        }
        bwd.settled
            .insert(entry.v.0, (entry.g.clone(), entry.parent, entry.middle));
        settled_total += 1;
        if view.is_core(entry.v) {
            continue; // the forward A* crosses the core
        }
        let mut batch = Vec::new();
        view.expand(entry.v, Direction::Backward, &mut |head, w, middle| {
            if bwd.settled.contains_key(&head.0) {
                return;
            }
            let g: Vec<u64> = entry.g.iter().zip(w).map(|(a, b)| a + 2 * b).collect();
            batch.push((head, g, middle));
        });
        let mut push: Vec<Entry> = Vec::with_capacity(batch.len());
        for (head, g, middle) in batch {
            // Best-label maintenance doubles as decrease-key emulation.
            let improves = match bwd.labels.get(&head.0) {
                None => true,
                Some((best_g, _)) => {
                    let new_key: PartialKey = g.iter().map(|&x| x as i64).collect();
                    let best_key: PartialKey = best_g.iter().map(|&x| x as i64).collect();
                    cmp.less(&new_key, &best_key)
                }
            };
            if !improves {
                continue;
            }
            bwd.labels
                .insert(head.0, (g.clone(), Some((entry.v, middle))));
            push.push(Entry {
                v: head,
                key: g.iter().map(|&x| x as i64).collect(),
                g,
                parent: Some(entry.v),
                middle,
            });
        }
        bwd.queue.push_batch(push, &mut EntryComparator::new(cmp));
    }
    drop(climb);

    // ---- Phase 2: forward A* with the full potential -------------------
    let astar = fedroad_obs::span("phase.core_astar");
    let mut fwd = Side::new(Direction::Forward, queue_kind);
    let mut mu: Option<(PartialKey, Meeting)> = None;
    let consider_meeting = |mu: &mut Option<(PartialKey, Meeting)>,
                            g_f: &[u64],
                            v: VertexId,
                            f_reach: Option<(VertexId, Option<VertexId>)>,
                            bwd_labels: &HashMap<u32, Label>,
                            cmp: &mut dyn JointComparator| {
        let Some((g_b, b_reach)) = bwd_labels.get(&v.0) else {
            return;
        };
        let cand: PartialKey = g_f.iter().zip(g_b).map(|(a, b)| (a + b) as i64).collect();
        let meeting = Meeting::Label {
            v,
            f_reach,
            b_reach: *b_reach,
        };
        *mu = Some(match mu.take() {
            None => (cand, meeting),
            Some((best, best_m)) => {
                if cmp.less(&cand, &best) {
                    (cand, meeting)
                } else {
                    (best, best_m)
                }
            }
        });
    };

    let seed_g = vec![0u64; num_silos];
    fwd.labels.insert(s.0, (seed_g.clone(), None));
    consider_meeting(&mut mu, &seed_g, s, None, &bwd.labels, cmp);
    let seed_key: PartialKey = potential
        .toward_target(s, cmp)
        .iter()
        .map(|p| 2 * p)
        .collect();
    fwd.queue.push(
        Entry {
            v: s,
            g: seed_g,
            key: seed_key,
            parent: None,
            middle: None,
        },
        &mut EntryComparator::new(cmp),
    );

    while let Some(entry) = fwd.queue.pop(&mut EntryComparator::new(cmp)) {
        if fwd.settled.contains_key(&entry.v.0) {
            continue;
        }
        // Stop: no future pop can close a cheaper meeting.
        if let Some((best, _)) = &mu {
            if !cmp.less(&entry.key, best) {
                break;
            }
        }
        fwd.settled
            .insert(entry.v.0, (entry.g.clone(), entry.parent, entry.middle));
        settled_total += 1;

        let mut raw: Vec<(VertexId, Vec<u64>, Option<VertexId>)> = Vec::new();
        view.expand(entry.v, Direction::Forward, &mut |head, w, middle| {
            if fwd.settled.contains_key(&head.0) {
                return;
            }
            let g: Vec<u64> = entry.g.iter().zip(w).map(|(a, b)| a + 2 * b).collect();
            raw.push((head, g, middle));
        });
        let mut push: Vec<Entry> = Vec::with_capacity(raw.len());
        for (head, g, middle) in raw {
            let improves = match fwd.labels.get(&head.0) {
                None => true,
                Some((best_g, _)) => {
                    let new_key: PartialKey = g.iter().map(|&x| x as i64).collect();
                    let best_key: PartialKey = best_g.iter().map(|&x| x as i64).collect();
                    cmp.less(&new_key, &best_key)
                }
            };
            if !improves {
                continue;
            }
            let reach = Some((entry.v, middle));
            fwd.labels.insert(head.0, (g.clone(), reach));
            consider_meeting(&mut mu, &g, head, reach, &bwd.labels, cmp);
            let addend = potential.toward_target(head, cmp);
            let key: PartialKey = g
                .iter()
                .zip(&addend)
                .map(|(&gp, &ap)| gp as i64 + 2 * ap)
                .collect();
            push.push(Entry {
                v: head,
                g,
                key,
                parent: Some(entry.v),
                middle,
            });
        }
        fwd.queue.push_batch(push, &mut EntryComparator::new(cmp));
    }
    drop(astar);

    let mut queue_counts = fwd.queue.counts();
    queue_counts.merge_from(&bwd.queue.counts());
    let queue_pushes = fwd.queue.pushed() + bwd.queue.pushed();

    let Some((_, meeting)) = mu else {
        return SpspOutcome {
            path: None,
            settled: settled_total,
            queue_counts,
            queue_pushes,
        };
    };
    let Meeting::Label {
        v,
        f_reach,
        b_reach,
    } = meeting
    else {
        unreachable!("guided search only produces label meetings")
    };
    let mut hops: Vec<(VertexId, VertexId, Option<VertexId>)> = Vec::new();
    match f_reach {
        Some((parent, middle)) => {
            push_forward_hops(&mut hops, &fwd.settled, parent);
            hops.push((parent, v, middle));
        }
        None => debug_assert_eq!(v, s),
    }
    match b_reach {
        Some((parent, middle)) => {
            hops.push((v, parent, middle));
            push_backward_hops(&mut hops, &bwd.settled, parent);
        }
        None => debug_assert_eq!(v, t),
    }
    let mut vertices = vec![s];
    for (tail, head, middle) in hops {
        unpack_hop(view, tail, head, middle, &mut vertices);
    }
    debug_assert_eq!(vertices.last().copied(), Some(t));
    SpspOutcome {
        path: Some(Path::new(vertices)),
        settled: settled_total,
        queue_counts,
        queue_pushes,
    }
}

/// Appends the forward-orientation hops of the forward search tree's path
/// from its origin to `end`.
fn push_forward_hops(
    hops: &mut Vec<(VertexId, VertexId, Option<VertexId>)>,
    settled: &SettledMap,
    end: VertexId,
) {
    let chain = walk_chain(settled, end);
    for w in chain.windows(2) {
        let (tail, (head, middle)) = (w[0].0, (w[1].0, w[1].1));
        hops.push((tail, head, middle));
    }
}

/// Appends the forward-orientation hops of the backward search tree's path
/// from `start` out to the backward origin (the query target).
fn push_backward_hops(
    hops: &mut Vec<(VertexId, VertexId, Option<VertexId>)>,
    settled: &SettledMap,
    start: VertexId,
) {
    let chain = walk_chain(settled, start);
    for w in chain.windows(2).rev() {
        // In the backward tree, the child (later element) connects to its
        // parent via a forward arc child → parent.
        let (parent, (child, middle)) = (w[0].0, (w[1].0, w[1].1));
        hops.push((child, parent, middle));
    }
}

/// Walks back-pointers from `v` to the search origin, returning
/// `[(origin, None), …, (v, middle_of_final_arc)]`.
fn walk_chain(settled: &SettledMap, v: VertexId) -> Vec<(VertexId, Option<VertexId>)> {
    let mut rev = Vec::new();
    let mut cur = v;
    loop {
        let (_, parent, middle) = settled
            .get(&cur.0)
            // lint: panic-ok(walk_chain is only called on settled vertices)
            .expect("chain vertices are settled");
        rev.push((cur, *middle));
        match parent {
            None => break,
            Some(p) => cur = *p,
        }
    }
    rev.reverse();
    rev
}

/// Appends the base-graph vertices strictly after `tail` of the
/// (possibly shortcut) forward arc `tail → head`.
fn unpack_hop(
    view: &dyn SearchView,
    tail: VertexId,
    head: VertexId,
    middle: Option<VertexId>,
    out: &mut Vec<VertexId>,
) {
    match middle {
        None => out.push(head),
        Some(m) => {
            let m1 = view
                .arc_middle(tail, m)
                // lint: panic-ok(contraction inserts both halves of every shortcut)
                .expect("shortcut left half must exist");
            unpack_hop(view, tail, m, m1, out);
            let m2 = view
                .arc_middle(m, head)
                // lint: panic-ok(contraction inserts both halves of every shortcut)
                .expect("shortcut right half must exist");
            unpack_hop(view, m, head, m2, out);
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use crate::lb::{FedAmpsPotential, ZeroFedPotential};
    use crate::oracle::JointOracle;
    use crate::partials::SacComparator;
    use crate::view::BaseView;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;

    fn make_fed(seed: u64, silos: usize, backend: SacBackend) -> Federation {
        let g = grid_city(&GridCityParams::small(), seed);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, silos, seed);
        Federation::new(g, w, FederationConfig { backend, seed })
    }

    fn check_query(fed: &mut Federation, s: VertexId, t: VertexId, amps: bool) {
        let oracle = JointOracle::new(fed);
        let truth = oracle.spsp_scaled(fed, s, t).map(|(d, _)| d);
        let num_silos = fed.num_silos();
        let path = {
            let (g, silos, engine) = fed.split_mut();
            let mut pot: Box<dyn FedPotential> = if amps {
                Box::new(FedAmpsPotential::new(g, silos, s, t))
            } else {
                Box::new(ZeroFedPotential::new(num_silos))
            };
            let mut cmp = SacComparator::new(engine);
            let view = BaseView::new(g, silos);
            fed_spsp(
                &view,
                num_silos,
                s,
                t,
                pot.as_mut(),
                QueueKind::TmTree,
                &mut cmp,
            )
            .path
            .expect("connected graph")
        };
        let cost = oracle.path_cost_scaled(fed, &path).expect("valid path");
        assert_eq!(Some(cost), truth, "suboptimal path {s}->{t} (amps={amps})");
        assert_eq!(path.source(), s);
        assert_eq!(path.target(), t);
    }

    #[test]
    fn naive_bidirectional_matches_oracle() {
        let mut fed = make_fed(21, 3, SacBackend::Real);
        let n = fed.graph().num_vertices() as u32;
        for (s, t) in [(0, n - 1), (5, 77), (88, 12), (31, 32), (1, 1)] {
            check_query(&mut fed, VertexId(s), VertexId(t), false);
        }
    }

    #[test]
    fn amps_guided_search_is_exact_and_prunes() {
        let mut fed = make_fed(23, 3, SacBackend::Real);
        let n = fed.graph().num_vertices() as u32;
        for (s, t) in [(0, n - 1), (7, 55)] {
            check_query(&mut fed, VertexId(s), VertexId(t), true);
        }
        // Pruning: AMPS settles fewer vertices than the zero potential.
        let (s, t) = (VertexId(0), VertexId(n - 1));
        let settled_amps = {
            let (g, silos, engine) = fed.split_mut();
            let mut amps = FedAmpsPotential::new(g, silos, s, t);
            let mut cmp = SacComparator::new(engine);
            fed_spsp(
                &BaseView::new(g, silos),
                3,
                s,
                t,
                &mut amps,
                QueueKind::Heap,
                &mut cmp,
            )
            .settled
        };
        let mut zero = ZeroFedPotential::new(3);
        let settled_zero = {
            let (g, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            fed_spsp(
                &BaseView::new(g, silos),
                3,
                s,
                t,
                &mut zero,
                QueueKind::Heap,
                &mut cmp,
            )
            .settled
        };
        assert!(
            settled_amps < settled_zero,
            "AMPS settled {settled_amps} !< Dijkstra {settled_zero}"
        );
    }

    #[test]
    fn exhaustive_small_sweep_with_modeled_backend() {
        let mut fed = make_fed(25, 2, SacBackend::Modeled);
        let n = fed.graph().num_vertices() as u32;
        for s in (0..n).step_by(17) {
            for t in (1..n).step_by(23) {
                check_query(&mut fed, VertexId(s), VertexId(t), (s + t) % 2 == 0);
            }
        }
    }

    #[test]
    fn source_equals_target_costs_nothing() {
        let mut fed = make_fed(27, 2, SacBackend::Real);
        let before = fed.sac_cumulative_stats().invocations;
        let (g, silos, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        let mut zero = ZeroFedPotential::new(2);
        let out = fed_spsp(
            &BaseView::new(g, silos),
            2,
            VertexId(4),
            VertexId(4),
            &mut zero,
            QueueKind::Heap,
            &mut cmp,
        );
        assert_eq!(out.path.unwrap().hops(), 0);
        assert_eq!(fed.sac_cumulative_stats().invocations, before);
    }
}
