//! The federated shortcut index (§IV, Algorithms 2–3), restructured as a
//! two-phase *customizable* contraction hierarchy:
//!
//! 1. **Metric-independent topology** ([`FedChTopology`]): the contraction
//!    order and the complete shortcut structure — which overlay arcs exist,
//!    which lower triangles (middle vertices) can realize them — are fixed
//!    once per graph from the **public topology alone**. Contracting `v`
//!    connects every pair of its uncontracted in/out-neighbours; no witness
//!    searches, no communication, and therefore trivially consistent across
//!    silos (the paper's C1 for free).
//! 2. **Metric customization** ([`FedChIndex::customize`]): shortcut weights
//!    are computed bottom-up along the fixed topology. An arc's weight is
//!    the minimum of its base weight and `w(u,v) + w(v,w)` over its lower
//!    triangles; every keep-minimum decision goes through the joint
//!    comparator (Fed-SAC), so all silos agree on which via path wins while
//!    each holds only its own partial column.
//!
//! ## Consistency (the paper's C1)
//!
//! * The contraction *order* and the *shortcut set* are functions of the
//!   public topology — every silo derives them locally.
//! * Shortcut *weights* are via-path partial-cost sums: each silo stores
//!   `ω_p(u,v) + ω_p(v,w)` for the jointly chosen triangle, whose joint
//!   average equals the WJRN shortcut weight (Algorithm 2's guarantee).
//!
//! ## Dynamic updates (§IV "Federated Index Updating", Table II)
//!
//! Because the topology never depends on weights, a traffic refresh is pure
//! re-customization: changed base arcs dirty their overlay arcs, recomputed
//! arcs whose weight actually changed dirty their dependents (the arcs with
//! a triangle through them), and the wave proceeds level by level — cost
//! proportional to the touched shortcut *cone*, not the graph. A batch that
//! changes nothing (zero-delta) touches nothing and leaves the index
//! [`epoch`](FedChIndex::epoch) untouched; any effective batch bumps the
//! epoch, which snapshot-swapping executors use to tag query results.
//!
//! Exactness of partial customization is structural: recomputing an arc
//! always replays the identical triangle fold over identical inputs, so a
//! customized index is bit-identical to a from-scratch rebuild under the
//! same weights (pinned by `tests/customize_equals_rebuild.rs`).

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::federation::SiloWeights;
use crate::jsonio::{JsonError, Value};
use crate::partials::{JointComparator, PartialKey};
use crate::view::{ArcVisitor, SearchView};
use fedroad_graph::ch::contraction_order;
use fedroad_graph::{ArcId, Direction, Graph, VertexId, Weight};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// One upward arc of the federated hierarchy, materialized for inspection
/// (tests, benches, persistence checks). Queries run over the arena
/// directly and never build these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FedChArc {
    /// The other endpoint.
    pub head: VertexId,
    /// Per-silo partial weights (silo `p` holds only `weights[p]` in a
    /// real deployment).
    pub weights: Vec<Weight>,
    /// Middle vertex of the currently winning via path; `None` when the
    /// base arc wins (or the arc is purely original).
    pub middle: Option<VertexId>,
}

/// One per-silo base-weight change feeding [`FedChIndex::customize`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightChange {
    /// The changed base-graph arc.
    pub arc: ArcId,
    /// Which silo observed the change.
    pub silo: usize,
    /// The silo's new weight for the arc.
    pub weight: Weight,
}

/// Statistics of the metric-independent phase (topology + first
/// customization) — fixed for the lifetime of the index.
#[derive(Clone, Copy, Debug, Default)]
pub struct FedChStats {
    /// Total overlay arcs in the arena (original + shortcuts).
    pub overlay_arcs: u64,
    /// Shortcut arcs (no original-arc backing).
    pub shortcuts: u64,
    /// Lower triangles across all overlay arcs — the unit of
    /// customization work.
    pub triangles: u64,
}

/// Statistics of one [`FedChIndex::customize`] run — what a weight batch
/// actually cost, as opposed to the build-time [`FedChStats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct CustomizeStats {
    /// Weight changes applied after zero-delta filtering.
    pub applied: u64,
    /// Overlay arcs recomputed (the touched shortcut cone).
    pub touched: u64,
    /// Recomputed arcs whose weight vector or middle actually changed.
    pub changed: u64,
    /// Distinct hierarchy levels the recomputation wave visited.
    pub cone_depth: u64,
    /// Wall-clock seconds of the run.
    pub wall_time_s: f64,
}

/// A lower triangle of an overlay arc `(u, w)`: contracting `middle`
/// offered the via path `u → middle → w`, whose cost is the sum of the two
/// lower arcs' current weights.
#[derive(Clone, Copy, Debug)]
struct Triangle {
    middle: VertexId,
    /// Arena id of the lower arc `u → middle`.
    uv: u32,
    /// Arena id of the lower arc `middle → w`.
    vw: u32,
}

/// One arena arc of the metric-independent overlay.
#[derive(Clone, Debug)]
struct TopoArc {
    tail: VertexId,
    head: VertexId,
    /// Backing base-graph arc, when the pair exists in the input graph.
    orig: Option<ArcId>,
    /// `min(rank(tail), rank(head))` — the customization processing level:
    /// an arc's weight is final once every lower level is.
    level: u32,
}

/// Per-arc lists stored flat, one allocation for all of them: list `i` is
/// `items[start[i]..start[i + 1]]`.
#[derive(Debug)]
struct Csr<T> {
    start: Vec<u32>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// Groups the `(list, item)` pairs `pairs()` yields into `lists`
    /// lists, keeping each list's items in the order yielded. A counting
    /// sort: `pairs` is called twice, once to size the lists and once to
    /// fill them, so no pair buffer is ever held.
    fn group<I: Iterator<Item = (u32, T)>>(lists: usize, pairs: impl Fn() -> I) -> Self {
        let mut start = vec![0u32; lists + 1];
        for (list, _) in pairs() {
            start[list as usize + 1] += 1;
        }
        for i in 0..lists {
            start[i + 1] += start[i];
        }
        let Some((_, first)) = pairs().next() else {
            return Csr {
                start,
                items: Vec::new(),
            };
        };
        let mut items = vec![first; start[lists] as usize];
        let mut next = start.clone();
        for (list, item) in pairs() {
            let at = &mut next[list as usize];
            items[*at as usize] = item;
            *at += 1;
        }
        Csr { start, items }
    }

    fn get(&self, list: usize) -> &[T] {
        &self.items[self.start[list] as usize..self.start[list + 1] as usize]
    }
}

/// The metric-independent half of the index: contraction order, overlay
/// arena, triangles, and the dependency lists customization walks. Built
/// once per graph (no weights, no communication) and shared by every
/// customized [`FedChIndex`] via `Arc`.
#[derive(Debug)]
pub struct FedChTopology {
    order: Vec<VertexId>,
    rank: Vec<u32>,
    core_size: usize,
    /// Number of arcs in the base graph (sizes `orig_to_arena`).
    num_base_arcs: usize,
    arcs: Vec<TopoArc>,
    /// Each arena arc's lower triangles in middle-rank (creation) order.
    triangles: Csr<Triangle>,
    /// Upward forward adjacency: arena ids, sorted by head vertex.
    up_out: Vec<Vec<u32>>,
    /// Upward backward adjacency: arena ids, sorted by tail vertex.
    up_in: Vec<Vec<u32>>,
    /// Arena arcs with a triangle through this arc — who must be
    /// recomputed when this arc's weight changes.
    dependents: Csr<u32>,
    /// All arena ids sorted by `(level, id)` — the full customization
    /// sweep order.
    level_order: Vec<u32>,
    /// Base `ArcId` → arena id (`None` for self-loops, which never enter
    /// the overlay).
    orig_to_arena: Vec<Option<u32>>,
}

impl FedChTopology {
    /// Builds the shortcut topology of `graph` with `core_size` vertices
    /// left uncontracted. The contraction order is the public
    /// [`contraction_order`], which eliminates only the `n − core_size`
    /// vertices contracted here and ranks the core after them by id.
    pub fn build(graph: &Graph, core_size: usize) -> Self {
        Self::contract(graph, contraction_order(graph, core_size), core_size)
    }

    /// Simulated contraction along `order`: its first `n − core_size`
    /// vertices are contracted in sequence, and contracting `v` connects
    /// every ordered pair `(u, w)` of its uncontracted in/out-neighbours —
    /// unconditionally, because without weights there is no witness to
    /// consult. Conservative (a witness-pruned hierarchy is a subgraph of
    /// this one) and therefore exact.
    fn contract(graph: &Graph, order: Vec<VertexId>, core_size: usize) -> Self {
        let n = graph.num_vertices();
        assert_eq!(order.len(), n);
        assert!((1..=n).contains(&core_size), "core must keep >= 1 vertex");
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            rank[v.index()] = r as u32;
        }

        let mut arcs: Vec<TopoArc> = Vec::new();
        // (arena id, triangle) in creation order.
        let mut tris: Vec<(u32, Triangle)> = Vec::new();
        let mut orig_to_arena: Vec<Option<u32>> = vec![None; graph.num_arcs()];
        // Adjacency under construction: other endpoint → arena id. BTreeMap
        // keeps neighbourhood enumeration deterministic across runs.
        let mut fwd: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); n];
        let mut bwd: Vec<BTreeMap<u32, u32>> = vec![BTreeMap::new(); n];
        for v in graph.vertices() {
            for arc in graph.out_arcs(v) {
                if arc.head == v {
                    continue;
                }
                let id = match fwd[v.index()].get(&arc.head.0).copied() {
                    // The generators guarantee simple graphs; a parallel
                    // arc maps onto the same overlay pair (last wins).
                    Some(id) => {
                        arcs[id as usize].orig = Some(arc.id);
                        id
                    }
                    None => {
                        let id = arcs.len() as u32;
                        arcs.push(TopoArc {
                            tail: v,
                            head: arc.head,
                            orig: Some(arc.id),
                            level: rank[v.index()].min(rank[arc.head.index()]),
                        });
                        fwd[v.index()].insert(arc.head.0, id);
                        bwd[arc.head.index()].insert(v.0, id);
                        id
                    }
                };
                orig_to_arena[arc.id.index()] = Some(id);
            }
        }

        let mut contracted = vec![false; n];
        for &v in order.iter().take(n - core_size) {
            let ins: Vec<(u32, u32)> = bwd[v.index()]
                .iter()
                .filter(|(u, _)| !contracted[**u as usize])
                .map(|(&u, &id)| (u, id))
                .collect();
            let outs: Vec<(u32, u32)> = fwd[v.index()]
                .iter()
                .filter(|(w, _)| !contracted[**w as usize])
                .map(|(&w, &id)| (w, id))
                .collect();
            contracted[v.index()] = true;
            for &(u, uv) in &ins {
                for &(w, vw) in &outs {
                    if w == u {
                        continue;
                    }
                    let id = match fwd[u as usize].get(&w).copied() {
                        Some(id) => id,
                        None => {
                            let id = arcs.len() as u32;
                            arcs.push(TopoArc {
                                tail: VertexId(u),
                                head: VertexId(w),
                                orig: None,
                                level: rank[u as usize].min(rank[w as usize]),
                            });
                            fwd[u as usize].insert(w, id);
                            bwd[w as usize].insert(u, id);
                            id
                        }
                    };
                    tris.push((id, Triangle { middle: v, uv, vw }));
                }
            }
        }

        // The construction maps are done with: free them before the
        // derived structures are built, which keeps the build's peak down.
        drop((fwd, bwd, contracted));
        Self::finish(
            order,
            rank,
            core_size,
            graph.num_arcs(),
            arcs,
            tris,
            orig_to_arena,
        )
    }

    /// Groups the triangles per arc and derives the redundant structures
    /// (up lists, dependents, sweep order) from the arena — shared by
    /// [`Self::build`] and the JSON restore path. `tris` pairs arena ids
    /// with triangles, each arc's in creation order.
    fn finish(
        order: Vec<VertexId>,
        rank: Vec<u32>,
        core_size: usize,
        num_base_arcs: usize,
        arcs: Vec<TopoArc>,
        tris: Vec<(u32, Triangle)>,
        orig_to_arena: Vec<Option<u32>>,
    ) -> Self {
        let n = order.len();
        let core_floor = (n - core_size) as u32;
        // Membership in the up lists is a pure rank function: an arc is
        // upward-forward out of its tail when the head outranks it, and
        // core-core arcs appear in *both* lists (the uncontracted core is
        // crossed by A*, which needs full mutual adjacency).
        let mut up_out: Vec<Vec<u32>> = vec![Vec::new(); n];
        let mut up_in: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (id, arc) in arcs.iter().enumerate() {
            let (rt, rh) = (rank[arc.tail.index()], rank[arc.head.index()]);
            let both_core = rt >= core_floor && rh >= core_floor;
            if rt < rh || both_core {
                up_out[arc.tail.index()].push(id as u32);
            }
            if rh < rt || both_core {
                up_in[arc.head.index()].push(id as u32);
            }
        }
        for list in up_out.iter_mut() {
            list.sort_unstable_by_key(|&id| arcs[id as usize].head.0);
        }
        for list in up_in.iter_mut() {
            list.sort_unstable_by_key(|&id| arcs[id as usize].tail.0);
        }
        let triangles = Csr::group(arcs.len(), || tris.iter().copied());
        drop(tris);
        let dependents = Csr::group(arcs.len(), || {
            (0..arcs.len() as u32).flat_map(|id| {
                triangles
                    .get(id as usize)
                    .iter()
                    .flat_map(move |t| [(t.uv, id), (t.vw, id)])
            })
        });
        let mut level_order: Vec<u32> = (0..arcs.len() as u32).collect();
        level_order.sort_unstable_by_key(|&id| (arcs[id as usize].level, id));
        FedChTopology {
            order,
            rank,
            core_size,
            num_base_arcs,
            arcs,
            triangles,
            up_out,
            up_in,
            dependents,
            level_order,
            orig_to_arena,
        }
    }

    /// Number of overlay arcs in the arena.
    pub fn num_overlay_arcs(&self) -> usize {
        self.arcs.len()
    }

    /// Number of pure shortcut arcs (no base-graph backing).
    pub fn num_shortcuts(&self) -> usize {
        self.arcs.iter().filter(|a| a.orig.is_none()).count()
    }

    /// Total lower triangles — the full-customization work unit.
    pub fn num_triangles(&self) -> usize {
        self.triangles.items.len()
    }

    /// Number of uncontracted core vertices.
    pub fn core_size(&self) -> usize {
        self.core_size
    }
}

/// The federated contraction-hierarchy index: a shared metric-independent
/// [`FedChTopology`] plus this metric's customized per-silo weights.
///
/// Serializable so silos can persist it between sessions — **each silo
/// must strip the other silos' columns before writing to disk in a real
/// deployment** (in this coordinator-view codebase the index holds all
/// partial weight vectors; see [`FedChIndex::silo_view`]).
#[derive(Clone, Debug)]
pub struct FedChIndex {
    topo: Arc<FedChTopology>,
    /// Silo columns per weight row (1 in a [`Self::silo_view`]).
    width: usize,
    /// Base weights, one `width` row per base-graph arc: the inputs
    /// customization folds triangles against.
    base: Vec<Weight>,
    /// Customized per-silo weights, one `width` row per arena arc.
    weights: Vec<Weight>,
    /// Winning middle per arena arc (`None`: the base arc wins).
    middle: Vec<Option<VertexId>>,
    /// Bumped once per effective customization batch; zero-delta batches
    /// leave it untouched. Snapshot publishers tag query results with it.
    epoch: u64,
    stats: FedChStats,
    last_customize: CustomizeStats,
}

impl FedChIndex {
    /// Builds the index: metric-independent topology (no communication)
    /// followed by a full customization sweep in which every keep-minimum
    /// decision goes through `cmp` (Fed-SAC). All but `core_size` vertices
    /// are contracted; the rest stay as the uncontracted core that queries
    /// cross with A* pruning (the combination evaluated in the paper's
    /// Figure 7).
    pub fn build(
        graph: &Graph,
        silos: &[SiloWeights],
        core_size: usize,
        cmp: &mut dyn JointComparator,
    ) -> Self {
        let topo = Arc::new(FedChTopology::build(graph, core_size));
        Self::customize_fresh(topo, silos, cmp)
    }

    /// Builds an index from an existing topology and the silos' current
    /// weights — the "new metric" entry point of the CCH split.
    pub fn customize_fresh(
        topo: Arc<FedChTopology>,
        silos: &[SiloWeights],
        cmp: &mut dyn JointComparator,
    ) -> Self {
        let m = topo.arcs.len();
        let width = silos.len();
        let base = (0..topo.num_base_arcs as u32)
            .flat_map(|a| silos.iter().map(move |s| s.weight(ArcId(a))))
            .collect();
        let stats = FedChStats {
            overlay_arcs: m as u64,
            shortcuts: topo.num_shortcuts() as u64,
            triangles: topo.num_triangles() as u64,
        };
        let mut index = FedChIndex {
            topo,
            width,
            base,
            weights: vec![0; m * width],
            middle: vec![None; m],
            epoch: 0,
            stats,
            last_customize: CustomizeStats::default(),
        };
        index.last_customize = index.customize_full(cmp);
        index
    }

    /// Full bottom-up sweep: recomputes every overlay arc in level order.
    /// Identical fold per arc as the partial path, which is what makes
    /// partial customization bit-identical to a rebuild.
    fn customize_full(&mut self, cmp: &mut dyn JointComparator) -> CustomizeStats {
        let start = Instant::now();
        let topo = Arc::clone(&self.topo);
        let mut stats = CustomizeStats::default();
        let mut last_level = None;
        for &id in &topo.level_order {
            let arc = &topo.arcs[id as usize];
            let (w, m) = self.recompute_arc(id, cmp);
            self.weights_of_mut(id).copy_from_slice(&w);
            self.middle[id as usize] = m;
            stats.touched += 1;
            if last_level != Some(arc.level) {
                stats.cone_depth += 1;
                last_level = Some(arc.level);
            }
        }
        stats.changed = stats.touched;
        stats.wall_time_s = start.elapsed().as_secs_f64();
        record_customize_obs(&stats, self.epoch);
        stats
    }

    /// Applies a batch of per-silo base-weight changes and recomputes only
    /// the affected shortcut cone, bottom-up along the fixed topology.
    ///
    /// Zero-delta entries (the stored weight already equals the new one)
    /// are dropped before they can dirty anything; a batch with no
    /// effective change leaves the index — including its
    /// [`epoch`](Self::epoch) — untouched. Every keep-minimum decision
    /// routes through `cmp`, so the recomputed weights are exactly what a
    /// full rebuild under the new metric would produce.
    pub fn customize(
        &mut self,
        changes: &[WeightChange],
        cmp: &mut dyn JointComparator,
    ) -> CustomizeStats {
        let start = Instant::now();
        let _span = fedroad_obs::span("fedch.customize");
        let topo = Arc::clone(&self.topo);
        let mut stats = CustomizeStats::default();
        // level → dirty arena ids; the BTree double-sort (levels ascending,
        // ids ascending within a level) makes the wave deterministic.
        let mut dirty: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for ch in changes {
            let Some(Some(id)) = topo.orig_to_arena.get(ch.arc.index()).copied() else {
                continue; // self-loops never enter the overlay
            };
            let width = self.width;
            let Some(slot) = self.base[ch.arc.index() * width..][..width].get_mut(ch.silo) else {
                continue; // no such silo column
            };
            if *slot == ch.weight {
                continue; // zero-delta: nothing dirtied, epoch untouched
            }
            *slot = ch.weight;
            stats.applied += 1;
            dirty
                .entry(topo.arcs[id as usize].level)
                .or_default()
                .insert(id);
        }
        // Triangle inputs sit at strictly lower levels than their
        // dependents, so draining levels in ascending order recomputes
        // every arc after all of its inputs are final.
        while let Some((_, ids)) = dirty.pop_first() {
            stats.cone_depth += 1;
            for id in ids {
                stats.touched += 1;
                let (w, m) = self.recompute_arc(id, cmp);
                if w != self.weights_of(id) || m != self.middle[id as usize] {
                    self.weights_of_mut(id).copy_from_slice(&w);
                    self.middle[id as usize] = m;
                    stats.changed += 1;
                    for &dep in topo.dependents.get(id as usize) {
                        dirty
                            .entry(topo.arcs[dep as usize].level)
                            .or_default()
                            .insert(dep);
                    }
                }
            }
        }
        if stats.changed > 0 {
            self.epoch += 1;
        }
        stats.wall_time_s = start.elapsed().as_secs_f64();
        self.last_customize = stats;
        record_customize_obs(&stats, self.epoch);
        stats
    }

    /// Updates the index after `changed_arcs` of the base graph changed
    /// weight (on any silo): reads the silos' current weights for those
    /// arcs and [`customize`](Self::customize)s. The traffic-refresh entry
    /// point of §IV "Federated Index Updating".
    pub fn update(
        &mut self,
        graph: &Graph,
        silos: &[SiloWeights],
        changed_arcs: &[ArcId],
        cmp: &mut dyn JointComparator,
    ) -> CustomizeStats {
        debug_assert!(graph.num_arcs() == self.topo.num_base_arcs);
        let mut changes = Vec::with_capacity(changed_arcs.len() * silos.len());
        for &a in changed_arcs {
            for (p, s) in silos.iter().enumerate() {
                changes.push(WeightChange {
                    arc: a,
                    silo: p,
                    weight: s.weight(a),
                });
            }
        }
        self.customize(&changes, cmp)
    }

    /// The shared metric-independent topology.
    pub fn topology(&self) -> &Arc<FedChTopology> {
        &self.topo
    }

    /// Arena arc `id`'s customized per-silo weights.
    fn weights_of(&self, id: u32) -> &[Weight] {
        &self.weights[id as usize * self.width..][..self.width]
    }

    fn weights_of_mut(&mut self, id: u32) -> &mut [Weight] {
        &mut self.weights[id as usize * self.width..][..self.width]
    }

    /// Arena arc `id`'s base weights, `None` for a pure shortcut.
    fn base_of(&self, id: u32) -> Option<&[Weight]> {
        self.topo.arcs[id as usize]
            .orig
            .map(|a| &self.base[a.index() * self.width..][..self.width])
    }

    /// Recomputes arena arc `id`'s customized weight: the base weight
    /// (when backed by an original arc) folded with every lower
    /// triangle's via cost, each keep-minimum decided by `cmp`. The fold
    /// order is fixed (base first, triangles in creation order), so
    /// identical inputs always reproduce identical outputs — the
    /// bit-identity invariant behind partial updates.
    fn recompute_arc(
        &self,
        id: u32,
        cmp: &mut dyn JointComparator,
    ) -> (Vec<Weight>, Option<VertexId>) {
        let via = |t: &Triangle| -> Vec<Weight> {
            self.weights_of(t.uv)
                .iter()
                .zip(self.weights_of(t.vw))
                .map(|(a, b)| a + b)
                .collect()
        };
        let mut tris = self.topo.triangles.get(id as usize).iter();
        let (mut best, mut mid) = if let Some(base) = self.base_of(id) {
            (base.to_vec(), None)
        } else if let Some(t) = tris.next() {
            (via(t), Some(t.middle))
        } else {
            // Unreachable by construction (every overlay arc is original or
            // carries a triangle); keep the hot path panic-free regardless.
            return (vec![0; self.width], None);
        };
        for t in tris {
            let cand = via(t);
            let ck: PartialKey = cand.iter().map(|&x| x as i64).collect();
            let bk: PartialKey = best.iter().map(|&x| x as i64).collect();
            if cmp.less(&ck, &bk) {
                best = cand;
                mid = Some(t.middle);
            }
        }
        (best, mid)
    }

    /// Number of uncontracted core vertices.
    pub fn core_size(&self) -> usize {
        self.topo.core_size
    }

    /// Rank of `v` in the contraction order.
    pub fn rank(&self, v: VertexId) -> u32 {
        self.topo.rank[v.index()]
    }

    /// Index content version: bumped once per effective customization
    /// batch, untouched by zero-delta batches. Freshly built indexes start
    /// at epoch 0.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Topology statistics (fixed at build time).
    pub fn stats(&self) -> FedChStats {
        self.stats
    }

    /// Statistics of the most recent customization run (the full build
    /// sweep counts as one).
    pub fn last_customize(&self) -> CustomizeStats {
        self.last_customize
    }

    /// Upward forward arcs of `v`, materialized (test/bench hook — queries
    /// iterate the arena through [`FedChView`] instead).
    pub fn up_out(&self, v: VertexId) -> Vec<FedChArc> {
        self.topo.up_out[v.index()]
            .iter()
            .map(|&id| FedChArc {
                head: self.topo.arcs[id as usize].head,
                weights: self.weights_of(id).to_vec(),
                middle: self.middle[id as usize],
            })
            .collect()
    }

    /// Upward backward arcs of `v`, materialized (test/bench hook).
    pub fn up_in(&self, v: VertexId) -> Vec<FedChArc> {
        self.topo.up_in[v.index()]
            .iter()
            .map(|&id| FedChArc {
                head: self.topo.arcs[id as usize].tail,
                weights: self.weights_of(id).to_vec(),
                middle: self.middle[id as usize],
            })
            .collect()
    }

    /// Serializes the index to JSON (persistence between sessions).
    pub fn to_json(&self) -> Result<String, JsonError> {
        let rows = |slab: &[Weight]| -> Value {
            Value::Arr(
                slab.chunks_exact(self.width.max(1))
                    .map(weights_to_value)
                    .collect(),
            )
        };
        let doc = Value::Obj(vec![
            (
                "order".into(),
                Value::Arr(
                    self.topo
                        .order
                        .iter()
                        .map(|v| Value::Int(v.0 as i128))
                        .collect(),
                ),
            ),
            ("core_size".into(), Value::Int(self.topo.core_size as i128)),
            (
                "num_base_arcs".into(),
                Value::Int(self.topo.num_base_arcs as i128),
            ),
            ("epoch".into(), Value::Int(self.epoch as i128)),
            (
                "arcs".into(),
                Value::Arr(
                    self.topo
                        .arcs
                        .iter()
                        .enumerate()
                        .map(|(id, arc)| topo_arc_to_value(arc, self.topo.triangles.get(id)))
                        .collect(),
                ),
            ),
            ("base".into(), rows(&self.base)),
            ("weights".into(), rows(&self.weights)),
            (
                "middle".into(),
                Value::Arr(
                    self.middle
                        .iter()
                        .map(|m| match m {
                            Some(v) => Value::Int(v.0 as i128),
                            None => Value::Null,
                        })
                        .collect(),
                ),
            ),
        ]);
        Ok(doc.to_json())
    }

    /// Restores an index serialized with [`Self::to_json`].
    pub fn from_json(json: &str) -> Result<Self, JsonError> {
        let doc = Value::parse(json)?;
        let order: Vec<VertexId> = doc
            .get("order")?
            .as_arr()?
            .iter()
            .map(|v| v.as_u32().map(VertexId))
            .collect::<Result<_, _>>()?;
        let core_size = doc.get("core_size")?.as_u64()? as usize;
        let num_base_arcs = doc.get("num_base_arcs")?.as_u64()? as usize;
        let epoch = doc.get("epoch")?.as_u64()?;
        let mut arcs: Vec<TopoArc> = Vec::new();
        let mut tris: Vec<(u32, Triangle)> = Vec::new();
        for (id, v) in doc.get("arcs")?.as_arr()?.iter().enumerate() {
            let (arc, arc_tris) = topo_arc_from_value(v)?;
            arcs.push(arc);
            tris.extend(arc_tris.into_iter().map(|t| (id as u32, t)));
        }
        if tris
            .iter()
            .any(|(_, t)| t.uv as usize >= arcs.len() || t.vw as usize >= arcs.len())
        {
            return Err(JsonError::Schema("triangle arc out of range".into()));
        }
        let n = order.len();
        let mut rank = vec![0u32; n];
        for (r, &v) in order.iter().enumerate() {
            let slot = rank
                .get_mut(v.index())
                .ok_or_else(|| JsonError::Schema("order vertex out of range".into()))?;
            *slot = r as u32;
        }
        // Levels and the orig mapping are redundant with the arena; rebuild
        // both rather than trusting the document.
        let mut orig_to_arena: Vec<Option<u32>> = vec![None; num_base_arcs];
        for (id, arc) in arcs.iter_mut().enumerate() {
            let (rt, rh) = (
                *rank
                    .get(arc.tail.index())
                    .ok_or_else(|| JsonError::Schema("arc tail out of range".into()))?,
                *rank
                    .get(arc.head.index())
                    .ok_or_else(|| JsonError::Schema("arc head out of range".into()))?,
            );
            arc.level = rt.min(rh);
            if let Some(a) = arc.orig {
                let slot = orig_to_arena
                    .get_mut(a.index())
                    .ok_or_else(|| JsonError::Schema("orig arc out of range".into()))?;
                *slot = Some(id as u32);
            }
        }
        let weight_rows = |key: &str| -> Result<Vec<Vec<Weight>>, JsonError> {
            doc.get(key)?
                .as_arr()?
                .iter()
                .map(weights_from_value)
                .collect()
        };
        let base_rows = weight_rows("base")?;
        let weight_rows = weight_rows("weights")?;
        let middle: Vec<Option<VertexId>> = doc
            .get("middle")?
            .as_arr()?
            .iter()
            .map(|m| match m {
                Value::Null => Ok(None),
                v => v.as_u32().map(|x| Some(VertexId(x))),
            })
            .collect::<Result<_, _>>()?;
        if base_rows.len() != num_base_arcs {
            return Err(JsonError::Schema(
                "base rows must match the base graph".into(),
            ));
        }
        if weight_rows.len() != arcs.len() || middle.len() != arcs.len() {
            return Err(JsonError::Schema(
                "weight/middle rows must match the arena".into(),
            ));
        }
        // Every row, base or customized, has one column per silo.
        let width = base_rows
            .iter()
            .chain(&weight_rows)
            .next()
            .map_or(0, Vec::len);
        if base_rows
            .iter()
            .chain(&weight_rows)
            .any(|row| row.len() != width)
        {
            return Err(JsonError::Schema("weight rows differ in width".into()));
        }
        let base = base_rows.concat();
        let weights = weight_rows.concat();
        let topo = FedChTopology::finish(
            order,
            rank,
            core_size,
            num_base_arcs,
            arcs,
            tris,
            orig_to_arena,
        );
        let stats = FedChStats {
            overlay_arcs: topo.arcs.len() as u64,
            shortcuts: topo.num_shortcuts() as u64,
            triangles: topo.num_triangles() as u64,
        };
        Ok(FedChIndex {
            topo: Arc::new(topo),
            width,
            base,
            weights,
            middle,
            epoch,
            stats,
            last_customize: CustomizeStats::default(),
        })
    }

    /// Extracts silo `p`'s view of the index: identical structure, but
    /// every partial-weight vector reduced to that silo's single column —
    /// what a real silo would persist locally.
    pub fn silo_view(&self, p: usize) -> FedChIndex {
        let column = |slab: &[Weight]| -> Vec<Weight> {
            slab.iter().skip(p).step_by(self.width).copied().collect()
        };
        FedChIndex {
            topo: Arc::clone(&self.topo),
            width: 1,
            base: column(&self.base),
            weights: column(&self.weights),
            middle: self.middle.clone(),
            epoch: self.epoch,
            stats: self.stats,
            last_customize: self.last_customize,
        }
    }
}

/// Emits the customization telemetry: epoch gauge, cone counters, and the
/// latency histogram the live-traffic bench reads back.
fn record_customize_obs(stats: &CustomizeStats, epoch: u64) {
    fedroad_obs::gauge_set("fedch.epoch", epoch);
    if fedroad_obs::is_active() {
        fedroad_obs::counter_add("fedch.customize.touched", stats.touched);
        fedroad_obs::counter_add("fedch.customize.changed", stats.changed);
        fedroad_obs::hist_record("fedch.customize_ns", (stats.wall_time_s * 1e9) as u64);
    }
}

fn weights_to_value(weights: &[Weight]) -> Value {
    Value::Arr(weights.iter().map(|&w| Value::Int(w as i128)).collect())
}

fn weights_from_value(v: &Value) -> Result<Vec<Weight>, JsonError> {
    v.as_arr()?.iter().map(Value::as_u64).collect()
}

fn topo_arc_to_value(arc: &TopoArc, triangles: &[Triangle]) -> Value {
    Value::Obj(vec![
        ("tail".into(), Value::Int(arc.tail.0 as i128)),
        ("head".into(), Value::Int(arc.head.0 as i128)),
        (
            "orig".into(),
            match arc.orig {
                Some(a) => Value::Int(a.0 as i128),
                None => Value::Null,
            },
        ),
        (
            "tris".into(),
            Value::Arr(
                triangles
                    .iter()
                    .map(|t| {
                        Value::Arr(vec![
                            Value::Int(t.middle.0 as i128),
                            Value::Int(t.uv as i128),
                            Value::Int(t.vw as i128),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn topo_arc_from_value(v: &Value) -> Result<(TopoArc, Vec<Triangle>), JsonError> {
    let tri = |t: &Value| -> Result<Triangle, JsonError> {
        match t.as_arr()? {
            [m, uv, vw] => Ok(Triangle {
                middle: VertexId(m.as_u32()?),
                uv: uv.as_u32()?,
                vw: vw.as_u32()?,
            }),
            _ => Err(JsonError::Schema("expected [middle, uv, vw] triple".into())),
        }
    };
    let arc = TopoArc {
        tail: VertexId(v.get("tail")?.as_u32()?),
        head: VertexId(v.get("head")?.as_u32()?),
        orig: match v.get("orig")? {
            Value::Null => None,
            a => Some(ArcId(a.as_u32()?)),
        },
        level: 0, // rebuilt from ranks by the caller
    };
    let triangles = v
        .get("tris")?
        .as_arr()?
        .iter()
        .map(tri)
        .collect::<Result<_, _>>()?;
    Ok((arc, triangles))
}

/// [`SearchView`] over the federated hierarchy's upward graphs — plugging
/// this into [`crate::spsp::fed_spsp`] gives the paper's "+Fed-Shortcut"
/// hierarchical bidirectional search.
pub struct FedChView<'a> {
    index: &'a FedChIndex,
    num_vertices: usize,
}

impl<'a> FedChView<'a> {
    /// Wraps a built index.
    pub fn new(index: &'a FedChIndex, graph: &Graph) -> Self {
        FedChView {
            index,
            num_vertices: graph.num_vertices(),
        }
    }
}

impl SearchView for FedChView<'_> {
    fn expand(&self, v: VertexId, dir: Direction, f: &mut ArcVisitor<'_>) {
        let topo = &*self.index.topo;
        match dir {
            Direction::Forward => {
                for &id in &topo.up_out[v.index()] {
                    f(
                        topo.arcs[id as usize].head,
                        self.index.weights_of(id),
                        self.index.middle[id as usize],
                    );
                }
            }
            Direction::Backward => {
                for &id in &topo.up_in[v.index()] {
                    f(
                        topo.arcs[id as usize].tail,
                        self.index.weights_of(id),
                        self.index.middle[id as usize],
                    );
                }
            }
        }
    }

    fn arc_middle(&self, tail: VertexId, head: VertexId) -> Option<Option<VertexId>> {
        let topo = &*self.index.topo;
        if self.index.rank(tail) < self.index.rank(head) {
            topo.up_out[tail.index()]
                .iter()
                .find(|&&id| topo.arcs[id as usize].head == head)
                .map(|&id| self.index.middle[id as usize])
        } else {
            topo.up_in[head.index()]
                .iter()
                .find(|&&id| topo.arcs[id as usize].tail == tail)
                .map(|&id| self.index.middle[id as usize])
        }
    }

    fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    fn bidirectional_arc_coverage(&self) -> bool {
        // Upward graphs: an up-down path's down segment is relaxable only
        // by the backward search.
        false
    }

    fn is_core(&self, v: VertexId) -> bool {
        let n = self.index.topo.order.len();
        self.index.rank(v) as usize >= n - self.index.topo.core_size
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use crate::lb::ZeroFedPotential;
    use crate::oracle::JointOracle;
    use crate::partials::SacComparator;
    use crate::spsp::fed_spsp;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;
    use fedroad_queue::QueueKind;

    fn make_fed(seed: u64, silos: usize) -> Federation {
        let g = grid_city(&GridCityParams::small(), seed);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, silos, seed);
        Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed,
            },
        )
    }

    fn build_index(fed: &mut Federation) -> FedChIndex {
        let core = (fed.graph().num_vertices() / 10).max(1);
        let (graph, silos, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        FedChIndex::build(graph, silos, core, &mut cmp)
    }

    fn ch_query(
        fed: &mut Federation,
        index: &FedChIndex,
        s: VertexId,
        t: VertexId,
    ) -> (u64, fedroad_graph::Path) {
        let oracle = JointOracle::new(fed);
        let num = fed.num_silos();
        let (graph, _, engine) = fed.split_mut();
        let mut cmp = SacComparator::new(engine);
        let view = FedChView::new(index, graph);
        let mut zero = ZeroFedPotential::new(num);
        let out = fed_spsp(&view, num, s, t, &mut zero, QueueKind::TmTree, &mut cmp);
        let path = out.path.expect("connected");
        let cost = oracle.path_cost_scaled(fed, &path).expect("valid path");
        (cost, path)
    }

    #[test]
    fn fed_ch_queries_match_the_ideal_world() {
        let mut fed = make_fed(31, 3);
        let oracle = JointOracle::new(&fed);
        let index = build_index(&mut fed);
        assert!(index.stats().shortcuts > 0);
        assert!(index.stats().triangles > 0);
        let n = fed.graph().num_vertices() as u32;
        for (s, t) in [(0, n - 1), (5, 77), (88, 12), (40, 41), (13, 93)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
            let (cost, path) = ch_query(&mut fed, &index, s, t);
            assert_eq!(cost, truth, "{s}->{t}");
            assert_eq!(path.source(), s);
            assert_eq!(path.target(), t);
        }
    }

    #[test]
    fn joint_shortcut_weights_equal_wjrn_shortcut_weights() {
        // Algorithm 2's guarantee: aggregated local shortcut weights equal
        // the shortcut weight a trusted party would compute on the WJRN.
        let mut fed = make_fed(33, 2);
        let oracle = JointOracle::new(&fed);
        let index = build_index(&mut fed);
        let mut checked = 0;
        for v in fed.graph().vertices() {
            for arc in index.up_out(v) {
                if arc.middle.is_none() {
                    continue;
                }
                let joint: u64 = arc.weights.iter().sum();
                // The winning via path is a real path, so its joint weight
                // is at least the true joint distance.
                let (d, _) = oracle.spsp_scaled(&fed, v, arc.head).unwrap();
                assert!(joint >= d, "shortcut below true distance");
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn topology_is_metric_independent() {
        // The same graph under two different congestion patterns yields the
        // same arena — only the customized weights differ. This is the
        // invariant that makes weight refreshes pure re-customization.
        let g = grid_city(&GridCityParams::small(), 43);
        let core = (g.num_vertices() / 10).max(1);
        let make = |level: CongestionLevel| -> FedChIndex {
            let w = gen_silo_weights(&g, level, 2, 43);
            let mut fed = Federation::new(
                g.clone(),
                w,
                FederationConfig {
                    backend: SacBackend::Modeled,
                    seed: 43,
                },
            );
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            FedChIndex::build(graph, silos, core, &mut cmp)
        };
        let a = make(CongestionLevel::Slight);
        let b = make(CongestionLevel::Heavy);
        assert_eq!(a.stats().overlay_arcs, b.stats().overlay_arcs);
        assert_eq!(a.stats().shortcuts, b.stats().shortcuts);
        assert_eq!(a.stats().triangles, b.stats().triangles);
        for v in g.vertices() {
            let heads = |idx: &FedChIndex| -> Vec<u32> {
                idx.up_out(v).iter().map(|arc| arc.head.0).collect()
            };
            assert_eq!(
                heads(&a),
                heads(&b),
                "shortcut structure must not depend on weights"
            );
        }
    }

    #[test]
    fn update_touches_a_cone_not_the_graph() {
        let mut fed = make_fed(37, 3);
        let mut index = build_index(&mut fed);
        let total_arcs = index.stats().overlay_arcs;

        // Perturb a small set of arcs on silo 1.
        let mut new_w = fed.silo(1).as_slice().to_vec();
        let changed: Vec<ArcId> = (0..fed.graph().num_arcs())
            .step_by(97)
            .map(|i| ArcId(i as u32))
            .collect();
        for a in &changed {
            new_w[a.index()] += 37;
        }
        fed.update_silo_weights(1, new_w);

        // Update the index and verify queries against the fresh oracle.
        let stats = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &changed, &mut cmp)
        };
        assert!(stats.applied > 0);
        assert!(stats.touched > 0);
        assert!(
            stats.touched < total_arcs,
            "a small change must not recompute the whole overlay: {stats:?}"
        );
        assert_eq!(index.epoch(), 1, "an effective batch bumps the epoch once");
        let oracle = JointOracle::new(&fed);
        let n = fed.graph().num_vertices() as u32;
        for (s, t) in [(0, n - 1), (11, 60), (95, 4), (50, 51)] {
            let (s, t) = (VertexId(s), VertexId(t));
            let truth = oracle.spsp_scaled(&fed, s, t).unwrap().0;
            let (cost, _) = ch_query(&mut fed, &index, s, t);
            assert_eq!(cost, truth, "stale index after update: {s}->{t}");
        }
    }

    #[test]
    fn update_with_no_changes_is_free() {
        let mut fed = make_fed(39, 2);
        let mut index = build_index(&mut fed);
        let stats = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &[], &mut cmp)
        };
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.touched, 0);
        assert_eq!(index.epoch(), 0, "a no-op batch must not bump the epoch");

        // Re-announcing arcs whose weights did not actually change is the
        // same no-op: the zero-delta filter catches them.
        let all: Vec<ArcId> = (0..fed.graph().num_arcs())
            .map(|i| ArcId(i as u32))
            .collect();
        let stats = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &all, &mut cmp)
        };
        assert_eq!(stats.applied, 0);
        assert_eq!(stats.touched, 0);
        assert_eq!(index.epoch(), 0);
    }

    #[test]
    fn update_cost_scales_with_change_fraction() {
        let fractions = [0.001f64, 0.05];
        let mut touched_counts = Vec::new();
        for &frac in &fractions {
            let mut fed = make_fed(41, 2);
            let mut index = build_index(&mut fed);
            let graph = fed.graph();
            let m = graph.num_arcs();
            let k = ((m as f64) * frac).ceil() as usize;
            let changed: Vec<ArcId> = (0..k).map(|i| ArcId(((i * 37) % m) as u32)).collect();
            let mut new_w = fed.silo(0).as_slice().to_vec();
            for a in &changed {
                new_w[a.index()] += 11;
            }
            fed.update_silo_weights(0, new_w);
            let stats = {
                let (graph, silos, engine) = fed.split_mut();
                let mut cmp = SacComparator::new(engine);
                index.update(graph, silos, &changed, &mut cmp)
            };
            touched_counts.push(stats.touched);
        }
        assert!(
            touched_counts[0] < touched_counts[1],
            "more changes must touch a larger cone: {touched_counts:?}"
        );
    }

    #[test]
    fn customization_shares_the_topology_arena() {
        let mut fed = make_fed(45, 2);
        let mut index = build_index(&mut fed);
        let topo_before = Arc::clone(index.topology());
        let changed = vec![ArcId(0), ArcId(7)];
        let mut w = fed.silo(0).as_slice().to_vec();
        for a in &changed {
            w[a.index()] += 99;
        }
        fed.update_silo_weights(0, w);
        {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            index.update(graph, silos, &changed, &mut cmp);
        }
        assert!(
            Arc::ptr_eq(&topo_before, index.topology()),
            "customization must never rebuild the metric-independent arena"
        );
    }
}

#[cfg(test)]
mod hierarchy_property_tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use crate::oracle::JointOracle;
    use crate::partials::SacComparator;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;

    /// Regression guard for the CH correctness property: for any pair,
    /// some up-down path through the hierarchy realizes the true joint
    /// distance (the bidirectional query then only has to find it).
    #[test]
    fn up_down_paths_realize_true_joint_distances() {
        let g = grid_city(&GridCityParams::small(), 31);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 31);
        let mut fed = Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed: 31,
            },
        );
        let oracle = JointOracle::new(&fed);
        let index = {
            let core = (fed.graph().num_vertices() / 10).max(1);
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            FedChIndex::build(graph, silos, core, &mut cmp)
        };
        // exhaustive plain dijkstra over up graphs with joint (scaled) weights
        let n = fed.graph().num_vertices();
        let joint = |arc: &FedChArc| -> u64 { arc.weights.iter().sum() };
        let dij = |start: usize, fwd: bool| -> Vec<u64> {
            let mut dist = vec![u64::MAX / 4; n];
            let mut heap = std::collections::BinaryHeap::new();
            dist[start] = 0;
            heap.push(std::cmp::Reverse((0u64, start)));
            while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
                if d > dist[v] {
                    continue;
                }
                let arcs = if fwd {
                    index.up_out(VertexId(v as u32))
                } else {
                    index.up_in(VertexId(v as u32))
                };
                for a in &arcs {
                    let nd = d + joint(a);
                    if nd < dist[a.head.index()] {
                        dist[a.head.index()] = nd;
                        heap.push(std::cmp::Reverse((nd, a.head.index())));
                    }
                }
            }
            dist
        };
        for (s, t) in [(13usize, 93usize), (0, 99), (42, 57), (7, 88)] {
            let df = dij(s, true);
            let db = dij(t, false);
            let best = (0..n)
                .map(|v| df[v].saturating_add(db[v]))
                .min()
                .expect("non-empty graph");
            let truth = oracle
                .spsp_scaled(&fed, VertexId(s as u32), VertexId(t as u32))
                .expect("connected")
                .0;
            assert_eq!(best, truth, "no exact up-down path {s}->{t}");
        }
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::federation::{Federation, FederationConfig};
    use crate::oracle::JointOracle;
    use crate::partials::SacComparator;
    use fedroad_graph::gen::{grid_city, GridCityParams};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_mpc::SacBackend;

    fn make_setup() -> (Federation, FedChIndex) {
        let g = grid_city(&GridCityParams::small(), 61);
        let w = gen_silo_weights(&g, CongestionLevel::Moderate, 3, 61);
        let mut fed = Federation::new(
            g,
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed: 61,
            },
        );
        let core = (fed.graph().num_vertices() / 10).max(1);
        let index = {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            FedChIndex::build(graph, silos, core, &mut cmp)
        };
        (fed, index)
    }

    #[test]
    fn json_roundtrip_preserves_query_behaviour() {
        let (mut fed, index) = make_setup();
        let restored =
            FedChIndex::from_json(&index.to_json().expect("serializes")).expect("round-trips");
        // Structures identical.
        assert_eq!(index.epoch(), restored.epoch());
        for v in fed.graph().vertices() {
            assert_eq!(index.up_out(v), restored.up_out(v));
            assert_eq!(index.up_in(v), restored.up_in(v));
        }
        // Queries through the restored index are exact.
        let oracle = JointOracle::new(&fed);
        let (s, t) = (VertexId(0), VertexId(95));
        let truth = oracle.spsp_scaled(&fed, s, t).expect("connected").0;
        let path = {
            let (graph, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let view = FedChView::new(&restored, graph);
            let mut zero = crate::lb::ZeroFedPotential::new(3);
            crate::spsp::fed_spsp(
                &view,
                3,
                s,
                t,
                &mut zero,
                fedroad_queue::QueueKind::Heap,
                &mut cmp,
            )
            .path
            .expect("connected")
        };
        assert_eq!(oracle.path_cost_scaled(&fed, &path), Some(truth));
    }

    #[test]
    fn restore_rejects_triangles_and_rows_that_do_not_fit_the_arena() {
        let (_, index) = make_setup();
        let json = index.to_json().expect("serializes");
        // First triangle `[middle, uv, vw]`: point `uv` past the arena.
        let at = json.find("\"tris\":[[").expect("some arc has a triangle") + 9;
        let end = at + json[at..].find(']').expect("closed triangle");
        let fields: Vec<&str> = json[at..end].split(',').collect();
        let bad_tri = format!(
            "{}{},{},{}{}",
            &json[..at],
            fields[0],
            u32::MAX,
            fields[2],
            &json[end..]
        );
        assert!(matches!(
            FedChIndex::from_json(&bad_tri),
            Err(JsonError::Schema(_))
        ));
        // First weight row: drop its first silo column.
        let at = json.find("\"weights\":[[").expect("weight rows") + 12;
        let comma = at + json[at..].find(',').expect("three columns");
        let bad_row = format!("{}{}", &json[..at], &json[comma + 1..]);
        assert!(matches!(
            FedChIndex::from_json(&bad_row),
            Err(JsonError::Schema(_))
        ));
    }

    #[test]
    fn restored_index_supports_updates() {
        let (mut fed, index) = make_setup();
        let mut restored =
            FedChIndex::from_json(&index.to_json().expect("serializes")).expect("round-trips");
        let changed: Vec<ArcId> = (0..fed.graph().num_arcs())
            .step_by(53)
            .map(|i| ArcId(i as u32))
            .collect();
        let mut w = fed.silo(2).as_slice().to_vec();
        for a in &changed {
            w[a.index()] += 21;
        }
        fed.update_silo_weights(2, w);
        {
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            restored.update(graph, silos, &changed, &mut cmp);
        }
        let oracle = JointOracle::new(&fed);
        let (s, t) = (VertexId(3), VertexId(88));
        let truth = oracle.spsp_scaled(&fed, s, t).expect("connected").0;
        let path = {
            let (graph, _, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let view = FedChView::new(&restored, graph);
            let mut zero = crate::lb::ZeroFedPotential::new(3);
            crate::spsp::fed_spsp(
                &view,
                3,
                s,
                t,
                &mut zero,
                fedroad_queue::QueueKind::TmTree,
                &mut cmp,
            )
            .path
            .expect("connected")
        };
        assert_eq!(oracle.path_cost_scaled(&fed, &path), Some(truth));
    }

    #[test]
    fn silo_view_keeps_only_one_column() {
        let (fed, index) = make_setup();
        let view = index.silo_view(1);
        for v in fed.graph().vertices() {
            for (full, stripped) in index.up_out(v).iter().zip(view.up_out(v)) {
                assert_eq!(stripped.weights.len(), 1);
                assert_eq!(stripped.weights[0], full.weights[1]);
                assert_eq!(stripped.head, full.head);
                assert_eq!(stripped.middle, full.middle);
            }
        }
    }
}

#[cfg(test)]
mod prefix_order_tests {
    use super::*;
    use crate::engine::Method;
    use crate::federation::{Federation, FederationConfig};
    use crate::partials::SacComparator;
    use fedroad_graph::gen::{grid_city, GridCityParams, RoadNetworkPreset};
    use fedroad_graph::traffic::{gen_silo_weights, CongestionLevel};
    use fedroad_graph::{Coord, GraphBuilder};
    use fedroad_mpc::SacBackend;

    /// Builds `g`'s index with `core` core vertices twice under the same
    /// weights: through [`FedChIndex::build`], whose order stops at the
    /// core, and along the order that eliminates every vertex. Returns
    /// `(index, build Fed-SACs)` for each, in that order.
    fn build_both(g: &Graph, core: usize) -> [(FedChIndex, u64); 2] {
        let w = gen_silo_weights(g, CongestionLevel::Moderate, 3, 17);
        let mut fed = Federation::new(
            g.clone(),
            w,
            FederationConfig {
                backend: SacBackend::Modeled,
                seed: 17,
            },
        );
        let mut build = |full: bool| -> (FedChIndex, u64) {
            let before = fed.sac_cumulative_stats().invocations;
            let (graph, silos, engine) = fed.split_mut();
            let mut cmp = SacComparator::new(engine);
            let index = if full {
                let topo = FedChTopology::contract(graph, contraction_order(graph, 0), core);
                FedChIndex::customize_fresh(Arc::new(topo), silos, &mut cmp)
            } else {
                FedChIndex::build(graph, silos, core, &mut cmp)
            };
            (index, fed.sac_cumulative_stats().invocations - before)
        };
        [build(false), build(true)]
    }

    /// Everything but the ranks inside the core, and the levels of the
    /// core–core arcs derived from them, is the same in both indexes.
    /// Returns the build's Fed-SAC count.
    fn assert_same_index(g: &Graph, core: usize) -> u64 {
        let [(prefix, prefix_sacs), (full, full_sacs)] = build_both(g, core);
        let (a, b) = (&*prefix.topo, &*full.topo);
        let contracted = g.num_vertices() - core;
        assert_eq!(a.order[..contracted], b.order[..contracted]);
        let core_set = |t: &FedChTopology| {
            let mut set = t.order[contracted..].to_vec();
            set.sort();
            set
        };
        assert_eq!(
            core_set(a),
            core_set(b),
            "is_core selects the same vertices"
        );

        let floor = contracted as u32;
        let core_core =
            |arc: &TopoArc| a.rank[arc.tail.index()] >= floor && a.rank[arc.head.index()] >= floor;
        assert_eq!(a.arcs.len(), b.arcs.len());
        for (id, (x, y)) in a.arcs.iter().zip(&b.arcs).enumerate() {
            assert_eq!((x.tail, x.head, x.orig), (y.tail, y.head, y.orig));
            if core_core(x) {
                assert!(
                    a.dependents.get(id).is_empty() && b.dependents.get(id).is_empty(),
                    "core-core arc {id} is a triangle side"
                );
            } else {
                assert_eq!(x.level, y.level, "arc {id}");
            }
        }
        let tris = |t: &FedChTopology| -> Vec<(VertexId, u32, u32)> {
            t.triangles
                .items
                .iter()
                .map(|tri| (tri.middle, tri.uv, tri.vw))
                .collect()
        };
        assert_eq!(a.triangles.start, b.triangles.start);
        assert_eq!(tris(a), tris(b));
        assert_eq!(a.dependents.start, b.dependents.start);
        assert_eq!(a.dependents.items, b.dependents.items);
        assert_eq!(a.up_out, b.up_out);
        assert_eq!(a.up_in, b.up_in);
        assert_eq!(prefix.weights, full.weights);
        assert_eq!(prefix.middle, full.middle);
        assert_eq!(prefix_sacs, full_sacs, "build Fed-SACs");
        prefix_sacs
    }

    /// A 6 × 6 grid whose rows alternate one-way directions, with
    /// two-way columns and a few one-way diagonals.
    fn one_way_grid() -> Graph {
        let side = 6u32;
        let mut b = GraphBuilder::new();
        for i in 0..side * side {
            b.add_vertex(Coord {
                x: f64::from(i % side) * 100.0,
                y: f64::from(i / side) * 100.0,
            });
        }
        let at = |x: u32, y: u32| VertexId(y * side + x);
        for y in 0..side {
            for x in 0..side - 1 {
                let (l, r) = (at(x, y), at(x + 1, y));
                let w = 90 + u64::from((x * 7 + y * 3) % 20);
                if y % 2 == 0 {
                    b.add_arc(l, r, w);
                } else {
                    b.add_arc(r, l, w);
                }
            }
        }
        for y in 0..side - 1 {
            for x in 0..side {
                b.add_bidirectional(at(x, y), at(x, y + 1), 110);
            }
        }
        for k in 0..side - 1 {
            b.add_arc(at(k, k), at(k + 1, k + 1), 150);
        }
        b.build()
    }

    #[test]
    fn stopping_the_order_at_the_core_changes_no_index_content() {
        let fedroad = Method::FedRoad.config();
        let cal = RoadNetworkPreset::CalS.generate(7);
        for core in [
            cal.num_vertices() / 10,
            fedroad.core_size(cal.num_vertices()),
        ] {
            assert!(assert_same_index(&cal, core) > 0, "CAL-S builds compare");
        }
        for g in [grid_city(&GridCityParams::small(), 5), one_way_grid()] {
            let n = g.num_vertices();
            for core in [1, n / 10, fedroad.core_size(n), n - 1] {
                assert_same_index(&g, core.max(1));
            }
        }
    }
}
