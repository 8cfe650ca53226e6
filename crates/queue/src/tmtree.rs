//! The Tournament Merge tree (TM-tree) — the paper's comparison-optimized
//! priority queue (§VI).
//!
//! Design recap:
//!
//! * **Winner-tracking hierarchy.** Items live at the leaves of tournament
//!   trees; every internal node records which leaf won the "competition"
//!   of its subtree. A batch of `n` items is built into a sub-T-tree with
//!   exactly `n − 1` comparisons (the information-theoretic minimum for
//!   finding the batch minimum), and two T-trees merge with **one**
//!   comparison.
//! * **Scale-balanced merging.** The global queue is a list of sub-T-trees
//!   of geometrically increasing sizes (`|T_i| > α·|T_{i−1}|`). An incoming
//!   sub-tree merges with an existing one only when their sizes are within
//!   a factor `α`, cascading leftward, which caps the number of sub-trees
//!   (and hence the winner chain) at `O(log_α |Q|)`.
//! * **Winner chain.** `chain[i]` tracks the winner among sub-trees
//!   `i..m`; updating after a push propagates leftward and stops at the
//!   first unchanged entry, so amortized push cost is `1 + O(log|Q|)/n`
//!   comparisons per item.
//! * **Pop** removes the champion leaf, splices its sibling into its
//!   parent's place, and re-runs the competitions along the root path —
//!   `O(log |Q|)` comparisons.

use crate::comparator::{Comparator, CompareCounts, Phase};
use crate::PriorityQueue;

/// Default balance factor (the paper's experiments use `α = 4`).
pub const DEFAULT_ALPHA: usize = 4;

#[derive(Debug)]
enum Node<T> {
    Leaf {
        item: T,
        parent: Option<usize>,
    },
    Internal {
        left: usize,
        right: usize,
        /// Arena id of the winning **leaf** of this subtree.
        winner: usize,
        parent: Option<usize>,
    },
}

/// One sub-tournament-tree of the global queue.
#[derive(Clone, Copy, Debug)]
struct Sub {
    root: usize,
    size: usize,
}

/// The Tournament Merge tree.
#[derive(Debug)]
pub struct TmTree<T> {
    slots: Vec<Option<Node<T>>>,
    free: Vec<usize>,
    /// Sub-trees sorted by size, largest first.
    subs: Vec<Sub>,
    /// `chain[i]` = arena id of the winning leaf among `subs[i..]`.
    chain: Vec<usize>,
    alpha: usize,
    len: usize,
    counts: CompareCounts,
    pushed: u64,
}

impl<T> Default for TmTree<T> {
    fn default() -> Self {
        Self::new(DEFAULT_ALPHA)
    }
}

impl<T> TmTree<T> {
    /// Creates an empty TM-tree with balance factor `alpha ≥ 2`.
    pub fn new(alpha: usize) -> Self {
        assert!(alpha >= 2, "balance factor must be at least 2");
        TmTree {
            slots: Vec::new(),
            free: Vec::new(),
            subs: Vec::new(),
            chain: Vec::new(),
            alpha,
            len: 0,
            counts: CompareCounts::default(),
            pushed: 0,
        }
    }

    /// Number of sub-T-trees currently in the queue (test/bench hook; the
    /// paper bounds this by `O(log_α |Q|)`).
    pub fn num_subtrees(&self) -> usize {
        self.subs.len()
    }

    fn alloc(&mut self, node: Node<T>) -> usize {
        if let Some(i) = self.free.pop() {
            self.slots[i] = Some(node);
            i
        } else {
            self.slots.push(Some(node));
            self.slots.len() - 1
        }
    }

    fn dealloc(&mut self, i: usize) -> Node<T> {
        self.free.push(i);
        self.slots[i].take().expect("double free")
    }

    fn node(&self, i: usize) -> &Node<T> {
        self.slots[i].as_ref().expect("dangling node id")
    }

    fn item(&self, leaf: usize) -> &T {
        match self.node(leaf) {
            Node::Leaf { item, .. } => item,
            Node::Internal { .. } => unreachable!("winner ids always point at leaves"),
        }
    }

    fn winner_of(&self, root: usize) -> usize {
        match self.node(root) {
            Node::Leaf { .. } => root,
            Node::Internal { winner, .. } => *winner,
        }
    }

    fn parent_of(&self, i: usize) -> Option<usize> {
        match self.node(i) {
            Node::Leaf { parent, .. } | Node::Internal { parent, .. } => *parent,
        }
    }

    fn set_parent(&mut self, i: usize, p: Option<usize>) {
        match self.slots[i].as_mut().expect("dangling") {
            Node::Leaf { parent, .. } | Node::Internal { parent, .. } => *parent = p,
        }
    }

    /// One tallied comparison between two leaves; returns the winner.
    fn duel(&mut self, a: usize, b: usize, phase: Phase, cmp: &mut dyn Comparator<T>) -> usize {
        self.counts.record(phase);
        if cmp.less(self.item(a), self.item(b)) {
            a
        } else {
            b
        }
    }

    /// Combines two roots under a fresh internal node (1 comparison).
    fn combine(&mut self, a: usize, b: usize, phase: Phase, cmp: &mut dyn Comparator<T>) -> usize {
        let w = self.duel(self.winner_of(a), self.winner_of(b), phase, cmp);
        let id = self.alloc(Node::Internal {
            left: a,
            right: b,
            winner: w,
            parent: None,
        });
        self.set_parent(a, Some(id));
        self.set_parent(b, Some(id));
        id
    }

    /// Builds a sub-T-tree over `items` with `n − 1` `Build` comparisons.
    ///
    /// The duels of each tournament level are mutually independent, so
    /// each level is one [`Comparator::less_batch`] call — a
    /// protocol-backed comparator can then share communication rounds
    /// across the level (`⌈log₂ n⌉` batched executions instead of `n − 1`
    /// sequential ones). The comparison *count* is unchanged.
    fn build_subtree(&mut self, items: Vec<T>, cmp: &mut dyn Comparator<T>) -> Sub {
        let size = items.len();
        debug_assert!(size > 0);
        let mut level: Vec<usize> = items
            .into_iter()
            .map(|item| self.alloc(Node::Leaf { item, parent: None }))
            .collect();
        while level.len() > 1 {
            let paired: Vec<(usize, usize)> = level
                .chunks(2)
                .filter(|c| c.len() == 2)
                .map(|c| (c[0], c[1]))
                .collect();
            let duels: Vec<(usize, usize)> = paired
                .iter()
                .map(|&(a, b)| (self.winner_of(a), self.winner_of(b)))
                .collect();
            for _ in &duels {
                self.counts.record(Phase::Build);
            }
            // One instant per tournament level: the duel count is the width
            // of the batched comparison the level issues (public structure,
            // no key material).
            fedroad_obs::instant(
                "tmtree.level",
                &[
                    ("duels", fedroad_obs::ObsValue::Count(duels.len() as u64)),
                    ("width", fedroad_obs::ObsValue::Count(level.len() as u64)),
                ],
            );
            // One blocking call per level. A scheduler-backed comparator
            // may wait here for a round shared with other queries; the
            // outcomes are owned, so the entry borrows end before the level
            // is rebuilt below.
            let outcomes = {
                let refs: Vec<(&T, &T)> = duels
                    .iter()
                    .map(|&(wa, wb)| (self.item(wa), self.item(wb)))
                    .collect();
                cmp.less_batch(&refs)
            };

            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut duel_idx = 0;
            for chunk in level.chunks(2) {
                if chunk.len() == 2 {
                    let (wa, wb) = duels[duel_idx];
                    let winner = if outcomes[duel_idx] { wa } else { wb };
                    duel_idx += 1;
                    let id = self.alloc(Node::Internal {
                        left: chunk[0],
                        right: chunk[1],
                        winner,
                        parent: None,
                    });
                    self.set_parent(chunk[0], Some(id));
                    self.set_parent(chunk[1], Some(id));
                    next.push(id);
                } else {
                    next.push(chunk[0]);
                }
            }
            level = next;
        }
        Sub {
            root: level[0],
            size,
        }
    }

    fn similar(&self, a: usize, b: usize) -> bool {
        a <= self.alpha * b && b <= self.alpha * a
    }

    /// Inserts `sub` into the global list: cascading scale-balanced merges,
    /// then position insertion; returns the final position.
    fn insert_subtree(&mut self, mut sub: Sub, cmp: &mut dyn Comparator<T>) -> usize {
        // Cascade: while some existing sub-tree is within α×, merge with
        // the closest-sized one.
        loop {
            let candidate = self
                .subs
                .iter()
                .enumerate()
                .filter(|(_, s)| self.similar(s.size, sub.size))
                .min_by_key(|(_, s)| s.size.abs_diff(sub.size));
            let Some((idx, _)) = candidate else { break };
            let other = self.subs.remove(idx);
            self.chain.remove(idx); // stale; rebuilt below
            let root = self.combine(other.root, sub.root, Phase::Merge, cmp);
            sub = Sub {
                root,
                size: other.size + sub.size,
            };
        }
        // Insert keeping sizes descending.
        let pos = self
            .subs
            .iter()
            .position(|s| s.size < sub.size)
            .unwrap_or(self.subs.len());
        self.subs.insert(pos, sub);
        self.chain.insert(pos, usize::MAX); // placeholder
        pos
    }

    /// Recomputes `chain[0..=from]` right-to-left with early stopping, after
    /// the suffix `chain[from+1..]` is already valid.
    fn update_chain(&mut self, from: usize, phase: Phase, cmp: &mut dyn Comparator<T>) {
        for j in (0..=from.min(self.subs.len().saturating_sub(1))).rev() {
            let w_sub = self.winner_of(self.subs[j].root);
            let new_val = if j + 1 < self.subs.len() {
                self.duel(w_sub, self.chain[j + 1], phase, cmp)
            } else {
                w_sub
            };
            if self.chain[j] == new_val && j < from {
                // Everything further left already incorporates this value.
                return;
            }
            self.chain[j] = new_val;
        }
    }

    /// Removes the champion leaf from its sub-tree; returns the popped item
    /// and the surviving root (if any). `Pop` comparisons along the path.
    fn pop_leaf(&mut self, leaf: usize, cmp: &mut dyn Comparator<T>) -> (T, Option<usize>) {
        let parent = self.parent_of(leaf);
        let Node::Leaf { item, .. } = self.dealloc(leaf) else {
            unreachable!("chain points at leaves")
        };
        let Some(p) = parent else {
            return (item, None);
        };
        // Splice the sibling into the parent's place.
        let Node::Internal {
            left,
            right,
            parent: gp,
            ..
        } = self.dealloc(p)
        else {
            unreachable!("leaf parents are internal")
        };
        let sibling = if left == leaf { right } else { left };
        self.set_parent(sibling, gp);
        if let Some(g) = gp {
            match self.slots[g].as_mut().expect("dangling grandparent") {
                Node::Internal { left, right, .. } => {
                    if *left == p {
                        *left = sibling;
                    } else {
                        *right = sibling;
                    }
                }
                Node::Leaf { .. } => unreachable!("parents are internal"),
            }
        }
        // Replay the competitions from the grandparent to the root.
        let mut cur = gp;
        let mut top = sibling;
        while let Some(c) = cur {
            let (l, r) = match self.node(c) {
                Node::Internal { left, right, .. } => (*left, *right),
                Node::Leaf { .. } => unreachable!(),
            };
            let w = self.duel(self.winner_of(l), self.winner_of(r), Phase::Pop, cmp);
            match self.slots[c].as_mut().expect("dangling") {
                Node::Internal { winner, .. } => *winner = w,
                Node::Leaf { .. } => unreachable!(),
            }
            top = c;
            cur = self.parent_of(c);
        }
        (item, Some(top))
    }

    /// Debug/test invariant: structural sanity of every sub-tree and the
    /// winner chain.
    #[doc(hidden)]
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut counted = 0usize;
        for (i, sub) in self.subs.iter().enumerate() {
            counted += sub.size;
            if self.parent_of(sub.root).is_some() {
                return Err(format!("sub {i} root has a parent"));
            }
            let (leaves, ok) = self.validate_subtree(sub.root);
            if !ok {
                return Err(format!("sub {i} winner bookkeeping broken"));
            }
            if leaves != sub.size {
                return Err(format!("sub {i} size {} != leaves {leaves}", sub.size));
            }
        }
        if counted != self.len {
            return Err(format!("len {} != total leaves {counted}", self.len));
        }
        for w in self.subs.windows(2) {
            if w[0].size < w[1].size {
                return Err("subs not sorted by size".into());
            }
        }
        if self.chain.len() != self.subs.len() {
            return Err("chain length mismatch".into());
        }
        Ok(())
    }

    /// Returns (leaf count, winners consistent) for the subtree at `root`.
    fn validate_subtree(&self, root: usize) -> (usize, bool) {
        match self.node(root) {
            Node::Leaf { .. } => (1, true),
            Node::Internal {
                left,
                right,
                winner,
                ..
            } => {
                let (nl, okl) = self.validate_subtree(*left);
                let (nr, okr) = self.validate_subtree(*right);
                let w_ok = *winner == self.winner_of(*left) || *winner == self.winner_of(*right);
                (nl + nr, okl && okr && w_ok)
            }
        }
    }
}

impl<T> PriorityQueue<T> for TmTree<T> {
    fn push_batch(&mut self, items: Vec<T>, cmp: &mut dyn Comparator<T>) {
        if items.is_empty() {
            return;
        }
        self.len += items.len();
        self.pushed += items.len() as u64;
        let sub = self.build_subtree(items, cmp);
        let pos = self.insert_subtree(sub, cmp);
        self.update_chain(pos, Phase::Merge, cmp);
    }

    fn pop(&mut self, cmp: &mut dyn Comparator<T>) -> Option<T> {
        if self.subs.is_empty() {
            return None;
        }
        self.len -= 1;
        let champion = self.chain[0];
        // Locate the sub-tree owning the champion by walking to its root.
        let mut root = champion;
        while let Some(p) = self.parent_of(root) {
            root = p;
        }
        let k = self
            .subs
            .iter()
            .position(|s| s.root == root)
            .expect("champion's root is a registered sub-tree");

        let (item, new_root) = self.pop_leaf(champion, cmp);
        let affected;
        match new_root {
            None => {
                self.subs.remove(k);
                self.chain.remove(k);
                affected = k.saturating_sub(1);
                if self.subs.is_empty() {
                    return Some(item);
                }
            }
            Some(r) => {
                self.subs[k].root = r;
                self.subs[k].size -= 1;
                // Keep sizes sorted: the shrunken tree may drift right.
                let mut j = k;
                while j + 1 < self.subs.len() && self.subs[j].size < self.subs[j + 1].size {
                    self.subs.swap(j, j + 1);
                    self.chain.swap(j, j + 1); // stale values; rebuilt below
                    j += 1;
                }
                affected = j;
            }
        }
        // Chain entries at and left of the affected position are stale;
        // force full recomputation over that range (no early stop on the
        // first entry because its stored value may be the popped leaf).
        for c in self.chain.iter_mut().take(affected + 1) {
            *c = usize::MAX;
        }
        self.update_chain(affected, Phase::Pop, cmp);
        Some(item)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn counts(&self) -> CompareCounts {
        self.counts
    }

    fn pushed(&self) -> u64 {
        self.pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain() -> impl FnMut(&u64, &u64) -> bool {
        |a, b| a < b
    }

    #[test]
    fn pops_in_sorted_order_across_batches() {
        let mut q = TmTree::new(4);
        let mut cmp = plain();
        q.push_batch(vec![50u64, 20, 80, 10], &mut cmp);
        q.push_batch(vec![5u64, 95, 45], &mut cmp);
        q.push_batch(vec![1u64], &mut cmp);
        let mut out = Vec::new();
        while let Some(x) = q.pop(&mut cmp) {
            out.push(x);
        }
        assert_eq!(out, vec![1, 5, 10, 20, 45, 50, 80, 95]);
    }

    #[test]
    fn batch_build_uses_exactly_n_minus_1_comparisons() {
        let mut q = TmTree::new(4);
        let mut cmp = plain();
        q.push_batch((0..17u64).collect(), &mut cmp);
        assert_eq!(q.counts().build, 16);
    }

    /// Records the width of every batch and counts per-duel calls.
    #[derive(Default)]
    struct BatchRecorder {
        widths: Vec<usize>,
        singles: usize,
    }

    impl Comparator<u64> for BatchRecorder {
        fn less(&mut self, a: &u64, b: &u64) -> bool {
            self.singles += 1;
            a < b
        }

        fn less_batch(&mut self, pairs: &[(&u64, &u64)]) -> Vec<bool> {
            self.widths.push(pairs.len());
            pairs.iter().map(|(a, b)| a < b).collect()
        }
    }

    #[test]
    fn batch_build_issues_one_call_per_tournament_level() {
        let mut q = TmTree::new(4);
        let mut cmp = BatchRecorder::default();
        q.push_batch((0..17u64).collect(), &mut cmp);
        assert_eq!(cmp.widths, vec![8, 4, 2, 1, 1]);
        assert_eq!(cmp.widths.iter().sum::<usize>(), 16);
        assert_eq!(cmp.singles, 0, "no per-duel calls while building");
        assert_eq!(q.counts().total(), 16);
    }

    #[test]
    fn merging_two_trees_costs_one_comparison() {
        let mut q = TmTree::new(4);
        let mut cmp = plain();
        q.push_batch((0..8u64).collect(), &mut cmp);
        let merges_before = q.counts().merge;
        // Same-size batch must trigger a similar-size merge.
        q.push_batch((100..108u64).collect(), &mut cmp);
        let delta = q.counts().merge - merges_before;
        // 1 structural merge + ≤ chain updates.
        assert!(delta <= 3, "merge burst cost {delta}");
    }

    #[test]
    fn interleaved_ops_keep_invariants() {
        let mut q = TmTree::new(4);
        let mut cmp = plain();
        let mut x = 1u64;
        for round in 0..50 {
            let batch: Vec<u64> = (0..(round % 7 + 1))
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(round);
                    x >> 32
                })
                .collect();
            q.push_batch(batch, &mut cmp);
            if round % 2 == 0 {
                q.pop(&mut cmp);
            }
            q.check_invariants().expect("invariant");
        }
    }

    #[test]
    fn subtree_count_stays_logarithmic() {
        let mut q = TmTree::new(4);
        let mut cmp = plain();
        for i in 0..500u64 {
            q.push_batch(vec![i * 37 % 251], &mut cmp);
        }
        // O(log_4 500) ≈ 5; allow generous slack.
        assert!(
            q.num_subtrees() <= 12,
            "too many sub-trees: {}",
            q.num_subtrees()
        );
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: TmTree<u64> = TmTree::new(4);
        let mut cmp = plain();
        assert_eq!(q.pop(&mut cmp), None);
        q.push_batch(vec![], &mut cmp);
        assert_eq!(q.len(), 0);
        q.push_batch(vec![7], &mut cmp);
        assert_eq!(q.pop(&mut cmp), Some(7));
        assert_eq!(q.pop(&mut cmp), None);
        q.check_invariants().unwrap();
    }

    #[test]
    fn duplicate_priorities_all_come_out() {
        let mut q = TmTree::new(4);
        let mut cmp = plain();
        q.push_batch(vec![5u64; 10], &mut cmp);
        q.push_batch(vec![3u64; 3], &mut cmp);
        let mut out = Vec::new();
        while let Some(x) = q.pop(&mut cmp) {
            out.push(x);
        }
        assert_eq!(out, vec![3, 3, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5]);
    }

    #[test]
    fn amortized_push_cost_approaches_one() {
        // The paper's key claim: pushing in batches of ~10 costs ~1
        // comparison per item (vs log |Q| for a heap).
        let mut q = TmTree::new(4);
        let mut cmp = plain();
        let mut pushed = 0u64;
        let mut x = 7u64;
        for _ in 0..300 {
            let batch: Vec<u64> = (0..10)
                .map(|_| {
                    x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                    x >> 33
                })
                .collect();
            pushed += batch.len() as u64;
            q.push_batch(batch, &mut cmp);
            q.pop(&mut cmp);
        }
        let push_cost = q.counts().build + q.counts().merge;
        let per_item = push_cost as f64 / pushed as f64;
        assert!(
            per_item < 1.5,
            "amortized push cost {per_item:.2} should be close to 1"
        );
    }
}
