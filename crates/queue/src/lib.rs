//! # fedroad-queue — comparison-optimized priority queues
//!
//! In federated shortest-path search the bottleneck is not memory traffic
//! but the *secure comparison* (Fed-SAC) each ordering decision costs
//! (§VI of the FedRoad paper). This crate provides three priority queues
//! behind one [`PriorityQueue`] trait, all parameterized by an external
//! [`Comparator`] (a closure for plain baselines, the MPC engine for
//! federated search) and all tallying their comparisons by phase:
//!
//! | queue | batch build | merge into global | pop |
//! |-------|-------------|-------------------|-----|
//! | [`BinaryHeap`] | — (per-item sift-up) | `O(n log Q)` | `O(log Q)` |
//! | [`LeftistHeap`] | `O(n)` (constant ≈ 2) | `O(log Q)` | `O(log Q)` |
//! | [`TmTree`] | **`n − 1`** (optimal) | **`O(log_α Q)`**, 1 per merge | `O(log Q)` |
//!
//! The TM-tree is the paper's contribution; the other two are its
//! evaluation baselines (Figure 12).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod comparator;
mod heap;
mod leftist;
mod tmtree;

pub use comparator::{Comparator, CompareCounts, Phase};
pub use heap::BinaryHeap;
pub use leftist::LeftistHeap;
pub use tmtree::{TmTree, DEFAULT_ALPHA};

/// A min-priority queue whose ordering decisions are delegated to an
/// external, stateful, possibly *expensive* comparator.
///
/// Implementations never call the comparator more often than their
/// documented bounds — the comparator may be a multi-round MPC protocol.
pub trait PriorityQueue<T> {
    /// Pushes a batch of items that arrived together (in road-network
    /// search: all neighbours of the vertex just explored).
    fn push_batch(&mut self, items: Vec<T>, cmp: &mut dyn Comparator<T>);

    /// Removes and returns the minimum item, or `None` when empty.
    fn pop(&mut self, cmp: &mut dyn Comparator<T>) -> Option<T>;

    /// Number of items currently queued.
    fn len(&self) -> usize;

    /// Comparison counts incurred so far, split by phase.
    fn counts(&self) -> CompareCounts;

    /// Total items ever pushed — the information-theoretic floor on push
    /// comparisons (the dashed "#push" line of the paper's Figure 12).
    fn pushed(&self) -> u64;

    /// Pushes a single item (a batch of one).
    fn push(&mut self, item: T, cmp: &mut dyn Comparator<T>) {
        self.push_batch(vec![item], cmp);
    }

    /// Whether the queue is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Which queue structure a search should use — the experiment knob of
/// Figures 7–9 and 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// Plain binary heap.
    Heap,
    /// Leftist heap with batch insertion.
    LeftistHeap,
    /// Tournament Merge tree with the default balance factor.
    TmTree,
}

impl QueueKind {
    /// All kinds, in the paper's Figure 12 order.
    pub const ALL: [QueueKind; 3] = [QueueKind::Heap, QueueKind::LeftistHeap, QueueKind::TmTree];

    /// Display name used in experiment output.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Heap => "Heap",
            QueueKind::LeftistHeap => "L-heap",
            QueueKind::TmTree => "TM-tree",
        }
    }

    /// Instantiates an empty queue of this kind.
    pub fn instantiate<T: 'static>(self) -> Box<dyn PriorityQueue<T>> {
        match self {
            QueueKind::Heap => Box::new(BinaryHeap::new()),
            QueueKind::LeftistHeap => Box::new(LeftistHeap::new()),
            QueueKind::TmTree => Box::new(TmTree::new(DEFAULT_ALPHA)),
        }
    }
}

#[cfg(test)]
mod cross_queue_tests {
    use super::*;

    /// Drives all three queues through the same operation sequence and
    /// checks them against a sorted-vector reference model.
    fn model_check(ops: &[(bool, Vec<u64>)]) {
        for kind in QueueKind::ALL {
            let mut q = kind.instantiate::<u64>();
            let mut model: Vec<u64> = Vec::new();
            let mut cmp = |a: &u64, b: &u64| a < b;
            for (is_pop, batch) in ops {
                if *is_pop {
                    let got = q.pop(&mut cmp);
                    model.sort_unstable();
                    let want = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    assert_eq!(got, want, "{} diverged from model", kind.name());
                } else {
                    model.extend(batch.iter().copied());
                    q.push_batch(batch.clone(), &mut cmp);
                }
                assert_eq!(q.len(), model.len(), "{} length drift", kind.name());
            }
        }
    }

    #[test]
    fn all_queues_agree_with_model_on_mixed_workload() {
        let mut x = 12345u64;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x >> 33
        };
        let mut ops = Vec::new();
        for round in 0..120 {
            if round % 3 == 2 {
                ops.push((true, vec![]));
            } else {
                let n = (step() % 9 + 1) as usize;
                ops.push((false, (0..n).map(|_| step() % 1000).collect()));
            }
        }
        // Drain at the end.
        for _ in 0..1000 {
            ops.push((true, vec![]));
        }
        model_check(&ops);
    }

    #[test]
    fn tm_tree_beats_heap_on_batched_workloads() {
        // The paper's central Figure 12 claim, checked as an inequality.
        let mut heap = BinaryHeap::new();
        let mut tm = TmTree::new(DEFAULT_ALPHA);
        let mut cmp = |a: &u64, b: &u64| a < b;
        let mut x = 99u64;
        for round in 0..200u64 {
            let batch: Vec<u64> = (0..8)
                .map(|i| {
                    x = x.wrapping_mul(2862933555777941757).wrapping_add(i);
                    x >> 32
                })
                .collect();
            heap.push_batch(batch.clone(), &mut cmp);
            tm.push_batch(batch, &mut cmp);
            if round % 2 == 0 {
                heap.pop(&mut cmp);
                tm.pop(&mut cmp);
            }
        }
        assert!(
            tm.counts().total() < heap.counts().total(),
            "TM-tree {} should use fewer comparisons than heap {}",
            tm.counts().total(),
            heap.counts().total()
        );
        // And the push side specifically (build+merge) should be far lower.
        let tm_push = tm.counts().build + tm.counts().merge;
        let heap_push = heap.counts().merge;
        assert!(tm_push * 2 < heap_push, "push advantage must be large");
    }
}
