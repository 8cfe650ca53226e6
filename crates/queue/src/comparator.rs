//! The comparator abstraction that lets one queue implementation serve both
//! plain-text and federated searches.
//!
//! In FedRoad the expensive operation is not moving items around but
//! *comparing* them — each comparison of two queue entries is a Fed-SAC
//! invocation costing multiple communication rounds. Queues therefore never
//! require `T: Ord`; they call back into a [`Comparator`], which in the
//! federated engine wraps the MPC engine and in baselines is a plain
//! closure. Every call is tallied by [`CompareCounts`] under the phase that
//! issued it, which is exactly the split reported in the paper's Figure 12.

/// Decides whether `a` has strictly higher priority (smaller cost) than `b`.
pub trait Comparator<T> {
    /// Returns `true` iff `a` must be popped before `b`.
    fn less(&mut self, a: &T, b: &T) -> bool;

    /// Decides a batch of **independent** comparisons at once.
    ///
    /// Results must equal element-wise [`Self::less`] calls (the default
    /// does exactly that). Comparators backed by a multi-round protocol
    /// override this to share rounds across the batch; queues that know a
    /// set of comparisons is independent (the TM-tree's per-level
    /// tournament duels) route through it.
    fn less_batch(&mut self, pairs: &[(&T, &T)]) -> Vec<bool> {
        pairs.iter().map(|(a, b)| self.less(a, b)).collect()
    }
}

impl<T, F: FnMut(&T, &T) -> bool> Comparator<T> for F {
    #[inline]
    fn less(&mut self, a: &T, b: &T) -> bool {
        self(a, b)
    }
}

/// Which queue operation issued a comparison (Figure 12's categories).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Building a sub-queue out of a batch of pushed items.
    Build,
    /// Merging a sub-queue into the global queue (for the plain binary
    /// heap, every push counts as a merge, following the paper).
    Merge,
    /// Popping the minimum.
    Pop,
}

/// Comparison counts split by phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompareCounts {
    /// Comparisons issued while building sub-queues.
    pub build: u64,
    /// Comparisons issued while merging into the global queue.
    pub merge: u64,
    /// Comparisons issued while popping.
    pub pop: u64,
}

impl CompareCounts {
    /// Total comparisons across phases.
    pub fn total(&self) -> u64 {
        self.build + self.merge + self.pop
    }

    /// Tallies one comparison under `phase`.
    #[inline]
    pub fn record(&mut self, phase: Phase) {
        match phase {
            Phase::Build => self.build += 1,
            Phase::Merge => self.merge += 1,
            Phase::Pop => self.pop += 1,
        }
    }

    /// Accumulates `other` into `self`.
    pub fn merge_from(&mut self, other: &CompareCounts) {
        self.build += other.build;
        self.merge += other.merge;
        self.pop += other.pop;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_comparators() {
        let mut cmp = |a: &u32, b: &u32| a < b;
        assert!(Comparator::less(&mut cmp, &1, &2));
        assert!(!Comparator::less(&mut cmp, &2, &2));
    }

    #[test]
    fn counts_record_by_phase() {
        let mut c = CompareCounts::default();
        c.record(Phase::Build);
        c.record(Phase::Build);
        c.record(Phase::Merge);
        c.record(Phase::Pop);
        assert_eq!(c.build, 2);
        assert_eq!(c.merge, 1);
        assert_eq!(c.pop, 1);
        assert_eq!(c.total(), 4);
    }

    #[test]
    fn counts_merge() {
        let mut a = CompareCounts {
            build: 1,
            merge: 2,
            pop: 3,
        };
        a.merge_from(&CompareCounts {
            build: 10,
            merge: 20,
            pop: 30,
        });
        assert_eq!(a.total(), 66);
    }
}
