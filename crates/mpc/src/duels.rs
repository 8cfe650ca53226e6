//! Fed-SAC input batches: the duels one comparison request carries.
//!
//! A duel is two silo-indexed partial-cost vectors, path A's and path B's.
//! The engine and the round scheduler read a batch through the [`Duels`]
//! trait, so a caller's nested `(Vec, Vec)` pairs and a flat [`DuelBuf`]
//! both go in without being copied into another shape first.

// Protocol hot path: a malformed request must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::error::ProtocolError;

/// Partial costs must stay below 2⁵⁴ so sums across ≤ 2⁸ silos keep the
/// signed difference exact (road-network costs are ≤ 2⁴⁰).
const MAX_COST_EXCLUSIVE: u64 = 1 << 54;

/// Read access to a batch of duels. Duel `i` is `(a, b)`, where `a[p]` and
/// `b[p]` are silo `p`'s partial costs of the two paths.
pub trait Duels {
    /// Number of duels in the batch.
    fn count(&self) -> usize;
    /// Duel `i`'s two partial-cost vectors.
    fn duel(&self, i: usize) -> (&[u64], &[u64]);
}

impl Duels for [(Vec<u64>, Vec<u64>)] {
    fn count(&self) -> usize {
        self.len()
    }
    fn duel(&self, i: usize) -> (&[u64], &[u64]) {
        let (a, b) = &self[i];
        (a, b)
    }
}

impl Duels for Vec<(Vec<u64>, Vec<u64>)> {
    fn count(&self) -> usize {
        self.len()
    }
    fn duel(&self, i: usize) -> (&[u64], &[u64]) {
        self.as_slice().duel(i)
    }
}

impl<const N: usize> Duels for [(Vec<u64>, Vec<u64>); N] {
    fn count(&self) -> usize {
        N
    }
    fn duel(&self, i: usize) -> (&[u64], &[u64]) {
        self.as_slice().duel(i)
    }
}

/// Checks every duel of `duels` against the protocol bounds: one cost per
/// silo on each side, every cost below [`MAX_COST_EXCLUSIVE`].
pub(crate) fn validate<D: Duels + ?Sized>(duels: &D, parties: usize) -> Result<(), ProtocolError> {
    for i in 0..duels.count() {
        let (a, b) = duels.duel(i);
        for side in [a, b] {
            if side.len() != parties {
                return Err(ProtocolError::WrongSiloCount {
                    expected: parties,
                    got: side.len(),
                });
            }
            if let Some(&value) = side.iter().find(|&&v| v >= MAX_COST_EXCLUSIVE) {
                return Err(ProtocolError::CostOutOfRange { value });
            }
        }
    }
    Ok(())
}

/// A flat, reusable batch of duels for `parties` silos: duel `i` occupies
/// `words[2·parties·i ..]`, path A's costs and then path B's. Clearing
/// keeps the capacity, so a buffer filled once per request stops
/// allocating after the first few.
///
/// Deliberately not `Debug`: the words are partial costs.
#[derive(Default)]
pub struct DuelBuf {
    parties: usize,
    words: Vec<u64>,
}

impl DuelBuf {
    /// An empty batch for `parties` silos.
    pub fn new(parties: usize) -> Self {
        DuelBuf {
            parties,
            words: Vec::new(),
        }
    }

    /// Removes every duel, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Appends one duel from the two sides' costs. A side that does not
    /// carry exactly one cost per silo leaves the batch unchanged and
    /// returns [`ProtocolError::WrongSiloCount`].
    pub fn push(
        &mut self,
        a: impl IntoIterator<Item = u64>,
        b: impl IntoIterator<Item = u64>,
    ) -> Result<(), ProtocolError> {
        let start = self.words.len();
        self.words.extend(a);
        let mid = self.words.len();
        self.words.extend(b);
        let got = if mid - start != self.parties {
            mid - start
        } else {
            self.words.len() - mid
        };
        if got != self.parties {
            self.words.truncate(start);
            return Err(ProtocolError::WrongSiloCount {
                expected: self.parties,
                got,
            });
        }
        Ok(())
    }

    /// Appends every duel of `duels`, which must already have passed
    /// [`validate`] for this batch's silo count.
    pub(crate) fn extend_from<D: Duels + ?Sized>(&mut self, duels: &D) {
        for i in 0..duels.count() {
            let (a, b) = duels.duel(i);
            self.words.extend_from_slice(a);
            self.words.extend_from_slice(b);
        }
    }

    /// Drops the `count` duels starting at duel `first`.
    pub(crate) fn remove(&mut self, first: usize, count: usize) {
        let w = 2 * self.parties;
        self.words.drain(first * w..(first + count) * w);
    }

    /// The batch as nested pairs, for backends that take that shape.
    pub(crate) fn to_pairs(&self) -> Vec<(Vec<u64>, Vec<u64>)> {
        (0..self.count())
            .map(|i| {
                let (a, b) = self.duel(i);
                (a.to_vec(), b.to_vec())
            })
            .collect()
    }
}

impl Duels for DuelBuf {
    fn count(&self) -> usize {
        if self.parties == 0 {
            0
        } else {
            self.words.len() / (2 * self.parties)
        }
    }
    fn duel(&self, i: usize) -> (&[u64], &[u64]) {
        let n = self.parties;
        let at = 2 * n * i;
        (&self.words[at..at + n], &self.words[at + n..at + 2 * n])
    }
}
