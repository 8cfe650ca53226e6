//! Flat struct-of-arrays lane buffers for the batched share kernels.
//!
//! The batched kernels (`add_public_block`, `less_than_zero_many`)
//! originally carried a `Vec<SharedWord>` — one heap vector per gate —
//! and cloned them in every carry layer. A [`ShareBlock`] stores the
//! same `k` lanes × `n` parties of share words in **one** contiguous
//! party-major `Vec<u64>` slab (`data[p · lanes + i]` is party `p`'s share
//! of lane `i`), so the kernels become straight loops over `&[u64]` /
//! `&mut [u64]` rows that the compiler can autovectorize, and broadcast
//! payloads are assembled directly from the rows without per-gate
//! allocation.
//!
//! Party-major (rather than lane-major) layout is the deliberate choice:
//! every kernel step is "for each party, combine this party's row of all
//! lanes", which makes the row a single cache-friendly slice. Lane-major
//! would scatter one gate's shares across `n` strides instead.

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::binary::SharedWord;

/// `k` lanes of XOR- (or additively-) shared 64-bit words for `n` parties,
/// stored as one contiguous party-major slab.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct ShareBlock {
    parties: usize,
    lanes: usize,
    /// `data[p * lanes + i]` = party `p`'s share of lane `i`.
    data: Vec<u64>,
}

// lint: debug-ok(redacted: prints dimensions only, never share words)
impl std::fmt::Debug for ShareBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ShareBlock(<redacted, {} lanes x {} parties>)",
            self.lanes, self.parties
        )
    }
}

impl ShareBlock {
    /// An all-zero block of `lanes` lanes for `parties` parties.
    pub fn zeroed(parties: usize, lanes: usize) -> Self {
        ShareBlock {
            parties,
            lanes,
            data: vec![0u64; parties * lanes],
        }
    }

    /// Reshapes the block to `parties × lanes` and zeroes it, reusing the
    /// allocation: how kernel scratch blocks are recycled across calls.
    pub(crate) fn reset(&mut self, parties: usize, lanes: usize) {
        self.parties = parties;
        self.lanes = lanes;
        self.data.clear();
        self.data.resize(parties * lanes, 0);
    }

    /// Packs legacy per-gate shared words (lane-major) into a block.
    /// Every word must have exactly `parties` shares.
    pub fn from_words(parties: usize, words: &[SharedWord]) -> Self {
        let mut blk = ShareBlock::zeroed(parties, words.len());
        for (i, w) in words.iter().enumerate() {
            debug_assert_eq!(w.len(), parties);
            for (p, &s) in w.iter().enumerate() {
                blk.set(p, i, s);
            }
        }
        blk
    }

    /// Unpacks the block back into lane-major per-gate shared words.
    pub fn to_words(&self) -> Vec<SharedWord> {
        (0..self.lanes)
            .map(|i| (0..self.parties).map(|p| self.get(p, i)).collect())
            .collect()
    }

    /// Number of parties `n`.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// Number of lanes `k`.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Party `p`'s row of all `k` lane shares, as one contiguous slice.
    pub fn party(&self, p: usize) -> &[u64] {
        &self.data[p * self.lanes..(p + 1) * self.lanes]
    }

    /// Mutable access to party `p`'s row.
    pub fn party_mut(&mut self, p: usize) -> &mut [u64] {
        &mut self.data[p * self.lanes..(p + 1) * self.lanes]
    }

    /// Party `p`'s share of lane `i`.
    pub fn get(&self, p: usize, i: usize) -> u64 {
        self.data[p * self.lanes + i]
    }

    /// Sets party `p`'s share of lane `i`.
    pub fn set(&mut self, p: usize, i: usize, v: u64) {
        self.data[p * self.lanes + i] = v;
    }
}

/// Block of `k` edaBits: lane `i` of `arith` additively shares a random
/// `r_i`, lane `i` of `bits` XOR-shares its bit decomposition. The blocked
/// twin of `Vec<EdaBit>`, filled by `Dealer::fill_edabits` with the exact
/// RNG draw order of `k` scalar `edabit()` calls (pinned by test), so block
/// issuance never perturbs the deterministic dealer stream.
#[derive(Clone, Default)]
pub struct EdaBitBlock {
    /// Additive shares of the random values, one lane per edaBit.
    pub arith: ShareBlock,
    /// XOR shares of the bit decompositions, one lane per edaBit.
    pub bits: ShareBlock,
}

// lint: debug-ok(redacted: prints dimensions only, never share words)
impl std::fmt::Debug for EdaBitBlock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EdaBitBlock(<redacted, {} lanes x {} parties>)",
            self.arith.lanes(),
            self.arith.parties()
        )
    }
}

impl EdaBitBlock {
    /// An all-zero block (filled in by the dealer).
    pub fn zeroed(parties: usize, lanes: usize) -> Self {
        EdaBitBlock {
            arith: ShareBlock::zeroed(parties, lanes),
            bits: ShareBlock::zeroed(parties, lanes),
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn words_roundtrip_through_the_slab() {
        let words: Vec<SharedWord> = vec![
            vec![1, 2, 3],
            vec![4, 5, 6],
            vec![7, 8, 9],
            vec![10, 11, 12],
        ];
        let blk = ShareBlock::from_words(3, &words);
        assert_eq!(blk.parties(), 3);
        assert_eq!(blk.lanes(), 4);
        assert_eq!(blk.to_words(), words);
    }

    #[test]
    fn layout_is_party_major() {
        let words: Vec<SharedWord> = vec![vec![10, 20], vec![11, 21], vec![12, 22]];
        let blk = ShareBlock::from_words(2, &words);
        // Party 0's row holds its share of every lane contiguously.
        assert_eq!(blk.party(0), &[10, 11, 12]);
        assert_eq!(blk.party(1), &[20, 21, 22]);
        assert_eq!(blk.get(1, 2), 22);
    }

    #[test]
    fn rows_are_independently_mutable() {
        let mut blk = ShareBlock::zeroed(2, 3);
        blk.party_mut(1).copy_from_slice(&[7, 8, 9]);
        blk.set(0, 1, 5);
        assert_eq!(blk.party(0), &[0, 5, 0]);
        assert_eq!(blk.party(1), &[7, 8, 9]);
    }

    #[test]
    fn reset_reshapes_and_zeroes_in_place() {
        let mut blk = ShareBlock::from_words(2, &[vec![1, 2], vec![3, 4]]);
        blk.reset(3, 1);
        assert_eq!((blk.parties(), blk.lanes()), (3, 1));
        assert_eq!(blk.to_words(), vec![vec![0, 0, 0]]);
    }

    #[test]
    fn zero_lane_blocks_are_legal() {
        let blk = ShareBlock::zeroed(4, 0);
        assert_eq!(blk.lanes(), 0);
        assert!(blk.to_words().is_empty());
        assert!(blk.party(3).is_empty());
    }

    #[test]
    fn debug_is_redacted() {
        let blk = ShareBlock::from_words(2, &[vec![0xDEAD_BEEF, 0x1234]]);
        let printed = format!("{:?} {:?}", blk, EdaBitBlock::zeroed(2, 1));
        assert!(!printed.contains("DEAD"), "share words leaked: {printed}");
        assert!(printed.contains("redacted"));
    }
}
