//! Trusted-dealer preprocessing: correlated randomness for the online phase.
//!
//! The paper instantiates Fed-SAC with MP-SPDZ's "Temi" protocol, whose
//! offline phase produces shared randomness via threshold homomorphic
//! encryption, optimized with **edaBits**. We substitute a trusted dealer —
//! the standard simulation technique for semi-honest preprocessing — that
//! hands out two correlated-randomness flavors:
//!
//! * [`EdaBit`]: a uniformly random `r ∈ ℤ₂⁶⁴`, additively shared, together
//!   with XOR shares of its bit decomposition. Consumed once per masked
//!   opening.
//! * **carry correlations**: per lane of the radix-4 adder and per carry
//!   layer, fresh random mask words `a`, `b` and the products of their
//!   shifts the layer formula needs ([`CARRY_MONOMIALS`]), each XOR-shared.
//!   [`ADDER_CORR_WORDS`] words per addition.
//!
//! Both are written into caller-owned blocks ([`Dealer::fill_edabits`],
//! [`Dealer::fill_carry_corr`]) so an execution allocates nothing here.
//! Offline traffic is accounted separately from the online phase (the
//! paper's evaluation also reports only online costs for queries).

use crate::binary::{
    monomial_of, shifted_masks, ADDER_CORR_WORDS, CARRY_MONOMIALS, CARRY_SHIFTS, LANE_WORDS,
    LAYER_WORDS,
};
use crate::block::{EdaBitBlock, ShareBlock};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Additive + binary sharing of one random 64-bit value.
#[derive(Clone)]
pub struct EdaBit {
    /// `arith[p]` = party `p`'s additive share; `Σ arith[p] ≡ r (mod 2⁶⁴)`.
    pub arith: Vec<u64>,
    /// `bits[p]` = party `p`'s XOR share of the bit word; `⊕ bits[p] = r`.
    pub bits: Vec<u64>,
}

// lint: debug-ok(redacted: prints party count only, never share words)
impl std::fmt::Debug for EdaBit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EdaBit(<redacted, {} parties>)", self.arith.len())
    }
}

/// Accounting of the preprocessing phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DealerStats {
    /// edaBits issued.
    pub edabits: u64,
    /// Carry-correlation words issued (XOR-shared masks and monomials).
    pub corr_words: u64,
    /// Total bytes of correlated randomness distributed to parties.
    pub bytes: u64,
}

/// The dealer. Deterministic per seed, so experiments are reproducible.
#[derive(Debug)]
pub struct Dealer {
    n: usize,
    rng: ChaCha12Rng,
    stats: DealerStats,
}

impl Dealer {
    /// Creates a dealer for `n` parties.
    pub fn new(n: usize, seed: u64) -> Self {
        assert!(n >= 2);
        Dealer {
            n,
            rng: ChaCha12Rng::seed_from_u64(seed ^ 0xDEA1_E400_0000_0001),
            stats: DealerStats::default(),
        }
    }

    /// Number of parties this dealer serves.
    pub fn num_parties(&self) -> usize {
        self.n
    }

    /// Issues one edaBit.
    pub fn edabit(&mut self) -> EdaBit {
        let r: u64 = self.rng.gen();
        let arith = additive_shares(&mut self.rng, self.n, r);
        let bits = xor_shares(&mut self.rng, self.n, r);
        self.stats.edabits += 1;
        self.stats.bytes += (self.n as u64) * 16;
        EdaBit { arith, bits }
    }

    /// Issues `k` edaBits into `out`, reshaped to `k` lanes.
    ///
    /// Draws from the RNG in **exactly** the order `k` scalar
    /// [`Self::edabit`] calls would (pinned by test), so the deterministic
    /// stream does not depend on how issuance is batched.
    pub fn fill_edabits(&mut self, k: usize, out: &mut EdaBitBlock) {
        out.arith.reset(self.n, k);
        out.bits.reset(self.n, k);
        for i in 0..k {
            let r: u64 = self.rng.gen();
            fill_additive_lane(&mut self.rng, self.n, r, &mut out.arith, i);
            fill_xor_lane(&mut self.rng, self.n, r, &mut out.bits, i);
        }
        self.stats.edabits += k as u64;
        self.stats.bytes += (k as u64) * (self.n as u64) * 16;
    }

    /// Issues the carry correlations of `k` additions into `out`, reshaped
    /// to `k ·` [`LANE_WORDS`] lanes: party `p`'s row holds lane `i`'s
    /// words at `i · LANE_WORDS..`, layer after layer, each layer
    /// `[a, b, CARRY_MONOMIALS…]` ([`LAYER_WORDS`] long).
    ///
    /// Lane by lane and layer by layer, the dealer draws `a` and `b`, then
    /// `P − 1` shares per word, so `k` one-lane calls consume the stream
    /// exactly like one `k`-lane call.
    pub fn fill_carry_corr(&mut self, k: usize, out: &mut ShareBlock) {
        out.reset(self.n, k * LANE_WORDS);
        let mut values = [0u64; LAYER_WORDS[0]];
        let mut col = 0;
        for _ in 0..k {
            for (&s, &words) in CARRY_SHIFTS.iter().zip(&LAYER_WORDS) {
                let (a, b): (u64, u64) = (self.rng.gen(), self.rng.gen());
                let shifted = shifted_masks(a, b, s);
                values[0] = a;
                values[1] = b;
                for (v, &m) in values[2..words].iter_mut().zip(&CARRY_MONOMIALS) {
                    *v = monomial_of(&shifted, m);
                }
                for &v in &values[..words] {
                    fill_xor_lane(&mut self.rng, self.n, v, out, col);
                    col += 1;
                }
            }
        }
        self.stats.corr_words += k as u64 * ADDER_CORR_WORDS;
        self.stats.bytes += k as u64 * ADDER_CORR_WORDS * (self.n as u64) * 8;
    }

    /// Accounts the randomness a modeled (non-executing) protocol run would
    /// consume, without generating it.
    pub fn account(&mut self, edabits: u64, corr_words: u64) {
        self.stats.edabits += edabits;
        self.stats.corr_words += corr_words;
        self.stats.bytes += edabits * (self.n as u64) * 16 + corr_words * (self.n as u64) * 8;
    }

    /// Preprocessing statistics so far.
    pub fn stats(&self) -> DealerStats {
        self.stats
    }

    /// The dealer's next raw RNG word (pins the stream position in tests).
    #[cfg(test)]
    pub(crate) fn next_word(&mut self) -> u64 {
        self.rng.gen()
    }
}

/// Writes `n` additive shares of `value` into lane `lane` of `blk`, drawing
/// from `rng` in the exact order of [`additive_shares`].
fn fill_additive_lane(
    rng: &mut ChaCha12Rng,
    n: usize,
    value: u64,
    blk: &mut ShareBlock,
    lane: usize,
) {
    let mut acc = 0u64;
    for p in 0..n - 1 {
        let s: u64 = rng.gen();
        blk.set(p, lane, s);
        acc = acc.wrapping_add(s);
    }
    blk.set(n - 1, lane, value.wrapping_sub(acc));
}

/// Writes `n` XOR shares of `value` into lane `lane` of `blk`, drawing from
/// `rng` in the exact order of [`xor_shares`].
fn fill_xor_lane(rng: &mut ChaCha12Rng, n: usize, value: u64, blk: &mut ShareBlock, lane: usize) {
    let mut acc = 0u64;
    for p in 0..n - 1 {
        let s: u64 = rng.gen();
        blk.set(p, lane, s);
        acc ^= s;
    }
    blk.set(n - 1, lane, value ^ acc);
}

/// Splits `value` into `n` additive shares modulo 2⁶⁴.
pub fn additive_shares(rng: &mut impl Rng, n: usize, value: u64) -> Vec<u64> {
    let mut shares: Vec<u64> = (0..n - 1).map(|_| rng.gen()).collect();
    let partial: u64 = shares.iter().fold(0u64, |acc, &s| acc.wrapping_add(s));
    shares.push(value.wrapping_sub(partial));
    shares
}

/// Splits `value` into `n` XOR shares.
pub fn xor_shares(rng: &mut impl Rng, n: usize, value: u64) -> Vec<u64> {
    let mut shares: Vec<u64> = (0..n - 1).map(|_| rng.gen()).collect();
    let partial = shares.iter().fold(0u64, |acc, &s| acc ^ s);
    shares.push(value ^ partial);
    shares
}

/// Reconstructs an additively shared value (test/audit helper).
pub fn reconstruct_additive(shares: &[u64]) -> u64 {
    shares.iter().fold(0u64, |acc, &s| acc.wrapping_add(s))
}

/// Reconstructs an XOR-shared value (test/audit helper).
pub fn reconstruct_xor(shares: &[u64]) -> u64 {
    shares.iter().fold(0u64, |acc, &s| acc ^ s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_shares_reconstruct() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for v in [0u64, 1, u64::MAX, 0xDEAD_BEEF] {
            for n in 2..6 {
                assert_eq!(reconstruct_additive(&additive_shares(&mut rng, n, v)), v);
            }
        }
    }

    #[test]
    fn xor_shares_reconstruct() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        for v in [0u64, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            for n in 2..6 {
                assert_eq!(reconstruct_xor(&xor_shares(&mut rng, n, v)), v);
            }
        }
    }

    #[test]
    fn edabit_arith_and_bits_agree() {
        let mut dealer = Dealer::new(3, 7);
        for _ in 0..50 {
            let e = dealer.edabit();
            assert_eq!(reconstruct_additive(&e.arith), reconstruct_xor(&e.bits));
        }
    }

    /// One lane of carry correlations, per party.
    fn one_lane(dealer: &mut Dealer) -> Vec<Vec<u64>> {
        let mut blk = ShareBlock::default();
        dealer.fill_carry_corr(1, &mut blk);
        (0..dealer.num_parties())
            .map(|p| blk.party(p).to_vec())
            .collect()
    }

    #[test]
    fn carry_correlations_satisfy_their_monomials() {
        let mut dealer = Dealer::new(4, 9);
        for _ in 0..50 {
            let rows = one_lane(&mut dealer);
            let word = |j: usize| reconstruct_xor(&rows.iter().map(|r| r[j]).collect::<Vec<_>>());
            let mut offset = 0;
            for (&s, &words) in CARRY_SHIFTS.iter().zip(&LAYER_WORDS) {
                let masks = shifted_masks(word(offset), word(offset + 1), s);
                for (j, &m) in CARRY_MONOMIALS[..words - 2].iter().enumerate() {
                    assert_eq!(word(offset + 2 + j), monomial_of(&masks, m));
                }
                offset += words;
            }
            assert_eq!(offset, LANE_WORDS);
        }
    }

    #[test]
    fn dealer_is_deterministic_per_seed() {
        let mut d1 = Dealer::new(3, 42);
        let mut d2 = Dealer::new(3, 42);
        assert_eq!(d1.edabit().arith, d2.edabit().arith);
        assert_eq!(one_lane(&mut d1), one_lane(&mut d2));
    }

    #[test]
    fn accounting_matches_issuance() {
        let mut real = Dealer::new(3, 1);
        real.edabit();
        real.fill_carry_corr(2, &mut ShareBlock::default());
        let mut modeled = Dealer::new(3, 1);
        modeled.account(1, 2 * ADDER_CORR_WORDS);
        assert_eq!(real.stats(), modeled.stats());
    }

    #[test]
    fn blocked_issuance_is_bit_identical_to_scalar_issuance() {
        // Same seed: a block of k items must consume the RNG in exactly
        // the order of k one-item calls and hand out the same shares — the
        // determinism every committed bench baseline depends on.
        for n in [2usize, 3, 5] {
            let mut scalar = Dealer::new(n, 77);
            let mut blocked = Dealer::new(n, 77);
            let mut eb = EdaBitBlock::default();
            blocked.fill_edabits(4, &mut eb);
            for i in 0..4 {
                let e = scalar.edabit();
                for p in 0..n {
                    assert_eq!(eb.arith.get(p, i), e.arith[p]);
                    assert_eq!(eb.bits.get(p, i), e.bits[p]);
                }
            }
            let mut cb = ShareBlock::default();
            blocked.fill_carry_corr(3, &mut cb);
            for i in 0..3 {
                let rows = one_lane(&mut scalar);
                for (p, row) in rows.iter().enumerate() {
                    assert_eq!(&cb.party(p)[i * LANE_WORDS..(i + 1) * LANE_WORDS], &row[..]);
                }
            }
            assert_eq!(scalar.stats(), blocked.stats());
            // And the streams stay aligned after mixed issuance.
            assert_eq!(scalar.edabit().arith, blocked.edabit().arith);
        }
    }

    #[test]
    fn shares_look_random() {
        // Each individual share of a fixed value should vary run to run —
        // the basic secrecy property of the sharing.
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let s1 = additive_shares(&mut rng, 2, 5);
        let s2 = additive_shares(&mut rng, 2, 5);
        assert_ne!(s1[0], s2[0]);
    }
}
