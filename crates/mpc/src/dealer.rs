//! Trusted-dealer preprocessing: correlated randomness for the online phase.
//!
//! The paper instantiates Fed-SAC with MP-SPDZ's "Temi" protocol, whose
//! offline phase produces shared randomness via threshold homomorphic
//! encryption, optimized with **edaBits**. We substitute a trusted dealer —
//! the standard simulation technique for semi-honest preprocessing — that
//! hands out the same two correlated-randomness flavors:
//!
//! * [`EdaBit`]: a uniformly random `r ∈ ℤ₂⁶⁴`, additively shared, together
//!   with XOR shares of its bit decomposition. Consumed once per masked
//!   opening.
//! * [`TripleWord`]: 64 independent binary Beaver triples packed into one
//!   `u64` word per component (`c = a & b` bitwise). Consumed once per
//!   shared-AND word gate.
//!
//! Offline traffic is accounted separately from the online phase (the
//! paper's evaluation also reports only online costs for queries).

use crate::block::{EdaBitBlock, ShareBlock, TripleBlock};
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

/// One word of 64 packed binary Beaver triples, XOR-shared.
#[derive(Clone)]
pub struct TripleWord {
    /// XOR shares of the random word `a`.
    pub a: Vec<u64>,
    /// XOR shares of the random word `b`.
    pub b: Vec<u64>,
    /// XOR shares of `c = a & b`.
    pub c: Vec<u64>,
}

// lint: debug-ok(redacted: prints party count only, never share words)
impl std::fmt::Debug for EdaBit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "EdaBit(<redacted, {} parties>)", self.arith.len())
    }
}

// lint: debug-ok(redacted: prints party count only, never share words)
impl std::fmt::Debug for TripleWord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TripleWord(<redacted, {} parties>)", self.a.len())
    }
}

/// Accounting of the preprocessing phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DealerStats {
    /// edaBits issued.
    pub edabits: u64,
    /// Triple words issued (64 bit-triples each).
    pub triple_words: u64,
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

    /// Issues one packed triple word.
    pub fn triple_word(&mut self) -> TripleWord {
        let a: u64 = self.rng.gen();
        let b: u64 = self.rng.gen();
        let c = a & b;
        let t = TripleWord {
            a: xor_shares(&mut self.rng, self.n, a),
            b: xor_shares(&mut self.rng, self.n, b),
            c: xor_shares(&mut self.rng, self.n, c),
        };
        self.stats.triple_words += 1;
        self.stats.bytes += (self.n as u64) * 24;
        t
    }

    /// Issues `k` edaBits directly into a flat [`EdaBitBlock`].
    ///
    /// Draws from the RNG in **exactly** the order `k` scalar
    /// [`Self::edabit`] calls would (pinned by test), so the blocked fast
    /// path of the vectorized kernels consumes the same deterministic
    /// stream as the scalar reference — the property every committed bench
    /// baseline relies on.
    pub fn edabit_block(&mut self, k: usize) -> EdaBitBlock {
        let mut blk = EdaBitBlock::zeroed(self.n, k);
        for i in 0..k {
            let r: u64 = self.rng.gen();
            fill_additive_lane(&mut self.rng, self.n, r, &mut blk.arith, i);
            fill_xor_lane(&mut self.rng, self.n, r, &mut blk.bits, i);
        }
        self.stats.edabits += k as u64;
        self.stats.bytes += (k as u64) * (self.n as u64) * 16;
        blk
    }

    /// Issues `k` packed triple words directly into a flat [`TripleBlock`],
    /// with the same draw-order guarantee as [`Self::edabit_block`].
    pub fn triple_block(&mut self, k: usize) -> TripleBlock {
        let mut blk = TripleBlock::zeroed(self.n, k);
        for i in 0..k {
            let a: u64 = self.rng.gen();
            let b: u64 = self.rng.gen();
            let c = a & b;
            fill_xor_lane(&mut self.rng, self.n, a, &mut blk.a, i);
            fill_xor_lane(&mut self.rng, self.n, b, &mut blk.b, i);
            fill_xor_lane(&mut self.rng, self.n, c, &mut blk.c, i);
        }
        self.stats.triple_words += k as u64;
        self.stats.bytes += (k as u64) * (self.n as u64) * 24;
        blk
    }

    /// Accounts the randomness a modeled (non-executing) protocol run would
    /// consume, without generating it.
    pub fn account(&mut self, edabits: u64, triple_words: u64) {
        self.stats.edabits += edabits;
        self.stats.triple_words += triple_words;
        self.stats.bytes += edabits * (self.n as u64) * 16 + triple_words * (self.n as u64) * 24;
    }

    /// Preprocessing statistics so far.
    pub fn stats(&self) -> DealerStats {
        self.stats
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

    #[test]
    fn triples_satisfy_and_relation() {
        let mut dealer = Dealer::new(4, 9);
        for _ in 0..50 {
            let t = dealer.triple_word();
            let (a, b, c) = (
                reconstruct_xor(&t.a),
                reconstruct_xor(&t.b),
                reconstruct_xor(&t.c),
            );
            assert_eq!(c, a & b);
        }
    }

    #[test]
    fn dealer_is_deterministic_per_seed() {
        let mut d1 = Dealer::new(3, 42);
        let mut d2 = Dealer::new(3, 42);
        assert_eq!(d1.edabit().arith, d2.edabit().arith);
        assert_eq!(d1.triple_word().c, d2.triple_word().c);
    }

    #[test]
    fn accounting_matches_issuance() {
        let mut real = Dealer::new(3, 1);
        real.edabit();
        real.triple_word();
        real.triple_word();
        let mut modeled = Dealer::new(3, 1);
        modeled.account(1, 2);
        assert_eq!(real.stats(), modeled.stats());
    }

    #[test]
    fn blocked_issuance_is_bit_identical_to_scalar_issuance() {
        // Same seed: a block of k items must consume the RNG in exactly
        // the order of k scalar calls and hand out the same shares — the
        // determinism every committed bench baseline depends on.
        for n in [2usize, 3, 5] {
            let mut scalar = Dealer::new(n, 77);
            let mut blocked = Dealer::new(n, 77);
            let eb = blocked.edabit_block(4);
            for i in 0..4 {
                let e = scalar.edabit();
                for p in 0..n {
                    assert_eq!(eb.arith.get(p, i), e.arith[p]);
                    assert_eq!(eb.bits.get(p, i), e.bits[p]);
                }
            }
            let tb = blocked.triple_block(3);
            for i in 0..3 {
                let t = scalar.triple_word();
                for p in 0..n {
                    assert_eq!(tb.a.get(p, i), t.a[p]);
                    assert_eq!(tb.b.get(p, i), t.b[p]);
                    assert_eq!(tb.c.get(p, i), t.c[p]);
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
