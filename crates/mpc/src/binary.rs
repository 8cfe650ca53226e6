//! Operations on XOR-shared 64-bit words: the binary half of the engine.
//!
//! A *shared word* is one `u64` per party whose XOR is the logical value;
//! each of its 64 bit positions is an independent shared bit, so all
//! gates below are 64-wide SIMD. Linear gates (XOR, NOT, shifts, AND with a
//! public constant) are local; the only communicating construction is the
//! radix-4 Kogge–Stone carry tree of [`add_public_block`], which the
//! comparison uses: three layers, each opening its generate/propagate
//! words under fresh dealer masks and finishing the fan-in-4 products
//! locally from dealer-supplied mask monomials ([`CARRY_MONOMIALS`]).
//!
//! The kernel runs on flat [`ShareBlock`] slabs: party-major contiguous
//! buffers whose inner loops are allocation-free slice walks, with the
//! broadcast payload and the dealer's correlation words held in
//! caller-owned scratch ([`AdderScratch`]) that is reused across calls.
//! The differential suite (`tests/prop_vectorized.rs`) pins it bit-identical
//! to a per-lane reference written from the layer formula.

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::block::ShareBlock;
use crate::dealer::Dealer;
use crate::error::ProtocolError;
use crate::net::{Mesh, MsgKind};

/// One XOR-shared 64-bit word: `shares[p]` belongs to party `p`.
pub type SharedWord = Vec<u64>;

/// Local XOR of two shared words.
pub fn xor_words(x: &SharedWord, y: &SharedWord) -> SharedWord {
    x.iter().zip(y).map(|(a, b)| a ^ b).collect()
}

/// Local XOR of a public constant into a shared word (party 0 absorbs it).
pub fn xor_public(x: &SharedWord, c: u64) -> SharedWord {
    x.iter()
        .enumerate()
        .map(|(p, &s)| if p == 0 { s ^ c } else { s })
        .collect()
}

/// Local AND with a public constant (distributes over XOR shares).
pub fn and_public(x: &SharedWord, c: u64) -> SharedWord {
    x.iter().map(|&s| s & c).collect()
}

/// Local left shift of every share.
pub fn shl_words(x: &SharedWord, shift: u32) -> SharedWord {
    x.iter().map(|&s| s << shift).collect()
}

/// Opens a shared word to all parties: one broadcast round.
///
/// The share vector *is* already the one-lane party-major flat payload, so
/// the flat broadcast path costs zero allocations (an earlier revision
/// built a nested `Vec<Vec<u64>>` per call).
pub fn open_word(mesh: &mut Mesh, kind: MsgKind, x: &SharedWord) -> u64 {
    mesh.broadcast_flat(kind, x, 1);
    // Every party folds all P contributions; they all get the same value,
    // so the lockstep runtime computes it once.
    x.iter().fold(0u64, |acc, &s| acc ^ s)
}

/// Communication rounds of [`add_public`]: one opening per carry layer.
pub const ADDER_ROUNDS: u64 = 3;

/// The radix-4 shift schedule. Layer `ℓ` combines the group signals at
/// distances `0, s, 2s, 3s` for `s = CARRY_SHIFTS[ℓ]`, so the span each
/// generate bit covers grows 4 → 16 → 64 bits.
pub const CARRY_SHIFTS: [u32; 3] = [1, 4, 16];

// Factor bits of a mask monomial.
const A1: u8 = 1 << 1;
const A2: u8 = 1 << 2;
const A3: u8 = 1 << 3;
const B0: u8 = 1 << 4;
const B1: u8 = 1 << 5;
const B2: u8 = 1 << 6;
const B3: u8 = 1 << 7;

/// The mask monomials of one carry layer, as factor sets: bit `j < 4`
/// selects `a ≪ j·s` and bit `4 + j` selects `b ≪ j·s`.
///
/// Multiplying out `G' = G ⊕ P·G₁ ⊕ P·P₁·G₂ ⊕ P·P₁·P₂·G₃` and
/// `P' = P·P₁·P₂·P₃` over `G = ε ⊕ a`, `P = δ ⊕ b` leaves products of two
/// or more masks. Each is one of these words shifted left by `0`, `s` or
/// `2s` (`b₁·a₂ = (b·a₁) ≪ s`), so the dealer ships only these. The first
/// ten serve `G'`, the last four only `P'`, which the last layer skips.
pub const CARRY_MONOMIALS: [u8; 14] = [
    B0 | A1,
    B0 | B1,
    B0 | A2,
    B0 | B2,
    B0 | A3,
    B0 | B1 | A2,
    B0 | B1 | B2,
    B0 | B1 | A3,
    B0 | B2 | A3,
    B0 | B1 | B2 | A3,
    B0 | B3,
    B0 | B1 | B3,
    B0 | B2 | B3,
    B0 | B1 | B2 | B3,
];

/// Correlation words per lane of each layer: `[a, b, monomials…]`, the
/// last layer without the four `P'`-only monomials.
pub const LAYER_WORDS: [usize; 3] = [16, 16, 12];

/// Correlation words per lane of one addition (all three layers).
pub const LANE_WORDS: usize = LAYER_WORDS[0] + LAYER_WORDS[1] + LAYER_WORDS[2];

/// Correlation words [`add_public`] consumes.
pub const ADDER_CORR_WORDS: u64 = LANE_WORDS as u64;

/// `[a, a ≪ s, a ≪ 2s, a ≪ 3s, b, b ≪ s, b ≪ 2s, b ≪ 3s]`: the factors
/// the bits of a monomial select.
pub(crate) fn shifted_masks(a: u64, b: u64, s: u32) -> [u64; 8] {
    [
        a,
        a << s,
        a << (2 * s),
        a << (3 * s),
        b,
        b << s,
        b << (2 * s),
        b << (3 * s),
    ]
}

/// The value of the mask monomial `factors`: the AND of the `shifted`
/// masks its bits select.
pub(crate) fn monomial_of(shifted: &[u64; 8], factors: u8) -> u64 {
    let mut value = u64::MAX;
    let mut bits = factors;
    while bits != 0 {
        value &= shifted[bits.trailing_zeros() as usize];
        bits &= bits - 1;
    }
    value
}

// Offsets of the layer words: the two masks, then `CARRY_MONOMIALS` in
// order (`BB1A2` is `b·b₁·a₂`).
const BA1: usize = 2;
const BB1: usize = 3;
const BA2: usize = 4;
const BB2: usize = 5;
const BA3: usize = 6;
const BB1A2: usize = 7;
const BB1B2: usize = 8;
const BB1A3: usize = 9;
const BB2A3: usize = 10;
const BB1B2A3: usize = 11;
const BB3: usize = 12;
const BB1B3: usize = 13;
const BB2B3: usize = 14;
const BB1B2B3: usize = 15;

/// The public side of one lane's carry layer.
///
/// Once `ε = G ⊕ a` and `δ = P ⊕ b` are open, every party's share of `G'`
/// and `P'` is a linear form in its own layer words, with coefficients
/// that are products of shifted `ε`/`δ` (`dᵢ = δ ≪ i·s`, `d01 = d0·d1`,
/// …), plus a public term party 0 absorbs. They are the same for every
/// party, so the block kernel computes them once per lane.
pub(crate) struct CarryCoeffs {
    s: u32,
    d0: u64,
    d1: u64,
    d2: u64,
    d3: u64,
    e3: u64,
    d01: u64,
    d02: u64,
    d03: u64,
    d12: u64,
    d13: u64,
    d23: u64,
    d012: u64,
    d013: u64,
    d023: u64,
    d123: u64,
    /// Coefficients of `b`, `b₁`, `b₂` in `G'`.
    gb: [u64; 3],
    /// Coefficient of `b·b₁` in `G'`.
    gbb1: u64,
    d0e3: u64,
    d1e3: u64,
    /// The all-public parts of `G'` and `P'`.
    pub_g: u64,
    pub_p: u64,
}

impl CarryCoeffs {
    /// Coefficients for the opened `eps = ε`, `del = δ` at shift `s`.
    pub(crate) fn new(eps: u64, del: u64, s: u32) -> Self {
        let (e1, e2, e3) = (eps << s, eps << (2 * s), eps << (3 * s));
        let (d0, d1, d2, d3) = (del, del << s, del << (2 * s), del << (3 * s));
        let (d01, d02, d12) = (d0 & d1, d0 & d2, d1 & d2);
        let d012 = d01 & d2;
        CarryCoeffs {
            s,
            d0,
            d1,
            d2,
            d3,
            e3,
            d01,
            d02,
            d03: d0 & d3,
            d12,
            d13: d1 & d3,
            d23: d2 & d3,
            d012,
            d013: d01 & d3,
            d023: d02 & d3,
            d123: d12 & d3,
            gb: [
                e1 ^ (d1 & e2) ^ (d12 & e3),
                (d0 & e2) ^ (d02 & e3),
                d01 & e3,
            ],
            gbb1: e2 ^ (d2 & e3),
            d0e3: d0 & e3,
            d1e3: d1 & e3,
            pub_g: eps ^ (d0 & e1) ^ (d01 & e2) ^ (d012 & e3),
            pub_p: d012 & d3,
        }
    }

    /// A party's share of `G'` from its layer words `w` (at least the
    /// first twelve); `party0` absorbs the public term.
    pub(crate) fn g_share(&self, w: &[u64], party0: bool) -> u64 {
        let w = &w[..LAYER_WORDS[2]];
        let s = self.s;
        let (a, b, ba1, bb1, ba2, bb1a2) = (w[0], w[1], w[BA1], w[BB1], w[BA2], w[BB1A2]);
        let g = a
            ^ (self.d0 & (a << s))
            ^ (self.d01 & (a << (2 * s)))
            ^ (self.d012 & (a << (3 * s)))
            ^ (self.gb[0] & b)
            ^ (self.gb[1] & (b << s))
            ^ (self.gb[2] & (b << (2 * s)))
            ^ ba1
            ^ (self.d0 & (ba1 << s))
            ^ (self.d01 & (ba1 << (2 * s)))
            ^ (self.gbb1 & bb1)
            ^ (self.d0e3 & (bb1 << s))
            ^ (self.d1 & ba2)
            ^ (self.d02 & (ba2 << s))
            ^ (self.d1e3 & w[BB2])
            ^ (self.d12 & w[BA3])
            ^ bb1a2
            ^ (self.d0 & (bb1a2 << s))
            ^ (self.e3 & w[BB1B2])
            ^ (self.d2 & w[BB1A3])
            ^ (self.d1 & w[BB2A3])
            ^ w[BB1B2A3];
        if party0 {
            g ^ self.pub_g
        } else {
            g
        }
    }

    /// A party's share of `P'` from its (sixteen) layer words `w`.
    pub(crate) fn p_share(&self, w: &[u64], party0: bool) -> u64 {
        let w = &w[..LAYER_WORDS[0]];
        let s = self.s;
        let (b, bb1, bb2, bb1b2) = (w[1], w[BB1], w[BB2], w[BB1B2]);
        let p = (self.d123 & b)
            ^ (self.d023 & (b << s))
            ^ (self.d013 & (b << (2 * s)))
            ^ (self.d012 & (b << (3 * s)))
            ^ (self.d23 & bb1)
            ^ (self.d03 & (bb1 << s))
            ^ (self.d01 & (bb1 << (2 * s)))
            ^ (self.d13 & bb2)
            ^ (self.d02 & (bb2 << s))
            ^ (self.d12 & w[BB3])
            ^ (self.d3 & bb1b2)
            ^ (self.d0 & (bb1b2 << s))
            ^ (self.d2 & w[BB1B3])
            ^ (self.d1 & w[BB2B3])
            ^ w[BB1B2B3];
        if party0 {
            p ^ self.pub_p
        } else {
            p
        }
    }
}

/// Adds the public constant `addend` to the XOR-shared word `s`, returning
/// the shared bits of `(addend + value(s)) mod 2⁶⁴`.
///
/// A radix-4 Kogge–Stone carry tree: 3 layers, one opening round each,
/// [`ADDER_CORR_WORDS`] correlation words. The initial generate/propagate
/// words involve one public operand and are therefore local.
pub fn add_public(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    addend: u64,
    s: &SharedWord,
) -> Result<SharedWord, ProtocolError> {
    let n = mesh.num_parties();
    if s.len() != n {
        return Err(ProtocolError::WrongSiloCount {
            expected: n,
            got: s.len(),
        });
    }
    let mut out = ShareBlock::zeroed(n, 1);
    add_public_block(
        mesh,
        dealer,
        &[addend],
        &ShareBlock::from_words(n, std::slice::from_ref(s)),
        &mut out,
        None,
        &mut AdderScratch::default(),
    );
    out.to_words().pop().ok_or(ProtocolError::MissingOutput)
}

/// Reusable buffers for [`add_public_block`]: the generate/propagate rows,
/// the dealer's correlation words, and the opening payload. The caller
/// owns one and passes it to every call, so the adder allocates only while
/// its batch width grows.
#[derive(Default)]
pub struct AdderScratch {
    g: ShareBlock,
    prop: ShareBlock,
    /// Party `p`'s row holds [`LANE_WORDS`] words per lane, lane-major.
    corr: ShareBlock,
    payload: Vec<u64>,
    opened: Vec<u64>,
}

/// Evaluates `k` independent public-plus-shared additions over flat lane
/// blocks with **shared rounds**: still 3 carry layers, each opening all
/// `k` lanes' `ε`/`δ` words in one exchange. `addends[i]` is the public
/// operand of lane `i` of `s`; the sum bits land in `out`. When
/// `opened_log` is given, every opened word is appended to it, layer by
/// layer as `[ε₀, δ₀, ε₁, δ₁, …]` (the audit's uniformity input).
///
/// Per layer, every party opens `ε = G ⊕ a` and `δ = P ⊕ b` under fresh
/// dealer masks, then computes its shares of
/// `G' = G ⊕ P·G₁ ⊕ P·P₁·G₂ ⊕ P·P₁·P₂·G₃` and `P' = P·P₁·P₂·P₃`
/// (`Xⱼ = X ≪ j·s`) locally from the opened words and its shares of the
/// mask monomials ([`CARRY_MONOMIALS`]). In carry semantics the four
/// terms of `G'` are never simultaneously 1, so XOR implements the OR of
/// the classic formulation exactly.
pub fn add_public_block(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    addends: &[u64],
    s: &ShareBlock,
    out: &mut ShareBlock,
    mut opened_log: Option<&mut Vec<u64>>,
    scratch: &mut AdderScratch,
) {
    let n = mesh.num_parties();
    let k = addends.len();
    debug_assert_eq!(s.lanes(), k);
    debug_assert_eq!(out.lanes(), k);
    if k == 0 {
        return;
    }
    let AdderScratch {
        g,
        prop,
        corr,
        payload,
        opened,
    } = scratch;
    dealer.fill_carry_corr(k, corr);

    // g = addend ∧ s and p = addend ⊕ s are local thanks to the public
    // operand (party 0 absorbs the XOR).
    g.reset(n, k);
    prop.reset(n, k);
    for p in 0..n {
        let sr = s.party(p);
        let gr = g.party_mut(p);
        for i in 0..k {
            gr[i] = sr[i] & addends[i];
        }
        let pr = prop.party_mut(p);
        pr.copy_from_slice(sr);
        if p == 0 {
            for i in 0..k {
                pr[i] ^= addends[i];
            }
        }
    }

    let mut offset = 0;
    for (layer, (&shift, &words)) in CARRY_SHIFTS.iter().zip(&LAYER_WORDS).enumerate() {
        // Open [ε₀, δ₀, ε₁, δ₁, …] for all lanes in one exchange.
        payload.clear();
        payload.resize(n * 2 * k, 0);
        for p in 0..n {
            let (gr, pr, cr) = (g.party(p), prop.party(p), corr.party(p));
            let row = &mut payload[p * 2 * k..(p + 1) * 2 * k];
            for i in 0..k {
                let w = i * LANE_WORDS + offset;
                row[2 * i] = gr[i] ^ cr[w];
                row[2 * i + 1] = pr[i] ^ cr[w + 1];
            }
        }
        mesh.broadcast_flat(MsgKind::CarryOpen, payload, 2 * k);
        opened.clear();
        opened.resize(2 * k, 0);
        for p in 0..n {
            let row = &payload[p * 2 * k..(p + 1) * 2 * k];
            for (o, &w) in opened.iter_mut().zip(row) {
                *o ^= w;
            }
        }
        if let Some(log) = opened_log.as_deref_mut() {
            log.extend_from_slice(opened);
        }

        // The new shares depend only on the opened words and the layer's
        // correlation words, so g and prop are overwritten in place.
        let last = layer + 1 == CARRY_SHIFTS.len();
        for i in 0..k {
            let c = CarryCoeffs::new(opened[2 * i], opened[2 * i + 1], shift);
            let w = i * LANE_WORDS + offset;
            for p in 0..n {
                let lane = &corr.party(p)[w..w + words];
                g.set(p, i, c.g_share(lane, p == 0));
                if !last {
                    prop.set(p, i, c.p_share(lane, p == 0));
                }
            }
        }
        offset += words;
    }

    // carry into bit i = G_{i-1}; sum = addend ⊕ s ⊕ carries.
    for p in 0..n {
        let (sr, gr) = (s.party(p), g.party(p));
        let or = out.party_mut(p);
        for i in 0..k {
            or[i] = sr[i] ^ (gr[i] << 1);
        }
        if p == 0 {
            for i in 0..k {
                or[i] ^= addends[i];
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::dealer::{reconstruct_xor, xor_shares, Dealer};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// [`add_public_block`] over lane-major `(addend, word)` inputs.
    fn add_words(
        mesh: &mut Mesh,
        dealer: &mut Dealer,
        inputs: &[(u64, SharedWord)],
    ) -> Vec<SharedWord> {
        let n = mesh.num_parties();
        let (addends, words): (Vec<u64>, Vec<SharedWord>) = inputs.iter().cloned().unzip();
        let mut out = ShareBlock::zeroed(n, inputs.len());
        add_public_block(
            mesh,
            dealer,
            &addends,
            &ShareBlock::from_words(n, &words),
            &mut out,
            None,
            &mut AdderScratch::default(),
        );
        out.to_words()
    }

    fn setup(n: usize) -> (Mesh, Dealer, ChaCha12Rng) {
        (
            Mesh::new(n),
            Dealer::new(n, 99),
            ChaCha12Rng::seed_from_u64(5),
        )
    }

    #[test]
    fn batched_adders_share_three_rounds() {
        let (mut mesh, mut dealer, mut rng) = setup(3);
        let inputs: Vec<_> = (0..5)
            .map(|_| {
                let (x, y): (u64, u64) = (rng.gen(), rng.gen());
                (x, xor_shares(&mut rng, 3, y))
            })
            .collect();
        add_words(&mut mesh, &mut dealer, &inputs);
        assert_eq!(
            mesh.stats().rounds,
            ADDER_ROUNDS,
            "k adders must share rounds"
        );
    }

    #[test]
    fn adder_matches_wrapping_add() {
        for n in [2usize, 3, 4] {
            let (mut mesh, mut dealer, mut rng) = setup(n);
            for _ in 0..60 {
                let pub_val: u64 = rng.gen();
                let secret: u64 = rng.gen();
                let s = xor_shares(&mut rng, n, secret);
                let sum = add_public(&mut mesh, &mut dealer, pub_val, &s).unwrap();
                assert_eq!(
                    reconstruct_xor(&sum),
                    pub_val.wrapping_add(secret),
                    "adder wrong for {pub_val} + {secret} with {n} parties"
                );
            }
        }
    }

    #[test]
    fn adder_edge_cases() {
        let (mut mesh, mut dealer, mut rng) = setup(2);
        for (a, b) in [
            (0u64, 0u64),
            (u64::MAX, 1),
            (u64::MAX, u64::MAX),
            (1u64 << 63, 1u64 << 63),
            (0, u64::MAX),
        ] {
            let s = xor_shares(&mut rng, 2, b);
            let sum = add_public(&mut mesh, &mut dealer, a, &s).unwrap();
            assert_eq!(reconstruct_xor(&sum), a.wrapping_add(b));
        }
    }

    #[test]
    fn adder_cost_constants_are_accurate() {
        let (mut mesh, mut dealer, mut rng) = setup(3);
        let s = xor_shares(&mut rng, 3, 1234);
        let before = dealer.stats().corr_words;
        add_public(&mut mesh, &mut dealer, 99, &s).unwrap();
        assert_eq!(mesh.stats().rounds, ADDER_ROUNDS);
        assert_eq!(dealer.stats().corr_words - before, ADDER_CORR_WORDS);
        assert_eq!(ADDER_CORR_WORDS, 44);
        // Two opened words per layer and party: ε and δ.
        assert_eq!(mesh.stats().per_party_bytes, ADDER_ROUNDS * 2 * 2 * 8);
    }

    #[test]
    fn monomials_that_are_shifts_of_a_listed_one_are_exact() {
        // The kernel derives e.g. b₁·a₂ as (b·a₁) ≪ s: shifting commutes
        // with AND, zero-filling exactly the bits both sides lack.
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        for s in CARRY_SHIFTS {
            let m = shifted_masks(rng.gen(), rng.gen(), s);
            assert_eq!(monomial_of(&m, B1 | A2), monomial_of(&m, B0 | A1) << s);
            assert_eq!(
                monomial_of(&m, B1 | B2 | B3),
                monomial_of(&m, B0 | B1 | B2) << s
            );
            assert_eq!(
                monomial_of(&m, B2 | A3),
                monomial_of(&m, B0 | A1) << (2 * s)
            );
        }
    }

    #[test]
    fn open_word_reconstructs() {
        let (mut mesh, _, mut rng) = setup(4);
        let v: u64 = 0xABCD_EF01_2345_6789;
        let s = xor_shares(&mut rng, 4, v);
        assert_eq!(open_word(&mut mesh, MsgKind::MaskedOpen, &s), v);
        assert_eq!(mesh.stats().rounds, 1);
    }

    #[test]
    fn local_gates_are_free() {
        let (mesh, _, mut rng) = setup(2);
        let x = xor_shares(&mut rng, 2, 5);
        let y = xor_shares(&mut rng, 2, 9);
        let _ = xor_words(&x, &y);
        let _ = xor_public(&x, 7);
        let _ = and_public(&x, 7);
        let _ = shl_words(&x, 3);
        assert_eq!(mesh.stats().rounds, 0);
        assert_eq!(mesh.stats().bytes, 0);
    }

    #[test]
    fn empty_batches_are_free_and_agree() {
        // Regression: a zero-lane batch used to pay rounds. It now returns
        // empty output at zero cost.
        let (mut mesh, mut dealer, _) = setup(3);
        assert!(add_words(&mut mesh, &mut dealer, &[]).is_empty());
        assert_eq!(mesh.stats().rounds, 0);
        assert_eq!(mesh.stats().bytes, 0);
        assert_eq!(dealer.stats().corr_words, 0);
    }

    #[test]
    fn vectorized_and_scalar_adders_are_bit_identical() {
        // A batch of k additions and k one-lane calls draw the dealer
        // stream in the same order (lane by lane, all three layers), so
        // their output shares agree bit for bit; only the round count
        // differs. The exhaustive sweep against a per-lane reference
        // lives in the prop_vectorized differential suite.
        let mut rng = ChaCha12Rng::seed_from_u64(8);
        for n in [2usize, 4] {
            let inputs: Vec<(u64, SharedWord)> = (0..7)
                .map(|_| {
                    let v: u64 = rng.gen();
                    (rng.gen(), xor_shares(&mut rng, n, v))
                })
                .collect();
            let mut mesh_v = Mesh::new(n);
            let mut dealer_v = Dealer::new(n, 1000 + n as u64);
            let vect = add_words(&mut mesh_v, &mut dealer_v, &inputs);
            let mut mesh_s = Mesh::new(n);
            let mut dealer_s = Dealer::new(n, 1000 + n as u64);
            let scal: Vec<SharedWord> = inputs
                .iter()
                .map(|(addend, s)| add_public(&mut mesh_s, &mut dealer_s, *addend, s).unwrap())
                .collect();
            assert_eq!(vect, scal);
            assert_eq!(mesh_v.stats().bytes, mesh_s.stats().bytes);
            assert_eq!(mesh_s.stats().rounds, 7 * mesh_v.stats().rounds);
            assert_eq!(dealer_v.stats(), dealer_s.stats());
        }
    }
}
