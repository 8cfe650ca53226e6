//! Operations on XOR-shared 64-bit words: the binary half of the engine.
//!
//! A *shared word* is one `u64` per party whose XOR is the logical value;
//! each of its 64 bit positions is an independent shared bit, so all
//! gates below are 64-wide SIMD. Linear gates (XOR, NOT, shifts, AND with a
//! public constant) are local; the only communicating gate is the
//! Beaver-triple AND, and the only multi-gate construction is the
//! Kogge–Stone carry-lookahead adder used by the comparison.
//!
//! The batched kernels run on flat [`ShareBlock`] slabs ([`and_block`],
//! [`add_public_block`]): party-major contiguous buffers whose inner loops
//! are allocation-free slice walks the compiler can autovectorize, with
//! broadcast payloads assembled directly from the rows into caller-owned
//! scratch ([`AndScratch`], [`AdderScratch`]) that is reused across calls.
//! The original
//! per-gate `Vec<SharedWord>` implementations are **retained** as
//! `*_scalar` reference kernels: a differential proptest suite pins the
//! vectorized path bit-identical (results *and* accounting) to them, and
//! the `compare_bench` harness measures the speedup between the two.

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

/// Reusable scratch for [`and_block`]: the flat broadcast payload and the
/// folded openings, allocated once by the caller and reused across adder
/// layers so the per-layer inner loops stay allocation-free.
#[derive(Default)]
pub struct AndScratch {
    payload: Vec<u64>,
    opened: Vec<u64>,
}

/// Evaluates `k` shared-AND word gates over flat lane blocks in **one**
/// communication round, consuming `k` packed triple words.
///
/// For each lane `i` with triple `(a, b, c)`: parties open `ε = x ⊕ a` and
/// `δ = y ⊕ b`, then locally output `z = c ⊕ (ε ∧ b) ⊕ (δ ∧ a) ⊕ (ε ∧ δ)`
/// (the last term absorbed by party 0). Since `ε`/`δ` are one-time-pad
/// masked, nothing about `x`/`y` leaks. The broadcast payload (width `2k`,
/// interleaved `[ε₀, δ₀, ε₁, δ₁, …]`) and the output rows are filled by
/// straight slice loops — no per-gate allocation.
pub fn and_block(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    x: &ShareBlock,
    y: &ShareBlock,
    out: &mut ShareBlock,
    scratch: &mut AndScratch,
) {
    let n = mesh.num_parties();
    let k = x.lanes();
    debug_assert_eq!(y.lanes(), k);
    debug_assert_eq!(out.lanes(), k);
    if k == 0 {
        return;
    }
    let t = dealer.triple_block(k);

    // Each party contributes [ε_0, δ_0, ε_1, δ_1, …] for all gates at once.
    scratch.payload.clear();
    scratch.payload.resize(n * 2 * k, 0);
    for p in 0..n {
        let (xr, yr) = (x.party(p), y.party(p));
        let (ar, br) = (t.a.party(p), t.b.party(p));
        let row = &mut scratch.payload[p * 2 * k..(p + 1) * 2 * k];
        for i in 0..k {
            row[2 * i] = xr[i] ^ ar[i];
            row[2 * i + 1] = yr[i] ^ br[i];
        }
    }
    mesh.broadcast_flat(MsgKind::TripleOpen, &scratch.payload, 2 * k);

    // Fold the P contributions: opened[2i] = ε_i, opened[2i+1] = δ_i.
    scratch.opened.clear();
    scratch.opened.resize(2 * k, 0);
    for p in 0..n {
        let row = &scratch.payload[p * 2 * k..(p + 1) * 2 * k];
        for (o, &w) in scratch.opened.iter_mut().zip(row) {
            *o ^= w;
        }
    }

    for p in 0..n {
        let (ar, br, cr) = (t.a.party(p), t.b.party(p), t.c.party(p));
        let or = out.party_mut(p);
        for i in 0..k {
            let (eps, del) = (scratch.opened[2 * i], scratch.opened[2 * i + 1]);
            or[i] = cr[i] ^ (eps & br[i]) ^ (del & ar[i]);
        }
    }
    // Party 0 absorbs the public ε ∧ δ term.
    for (i, o) in out.party_mut(0).iter_mut().enumerate() {
        *o ^= scratch.opened[2 * i] & scratch.opened[2 * i + 1];
    }
}

/// Scalar reference implementation of [`and_block`]: the original per-gate
/// `Vec<SharedWord>` kernel, retained verbatim so the differential suite
/// can pin the vectorized path bit-identical to it and `compare_bench` can
/// measure the speedup. Consumes the dealer stream in the same order.
pub fn and_many_scalar(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    pairs: &[(SharedWord, SharedWord)],
) -> Vec<SharedWord> {
    if pairs.is_empty() {
        return Vec::new();
    }
    let n = mesh.num_parties();
    let triples: Vec<_> = pairs.iter().map(|_| dealer.triple_word()).collect();

    // Each party broadcasts [ε_0, δ_0, ε_1, δ_1, …] for all gates at once.
    let outs: Vec<Vec<u64>> = (0..n)
        .map(|p| {
            pairs
                .iter()
                .zip(&triples)
                .flat_map(|((x, y), t)| [x[p] ^ t.a[p], y[p] ^ t.b[p]])
                .collect()
        })
        .collect();
    let recv = mesh.broadcast_words(MsgKind::TripleOpen, &outs);

    pairs
        .iter()
        .enumerate()
        .map(|(i, _)| {
            let eps = recv[0].iter().map(|w| w[2 * i]).fold(0u64, |a, s| a ^ s);
            let del = recv[0]
                .iter()
                .map(|w| w[2 * i + 1])
                .fold(0u64, |a, s| a ^ s);
            let t = &triples[i];
            (0..n)
                .map(|p| {
                    let mut z = t.c[p] ^ (eps & t.b[p]) ^ (del & t.a[p]);
                    if p == 0 {
                        z ^= eps & del;
                    }
                    z
                })
                .collect()
        })
        .collect()
}

/// Number of communication rounds of [`add_public`].
pub const ADDER_ROUNDS: u64 = 6;
/// Number of triple words [`add_public`] consumes.
pub const ADDER_TRIPLE_WORDS: u64 = 12;

/// The Kogge–Stone shift schedule: 6 doubling layers cover 64 bits.
const ADDER_SHIFTS: [u32; 6] = [1, 2, 4, 8, 16, 32];

/// Adds the public constant `addend` to the XOR-shared word `s`, returning
/// the shared bits of `(addend + value(s)) mod 2⁶⁴`.
///
/// Kogge–Stone carry lookahead: 6 layers of two parallel shared ANDs
/// (G-combine and P-combine), so 6 rounds and 12 triple words total.
/// The initial generate/propagate words involve one public operand and are
/// therefore local.
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
        &mut AdderScratch::default(),
    );
    out.to_words().pop().ok_or(ProtocolError::MissingOutput)
}

/// Reusable buffers for [`add_public_block`]: the generate/propagate rows,
/// the `2k`-lane AND operands, and the AND layers' own scratch. The caller
/// owns one and passes it to every call, so the adder allocates only while
/// its batch width grows.
#[derive(Default)]
pub struct AdderScratch {
    g: ShareBlock,
    prop: ShareBlock,
    prop0: ShareBlock,
    ax: ShareBlock,
    ay: ShareBlock,
    az: ShareBlock,
    and: AndScratch,
}

/// Evaluates `k` independent public-plus-shared additions over flat lane
/// blocks with **shared rounds**: still 6 AND layers, each packing all `2k`
/// gates into one exchange. `addends[i]` is the public operand of lane `i`
/// of `s`; the sum bits land in `out`.
///
/// Gate order within a layer matches the scalar reference (lane `2i` is
/// lane `i`'s G-combine, lane `2i+1` its P-combine), so both paths consume
/// the dealer stream identically.
pub fn add_public_block(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    addends: &[u64],
    s: &ShareBlock,
    out: &mut ShareBlock,
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
        prop0,
        ax,
        ay,
        az,
        and,
    } = scratch;

    // g = addend ∧ s and p = addend ⊕ s are local thanks to the public
    // operand (party 0 absorbs the XOR).
    g.reset(n, k);
    prop0.reset(n, k);
    for p in 0..n {
        let sr = s.party(p);
        let gr = g.party_mut(p);
        for i in 0..k {
            gr[i] = sr[i] & addends[i];
        }
        let pr = prop0.party_mut(p);
        if p == 0 {
            for i in 0..k {
                pr[i] = sr[i] ^ addends[i];
            }
        } else {
            pr.copy_from_slice(sr);
        }
    }
    prop.copy_from(prop0);

    // The 2k-lane AND operands, shaped once for all 6 layers.
    ax.reset(n, 2 * k);
    ay.reset(n, 2 * k);
    az.reset(n, 2 * k);

    for shift in ADDER_SHIFTS {
        for p in 0..n {
            let (gr, pr) = (g.party(p), prop.party(p));
            let xr = ax.party_mut(p);
            for i in 0..k {
                xr[2 * i] = pr[i];
                xr[2 * i + 1] = pr[i];
            }
            let yr = ay.party_mut(p);
            for i in 0..k {
                yr[2 * i] = gr[i] << shift;
                yr[2 * i + 1] = pr[i] << shift;
            }
        }
        and_block(mesh, dealer, ax, ay, az, and);
        // In carry semantics G and P∧G' are never simultaneously 1, so XOR
        // implements the OR of the classic formulation exactly.
        for p in 0..n {
            let zr = az.party(p);
            let gr = g.party_mut(p);
            for i in 0..k {
                gr[i] ^= zr[2 * i];
            }
            let pr = prop.party_mut(p);
            for i in 0..k {
                pr[i] = zr[2 * i + 1];
            }
        }
    }

    // carry into bit i = G_{i-1}; sum = prop ⊕ carries.
    for p in 0..n {
        let (p0r, gr) = (prop0.party(p), g.party(p));
        let or = out.party_mut(p);
        for i in 0..k {
            or[i] = p0r[i] ^ (gr[i] << 1);
        }
    }
}

/// Scalar reference implementation of [`add_public_block`]: the original
/// per-gate kernel (clones a `SharedWord` per gate per layer), retained for
/// the differential suite and `compare_bench`. An empty batch is free,
/// matching the vectorized path.
pub fn add_public_many_scalar(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    inputs: &[(u64, SharedWord)],
) -> Vec<SharedWord> {
    if inputs.is_empty() {
        return Vec::new();
    }
    // g = addend ∧ s and p = addend ⊕ s are local thanks to the public operand.
    let mut g: Vec<SharedWord> = inputs
        .iter()
        .map(|(addend, s)| and_public(s, *addend))
        .collect();
    let mut prop: Vec<SharedWord> = inputs
        .iter()
        .map(|(addend, s)| xor_public(s, *addend))
        .collect();
    let prop0 = prop.clone();

    for shift in ADDER_SHIFTS {
        let mut pairs = Vec::with_capacity(2 * inputs.len());
        for i in 0..inputs.len() {
            pairs.push((prop[i].clone(), shl_words(&g[i], shift)));
            pairs.push((prop[i].clone(), shl_words(&prop[i], shift)));
        }
        let res = and_many_scalar(mesh, dealer, &pairs);
        // In carry semantics G and P∧G' are never simultaneously 1, so XOR
        // implements the OR of the classic formulation exactly.
        for i in 0..inputs.len() {
            g[i] = xor_words(&g[i], &res[2 * i]);
            prop[i] = res[2 * i + 1].clone();
        }
    }

    // carry into bit i = G_{i-1}; sum = prop ⊕ carries.
    (0..inputs.len())
        .map(|i| xor_words(&prop0[i], &shl_words(&g[i], 1)))
        .collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::dealer::{reconstruct_xor, xor_shares, Dealer};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    /// [`and_block`] over lane-major `(x, y)` word pairs.
    fn and_words(
        mesh: &mut Mesh,
        dealer: &mut Dealer,
        pairs: &[(SharedWord, SharedWord)],
    ) -> Vec<SharedWord> {
        let n = mesh.num_parties();
        let (xs, ys): (Vec<SharedWord>, Vec<SharedWord>) = pairs.iter().cloned().unzip();
        let mut out = ShareBlock::zeroed(n, pairs.len());
        and_block(
            mesh,
            dealer,
            &ShareBlock::from_words(n, &xs),
            &ShareBlock::from_words(n, &ys),
            &mut out,
            &mut AndScratch::default(),
        );
        out.to_words()
    }

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
    fn and_gate_is_correct_for_various_party_counts() {
        for n in [2usize, 3, 5] {
            let (mut mesh, mut dealer, mut rng) = setup(n);
            for _ in 0..40 {
                let x: u64 = rng.gen();
                let y: u64 = rng.gen();
                let xs = xor_shares(&mut rng, n, x);
                let ys = xor_shares(&mut rng, n, y);
                let z = and_words(&mut mesh, &mut dealer, &[(xs, ys)]);
                assert_eq!(reconstruct_xor(&z[0]), x & y);
            }
        }
    }

    #[test]
    fn batched_ands_share_one_round() {
        let (mut mesh, mut dealer, mut rng) = setup(3);
        let pairs: Vec<_> = (0..5)
            .map(|_| {
                let (x, y): (u64, u64) = (rng.gen(), rng.gen());
                (xor_shares(&mut rng, 3, x), xor_shares(&mut rng, 3, y))
            })
            .collect();
        and_words(&mut mesh, &mut dealer, &pairs);
        assert_eq!(mesh.stats().rounds, 1, "k gates must cost one round");
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
        let before_t = dealer.stats().triple_words;
        add_public(&mut mesh, &mut dealer, 99, &s).unwrap();
        assert_eq!(mesh.stats().rounds, ADDER_ROUNDS);
        assert_eq!(dealer.stats().triple_words - before_t, ADDER_TRIPLE_WORDS);
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
        // Satellite regression: the batched kernels used to disagree on
        // empty input (and a zero-lane batch still paid rounds). All of
        // them now return empty output at zero cost.
        let (mut mesh, mut dealer, _) = setup(3);
        assert!(and_words(&mut mesh, &mut dealer, &[]).is_empty());
        assert!(and_many_scalar(&mut mesh, &mut dealer, &[]).is_empty());
        assert!(add_words(&mut mesh, &mut dealer, &[]).is_empty());
        assert!(add_public_many_scalar(&mut mesh, &mut dealer, &[]).is_empty());
        assert_eq!(mesh.stats().rounds, 0);
        assert_eq!(mesh.stats().bytes, 0);
        assert_eq!(dealer.stats().triple_words, 0);
    }

    #[test]
    fn vectorized_and_scalar_adders_are_bit_identical() {
        // Spot check here; the exhaustive sweep lives in the
        // prop_vectorized differential suite.
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
            let scal = add_public_many_scalar(&mut mesh_s, &mut dealer_s, &inputs);
            assert_eq!(vect, scal);
            assert_eq!(mesh_v.stats(), mesh_s.stats());
            assert_eq!(dealer_v.stats(), dealer_s.stats());
        }
    }
}
