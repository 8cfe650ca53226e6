//! The secure comparison protocol: sign extraction of an additively shared
//! difference via a masked opening and the binary adder.
//!
//! Given additive shares of `d = x − y (mod 2⁶⁴)` where `|x|, |y| < 2⁶²`,
//! the sign of `d` (two's complement) is `MSB(d)`, and `x < y ⟺ MSB(d) = 1`.
//! The protocol (the edaBits technique):
//!
//! 1. draw an edaBit `(⟨r⟩ₐ, ⟨bits(r)⟩₂)` from the dealer,
//! 2. open `m = d + r (mod 2⁶⁴)` — uniformly distributed, reveals nothing,
//! 3. compute shared bits of `d = m − r = (m+1) + ¬r (mod 2⁶⁴)` with the
//!    public-plus-shared Kogge–Stone adder,
//! 4. open only bit 63.
//!
//! Cost per comparison: 8 online rounds (1 masked open + 6 adder layers +
//! 1 bit open), 1 edaBit, 12 triple words.
//!
//! The batched kernel runs on flat party-major buffers end to end
//! (shared differences as a [`ShareBlock`], edaBit block, flat masked-open
//! payload, [`add_public_block`], flat bit open), all held in a reusable
//! [`CompareScratch`]; [`less_than_zero_many_scalar`] retains the original per-gate
//! implementation as the differential/benchmark reference.

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::binary::{
    add_public_block, add_public_many_scalar, xor_public, AdderScratch, ADDER_ROUNDS,
    ADDER_TRIPLE_WORDS,
};
use crate::block::ShareBlock;
use crate::dealer::Dealer;
use crate::error::ProtocolError;
use crate::net::{Mesh, MsgKind};

/// Online rounds of one [`less_than_zero`] execution.
pub const COMPARE_ROUNDS: u64 = 1 + ADDER_ROUNDS + 1;
/// edaBits consumed per comparison.
pub const COMPARE_EDABITS: u64 = 1;
/// Triple words consumed per comparison.
pub const COMPARE_TRIPLE_WORDS: u64 = ADDER_TRIPLE_WORDS;

/// Reveals whether the additively shared two's-complement value `d` is
/// negative. `d_shares[p]` is party `p`'s share.
///
/// Each party optionally records the publicly opened masked value into
/// `opened_mask` (for the audit's uniformity check).
pub fn less_than_zero(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    d_shares: &[u64],
    opened_mask: Option<&mut Vec<u64>>,
) -> Result<bool, ProtocolError> {
    let d = ShareBlock::from_words(d_shares.len(), &[d_shares.to_vec()]);
    less_than_zero_many(
        mesh,
        dealer,
        &d,
        opened_mask,
        &mut CompareScratch::default(),
    )?
    .pop()
    .ok_or(ProtocolError::MissingOutput)
}

/// Reusable buffers for [`less_than_zero_many`]: the open payloads, the
/// opened values, the sum bits and the adder's scratch. The caller owns
/// one and passes it to every call (each `SacEngine` keeps its own), so a
/// comparison allocates only its result bits and the dealer's blocks.
#[derive(Default)]
pub struct CompareScratch {
    payload: Vec<u64>,
    opened: Vec<u64>,
    d_bits: ShareBlock,
    adder: AdderScratch,
}

/// Batched variant of [`less_than_zero`]: `k` independent sign tests share
/// the protocol rounds — still [`COMPARE_ROUNDS`] rounds total, with `k×`
/// the payload per round. This is MP-SPDZ-style vectorization and the
/// engine of the round-batched priority-queue extension. Lane `i` of `d`
/// additively shares the `i`-th difference.
///
/// An empty batch returns `Ok(vec![])` at zero cost, agreeing with
/// [`add_public_block`] (the kernels used to disagree; regression-tested).
/// Callers that consider an empty batch a caller bug keep rejecting it at
/// their own boundary (`SacEngine::less_than_many` returns
/// [`ProtocolError::EmptyBatch`]).
pub fn less_than_zero_many(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    d: &ShareBlock,
    opened_mask: Option<&mut Vec<u64>>,
    scratch: &mut CompareScratch,
) -> Result<Vec<bool>, ProtocolError> {
    let n = mesh.num_parties();
    let k = d.lanes();
    if k == 0 {
        return Ok(Vec::new());
    }
    if d.parties() != n {
        return Err(ProtocolError::WrongSiloCount {
            expected: n,
            got: d.parties(),
        });
    }
    let CompareScratch {
        payload,
        opened,
        d_bits,
        adder,
    } = scratch;
    let eda = dealer.edabit_block(k);

    // Step 2: open all masked differences in one round, the payload built
    // flat and party-major straight from the edaBit slab.
    payload.clear();
    payload.resize(n * k, 0);
    for p in 0..n {
        let (dr, ar) = (d.party(p), eda.arith.party(p));
        let row = &mut payload[p * k..(p + 1) * k];
        for i in 0..k {
            row[i] = dr[i].wrapping_add(ar[i]);
        }
    }
    mesh.broadcast_flat(MsgKind::MaskedOpen, payload, k);
    opened.clear();
    opened.resize(k, 0);
    for p in 0..n {
        let row = &payload[p * k..(p + 1) * k];
        for (m, &w) in opened.iter_mut().zip(row) {
            *m = m.wrapping_add(w);
        }
    }
    if let Some(log) = opened_mask {
        log.extend_from_slice(opened);
    }

    // Step 3: d = m − r = (m + 1) + ¬r (mod 2⁶⁴), all adders sharing
    // rounds. ¬r is local: party 0 flips its bit shares.
    for m in opened.iter_mut() {
        *m = m.wrapping_add(1);
    }
    let mut not_r = eda.bits;
    for v in not_r.party_mut(0) {
        *v = !*v;
    }
    d_bits.reset(n, k);
    add_public_block(mesh, dealer, opened, &not_r, d_bits, adder);

    // Step 4: open only the sign bits, packed into one round.
    for p in 0..n {
        let br = d_bits.party(p);
        let row = &mut payload[p * k..(p + 1) * k];
        for i in 0..k {
            row[i] = (br[i] >> 63) & 1;
        }
    }
    mesh.broadcast_flat(MsgKind::BitOpen, payload, k);
    Ok((0..k)
        .map(|i| (0..n).fold(0u64, |acc, p| acc ^ payload[p * k + i]) == 1)
        .collect())
}

/// Scalar reference implementation of [`less_than_zero_many`]: the original
/// per-gate `Vec<SharedWord>` protocol, retained for the differential suite
/// and `compare_bench`. Identical results, accounting, and dealer-stream
/// consumption (pinned by proptest).
pub fn less_than_zero_many_scalar(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    d_shares_list: &[Vec<u64>],
    opened_mask: Option<&mut Vec<u64>>,
) -> Result<Vec<bool>, ProtocolError> {
    let n = mesh.num_parties();
    let k = d_shares_list.len();
    if k == 0 {
        return Ok(Vec::new());
    }
    if let Some(d) = d_shares_list.iter().find(|d| d.len() != n) {
        return Err(ProtocolError::WrongSiloCount {
            expected: n,
            got: d.len(),
        });
    }
    let edas: Vec<_> = (0..k).map(|_| dealer.edabit()).collect();

    // Step 2: open all masked differences in one round.
    let words: Vec<Vec<u64>> = (0..n)
        .map(|p| {
            d_shares_list
                .iter()
                .zip(&edas)
                .map(|(d, eda)| d[p].wrapping_add(eda.arith[p]))
                .collect()
        })
        .collect();
    let recv = mesh.broadcast_words(MsgKind::MaskedOpen, &words);
    let ms: Vec<u64> = (0..k)
        .map(|i| {
            recv[0]
                .iter()
                .map(|w| w[i])
                .fold(0u64, |acc, s| acc.wrapping_add(s))
        })
        .collect();
    if let Some(log) = opened_mask {
        log.extend(&ms);
    }

    // Step 3: d = m − r = (m + 1) + ¬r (mod 2⁶⁴), all adders sharing rounds.
    let adder_inputs: Vec<(u64, Vec<u64>)> = ms
        .iter()
        .zip(&edas)
        .map(|(m, eda)| (m.wrapping_add(1), xor_public(&eda.bits, u64::MAX)))
        .collect();
    let d_bits = add_public_many_scalar(mesh, dealer, &adder_inputs);

    // Step 4: open only the sign bits, packed into one round.
    let msb_words: Vec<Vec<u64>> = (0..n)
        .map(|p| d_bits.iter().map(|bits| (bits[p] >> 63) & 1).collect())
        .collect();
    let recv = mesh.broadcast_words(MsgKind::BitOpen, &msb_words);
    Ok((0..k)
        .map(|i| recv[0].iter().map(|w| w[i]).fold(0u64, |a, s| a ^ s) == 1)
        .collect())
}

/// Accounts the exact communication/preprocessing costs of one comparison
/// without executing it — the `Modeled` backend's counterpart of
/// [`less_than_zero`]. Keeping the two in lockstep is enforced by test.
pub fn account_less_than_zero(mesh: &mut Mesh, dealer: &mut Dealer) {
    account_less_than_zero_many(mesh, dealer, 1);
}

/// Accounting twin of [`less_than_zero_many`] for a batch of `k`.
pub fn account_less_than_zero_many(mesh: &mut Mesh, dealer: &mut Dealer, k: usize) {
    if k == 0 {
        return;
    }
    dealer.account(COMPARE_EDABITS * k as u64, 0);
    mesh.account_broadcast(MsgKind::MaskedOpen, k);
    for _ in 0..ADDER_ROUNDS {
        // Two AND-word gates per layer per comparison, ε+δ each.
        dealer.account(0, 2 * k as u64);
        mesh.account_broadcast(MsgKind::TripleOpen, 4 * k);
    }
    mesh.account_broadcast(MsgKind::BitOpen, k);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::dealer::{additive_shares, Dealer};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    fn shares_of_diff(rng: &mut ChaCha12Rng, n: usize, x: u64, y: u64) -> Vec<u64> {
        let xs = additive_shares(rng, n, x);
        let ys = additive_shares(rng, n, y);
        xs.iter()
            .zip(&ys)
            .map(|(a, b)| a.wrapping_sub(*b))
            .collect()
    }

    #[test]
    fn comparison_matches_plain_less_than() {
        let mut rng = ChaCha12Rng::seed_from_u64(11);
        for n in [2usize, 3, 5] {
            let mut mesh = Mesh::new(n);
            let mut dealer = Dealer::new(n, 3);
            for _ in 0..200 {
                let x: u64 = rng.gen_range(0..1u64 << 40);
                let y: u64 = rng.gen_range(0..1u64 << 40);
                let d = shares_of_diff(&mut rng, n, x, y);
                let lt = less_than_zero(&mut mesh, &mut dealer, &d, None).unwrap();
                assert_eq!(lt, x < y, "{x} < {y} with {n} parties");
            }
        }
    }

    #[test]
    fn equal_values_are_not_less() {
        let mut rng = ChaCha12Rng::seed_from_u64(13);
        let mut mesh = Mesh::new(3);
        let mut dealer = Dealer::new(3, 7);
        for v in [0u64, 1, 999_999, 1 << 40] {
            let d = shares_of_diff(&mut rng, 3, v, v);
            assert!(!less_than_zero(&mut mesh, &mut dealer, &d, None).unwrap());
        }
    }

    #[test]
    fn boundary_differences() {
        let mut rng = ChaCha12Rng::seed_from_u64(17);
        let mut mesh = Mesh::new(2);
        let mut dealer = Dealer::new(2, 1);
        for (x, y) in [(0u64, 1u64), (1, 0), (u64::MAX >> 3, 0), (0, u64::MAX >> 3)] {
            let d = shares_of_diff(&mut rng, 2, x, y);
            assert_eq!(
                less_than_zero(&mut mesh, &mut dealer, &d, None).unwrap(),
                x < y
            );
        }
    }

    #[test]
    fn accounting_matches_execution_exactly() {
        let mut rng = ChaCha12Rng::seed_from_u64(19);
        let mut mesh_r = Mesh::new(3);
        let mut dealer_r = Dealer::new(3, 5);
        let d = shares_of_diff(&mut rng, 3, 10, 20);
        less_than_zero(&mut mesh_r, &mut dealer_r, &d, None).unwrap();

        let mut mesh_m = Mesh::new(3);
        let mut dealer_m = Dealer::new(3, 5);
        account_less_than_zero(&mut mesh_m, &mut dealer_m);

        assert_eq!(mesh_r.stats(), mesh_m.stats());
        assert_eq!(dealer_r.stats(), dealer_m.stats());
        assert_eq!(mesh_r.stats().rounds, COMPARE_ROUNDS);
    }

    #[test]
    fn empty_batch_is_free_and_agrees_with_the_adder_kernels() {
        // Regression: this used to be ProtocolError::EmptyBatch while the
        // adder silently returned [] on an empty batch — the batched
        // kernels now agree (empty in, empty out, zero cost). The engine
        // boundary still rejects empty Fed-SAC batches as a typed error.
        let mut mesh = Mesh::new(3);
        let mut dealer = Dealer::new(3, 2);
        assert_eq!(
            less_than_zero_many(
                &mut mesh,
                &mut dealer,
                &ShareBlock::zeroed(3, 0),
                None,
                &mut CompareScratch::default()
            ),
            Ok(Vec::new())
        );
        assert_eq!(
            less_than_zero_many_scalar(&mut mesh, &mut dealer, &[], None),
            Ok(Vec::new())
        );
        account_less_than_zero_many(&mut mesh, &mut dealer, 0);
        assert_eq!(mesh.stats().rounds, 0);
        assert_eq!(dealer.stats().edabits, 0);
    }

    #[test]
    fn opened_mask_is_recorded() {
        let mut rng = ChaCha12Rng::seed_from_u64(23);
        let mut mesh = Mesh::new(2);
        let mut dealer = Dealer::new(2, 9);
        let mut log = Vec::new();
        let d = shares_of_diff(&mut rng, 2, 3, 9);
        less_than_zero(&mut mesh, &mut dealer, &d, Some(&mut log)).unwrap();
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn masked_opens_look_uniform() {
        // Security smoke test: with *fixed* inputs, the opened masked value
        // must be indistinguishable from uniform. Check per-bit balance
        // over many runs.
        let mut rng = ChaCha12Rng::seed_from_u64(29);
        let mut mesh = Mesh::new(2);
        let mut dealer = Dealer::new(2, 31);
        let mut log = Vec::new();
        for _ in 0..512 {
            let d = shares_of_diff(&mut rng, 2, 5, 7); // constant inputs!
            less_than_zero(&mut mesh, &mut dealer, &d, Some(&mut log)).unwrap();
        }
        for bit in 0..64 {
            let ones = log.iter().filter(|&&m| (m >> bit) & 1 == 1).count();
            assert!(
                (128..=384).contains(&ones),
                "bit {bit} of masked opens is biased: {ones}/512"
            );
        }
    }
}
