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
//!    public-plus-shared radix-4 carry tree,
//! 4. open only bit 63.
//!
//! Cost per comparison: [`COMPARE_ROUNDS`] = 5 online rounds (1 masked
//! open + 3 carry layers + 1 bit open), 8 words per party, 1 edaBit and
//! [`COMPARE_CORR_WORDS`] = 44 correlation words.
//!
//! The batched kernel runs on flat party-major buffers end to end
//! (shared differences as a [`ShareBlock`], the edaBit block, the flat
//! masked-open payload, [`add_public_block`], the flat bit open), all held
//! in a reusable [`CompareScratch`].

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::binary::{add_public_block, AdderScratch, ADDER_CORR_WORDS, ADDER_ROUNDS};
use crate::block::{EdaBitBlock, ShareBlock};
use crate::dealer::Dealer;
use crate::error::ProtocolError;
use crate::fedsac::Transcript;
use crate::net::{Mesh, MsgKind};

/// Online rounds of one [`less_than_zero`] execution.
pub const COMPARE_ROUNDS: u64 = 1 + ADDER_ROUNDS + 1;
/// edaBits consumed per comparison.
pub const COMPARE_EDABITS: u64 = 1;
/// Correlation words consumed per comparison.
pub const COMPARE_CORR_WORDS: u64 = ADDER_CORR_WORDS;

/// Reveals whether the additively shared two's-complement value `d` is
/// negative. `d_shares[p]` is party `p`'s share.
///
/// The opened words optionally go into `log` (for the audit's uniformity
/// check); see [`less_than_zero_many`].
pub fn less_than_zero(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    d_shares: &[u64],
    log: Option<&mut Transcript>,
) -> Result<bool, ProtocolError> {
    let d = ShareBlock::from_words(d_shares.len(), &[d_shares.to_vec()]);
    less_than_zero_many(mesh, dealer, &d, log, &mut CompareScratch::default())?
        .pop()
        .ok_or(ProtocolError::MissingOutput)
}

/// Reusable buffers for [`less_than_zero_many`]: the open payloads, the
/// opened values, the edaBits, the sum bits and the adder's scratch. The
/// caller owns one and passes it to every call (each `SacEngine` keeps its
/// own), so a comparison allocates only its result bits.
#[derive(Default)]
pub struct CompareScratch {
    payload: Vec<u64>,
    opened: Vec<u64>,
    eda: EdaBitBlock,
    d_bits: ShareBlock,
    adder: AdderScratch,
}

/// Batched variant of [`less_than_zero`]: `k` independent sign tests share
/// the protocol rounds — still [`COMPARE_ROUNDS`] rounds total, with `k×`
/// the payload per round. This is MP-SPDZ-style vectorization and the
/// engine of the round-batched priority-queue extension. Lane `i` of `d`
/// additively shares the `i`-th difference.
///
/// When `log` is given, the opened masked differences are appended to its
/// `masked_opens` and every opened carry-layer word to its `carry_opens`;
/// the caller records the result bits.
///
/// An empty batch returns `Ok(vec![])` at zero cost, agreeing with
/// [`add_public_block`]. Callers that consider an empty batch a caller bug
/// keep rejecting it at their own boundary (`SacEngine::less_than_many`
/// returns [`ProtocolError::EmptyBatch`]).
pub fn less_than_zero_many(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    d: &ShareBlock,
    log: Option<&mut Transcript>,
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
        eda,
        d_bits,
        adder,
    } = scratch;
    dealer.fill_edabits(k, eda);

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
    let carry_log = log.map(|t| {
        t.masked_opens.extend_from_slice(opened);
        &mut t.carry_opens
    });

    // Step 3: d = m − r = (m + 1) + ¬r (mod 2⁶⁴), all adders sharing
    // rounds. ¬r is local: party 0 flips its bit shares.
    for m in opened.iter_mut() {
        *m = m.wrapping_add(1);
    }
    for v in eda.bits.party_mut(0) {
        *v = !*v;
    }
    d_bits.reset(n, k);
    add_public_block(mesh, dealer, opened, &eda.bits, d_bits, carry_log, adder);

    // Step 4: open only the sign bits, packed into one round.
    for p in 0..n {
        let br = d_bits.party(p);
        let row = &mut payload[p * k..(p + 1) * k];
        for i in 0..k {
            row[i] = br[i] >> 63;
        }
    }
    mesh.broadcast_flat(MsgKind::BitOpen, payload, k);
    Ok((0..k)
        .map(|i| (0..n).fold(0u64, |acc, p| acc ^ payload[p * k + i]) == 1)
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
    dealer.account(COMPARE_EDABITS * k as u64, COMPARE_CORR_WORDS * k as u64);
    mesh.account_broadcast(MsgKind::MaskedOpen, k);
    for _ in 0..ADDER_ROUNDS {
        // ε and δ per comparison and layer.
        mesh.account_broadcast(MsgKind::CarryOpen, 2 * k);
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
        // kernel and its accounting twin now agree (empty in, empty out,
        // zero cost). The engine boundary still rejects empty Fed-SAC
        // batches as a typed error.
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
        account_less_than_zero_many(&mut mesh, &mut dealer, 0);
        assert_eq!(mesh.stats().rounds, 0);
        assert_eq!(dealer.stats().edabits, 0);
    }

    #[test]
    fn opened_mask_is_recorded() {
        let mut rng = ChaCha12Rng::seed_from_u64(23);
        let mut mesh = Mesh::new(2);
        let mut dealer = Dealer::new(2, 9);
        let mut log = Transcript::default();
        let d = shares_of_diff(&mut rng, 2, 3, 9);
        less_than_zero(&mut mesh, &mut dealer, &d, Some(&mut log)).unwrap();
        assert_eq!(log.masked_opens.len(), 1);
        assert_eq!(log.carry_opens.len(), 2 * ADDER_ROUNDS as usize);
    }

    #[test]
    fn masked_opens_look_uniform() {
        // Security smoke test: with *fixed* inputs, the opened masked value
        // must be indistinguishable from uniform. Check per-bit balance
        // over many runs.
        let mut rng = ChaCha12Rng::seed_from_u64(29);
        let mut mesh = Mesh::new(2);
        let mut dealer = Dealer::new(2, 31);
        let mut log = Transcript::default();
        for _ in 0..512 {
            let d = shares_of_diff(&mut rng, 2, 5, 7); // constant inputs!
            less_than_zero(&mut mesh, &mut dealer, &d, Some(&mut log)).unwrap();
        }
        for bit in 0..64 {
            let ones = log
                .masked_opens
                .iter()
                .filter(|&&m| (m >> bit) & 1 == 1)
                .count();
            assert!(
                (128..=384).contains(&ones),
                "bit {bit} of masked opens is biased: {ones}/512"
            );
        }
    }

    #[test]
    fn carry_layer_opens_look_uniform() {
        // Every carry-layer opening (ε = G ⊕ a, δ = P ⊕ b, three layers)
        // must be uniform too, whatever the fixed inputs: each uses a
        // fresh dealer mask exactly once. Per-bit balance of each of the
        // six opened words over 512 runs at constant inputs.
        for (x, y) in [(5u64, 7u64), (7, 5), (1 << 40, 1 << 40)] {
            let mut rng = ChaCha12Rng::seed_from_u64(37);
            let mut mesh = Mesh::new(3);
            let mut dealer = Dealer::new(3, 41);
            let mut log = Transcript::default();
            for _ in 0..512 {
                let d = shares_of_diff(&mut rng, 3, x, y);
                less_than_zero(&mut mesh, &mut dealer, &d, Some(&mut log)).unwrap();
            }
            let per_run = 2 * ADDER_ROUNDS as usize;
            assert_eq!(log.carry_opens.len(), 512 * per_run);
            for word in 0..per_run {
                for bit in 0..64 {
                    let ones = log
                        .carry_opens
                        .iter()
                        .skip(word)
                        .step_by(per_run)
                        .filter(|&&w| (w >> bit) & 1 == 1)
                        .count();
                    assert!(
                        (192..=320).contains(&ones),
                        "bit {bit} of carry opening {word} is biased for {x} vs {y}: {ones}/512"
                    );
                }
            }
        }
    }
}
