//! Differential suite: the flat-slab kernels against a per-lane reference
//! of the same protocol.
//!
//! The reference below is written straight from the layer formula: it
//! multiplies out `G' = G ⊕ P·G₁ ⊕ P·P₁·G₂ ⊕ P·P₁·P₂·G₃` and
//! `P' = P·P₁·P₂·P₃` term by term over every subset of masked factors,
//! looking each mask product up in `CARRY_MONOMIALS` (shifted as needed),
//! and exchanges nested `Vec` payloads through `Mesh::broadcast_words`.
//! The kernels must be **bit-identical** to it — same result bits, same
//! opened values, same network accounting, same dealer stream consumption
//! — across party counts 2–5 and batch sizes 0–512.

use fedroad_mpc::binary::{
    add_public_block, AdderScratch, SharedWord, CARRY_MONOMIALS, CARRY_SHIFTS, LAYER_WORDS,
};
use fedroad_mpc::compare::{less_than_zero_many, CompareScratch};
use fedroad_mpc::dealer::{reconstruct_additive, reconstruct_xor, xor_shares, Dealer};
use fedroad_mpc::{Mesh, MsgKind, ShareBlock, Transcript};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Random additive sharings of `k` arbitrary differences for `n` parties.
fn random_d_shares(rng: &mut ChaCha12Rng, n: usize, k: usize) -> Vec<Vec<u64>> {
    (0..k)
        .map(|_| (0..n).map(|_| rng.gen()).collect())
        .collect()
}

/// One masked factor of a layer product: the opened public word and the
/// factor bit of its mask (`a ≪ j·s` is bit `j`, `b ≪ j·s` bit `4 + j`).
type Factor = (u64, u8);

/// Party `p`'s share of the product of `factors`, given its layer words
/// `w = [a, b, monomials…]` at shift `s`:
/// `⊕_S (∧_{f∉S} public_f) ∧ share(∏_{f∈S} mask_f)` over all subsets `S`.
fn product_share(factors: &[Factor], w: &[u64], s: u32, party: usize) -> u64 {
    let mut acc = 0u64;
    for subset in 0u32..(1 << factors.len()) {
        let mut public = u64::MAX;
        let mut mask = 0u8;
        for (f, &(word, bit)) in factors.iter().enumerate() {
            if subset & (1 << f) != 0 {
                mask |= bit;
            } else {
                public &= word;
            }
        }
        acc ^= public & mask_share(mask, w, s, party);
    }
    acc
}

/// Party `p`'s share of the mask product `mask`: the constant 1 (party 0
/// only), a shifted mask, or a shifted dealer monomial.
fn mask_share(mask: u8, w: &[u64], s: u32, party: usize) -> u64 {
    if mask == 0 {
        return if party == 0 { u64::MAX } else { 0 };
    }
    let (a_bits, b_bits) = (mask & 0xF, mask >> 4);
    let low = (a_bits | b_bits).trailing_zeros();
    if mask.count_ones() == 1 {
        let base = if a_bits != 0 { w[0] } else { w[1] };
        return base << (low * s);
    }
    let canonical = (a_bits >> low) | ((b_bits >> low) << 4);
    let idx = CARRY_MONOMIALS
        .iter()
        .position(|&m| m == canonical)
        .expect("every mask product of the layer formula is a shifted monomial");
    w[2 + idx] << (low * s)
}

/// Per-lane reference of `add_public_block`; every opened carry word goes
/// to `log`.
fn reference_add(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    inputs: &[(u64, SharedWord)],
    log: &mut Vec<u64>,
) -> Vec<SharedWord> {
    let n = mesh.num_parties();
    if inputs.is_empty() {
        return Vec::new();
    }
    // corr[i][p]: party p's correlation words of lane i.
    let corr: Vec<Vec<Vec<u64>>> = inputs
        .iter()
        .map(|_| {
            let mut blk = ShareBlock::default();
            dealer.fill_carry_corr(1, &mut blk);
            (0..n).map(|p| blk.party(p).to_vec()).collect()
        })
        .collect();
    let mut g: Vec<Vec<u64>> = inputs
        .iter()
        .map(|(x, s)| s.iter().map(|&v| v & x).collect())
        .collect();
    let mut prop: Vec<Vec<u64>> = inputs
        .iter()
        .map(|(x, s)| {
            let mut t = s.clone();
            t[0] ^= x;
            t
        })
        .collect();

    let mut offset = 0;
    for (layer, (&s, &words)) in CARRY_SHIFTS.iter().zip(&LAYER_WORDS).enumerate() {
        let sent: Vec<Vec<u64>> = (0..n)
            .map(|p| {
                (0..inputs.len())
                    .flat_map(|i| {
                        let w = &corr[i][p][offset..];
                        [g[i][p] ^ w[0], prop[i][p] ^ w[1]]
                    })
                    .collect()
            })
            .collect();
        let recv = mesh.broadcast_words(MsgKind::CarryOpen, &sent);
        let opened: Vec<u64> = (0..2 * inputs.len())
            .map(|j| recv[0].iter().fold(0, |acc, w| acc ^ w[j]))
            .collect();
        log.extend(&opened);
        for i in 0..inputs.len() {
            let (eps, del) = (opened[2 * i], opened[2 * i + 1]);
            let gf = |j: u32| -> Factor { (eps << (j * s), 1 << j) };
            let pf = |j: u32| -> Factor { (del << (j * s), 1 << (4 + j)) };
            let g_terms: [&[Factor]; 4] = [
                &[gf(0)],
                &[pf(0), gf(1)],
                &[pf(0), pf(1), gf(2)],
                &[pf(0), pf(1), pf(2), gf(3)],
            ];
            let p_term = [pf(0), pf(1), pf(2), pf(3)];
            for p in 0..n {
                let w = &corr[i][p][offset..offset + words];
                g[i][p] = g_terms
                    .iter()
                    .fold(0, |acc, t| acc ^ product_share(t, w, s, p));
                if layer + 1 < CARRY_SHIFTS.len() {
                    prop[i][p] = product_share(&p_term, w, s, p);
                }
            }
        }
        offset += words;
    }
    inputs
        .iter()
        .zip(&g)
        .map(|((x, s), g)| {
            (0..n)
                .map(|p| s[p] ^ (g[p] << 1) ^ if p == 0 { *x } else { 0 })
                .collect()
        })
        .collect()
}

/// Per-lane reference of `less_than_zero_many`.
fn reference_less_than_zero(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    d_list: &[Vec<u64>],
    log: &mut Transcript,
) -> Vec<bool> {
    let n = mesh.num_parties();
    if d_list.is_empty() {
        return Vec::new();
    }
    let edas: Vec<_> = d_list.iter().map(|_| dealer.edabit()).collect();
    let sent: Vec<Vec<u64>> = (0..n)
        .map(|p| {
            d_list
                .iter()
                .zip(&edas)
                .map(|(d, e)| d[p].wrapping_add(e.arith[p]))
                .collect()
        })
        .collect();
    let recv = mesh.broadcast_words(MsgKind::MaskedOpen, &sent);
    let ms: Vec<u64> = (0..d_list.len())
        .map(|i| recv[0].iter().fold(0u64, |acc, w| acc.wrapping_add(w[i])))
        .collect();
    log.masked_opens.extend(&ms);
    let inputs: Vec<(u64, SharedWord)> = ms
        .iter()
        .zip(&edas)
        .map(|(m, e)| {
            let mut not_r = e.bits.clone();
            not_r[0] = !not_r[0];
            (m.wrapping_add(1), not_r)
        })
        .collect();
    let sums = reference_add(mesh, dealer, &inputs, &mut log.carry_opens);
    let bits: Vec<Vec<u64>> = (0..n)
        .map(|p| sums.iter().map(|sum| sum[p] >> 63).collect())
        .collect();
    let recv = mesh.broadcast_words(MsgKind::BitOpen, &bits);
    (0..d_list.len())
        .map(|i| recv[0].iter().fold(0u64, |acc, w| acc ^ w[i]) == 1)
        .collect()
}

/// [`add_public_block`] over lane-major `(addend, word)` inputs.
fn add_words(
    mesh: &mut Mesh,
    dealer: &mut Dealer,
    inputs: &[(u64, SharedWord)],
    log: &mut Vec<u64>,
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
        Some(log),
        &mut AdderScratch::default(),
    );
    out.to_words()
}

/// Runs the block comparison kernel and the reference on identically
/// seeded engines and asserts full observational equality. The kernel
/// works in `scratch`, which callers may carry over from earlier batches
/// of other shapes.
fn assert_compare_kernels_agree(n: usize, k: usize, seed: u64, scratch: &mut CompareScratch) {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let d_list = random_d_shares(&mut rng, n, k);

    let mut mesh_v = Mesh::new(n);
    let mut dealer_v = Dealer::new(n, seed);
    let mut log_v = Transcript::default();
    let d = ShareBlock::from_words(n, &d_list);
    let bits_v =
        less_than_zero_many(&mut mesh_v, &mut dealer_v, &d, Some(&mut log_v), scratch).unwrap();

    let mut mesh_r = Mesh::new(n);
    let mut dealer_r = Dealer::new(n, seed);
    let mut log_r = Transcript::default();
    let bits_r = reference_less_than_zero(&mut mesh_r, &mut dealer_r, &d_list, &mut log_r);

    assert_eq!(bits_v, bits_r, "result bits diverged (n={n}, k={k})");
    assert_eq!(
        log_v.masked_opens, log_r.masked_opens,
        "opened masks diverged (n={n}, k={k})"
    );
    assert_eq!(
        log_v.carry_opens, log_r.carry_opens,
        "carry openings diverged (n={n}, k={k})"
    );
    assert_eq!(mesh_v.stats(), mesh_r.stats(), "net stats diverged");
    assert_eq!(mesh_v.kind_counts(), mesh_r.kind_counts());
    assert_eq!(dealer_v.stats(), dealer_r.stats(), "dealer stats diverged");
    // Ground truth: the revealed bit is the sign of the reconstructed d.
    for (d, bit) in d_list.iter().zip(&bits_v) {
        assert_eq!(*bit, (reconstruct_additive(d) >> 63) == 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn comparison_kernels_are_bit_identical(n in 2usize..=5, k in 0usize..48, seed: u64) {
        assert_compare_kernels_agree(n, k, seed, &mut CompareScratch::default());
    }

    #[test]
    fn adder_kernels_are_bit_identical(
        n in 2usize..=5,
        values in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..32),
        seed: u64,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let inputs: Vec<(u64, SharedWord)> = values
            .iter()
            .map(|&(public, secret)| (public, xor_shares(&mut rng, n, secret)))
            .collect();
        let mut mesh_v = Mesh::new(n);
        let mut dealer_v = Dealer::new(n, seed);
        let mut log_v = Vec::new();
        let sums_v = add_words(&mut mesh_v, &mut dealer_v, &inputs, &mut log_v);
        let mut mesh_r = Mesh::new(n);
        let mut dealer_r = Dealer::new(n, seed);
        let mut log_r = Vec::new();
        let sums_r = reference_add(&mut mesh_r, &mut dealer_r, &inputs, &mut log_r);
        prop_assert_eq!(&sums_v, &sums_r);
        prop_assert_eq!(log_v, log_r);
        prop_assert_eq!(mesh_v.stats(), mesh_r.stats());
        prop_assert_eq!(dealer_v.stats(), dealer_r.stats());
        for (sum, &(public, secret)) in sums_v.iter().zip(&values) {
            prop_assert_eq!(reconstruct_xor(sum), public.wrapping_add(secret));
        }
    }
}

#[test]
fn kernels_agree_at_the_bench_batch_sizes_up_to_512() {
    // The exact batch points `compare_bench` measures, including the
    // largest; proptest keeps its cases smaller for runtime. One scratch
    // serves every call, growing and shrinking across party counts and
    // batch widths as an engine's does.
    let mut scratch = CompareScratch::default();
    for (i, &k) in [1usize, 8, 64, 512].iter().enumerate() {
        assert_compare_kernels_agree(3, k, 0x5EED ^ i as u64, &mut scratch);
    }
    assert_compare_kernels_agree(2, 512, 99, &mut scratch);
    assert_compare_kernels_agree(5, 128, 101, &mut scratch);
    assert_compare_kernels_agree(3, 1, 103, &mut scratch);
}

#[test]
fn empty_batches_agree_across_every_kernel_pair() {
    let mut mesh = Mesh::new(4);
    let mut dealer = Dealer::new(4, 1);
    let mut log = Transcript::default();
    assert!(add_words(&mut mesh, &mut dealer, &[], &mut log.carry_opens).is_empty());
    assert!(reference_add(&mut mesh, &mut dealer, &[], &mut log.carry_opens).is_empty());
    assert_eq!(
        less_than_zero_many(
            &mut mesh,
            &mut dealer,
            &ShareBlock::zeroed(4, 0),
            Some(&mut log),
            &mut CompareScratch::default()
        ),
        Ok(Vec::new())
    );
    assert!(reference_less_than_zero(&mut mesh, &mut dealer, &[], &mut log).is_empty());
    assert_eq!(mesh.stats().rounds, 0);
    assert_eq!(mesh.stats().bytes, 0);
    assert_eq!(dealer.stats().corr_words, 0);
    assert!(log.masked_opens.is_empty() && log.carry_opens.is_empty());
}
