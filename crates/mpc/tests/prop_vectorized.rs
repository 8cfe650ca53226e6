//! Differential suite: the vectorized flat-slab kernels against their
//! scalar `Vec<SharedWord>` references.
//!
//! The vectorized paths must be **bit-identical** to the scalar ones — same
//! result bits, same opened values, same network accounting, same dealer
//! stream consumption — across party counts 2–5 and batch sizes 0–512.
//! That equality is what lets `compare_bench` attribute every speedup to
//! memory layout rather than to a protocol change.

use fedroad_mpc::binary::{
    add_public_block, add_public_many_scalar, and_block, and_many_scalar, AdderScratch, AndScratch,
    SharedWord,
};
use fedroad_mpc::compare::{less_than_zero_many, less_than_zero_many_scalar, CompareScratch};
use fedroad_mpc::dealer::{reconstruct_additive, reconstruct_xor, xor_shares, Dealer};
use fedroad_mpc::{Mesh, ShareBlock};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Random additive sharings of `k` arbitrary differences for `n` parties.
fn random_d_shares(rng: &mut ChaCha12Rng, n: usize, k: usize) -> Vec<Vec<u64>> {
    (0..k)
        .map(|_| (0..n).map(|_| rng.gen()).collect())
        .collect()
}

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

/// Runs the vectorized and scalar comparison kernels on identically seeded
/// engines and asserts full observational equality. The vectorized kernel
/// works in `scratch`, which callers may carry over from earlier batches
/// of other shapes.
fn assert_compare_kernels_agree(n: usize, k: usize, seed: u64, scratch: &mut CompareScratch) {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let d_list = random_d_shares(&mut rng, n, k);

    let mut mesh_v = Mesh::new(n);
    let mut dealer_v = Dealer::new(n, seed);
    let mut opened_v = Vec::new();
    let d = ShareBlock::from_words(n, &d_list);
    let bits_v =
        less_than_zero_many(&mut mesh_v, &mut dealer_v, &d, Some(&mut opened_v), scratch).unwrap();

    let mut mesh_s = Mesh::new(n);
    let mut dealer_s = Dealer::new(n, seed);
    let mut opened_s = Vec::new();
    let bits_s =
        less_than_zero_many_scalar(&mut mesh_s, &mut dealer_s, &d_list, Some(&mut opened_s))
            .unwrap();

    assert_eq!(bits_v, bits_s, "result bits diverged (n={n}, k={k})");
    assert_eq!(opened_v, opened_s, "opened masks diverged (n={n}, k={k})");
    assert_eq!(mesh_v.stats(), mesh_s.stats(), "net stats diverged");
    assert_eq!(dealer_v.stats(), dealer_s.stats(), "dealer stats diverged");
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
    fn and_kernels_are_bit_identical(
        n in 2usize..=5,
        values in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..48),
        seed: u64,
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let pairs: Vec<(SharedWord, SharedWord)> = values
            .iter()
            .map(|&(x, y)| (xor_shares(&mut rng, n, x), xor_shares(&mut rng, n, y)))
            .collect();
        let mut mesh_v = Mesh::new(n);
        let mut dealer_v = Dealer::new(n, seed);
        let z_v = and_words(&mut mesh_v, &mut dealer_v, &pairs);
        let mut mesh_s = Mesh::new(n);
        let mut dealer_s = Dealer::new(n, seed);
        let z_s = and_many_scalar(&mut mesh_s, &mut dealer_s, &pairs);
        prop_assert_eq!(&z_v, &z_s);
        prop_assert_eq!(mesh_v.stats(), mesh_s.stats());
        prop_assert_eq!(dealer_v.stats(), dealer_s.stats());
        for (z, &(x, y)) in z_v.iter().zip(&values) {
            prop_assert_eq!(reconstruct_xor(z), x & y);
        }
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
        let sums_v = add_words(&mut mesh_v, &mut dealer_v, &inputs);
        let mut mesh_s = Mesh::new(n);
        let mut dealer_s = Dealer::new(n, seed);
        let sums_s = add_public_many_scalar(&mut mesh_s, &mut dealer_s, &inputs);
        prop_assert_eq!(&sums_v, &sums_s);
        prop_assert_eq!(mesh_v.stats(), mesh_s.stats());
        prop_assert_eq!(dealer_v.stats(), dealer_s.stats());
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
    assert!(and_words(&mut mesh, &mut dealer, &[]).is_empty());
    assert!(and_many_scalar(&mut mesh, &mut dealer, &[]).is_empty());
    assert!(add_words(&mut mesh, &mut dealer, &[]).is_empty());
    assert!(add_public_many_scalar(&mut mesh, &mut dealer, &[]).is_empty());
    assert_eq!(
        less_than_zero_many(
            &mut mesh,
            &mut dealer,
            &ShareBlock::zeroed(4, 0),
            None,
            &mut CompareScratch::default()
        ),
        Ok(Vec::new())
    );
    assert_eq!(
        less_than_zero_many_scalar(&mut mesh, &mut dealer, &[], None),
        Ok(Vec::new())
    );
    assert_eq!(mesh.stats().rounds, 0);
    assert_eq!(mesh.stats().bytes, 0);
    assert_eq!(dealer.stats().triple_words, 0);
}
