//! Property tests for the MPC substrate: share algebra, circuits, the
//! comparison protocol, the threaded runner, and the round scheduler, on
//! arbitrary inputs.

use fedroad_mpc::binary::{add_public, and_block, open_word, xor_public, AndScratch};
use fedroad_mpc::dealer::{
    additive_shares, reconstruct_additive, reconstruct_xor, xor_shares, Dealer,
};
use fedroad_mpc::{Mesh, MsgKind, SacBackend, SacEngine, ShareBlock};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn additive_shares_roundtrip(v: u64, n in 2usize..9, seed: u64) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        prop_assert_eq!(reconstruct_additive(&additive_shares(&mut rng, n, v)), v);
    }

    #[test]
    fn xor_shares_roundtrip(v: u64, n in 2usize..9, seed: u64) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        prop_assert_eq!(reconstruct_xor(&xor_shares(&mut rng, n, v)), v);
    }

    #[test]
    fn beaver_and_is_bitwise_and(x: u64, y: u64, n in 2usize..6, seed: u64) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut mesh = Mesh::new(n);
        let mut dealer = Dealer::new(n, seed);
        let xs = xor_shares(&mut rng, n, x);
        let ys = xor_shares(&mut rng, n, y);
        let mut z = ShareBlock::zeroed(n, 1);
        and_block(
            &mut mesh,
            &mut dealer,
            &ShareBlock::from_words(n, &[xs]),
            &ShareBlock::from_words(n, &[ys]),
            &mut z,
            &mut AndScratch::default(),
        );
        prop_assert_eq!(reconstruct_xor(&z.to_words()[0]), x & y);
    }

    #[test]
    fn kogge_stone_adds_exactly(public: u64, secret: u64, n in 2usize..5, seed: u64) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let mut mesh = Mesh::new(n);
        let mut dealer = Dealer::new(n, seed);
        let s = xor_shares(&mut rng, n, secret);
        let sum = add_public(&mut mesh, &mut dealer, public, &s).unwrap();
        prop_assert_eq!(reconstruct_xor(&sum), public.wrapping_add(secret));
    }

    #[test]
    fn fed_sac_is_sum_comparison(
        a in proptest::collection::vec(0u64..(1u64 << 50), 2..8),
        b_extra in proptest::collection::vec(0u64..(1u64 << 50), 8),
        seed: u64,
    ) {
        let n = a.len();
        let b = &b_extra[..n];
        let mut engine = SacEngine::new(n, SacBackend::Real, seed);
        prop_assert_eq!(
            engine.less_than(&a, b).unwrap(),
            a.iter().sum::<u64>() < b.iter().sum::<u64>()
        );
    }

    #[test]
    fn backends_are_indistinguishable(
        pairs in proptest::collection::vec(
            (proptest::collection::vec(0u64..(1u64 << 45), 3),
             proptest::collection::vec(0u64..(1u64 << 45), 3)),
            1..20,
        ),
        seed: u64,
    ) {
        let mut real = SacEngine::new(3, SacBackend::Real, seed);
        let mut modeled = SacEngine::new(3, SacBackend::Modeled, seed);
        for (a, b) in &pairs {
            prop_assert_eq!(real.less_than(a, b).unwrap(), modeled.less_than(a, b).unwrap());
        }
        prop_assert_eq!(real.cumulative_stats(), modeled.cumulative_stats());
    }

    #[test]
    fn xor_public_is_involutive(v: u64, c: u64, n in 2usize..6, seed: u64) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let s = xor_shares(&mut rng, n, v);
        let twice = xor_public(&xor_public(&s, c), c);
        let mut mesh = Mesh::new(n);
        prop_assert_eq!(open_word(&mut mesh, MsgKind::MaskedOpen, &twice), v);
    }
}

proptest! {
    // Session threads plus per-round party threads are expensive; fewer,
    // larger cases.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The round scheduler is transparent: however submissions and waits
    /// interleave across concurrently running sessions, every request's
    /// bits equal [`run_comparisons`] on the flattened input. Request
    /// sizes include 0 (empty batch) and 1 (single duel) by construction.
    #[test]
    fn scheduler_matches_flat_runner_under_random_interleavings(
        parties in 2usize..4,
        request_sizes in proptest::collection::vec(
            proptest::collection::vec(0usize..4, 0..4),
            1..4,
        ),
        seed: u64,
    ) {
        use fedroad_mpc::threaded::run_comparisons;
        use fedroad_mpc::{BatchScheduler, DuelTicket};
        use rand::Rng;

        // Materialize each session's requests with seeded random costs.
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        type Duels = Vec<(Vec<u64>, Vec<u64>)>;
        let sessions: Vec<Vec<Duels>> = request_sizes
            .iter()
            .map(|sizes| {
                sizes
                    .iter()
                    .map(|&k| {
                        (0..k)
                            .map(|_| {
                                let a =
                                    (0..parties).map(|_| rng.gen_range(0..1u64 << 50)).collect();
                                let b =
                                    (0..parties).map(|_| rng.gen_range(0..1u64 << 50)).collect();
                                (a, b)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();

        // Reference: the per-party threaded runner on everything at once.
        let flat: Vec<(Vec<u64>, Vec<u64>)> = sessions
            .iter()
            .flatten()
            .flatten()
            .cloned()
            .collect();
        let reference = if flat.is_empty() {
            Vec::new()
        } else {
            run_comparisons(parties, &flat, seed).unwrap()
        };
        let mut expected: Vec<Vec<Vec<bool>>> = Vec::new();
        let mut offset = 0;
        for requests in &sessions {
            let mut per_request = Vec::new();
            for pairs in requests {
                per_request.push(reference[offset..offset + pairs.len()].to_vec());
                offset += pairs.len();
            }
            expected.push(per_request);
        }

        // Scheduler run: one thread per session, each deciding per request
        // (seeded) whether to wait immediately or defer the ticket, and in
        // which order to redeem the deferred ones.
        let sched = BatchScheduler::threaded(parties, seed ^ 0x5EED);
        let results: Vec<Vec<(usize, Vec<bool>)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = sessions
                .iter()
                .enumerate()
                .map(|(si, requests)| {
                    let sched = &sched;
                    scope.spawn(move || {
                        let mut order_rng = ChaCha12Rng::seed_from_u64(
                            seed ^ (si as u64 + 1).wrapping_mul(0x9E37_79B9),
                        );
                        let session = sched.register();
                        let mut deferred: Vec<(usize, DuelTicket)> = Vec::new();
                        let mut out: Vec<(usize, Vec<bool>)> = Vec::new();
                        for (ri, pairs) in requests.iter().enumerate() {
                            let ticket = session.submit(pairs);
                            if order_rng.gen_bool(0.5) {
                                out.push((ri, session.wait(ticket).unwrap()));
                            } else {
                                deferred.push((ri, ticket));
                            }
                        }
                        if order_rng.gen_bool(0.5) {
                            deferred.reverse();
                        }
                        for (ri, ticket) in deferred {
                            out.push((ri, session.wait(ticket).unwrap()));
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("session thread"))
                .collect()
        });

        for (si, out) in results.iter().enumerate() {
            prop_assert_eq!(out.len(), sessions[si].len());
            for (ri, bits) in out {
                prop_assert_eq!(
                    bits,
                    &expected[si][*ri],
                    "session {} request {} diverged from the flat runner",
                    si,
                    *ri
                );
            }
        }
        // Every non-empty request flowed through a merged round, and the
        // scheduler's duel accounting saw exactly the flattened workload.
        prop_assert_eq!(sched.stats().coalesced_duels, flat.len() as u64);
    }
}

#[test]
fn scheduler_empty_and_single_duel_edges_match_the_flat_runner() {
    use fedroad_mpc::threaded::run_comparisons;
    use fedroad_mpc::BatchScheduler;

    let sched = BatchScheduler::threaded(3, 9);
    let session = sched.register();
    // Empty batch: resolves immediately, occupies no protocol round.
    assert_eq!(session.compare_many(&[]).unwrap(), Vec::<bool>::new());
    assert_eq!(sched.stats().rounds, 0);
    // Single duel: one round, bits identical to the flat runner's.
    let pair = vec![(vec![5u64, 6, 7], vec![1u64, 2, 300])];
    assert_eq!(
        session.compare_many(&pair).unwrap(),
        run_comparisons(3, &pair, 9).unwrap()
    );
    assert_eq!(sched.stats().rounds, 1);
    assert_eq!(sched.stats().coalesced_duels, 1);
}

#[test]
fn threaded_runner_agrees_with_plain_comparison_on_many_batches() {
    // Threads are expensive per proptest case; run one structured sweep.
    use fedroad_mpc::threaded::run_comparisons;
    use rand::Rng;
    let mut rng = ChaCha12Rng::seed_from_u64(5);
    for n in [2usize, 4] {
        let inputs: Vec<(Vec<u64>, Vec<u64>)> = (0..60)
            .map(|_| {
                (
                    (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                    (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                )
            })
            .collect();
        let bits = run_comparisons(n, &inputs, 77).unwrap();
        for ((a, b), bit) in inputs.iter().zip(&bits) {
            assert_eq!(*bit, a.iter().sum::<u64>() < b.iter().sum::<u64>());
        }
    }
}
