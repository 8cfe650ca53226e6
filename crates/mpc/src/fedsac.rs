//! The Fed-SAC operator: federated **s**um-**a**nd-**c**ompare.
//!
//! Fed-SAC is the paper's single MPC building block (§II-B): given two
//! paths `ρ_A, ρ_B`, every silo `p` holds partial costs `φ_p(ρ_A)` and
//! `φ_p(ρ_B)`; the operator secretly sums each path's `P` partial costs and
//! reveals **only** whether `Σφ_p(ρ_A) < Σφ_p(ρ_B)` — equivalent to
//! comparing the joint (average) costs, without the division.
//!
//! [`SacEngine`] exposes two interchangeable backends:
//!
//! * [`SacBackend::Real`] executes the full secret-sharing protocol:
//!   input sharing, masked opening, Kogge–Stone sign extraction.
//! * [`SacBackend::Modeled`] computes the comparison directly but runs the
//!   *identical* cost accounting, enabling large experiment sweeps. A test
//!   pins the two backends to identical results and statistics.

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::block::ShareBlock;
use crate::compare::{
    account_less_than_zero_many, less_than_zero_many, CompareScratch, COMPARE_ROUNDS,
};
use crate::dealer::{Dealer, DealerStats};
use crate::duels::{validate, Duels};
use crate::error::ProtocolError;
use crate::net::{Mesh, MsgKind, NetStats, NetworkModel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Execution backend of a [`SacEngine`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SacBackend {
    /// Execute the real secret-sharing protocol end to end.
    Real,
    /// Compute results directly; account identical protocol costs.
    Modeled,
}

/// Rounds per full Fed-SAC invocation (input-sharing round + comparison).
pub const FEDSAC_ROUNDS: u64 = 1 + COMPARE_ROUNDS;

/// Aggregated statistics of an engine.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SacStats {
    /// Number of Fed-SAC invocations — the paper's headline cost metric.
    pub invocations: u64,
    /// Online traffic.
    pub net: NetStats,
    /// Preprocessing consumption.
    pub dealer: DealerStats,
}

impl SacStats {
    /// Modeled online wall-clock under a network model.
    pub fn modeled_time_s(&self, model: &NetworkModel) -> f64 {
        model.modeled_time_s(&self.net)
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &SacStats) {
        self.invocations += other.invocations;
        self.net.merge(&other.net);
        self.dealer.edabits += other.dealer.edabits;
        self.dealer.triple_words += other.dealer.triple_words;
        self.dealer.bytes += other.dealer.bytes;
    }

    /// The component-wise difference `self − baseline`. Both snapshots
    /// must come from the same monotonic source (e.g. two reads of
    /// [`SacEngine::cumulative_stats`]), which makes underflow impossible
    /// by construction — the invariant per-query delta reporting relies
    /// on.
    pub fn delta_since(&self, baseline: &SacStats) -> SacStats {
        SacStats {
            invocations: self.invocations - baseline.invocations,
            net: NetStats {
                rounds: self.net.rounds - baseline.net.rounds,
                messages: self.net.messages - baseline.net.messages,
                bytes: self.net.bytes - baseline.net.bytes,
                per_party_bytes: self.net.per_party_bytes - baseline.net.per_party_bytes,
            },
            dealer: DealerStats {
                edabits: self.dealer.edabits - baseline.dealer.edabits,
                triple_words: self.dealer.triple_words - baseline.dealer.triple_words,
                bytes: self.dealer.bytes - baseline.dealer.bytes,
            },
        }
    }
}

/// Optional recording of everything the protocol publicly reveals — the
/// material for the simulation-paradigm security argument (§VII): a party's
/// view is exactly (uniform masked opens, uniform triple opens, result
/// bits), so a simulator given only the result bits can reproduce it.
#[derive(Clone, Debug, Default)]
pub struct Transcript {
    /// Publicly opened masked differences (uniform by construction).
    pub masked_opens: Vec<u64>,
    /// The revealed comparison bits, in invocation order.
    pub revealed_bits: Vec<bool>,
}

/// Buffers a `Real` execution works in, kept by the engine across calls
/// so a batch-1 Fed-SAC allocates only its result bits and the dealer's
/// blocks.
#[derive(Default)]
struct Scratch {
    /// Party-major shares of the differences `d_i = Σa_i − Σb_i`.
    d: ShareBlock,
    compare: CompareScratch,
}

// Redacted: prints the batch width only, never share words.
impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scratch(<redacted, {} lanes>)", self.d.lanes())
    }
}

/// The Fed-SAC engine owned by a federation: `P` lockstep parties, a mesh
/// network, and a preprocessing dealer.
#[derive(Debug)]
pub struct SacEngine {
    backend: SacBackend,
    mesh: Mesh,
    dealer: Dealer,
    /// Per-party randomness for input sharing.
    rngs: Vec<ChaCha12Rng>,
    invocations: u64,
    batches: u64,
    transcript: Option<Transcript>,
    scratch: Scratch,
}

impl SacEngine {
    /// Creates an engine for `num_parties` silos.
    pub fn new(num_parties: usize, backend: SacBackend, seed: u64) -> Self {
        SacEngine {
            backend,
            mesh: Mesh::new(num_parties),
            dealer: Dealer::new(num_parties, seed),
            rngs: (0..num_parties)
                .map(|p| {
                    ChaCha12Rng::seed_from_u64(
                        seed ^ 0x1A7E_17C0_0000_0000 ^ (p as u64).wrapping_mul(0x9E37_79B9),
                    )
                })
                .collect(),
            invocations: 0,
            batches: 0,
            transcript: None,
            scratch: Scratch::default(),
        }
    }

    /// Number of parties `P`.
    pub fn num_parties(&self) -> usize {
        self.mesh.num_parties()
    }

    /// Which backend this engine runs.
    pub fn backend(&self) -> SacBackend {
        self.backend
    }

    /// Starts recording a [`Transcript`] of revealed values.
    pub fn enable_transcript(&mut self) {
        self.transcript = Some(Transcript::default());
    }

    /// The transcript recorded so far, if enabled.
    pub fn transcript(&self) -> Option<&Transcript> {
        self.transcript.as_ref()
    }

    /// Statistics since construction. These counters are monotonic, so
    /// before/after snapshots around a query always subtract to a valid
    /// (non-negative) per-query delta.
    pub fn cumulative_stats(&self) -> SacStats {
        SacStats {
            invocations: self.invocations,
            net: self.mesh.stats(),
            dealer: self.dealer.stats(),
        }
    }

    /// Per-kind message counters (structural audit input).
    pub fn kind_counts(&self) -> &std::collections::HashMap<MsgKind, u64> {
        self.mesh.kind_counts()
    }

    /// Number of protocol executions: batched invocations count once
    /// (the audit's traffic profile is per execution, not per comparison).
    pub fn batch_count(&self) -> u64 {
        self.batches
    }

    /// **Fed-SAC**: returns `Σ a[p] < Σ b[p]`, revealing only that bit.
    ///
    /// `a[p]`/`b[p]` are silo `p`'s partial costs of the two paths. Partial
    /// costs must stay below 2⁵⁴ so the sum across ≤ 2⁸ silos keeps the
    /// signed difference exact (road-network costs are ≤ 2⁴⁰); inputs
    /// outside that range return [`ProtocolError::CostOutOfRange`].
    pub fn less_than(&mut self, a: &[u64], b: &[u64]) -> Result<bool, ProtocolError> {
        self.less_than_many(&[(a.to_vec(), b.to_vec())])?
            .pop()
            .ok_or(ProtocolError::MissingOutput)
    }

    /// Batched Fed-SAC: `k` **independent** comparisons executed with
    /// shared protocol rounds (still [`FEDSAC_ROUNDS`] total) — MP-SPDZ
    /// style vectorization. Each invocation still counts toward
    /// `invocations`; the round/latency savings show up in `net.rounds`.
    /// `duels` is any [`Duels`] batch: nested pairs or a flat
    /// [`DuelBuf`](crate::duels::DuelBuf), read in place.
    pub fn less_than_many<D: Duels + ?Sized>(
        &mut self,
        duels: &D,
    ) -> Result<Vec<bool>, ProtocolError> {
        let k = duels.count();
        if k == 0 {
            return Err(ProtocolError::EmptyBatch);
        }
        validate(duels, self.num_parties())?;
        self.invocations += k as u64;
        self.batches += 1;

        // Per-execution observability: one `fedsac.exec` span whose closing
        // event carries the round/byte deltas of exactly this execution.
        // Only public accounting quantities are recorded — the `ObsValue`
        // payload type cannot even represent a ring element.
        let obs_before = fedroad_obs::is_enabled().then(|| {
            fedroad_obs::span_begin(
                "fedsac.exec",
                &[("k", fedroad_obs::ObsValue::Count(k as u64))],
            );
            self.mesh.stats()
        });

        let outcome = match self.backend {
            SacBackend::Real => self.less_than_many_real(duels),
            SacBackend::Modeled => {
                // Identical observable results…
                let results = (0..k)
                    .map(|i| {
                        let (a, b) = duels.duel(i);
                        a.iter().sum::<u64>() < b.iter().sum::<u64>()
                    })
                    .collect();
                // …and identical cost accounting.
                self.mesh.account_scatter(MsgKind::InputShare, 2 * k);
                account_less_than_zero_many(&mut self.mesh, &mut self.dealer, k);
                Ok(results)
            }
        };
        if let Some(before) = obs_before {
            let delta = self.mesh.stats().delta_since(&before);
            fedroad_obs::counter_add("fedsac.invocations", k as u64);
            fedroad_obs::counter_add("fedsac.executions", 1);
            fedroad_obs::counter_add("fedsac.rounds", delta.rounds);
            fedroad_obs::counter_add("fedsac.bytes", delta.bytes);
            fedroad_obs::hist_record("fedsac.batch_size", k as u64);
            fedroad_obs::span_end(
                "fedsac.exec",
                &[
                    ("k", fedroad_obs::ObsValue::Count(k as u64)),
                    ("rounds", fedroad_obs::ObsValue::Count(delta.rounds)),
                    ("messages", fedroad_obs::ObsValue::Count(delta.messages)),
                    ("bytes", fedroad_obs::ObsValue::Bytes(delta.bytes)),
                    (
                        "per_party_bytes",
                        fedroad_obs::ObsValue::Bytes(delta.per_party_bytes),
                    ),
                ],
            );
        }
        let results = outcome?;
        if let Some(t) = &mut self.transcript {
            t.revealed_bits.extend(&results);
        }
        Ok(results)
    }

    fn less_than_many_real<D: Duels + ?Sized>(
        &mut self,
        duels: &D,
    ) -> Result<Vec<bool>, ProtocolError> {
        let n = self.num_parties();
        let k = duels.count();
        // Round 1: every party additively shares each of its inputs —
        // duel by duel, path A before path B, `P − 1` draws from its own
        // RNG apiece — and sends share `q` to party `q`, who folds it
        // straight into its share of `d_i = Σa_i − Σb_i` (lane `i`).
        let Scratch { d, compare } = &mut self.scratch;
        d.reset(n, k);
        for (p, rng) in self.rngs.iter_mut().enumerate() {
            for i in 0..k {
                let (a, b) = duels.duel(i);
                fold_sharing(rng, a[p], d, i, u64::wrapping_add);
                fold_sharing(rng, b[p], d, i, u64::wrapping_sub);
            }
        }
        self.mesh.account_scatter(MsgKind::InputShare, 2 * k);

        let opened_log = self.transcript.as_mut().map(|t| &mut t.masked_opens);
        less_than_zero_many(&mut self.mesh, &mut self.dealer, d, opened_log, compare)
    }
}

/// Splits `value` into fresh additive shares — `P − 1` draws from `rng`,
/// the last share fixing the sum, in the order of
/// [`additive_shares`](crate::dealer::additive_shares) — and folds share
/// `q` into party `q`'s word of lane `lane` of `d` with `fold`.
fn fold_sharing(
    rng: &mut ChaCha12Rng,
    value: u64,
    d: &mut ShareBlock,
    lane: usize,
    fold: fn(u64, u64) -> u64,
) {
    let last = d.parties() - 1;
    let mut rest = value;
    for q in 0..last {
        let share: u64 = rng.gen();
        rest = rest.wrapping_sub(share);
        d.set(q, lane, fold(d.get(q, lane), share));
    }
    d.set(last, lane, fold(d.get(last, lane), rest));
}

impl SacEngine {
    /// Test-only fault injection: accounts one extra broadcast of
    /// `word_len` words of kind `kind`, as a buggy (or malicious)
    /// implementation leaking extra data would. Exists so the
    /// constant-trace audit's negative tests can demonstrate that an
    /// injected side channel is actually caught — see
    /// [`crate::audit::audit_constant_trace`].
    pub fn inject_side_channel(&mut self, kind: MsgKind, word_len: usize) {
        self.mesh.account_broadcast(kind, word_len);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn fed_sac_equals_plain_sum_comparison() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        for p in [2usize, 3, 4, 8] {
            let mut eng = SacEngine::new(p, SacBackend::Real, 42);
            for _ in 0..100 {
                let a: Vec<u64> = (0..p).map(|_| rng.gen_range(0..1u64 << 40)).collect();
                let b: Vec<u64> = (0..p).map(|_| rng.gen_range(0..1u64 << 40)).collect();
                assert_eq!(
                    eng.less_than(&a, &b).unwrap(),
                    a.iter().sum::<u64>() < b.iter().sum::<u64>()
                );
            }
        }
    }

    #[test]
    fn backends_agree_on_results_and_costs() {
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let mut real = SacEngine::new(3, SacBackend::Real, 7);
        let mut modeled = SacEngine::new(3, SacBackend::Modeled, 7);
        for _ in 0..300 {
            let a: Vec<u64> = (0..3).map(|_| rng.gen_range(0..1u64 << 38)).collect();
            let b: Vec<u64> = (0..3).map(|_| rng.gen_range(0..1u64 << 38)).collect();
            assert_eq!(
                real.less_than(&a, &b).unwrap(),
                modeled.less_than(&a, &b).unwrap()
            );
        }
        assert_eq!(real.cumulative_stats(), modeled.cumulative_stats());
    }

    #[test]
    fn per_invocation_costs_match_the_documented_constants() {
        let mut eng = SacEngine::new(3, SacBackend::Real, 1);
        eng.less_than(&[1, 2, 3], &[4, 5, 6]).unwrap();
        let s = eng.cumulative_stats();
        assert_eq!(s.invocations, 1);
        assert_eq!(s.net.rounds, FEDSAC_ROUNDS);
        assert_eq!(s.dealer.edabits, 1);
        assert_eq!(s.dealer.triple_words, 12);
    }

    #[test]
    fn joint_average_vs_sum_equivalence() {
        // Comparing sums is comparing averages (same P): the exact joint
        // semantics of Equation 2 without a division.
        let mut eng = SacEngine::new(2, SacBackend::Real, 3);
        // avg(3, 5) = 4 < avg(4, 6) = 5.
        assert!(eng.less_than(&[3, 5], &[4, 6]).unwrap());
        assert!(!eng.less_than(&[4, 6], &[3, 5]).unwrap());
        // Equal averages: strictly-less is false both ways.
        assert!(!eng.less_than(&[2, 6], &[4, 4]).unwrap());
        assert!(!eng.less_than(&[4, 4], &[2, 6]).unwrap());
    }

    #[test]
    fn transcript_records_bits_and_masks() {
        let mut eng = SacEngine::new(2, SacBackend::Real, 5);
        eng.enable_transcript();
        let r1 = eng.less_than(&[1, 1], &[5, 5]).unwrap();
        let r2 = eng.less_than(&[9, 9], &[5, 5]).unwrap();
        let t = eng.transcript().unwrap();
        assert_eq!(t.revealed_bits, vec![r1, r2]);
        assert_eq!(t.masked_opens.len(), 2);
    }

    #[test]
    fn batched_comparisons_share_rounds_and_agree_with_sequential() {
        let mut rng = ChaCha12Rng::seed_from_u64(31);
        let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..16)
            .map(|_| {
                (
                    (0..3).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                    (0..3).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                )
            })
            .collect();
        let mut batched = SacEngine::new(3, SacBackend::Real, 9);
        let bits = batched.less_than_many(&pairs).unwrap();
        let mut sequential = SacEngine::new(3, SacBackend::Real, 9);
        for ((a, b), bit) in pairs.iter().zip(&bits) {
            assert_eq!(sequential.less_than(a, b).unwrap(), *bit);
        }
        // Same invocation count and bytes; 16x fewer rounds.
        assert_eq!(
            batched.cumulative_stats().invocations,
            sequential.cumulative_stats().invocations
        );
        assert_eq!(
            batched.cumulative_stats().net.bytes,
            sequential.cumulative_stats().net.bytes
        );
        assert_eq!(batched.cumulative_stats().net.rounds, FEDSAC_ROUNDS);
        assert_eq!(sequential.cumulative_stats().net.rounds, 16 * FEDSAC_ROUNDS);
        // Modeled twin accounts identically to the real batch.
        let mut modeled = SacEngine::new(3, SacBackend::Modeled, 9);
        assert_eq!(modeled.less_than_many(&pairs).unwrap(), bits);
        assert_eq!(modeled.cumulative_stats(), batched.cumulative_stats());
    }

    #[test]
    fn batched_rounds_pin_the_modeled_time_formula() {
        use crate::net::NetworkModel;
        // A latency-only network model turns `modeled_time_s` into a pure
        // round count, pinning the R·(L + S/B) formula on the batched path:
        // one 8-wide batch pays FEDSAC_ROUNDS, eight sequential calls pay
        // 8 × FEDSAC_ROUNDS.
        let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..8)
            .map(|i| (vec![i, i + 1, i + 2], vec![2 * i, i, 3]))
            .collect();
        let latency_only = NetworkModel {
            latency_s: 1.0,
            bandwidth_bps: f64::INFINITY,
            per_message_s: 0.0,
        };
        let mut batched = SacEngine::new(3, SacBackend::Modeled, 13);
        batched.less_than_many(&pairs).unwrap();
        assert_eq!(
            latency_only.modeled_time_s(&batched.cumulative_stats().net),
            FEDSAC_ROUNDS as f64
        );
        let mut sequential = SacEngine::new(3, SacBackend::Modeled, 13);
        for (a, b) in &pairs {
            sequential.less_than(a, b).unwrap();
        }
        assert_eq!(
            latency_only.modeled_time_s(&sequential.cumulative_stats().net),
            8.0 * FEDSAC_ROUNDS as f64
        );
        // Bandwidth-only model: time is exactly the per-party byte volume.
        let bandwidth_only = NetworkModel {
            latency_s: 0.0,
            bandwidth_bps: 1.0,
            per_message_s: 0.0,
        };
        let net = batched.cumulative_stats().net;
        assert_eq!(
            bandwidth_only.modeled_time_s(&net),
            net.per_party_bytes as f64
        );
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        let mut eng = SacEngine::new(3, SacBackend::Real, 1);
        assert_eq!(eng.less_than_many(&[]), Err(ProtocolError::EmptyBatch));
        assert_eq!(
            eng.less_than(&[1, 2], &[3, 4, 5]),
            Err(ProtocolError::WrongSiloCount {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            eng.less_than(&[1, 2, 1 << 60], &[3, 4, 5]),
            Err(ProtocolError::CostOutOfRange { value: 1 << 60 })
        );
        // A failed call must not account any traffic or invocations.
        assert_eq!(eng.cumulative_stats().invocations, 0);
        assert_eq!(eng.cumulative_stats().net.rounds, 0);
    }

    #[test]
    fn flat_input_sharing_reproduces_the_golden_transcript() {
        // Captured from the nested-`Vec` input sharing this kernel
        // replaced: 3 parties, engine seed 2024, batches of 1, 2 and 7
        // duels. Masked opens and bits pin the comparison; the last
        // batch's d-shares and each party's next RNG word pin the
        // per-party draw order bit for bit.
        const OPENS: [u64; 10] = [
            18097864130231201564,
            8479594784090368310,
            567400744096768551,
            10953953508791757706,
            3956886955059130173,
            6289767640713437390,
            12244557805372493067,
            1064027783825994651,
            15963551611850143350,
            2851925611830971213,
        ];
        const BITS: [bool; 10] = [
            false, true, false, true, true, true, false, false, false, true,
        ];
        const D: [[u64; 3]; 7] = [
            [
                1849063681097547849,
                4749170354454529559,
                11848509757145806458,
            ],
            [
                15435035305884900581,
                8053249095313229498,
                13405202878161718216,
            ],
            [
                12643819324895013701,
                5340123158360323518,
                462801127715096585,
            ],
            [
                17442296800145040537,
                17577915736615188833,
                1873276720860155594,
            ],
            [
                14401813202612914058,
                16862290758889419204,
                5629384995311264160,
            ],
            [
                10543727850236603959,
                3531101238685708581,
                4371915047654870642,
            ],
            [
                160586978022041883,
                1081144356535200558,
                17205011802153206060,
            ],
        ];
        const NEXT: [u64; 3] = [
            11085432042699841975,
            1105800171160942987,
            11526618714438031644,
        ];
        let mut rng = ChaCha12Rng::seed_from_u64(0x601D);
        let mut eng = SacEngine::new(3, SacBackend::Real, 2024);
        eng.enable_transcript();
        for k in [1usize, 2, 7] {
            let pairs: Vec<(Vec<u64>, Vec<u64>)> = (0..k)
                .map(|_| {
                    (
                        (0..3).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                        (0..3).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                    )
                })
                .collect();
            eng.less_than_many(&pairs).unwrap();
        }
        let t = eng.transcript().unwrap();
        assert_eq!(t.masked_opens, OPENS);
        assert_eq!(t.revealed_bits, BITS);
        assert_eq!(eng.scratch.d.to_words(), D.map(Vec::from));
        let next = eng.rngs.iter_mut().map(|r| r.gen::<u64>());
        assert_eq!(next.collect::<Vec<u64>>(), NEXT);
    }

    #[test]
    fn modeled_scales_with_party_count() {
        let mut small = SacEngine::new(2, SacBackend::Modeled, 1);
        let mut large = SacEngine::new(8, SacBackend::Modeled, 1);
        small.less_than(&[1, 2], &[3, 4]).unwrap();
        large.less_than(&[1; 8], &[2; 8]).unwrap();
        assert_eq!(
            small.cumulative_stats().net.rounds,
            large.cumulative_stats().net.rounds
        );
        assert!(large.cumulative_stats().net.bytes > small.cumulative_stats().net.bytes);
        assert!(
            large.cumulative_stats().net.per_party_bytes
                > small.cumulative_stats().net.per_party_bytes
        );
    }
}
