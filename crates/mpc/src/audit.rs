//! Structural security audit of protocol transcripts.
//!
//! The paper's security argument (§VII) is simulation-based: each silo's
//! view during a federated query consists only of (a) uniformly masked
//! openings and (b) the revealed comparison bits, so a simulator knowing
//! only the comparison results can reproduce the execution. The auditor
//! enforces the *structural* half of that argument mechanically:
//!
//! 1. every message on the wire has one of the three allowed [`MsgKind`]s —
//!    raw weights or path costs have no representable message type;
//! 2. the per-kind message counts are exactly what `N` Fed-SAC executions
//!    produce — no side channel can hide in extra traffic;
//! 3. the masked and carry-layer openings recorded in a [`Transcript`] are
//!    statistically consistent with uniform randomness.

use crate::binary::ADDER_ROUNDS;
use crate::fedsac::{SacEngine, Transcript};
use crate::net::MsgKind;

/// Why an audit failed.
#[derive(Clone, Debug, PartialEq)]
pub enum AuditError {
    /// A message kind outside [`MsgKind::ALLOWED`] appeared.
    DisallowedKind(String),
    /// Message counts don't match the expected protocol profile.
    UnexpectedTraffic {
        /// The offending message kind.
        kind: MsgKind,
        /// Messages expected for the observed number of invocations.
        expected: u64,
        /// Messages observed.
        observed: u64,
    },
    /// Masked or carry-layer openings are measurably non-uniform.
    BiasedMaskedOpens {
        /// Bit position with the bias.
        bit: usize,
        /// Fraction of ones observed at that position.
        ones_fraction: f64,
    },
    /// Two executions over same-shape inputs produced different traffic —
    /// the trace depends on the secret values, an input leak.
    NonConstantTrace {
        /// Index of the first execution whose profile deviates.
        index: usize,
        /// The baseline profile (execution 0).
        expected: TraceProfile,
        /// The deviating profile.
        observed: TraceProfile,
    },
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditError::DisallowedKind(k) => write!(f, "disallowed message kind {k}"),
            AuditError::UnexpectedTraffic {
                kind,
                expected,
                observed,
            } => write!(
                f,
                "unexpected traffic for {kind:?}: expected {expected}, observed {observed}"
            ),
            AuditError::BiasedMaskedOpens { bit, ones_fraction } => write!(
                f,
                "masked opens biased at bit {bit}: ones fraction {ones_fraction:.3}"
            ),
            AuditError::NonConstantTrace {
                index,
                expected,
                observed,
            } => write!(
                f,
                "execution {index} traffic deviates from execution 0: \
                 expected {expected:?}, observed {observed:?}"
            ),
        }
    }
}

impl std::error::Error for AuditError {}

/// Audits an engine's full message history against the Fed-SAC profile.
///
/// For `N` protocol executions (batched comparisons count once — the
/// traffic profile is per execution) with `P` parties the expected
/// per-kind message counts are: `MaskedOpen`: `N·P(P−1)`, `CarryOpen`:
/// `3N·P(P−1)` (one per carry layer), `BitOpen`: `N·P(P−1)`.
pub fn audit_engine(engine: &SacEngine, executions: u64) -> Result<(), AuditError> {
    let p = engine.num_parties() as u64;
    let pairwise = p * (p - 1);
    let expected: [(MsgKind, u64); 3] = [
        (MsgKind::MaskedOpen, executions * pairwise),
        (MsgKind::CarryOpen, ADDER_ROUNDS * executions * pairwise),
        (MsgKind::BitOpen, executions * pairwise),
    ];
    let counts = engine.kind_counts();
    for (kind, want) in expected {
        let got = counts.get(&kind).copied().unwrap_or(0);
        if got != want {
            return Err(AuditError::UnexpectedTraffic {
                kind,
                expected: want,
                observed: got,
            });
        }
    }
    // Any kind present beyond the allowed set is impossible by type, but a
    // future refactor could extend the enum; guard anyway.
    for kind in counts.keys() {
        if !MsgKind::ALLOWED.contains(kind) {
            return Err(AuditError::DisallowedKind(format!("{kind:?}")));
        }
    }
    Ok(())
}

/// Everything a network observer can measure about one protocol execution:
/// round count, message count, byte volumes, and the per-kind message
/// histogram. If any of these differ between two executions over
/// *same-shape* inputs, the traffic is a function of the secret values —
/// exactly the side channel the semi-honest model must exclude.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceProfile {
    /// Communication rounds.
    pub rounds: u64,
    /// Total messages on the wire.
    pub messages: u64,
    /// Total bytes on the wire.
    pub bytes: u64,
    /// Bytes through the busiest party (the latency-relevant volume).
    pub per_party_bytes: u64,
    /// Message counts per kind, sorted by kind for canonical comparison.
    pub kind_counts: Vec<(MsgKind, u64)>,
}

/// Snapshots an engine's observable traffic as a [`TraceProfile`].
///
/// Callers comparing executions should use one fresh engine per
/// execution: every counter accumulates over the engine's lifetime, so
/// this profile subtracts nothing.
pub fn trace_profile(engine: &SacEngine) -> TraceProfile {
    let stats = engine.cumulative_stats();
    let mut kind_counts: Vec<(MsgKind, u64)> =
        engine.kind_counts().iter().map(|(&k, &v)| (k, v)).collect();
    kind_counts.sort_unstable();
    TraceProfile {
        rounds: stats.net.rounds,
        messages: stats.net.messages,
        bytes: stats.net.bytes,
        per_party_bytes: stats.net.per_party_bytes,
        kind_counts,
    }
}

/// The constant-trace check: all profiles — one per execution over inputs
/// of identical *shape* (same party count, same batch sizes) — must be
/// bit-identical. Any deviation means message counts or volumes depend on
/// the secret inputs and is reported as
/// [`AuditError::NonConstantTrace`] naming the first offender.
pub fn audit_constant_trace(profiles: &[TraceProfile]) -> Result<(), AuditError> {
    let Some(reference) = profiles.first() else {
        return Ok(());
    };
    for (index, p) in profiles.iter().enumerate().skip(1) {
        if p != reference {
            return Err(AuditError::NonConstantTrace {
                index,
                expected: reference.clone(),
                observed: p.clone(),
            });
        }
    }
    Ok(())
}

/// Checks per-bit balance of the masked and the carry-layer openings in
/// a transcript, each set on its own.
///
/// A set needs at least 256 samples; with fewer, its check is vacuous
/// and passes (callers accumulate across a whole query).
pub fn audit_masked_uniformity(transcript: &Transcript) -> Result<(), AuditError> {
    check_uniform_bits(&transcript.masked_opens)?;
    check_uniform_bits(&transcript.carry_opens)
}

fn check_uniform_bits(words: &[u64]) -> Result<(), AuditError> {
    let n = words.len();
    if n < 256 {
        return Ok(());
    }
    for bit in 0..64 {
        let ones = words.iter().filter(|&&m| (m >> bit) & 1 == 1).count();
        let frac = ones as f64 / n as f64;
        // Six-sigma band for Bernoulli(0.5): 0.5 ± 3/sqrt(n).
        let band = 3.0 / (n as f64).sqrt();
        if (frac - 0.5).abs() > band {
            return Err(AuditError::BiasedMaskedOpens {
                bit,
                ones_fraction: frac,
            });
        }
    }
    Ok(())
}

/// A simulator in the sense of §VII: replays a recorded bit sequence as if
/// it were the output of Fed-SAC invocations, letting tests demonstrate
/// that query control flow is a deterministic function of the revealed
/// comparison bits alone (no weight data needed).
#[derive(Debug)]
pub struct BitReplaySimulator {
    bits: std::vec::IntoIter<bool>,
}

impl BitReplaySimulator {
    /// Builds a simulator from a recorded transcript.
    pub fn from_transcript(t: &Transcript) -> Self {
        BitReplaySimulator {
            bits: t.revealed_bits.clone().into_iter(),
        }
    }

    /// Returns the next recorded comparison result.
    ///
    /// # Panics
    /// Panics if the replayed execution consumes more comparisons than the
    /// original — which would itself disprove the simulation argument.
    pub fn next_bit(&mut self) -> bool {
        self.bits
            .next()
            .expect("simulated execution diverged: more comparisons than recorded")
    }

    /// Number of unconsumed bits (0 after a faithful replay).
    pub fn remaining(&self) -> usize {
        self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedsac::SacBackend;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn clean_run_passes_audit() {
        let mut eng = SacEngine::new(3, SacBackend::Real, 1);
        for i in 0..20u64 {
            eng.less_than(&[i, i + 1, i + 2], &[i + 3, i, i]).unwrap();
        }
        audit_engine(&eng, 20).expect("clean run must pass");
    }

    #[test]
    fn modeled_run_passes_the_same_audit() {
        let mut eng = SacEngine::new(4, SacBackend::Modeled, 1);
        for _ in 0..50 {
            eng.less_than(&[1; 4], &[2; 4]).unwrap();
        }
        audit_engine(&eng, 50).expect("modeled accounting must be audit-identical");
    }

    #[test]
    fn wrong_invocation_count_is_detected() {
        let mut eng = SacEngine::new(2, SacBackend::Real, 1);
        eng.less_than(&[1, 2], &[3, 4]).unwrap();
        eng.less_than(&[5, 6], &[7, 8]).unwrap();
        // Claiming only one invocation happened ⇒ traffic looks excessive.
        let err = audit_engine(&eng, 1).unwrap_err();
        assert!(matches!(err, AuditError::UnexpectedTraffic { .. }));
    }

    #[test]
    fn uniformity_check_accepts_real_masks() {
        let mut eng = SacEngine::new(2, SacBackend::Real, 77);
        eng.enable_transcript();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        for _ in 0..600 {
            let a = rng.gen_range(0..1u64 << 30);
            let b = rng.gen_range(0..1u64 << 30);
            eng.less_than(&[a, a], &[b, b]).unwrap();
        }
        audit_masked_uniformity(eng.transcript().unwrap()).expect("real masks are uniform");
    }

    #[test]
    fn uniformity_check_rejects_a_leaky_protocol() {
        // Failure injection: a (hypothetical) protocol that "masks" with
        // zero randomness would open the raw differences — small values.
        let leaky = Transcript {
            masked_opens: (0..512u64).map(|i| i % 100).collect(),
            ..Transcript::default()
        };
        let err = audit_masked_uniformity(&leaky).unwrap_err();
        assert!(matches!(err, AuditError::BiasedMaskedOpens { .. }));
        // The same leak in the carry-layer openings is caught as well.
        let leaky = Transcript {
            carry_opens: (0..512u64).map(|i| i % 100).collect(),
            ..Transcript::default()
        };
        let err = audit_masked_uniformity(&leaky).unwrap_err();
        assert!(matches!(err, AuditError::BiasedMaskedOpens { .. }));
    }

    #[test]
    fn same_shape_executions_have_identical_traces() {
        let profiles: Vec<TraceProfile> = [(1u64, 9u64), (500, 2), (7, 7)]
            .iter()
            .map(|&(a, b)| {
                let mut eng = SacEngine::new(3, SacBackend::Real, a ^ (b << 8));
                eng.less_than(&[a, a, a], &[b, b, b]).unwrap();
                trace_profile(&eng)
            })
            .collect();
        audit_constant_trace(&profiles).expect("same-shape runs must trace identically");
    }

    #[test]
    fn injected_side_channel_breaks_the_constant_trace() {
        let mut clean = SacEngine::new(2, SacBackend::Real, 4);
        clean.less_than(&[1, 2], &[3, 4]).unwrap();
        let mut leaky = SacEngine::new(2, SacBackend::Real, 4);
        leaky.less_than(&[1, 2], &[3, 4]).unwrap();
        leaky.inject_side_channel(MsgKind::MaskedOpen, 1);
        let err =
            audit_constant_trace(&[trace_profile(&clean), trace_profile(&leaky)]).unwrap_err();
        assert!(matches!(err, AuditError::NonConstantTrace { index: 1, .. }));
    }

    #[test]
    fn empty_and_singleton_profile_lists_are_trivially_constant() {
        audit_constant_trace(&[]).unwrap();
        let mut eng = SacEngine::new(2, SacBackend::Real, 8);
        eng.less_than(&[1, 1], &[2, 2]).unwrap();
        audit_constant_trace(&[trace_profile(&eng)]).unwrap();
    }

    #[test]
    fn simulator_replays_bits_exactly() {
        let mut eng = SacEngine::new(2, SacBackend::Real, 9);
        eng.enable_transcript();
        let inputs = [([1u64, 2], [3u64, 4]), ([9, 9], [1, 1]), ([5, 5], [5, 5])];
        let expected: Vec<bool> = inputs
            .iter()
            .map(|(a, b)| eng.less_than(a, b).unwrap())
            .collect();
        let mut sim = BitReplaySimulator::from_transcript(eng.transcript().unwrap());
        for &e in &expected {
            assert_eq!(sim.next_bit(), e);
        }
        assert_eq!(sim.remaining(), 0);
    }
}
