//! Property test of the constant-trace security invariant: the traffic an
//! outside observer measures — rounds, message counts, byte volumes, the
//! per-kind histogram — must be a function of the query *shape* alone
//! (party count, batch size), never of the secret cost values. A protocol
//! whose trace varies with its inputs leaks them to the network, no matter
//! how well the payloads are masked.

use fedroad_mpc::{
    audit_constant_trace, trace_profile, AuditError, MsgKind, SacBackend, SacEngine, TraceProfile,
};
use proptest::prelude::*;

/// Runs one batched Fed-SAC execution on a fresh engine and fingerprints
/// its traffic.
fn profile_of_run(
    parties: usize,
    backend: SacBackend,
    pairs: &[(Vec<u64>, Vec<u64>)],
    seed: u64,
) -> TraceProfile {
    let mut engine = SacEngine::new(parties, backend, seed);
    engine
        .less_than_many(pairs)
        .expect("well-shaped inputs must not fail");
    trace_profile(&engine)
}

/// Expands per-comparison scalar pairs into per-silo vectors (each silo
/// holds a derived partial so inputs differ across silos too).
fn widen(parties: usize, scalars: &[(u64, u64)]) -> Vec<(Vec<u64>, Vec<u64>)> {
    scalars
        .iter()
        .map(|&(a, b)| {
            (
                (0..parties as u64).map(|p| a ^ (p * 17)).collect(),
                (0..parties as u64).map(|p| b ^ (p * 29)).collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Arbitrary same-shape input sets produce bit-identical traces, for
    /// both backends and several party counts.
    #[test]
    fn trace_is_input_independent(
        parties in 2usize..5,
        batch in 1usize..6,
        inputs in proptest::collection::vec(
            proptest::collection::vec((0u64..(1u64 << 50), 0u64..(1u64 << 50)), 8),
            2..5,
        ),
        seed: u64,
    ) {
        for backend in [SacBackend::Real, SacBackend::Modeled] {
            let profiles: Vec<TraceProfile> = inputs
                .iter()
                .map(|scalars| {
                    profile_of_run(parties, backend, &widen(parties, &scalars[..batch]), seed)
                })
                .collect();
            prop_assert_eq!(audit_constant_trace(&profiles), Ok(()));
        }
    }

    /// The check has teeth: one extra message injected into any execution
    /// — on any message kind — is flagged as a non-constant trace.
    #[test]
    fn injected_message_fails_the_audit(
        parties in 2usize..5,
        victim in 1usize..4,
        kind_idx in 0usize..MsgKind::ALLOWED.len(),
        a in 0u64..(1u64 << 50),
        b in 0u64..(1u64 << 50),
        seed: u64,
    ) {
        let pairs = widen(parties, &[(a, b)]);
        let mut profiles: Vec<TraceProfile> = (0..4)
            .map(|_| profile_of_run(parties, SacBackend::Real, &pairs, seed))
            .collect();

        let mut engine = SacEngine::new(parties, SacBackend::Real, seed);
        engine.less_than_many(&pairs).expect("well-shaped inputs");
        engine.inject_side_channel(MsgKind::ALLOWED[kind_idx], 1);
        profiles[victim] = trace_profile(&engine);

        let err = audit_constant_trace(&profiles).unwrap_err();
        prop_assert!(
            matches!(err, AuditError::NonConstantTrace { index, .. } if index == victim)
        );
    }
}
