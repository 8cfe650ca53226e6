//! A genuinely distributed execution of the Fed-SAC protocol: one OS
//! thread per party, real message passing over channels, no lockstep
//! coordinator.
//!
//! The lockstep [`crate::fedsac::SacEngine`] executes all parties' code in
//! one loop — convenient, deterministic, and what the query layer uses.
//! This module demonstrates that the protocol itself needs no such
//! coordinator: each party independently runs the straight-line protocol
//! from its own perspective, communicating only through point-to-point
//! FIFO channels, and all parties arrive at the same revealed bits. A test
//! pins the threaded results to the lockstep engine's.

// Protocol hot path: a malformed message must become a typed error,
// never a panic (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use crate::dealer::{additive_shares, Dealer};
use crate::error::ProtocolError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use std::thread;

/// Per-party slice of the preprocessing material for one comparison.
#[derive(Clone)]
struct PartyMaterial {
    /// Arithmetic share of the edaBit value `r`.
    eda_arith: u64,
    /// XOR share of `bits(r)`.
    eda_bits: u64,
    /// XOR shares of the 12 packed triples `(a, b, c)`.
    triples: Vec<(u64, u64, u64)>,
}

// lint: debug-ok(redacted: prints triple count only, never share words)
impl std::fmt::Debug for PartyMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PartyMaterial(<redacted, {} triples>)",
            self.triples.len()
        )
    }
}

/// Distributes preprocessing from `dealer`: `out[p][i]` is party `p`'s
/// slice for comparison `i`.
fn deal(dealer: &mut Dealer, comparisons: usize) -> Vec<Vec<PartyMaterial>> {
    let num_parties = dealer.num_parties();
    let mut out: Vec<Vec<PartyMaterial>> = vec![Vec::with_capacity(comparisons); num_parties];
    for _ in 0..comparisons {
        let eda = dealer.edabit();
        let triples: Vec<_> = (0..12).map(|_| dealer.triple_word()).collect();
        for (p, slot) in out.iter_mut().enumerate() {
            slot.push(PartyMaterial {
                eda_arith: eda.arith[p],
                eda_bits: eda.bits[p],
                triples: triples.iter().map(|t| (t.a[p], t.b[p], t.c[p])).collect(),
            });
        }
    }
    out
}

/// Stringifies a joined thread's panic payload (`&str` and `String` cover
/// every `panic!` in this codebase; anything else gets a placeholder).
fn describe_panic(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// One party's mailbox: senders to every peer and receivers from them.
struct Links {
    party: usize,
    to: Vec<Option<Sender<Vec<u64>>>>,
    from: Vec<Option<Receiver<Vec<u64>>>>,
}

impl Links {
    /// Sends `words` to every peer and gathers all `P` contributions
    /// (own included) into index order — one logical broadcast round.
    /// A closed channel means the peer died mid-protocol and surfaces as
    /// [`ProtocolError::PeerDisconnected`].
    fn exchange(&self, words: Vec<u64>) -> Result<Vec<Vec<u64>>, ProtocolError> {
        for (q, s) in self.to.iter().enumerate() {
            if let Some(s) = s {
                s.send(words.clone())
                    .map_err(|_| ProtocolError::PeerDisconnected { party: q })?;
            }
        }
        (0..self.to.len())
            .map(|q| {
                if q == self.party {
                    Ok(words.clone())
                } else {
                    self.from[q]
                        .as_ref()
                        .ok_or(ProtocolError::PeerDisconnected { party: q })?
                        .recv()
                        .map_err(|_| ProtocolError::PeerDisconnected { party: q })
                }
            })
            .collect()
    }
}

/// Party-local Kogge–Stone comparison: returns this party's share of the
/// result bit after the masked opening of `m`.
fn compare_local(
    links: &Links,
    party: usize,
    m: u64,
    material: &PartyMaterial,
) -> Result<u64, ProtocolError> {
    // s = ¬r (party 0 flips), g = M ∧ s, p = M ⊕ s with M = m + 1.
    let m_pub = m.wrapping_add(1);
    let s = if party == 0 {
        !material.eda_bits
    } else {
        material.eda_bits
    };
    let mut g = m_pub & s;
    let mut pw = if party == 0 { m_pub ^ s } else { s };
    let p0 = pw;

    let mut triple_idx = 0;
    for shift in [1u32, 2, 4, 8, 16, 32] {
        let g_sh = g << shift;
        let p_sh = pw << shift;
        // Two AND gates per layer, opened in one exchange.
        let (a1, b1, c1) = material.triples[triple_idx];
        let (a2, b2, c2) = material.triples[triple_idx + 1];
        triple_idx += 2;
        let msg = vec![pw ^ a1, g_sh ^ b1, pw ^ a2, p_sh ^ b2];
        let recv = links.exchange(msg)?;
        let fold = |k: usize| recv.iter().fold(0u64, |acc, w| acc ^ w[k]);
        let (e1, d1, e2, d2) = (fold(0), fold(1), fold(2), fold(3));
        let mut z1 = c1 ^ (e1 & b1) ^ (d1 & a1);
        let mut z2 = c2 ^ (e2 & b2) ^ (d2 & a2);
        if party == 0 {
            z1 ^= e1 & d1;
            z2 ^= e2 & d2;
        }
        g ^= z1;
        pw = z2;
    }
    Ok(((p0 ^ (g << 1)) >> 63) & 1)
}

/// Test-only fault injection for [`run_comparisons_with_fault`]: makes one
/// party panic right before a chosen comparison, so tests can verify that
/// the join logic attributes the failure to the *panicking* party (with its
/// payload) rather than to the [`ProtocolError::PeerDisconnected`] every
/// surviving peer observes afterwards.
#[derive(Clone, Copy, Debug)]
pub struct PartyFault {
    /// Which party's thread panics.
    pub party: usize,
    /// Panic fires just before processing this comparison index.
    pub before_comparison: usize,
    /// The injected panic payload.
    pub message: &'static str,
}

/// The full per-party protocol for a batch of comparisons; returns the
/// revealed bits (identical at every party).
fn party_main(
    links: Links,
    inputs: Vec<(u64, u64)>,
    material: Vec<PartyMaterial>,
    input_seed: u64,
    fault: Option<PartyFault>,
) -> Result<Vec<bool>, ProtocolError> {
    let n = links.to.len();
    let party = links.party;
    let mut rng = ChaCha12Rng::seed_from_u64(
        input_seed ^ 0x7123_0000 ^ (party as u64).wrapping_mul(0x9E37_79B9),
    );
    let mut results = Vec::with_capacity(inputs.len());

    for (i, &(a, b)) in inputs.iter().enumerate() {
        if let Some(f) = fault {
            if f.party == party && f.before_comparison == i {
                // lint: panic-ok(test-only injected fault, see PartyFault)
                panic!("{}", f.message);
            }
        }
        // Round 1: share both inputs (point-to-point). Our exchange is a
        // broadcast primitive, so pack per-recipient shares positionally:
        // every party broadcasts all its shares; recipients pick their
        // column. (The lockstep engine scatters; traffic shape identical.)
        let sa = additive_shares(&mut rng, n, a);
        let sb = additive_shares(&mut rng, n, b);
        let mut msg = Vec::with_capacity(2 * n);
        for q in 0..n {
            msg.push(sa[q]);
            msg.push(sb[q]);
        }
        let recv = links.exchange(msg)?;
        let a_share = recv
            .iter()
            .fold(0u64, |acc, w| acc.wrapping_add(w[2 * party]));
        let b_share = recv
            .iter()
            .fold(0u64, |acc, w| acc.wrapping_add(w[2 * party + 1]));
        let d_share = a_share.wrapping_sub(b_share);

        // Round 2: masked opening of d + r.
        let mat = &material[i];
        let recv = links.exchange(vec![d_share.wrapping_add(mat.eda_arith)])?;
        let m = recv.iter().fold(0u64, |acc, w| acc.wrapping_add(w[0]));

        // Rounds 3–8: sign extraction; round 9: open the bit.
        let bit_share = compare_local(&links, party, m, mat)?;
        let recv = links.exchange(vec![bit_share])?;
        // lint: public-ok(round 9 opens the bit: the XOR-fold of all bit shares is the protocol output)
        let bit = recv.iter().fold(0u64, |acc, w| acc ^ w[0]);
        results.push(bit == 1);
    }
    Ok(results)
}

/// Runs a batch of Fed-SAC comparisons with one real thread per party.
///
/// `inputs[i] = (a, b)` where `a[p]`/`b[p]` is party `p`'s private partial
/// cost. Returns the revealed comparison bits;
/// [`ProtocolError::ResultDivergence`] if the parties disagree (they
/// cannot, absent a protocol bug) and [`ProtocolError::PartyPanicked`] /
/// [`ProtocolError::PeerDisconnected`] when a party thread dies.
pub fn run_comparisons(
    num_parties: usize,
    inputs: &[(Vec<u64>, Vec<u64>)],
    seed: u64,
) -> Result<Vec<bool>, ProtocolError> {
    run_comparisons_with_fault(num_parties, inputs, seed, None)
}

/// [`run_comparisons`] with optional test-only fault injection (the
/// counterpart of [`crate::fedsac::SacEngine::inject_side_channel`]):
/// `fault` makes one party panic mid-protocol so failure-attribution paths
/// can be exercised deterministically.
pub fn run_comparisons_with_fault(
    num_parties: usize,
    inputs: &[(Vec<u64>, Vec<u64>)],
    seed: u64,
    fault: Option<PartyFault>,
) -> Result<Vec<bool>, ProtocolError> {
    validate_inputs(num_parties, inputs)?;
    // The inline dealer on `seed` reproduces the exact preprocessing stream
    // every committed baseline was recorded against.
    let mut dealer = Dealer::new(num_parties, seed);
    let material = deal(&mut dealer, inputs.len());
    run_with_material(num_parties, inputs, material, seed, fault)
}

fn validate_inputs(
    num_parties: usize,
    inputs: &[(Vec<u64>, Vec<u64>)],
) -> Result<(), ProtocolError> {
    if num_parties < 2 {
        return Err(ProtocolError::TooFewParties { got: num_parties });
    }
    if let Some(v) = inputs
        .iter()
        .flat_map(|(a, b)| [a, b])
        .find(|v| v.len() != num_parties)
    {
        return Err(ProtocolError::WrongSiloCount {
            expected: num_parties,
            got: v.len(),
        });
    }
    Ok(())
}

fn run_with_material(
    num_parties: usize,
    inputs: &[(Vec<u64>, Vec<u64>)],
    material: Vec<Vec<PartyMaterial>>,
    seed: u64,
    fault: Option<PartyFault>,
) -> Result<Vec<bool>, ProtocolError> {
    // Full-mesh channels.
    let mut senders: Vec<Vec<Option<Sender<Vec<u64>>>>> =
        (0..num_parties).map(|_| vec![None; num_parties]).collect();
    let mut receivers: Vec<Vec<Option<Receiver<Vec<u64>>>>> =
        (0..num_parties).map(|_| vec![None; num_parties]).collect();
    for p in 0..num_parties {
        for q in 0..num_parties {
            if p == q {
                continue;
            }
            let (tx, rx) = unbounded();
            senders[p][q] = Some(tx);
            receivers[q][p] = Some(rx);
        }
    }

    let mut handles = Vec::new();
    for (p, (outgoing, incoming)) in senders.into_iter().zip(receivers).enumerate() {
        let links = Links {
            party: p,
            to: outgoing,
            from: incoming,
        };
        let my_inputs: Vec<(u64, u64)> = inputs.iter().map(|(a, b)| (a[p], b[p])).collect();
        let my_material = material[p].clone();
        handles.push(thread::spawn(move || {
            party_main(links, my_inputs, my_material, seed, fault)
        }));
    }

    // Join *all* handles before interpreting any outcome. Joining in party
    // order and propagating the first error eagerly used to mask a panic:
    // when party `p` panics, every surviving peer returns
    // `PeerDisconnected { party: p }` on its next recv, and party 0's
    // secondary error surfaced before party `p`'s primary one was even
    // joined (its payload was discarded outright). Collect everything, then
    // attribute: a panic (with its payload) wins over the disconnects it
    // caused.
    let joined: Vec<Result<Result<Vec<bool>, ProtocolError>, String>> = handles
        .into_iter()
        .map(|h| h.join().map_err(|payload| describe_panic(payload.as_ref())))
        .collect();
    if let Some((party, payload)) = joined.iter().enumerate().find_map(|(p, r)| match r {
        Err(payload) => Some((p, payload.clone())),
        Ok(_) => None,
    }) {
        // Black-box the events leading up to the crash (no-op unless the
        // flight recorder is on). The static reason string — not the panic
        // payload — is all that names the failure, keeping the dump
        // redacted by construction.
        let _ = fedroad_obs::flight::dump_on_error("party-panicked");
        return Err(ProtocolError::PartyPanicked { party, payload });
    }
    let mut all: Vec<Vec<bool>> = Vec::with_capacity(num_parties);
    // Panics were all returned above; only protocol results remain.
    for bits in joined.into_iter().flatten() {
        all.push(bits?);
    }
    let reference = all.pop().ok_or(ProtocolError::TooFewParties { got: 0 })?;
    if all.iter().any(|other| other != &reference) {
        return Err(ProtocolError::ResultDivergence);
    }
    Ok(reference)
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::fedsac::{SacBackend, SacEngine};
    use rand::Rng;

    fn random_inputs(n: usize, count: usize, seed: u64) -> Vec<(Vec<u64>, Vec<u64>)> {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                (
                    (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                    (0..n).map(|_| rng.gen_range(0..1u64 << 40)).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn threaded_matches_plain_comparison() {
        for n in [2usize, 3, 5] {
            let inputs = random_inputs(n, 50, 7);
            let bits = run_comparisons(n, &inputs, 99).unwrap();
            for ((a, b), bit) in inputs.iter().zip(&bits) {
                assert_eq!(*bit, a.iter().sum::<u64>() < b.iter().sum::<u64>());
            }
        }
    }

    #[test]
    fn threaded_matches_lockstep_engine() {
        let n = 3;
        let inputs = random_inputs(n, 80, 13);
        let threaded = run_comparisons(n, &inputs, 21).unwrap();
        let mut engine = SacEngine::new(n, SacBackend::Real, 5);
        for ((a, b), bit) in inputs.iter().zip(&threaded) {
            assert_eq!(engine.less_than(a, b).unwrap(), *bit);
        }
    }

    #[test]
    fn equal_sums_are_not_less() {
        let inputs = vec![(vec![10u64, 20], vec![15u64, 15])];
        assert_eq!(run_comparisons(2, &inputs, 1).unwrap(), vec![false]);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(run_comparisons(4, &[], 3).unwrap().is_empty());
    }

    #[test]
    fn injected_panic_is_attributed_to_the_originating_party() {
        // Regression: a party panic used to surface as the *secondary*
        // `PeerDisconnected` that party 0 observed on its next recv, and
        // the panic payload was discarded. The join logic must name the
        // party that actually crashed, with its payload.
        let inputs = random_inputs(3, 4, 17);
        for party in 0..3 {
            let fault = PartyFault {
                party,
                before_comparison: 2,
                message: "injected fault",
            };
            let err = run_comparisons_with_fault(3, &inputs, 5, Some(fault)).unwrap_err();
            assert_eq!(
                err,
                ProtocolError::PartyPanicked {
                    party,
                    payload: "injected fault".into(),
                },
                "fault at party {party} misattributed"
            );
        }
    }

    #[test]
    fn fault_api_without_a_fault_matches_the_plain_runner() {
        let inputs = random_inputs(3, 20, 29);
        assert_eq!(
            run_comparisons_with_fault(3, &inputs, 41, None).unwrap(),
            run_comparisons(3, &inputs, 41).unwrap()
        );
    }

    #[test]
    fn too_few_parties_is_a_typed_error() {
        assert_eq!(
            run_comparisons(1, &[], 3),
            Err(ProtocolError::TooFewParties { got: 1 })
        );
    }

    #[test]
    fn wrong_silo_count_is_a_typed_error() {
        let inputs = vec![(vec![1u64, 2, 3], vec![4u64, 5])];
        assert_eq!(
            run_comparisons(3, &inputs, 3),
            Err(ProtocolError::WrongSiloCount {
                expected: 3,
                got: 2
            })
        );
    }
}
