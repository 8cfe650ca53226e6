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

use crate::binary::{CarryCoeffs, CARRY_SHIFTS, LAYER_WORDS};
use crate::block::ShareBlock;
use crate::dealer::Dealer;
use crate::error::ProtocolError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::thread;

/// Per-party slice of the preprocessing material for one comparison.
#[derive(Clone)]
struct PartyMaterial {
    /// Arithmetic share of the edaBit value `r`.
    eda_arith: u64,
    /// XOR share of `bits(r)`.
    eda_bits: u64,
    /// XOR shares of the three carry layers' correlation words, layer
    /// after layer (`[a, b, monomials…]`, see [`LAYER_WORDS`]).
    corr: Vec<u64>,
}

// lint: debug-ok(redacted: prints word count only, never share words)
impl std::fmt::Debug for PartyMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "PartyMaterial(<redacted, {} correlation words>)",
            self.corr.len()
        )
    }
}

/// Distributes preprocessing from `dealer`: `out[p][i]` is party `p`'s
/// slice for comparison `i`.
fn deal(dealer: &mut Dealer, comparisons: usize) -> Vec<Vec<PartyMaterial>> {
    let num_parties = dealer.num_parties();
    let mut out: Vec<Vec<PartyMaterial>> = vec![Vec::with_capacity(comparisons); num_parties];
    let mut corr = ShareBlock::default();
    for _ in 0..comparisons {
        let eda = dealer.edabit();
        dealer.fill_carry_corr(1, &mut corr);
        for (p, slot) in out.iter_mut().enumerate() {
            slot.push(PartyMaterial {
                eda_arith: eda.arith[p],
                eda_bits: eda.bits[p],
                corr: corr.party(p).to_vec(),
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

/// Party-local radix-4 carry tree: returns this party's share of the
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

    let mut offset = 0;
    for (layer, (&shift, &words)) in CARRY_SHIFTS.iter().zip(&LAYER_WORDS).enumerate() {
        let w = &material.corr[offset..offset + words];
        // Open ε = G ⊕ a and δ = P ⊕ b in one exchange.
        let recv = links.exchange(vec![g ^ w[0], pw ^ w[1]])?;
        let fold = |k: usize| recv.iter().fold(0u64, |acc, v| acc ^ v[k]);
        let c = CarryCoeffs::new(fold(0), fold(1), shift);
        g = c.g_share(w, party == 0);
        if layer + 1 < CARRY_SHIFTS.len() {
            pw = c.p_share(w, party == 0);
        }
        offset += words;
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
    fault: Option<PartyFault>,
) -> Result<Vec<bool>, ProtocolError> {
    let party = links.party;
    let mut results = Vec::with_capacity(inputs.len());

    for (i, &(a, b)) in inputs.iter().enumerate() {
        if let Some(f) = fault {
            if f.party == party && f.before_comparison == i {
                // lint: panic-ok(test-only injected fault, see PartyFault)
                panic!("{}", f.message);
            }
        }
        // Round 1: masked opening of d + r. The local difference a − b is
        // already this party's additive share of d, so nothing else is
        // sent first.
        let mat = &material[i];
        let d_share = a.wrapping_sub(b);
        let recv = links.exchange(vec![d_share.wrapping_add(mat.eda_arith)])?;
        let m = recv.iter().fold(0u64, |acc, w| acc.wrapping_add(w[0]));

        // Rounds 2–4: sign extraction; round 5: open the bit.
        let bit_share = compare_local(&links, party, m, mat)?;
        let recv = links.exchange(vec![bit_share])?;
        // lint: public-ok(round 5 opens the bit: the XOR-fold of all bit shares is the protocol output)
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
    run_with_material(num_parties, inputs, material, fault)
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
            party_main(links, my_inputs, my_material, fault)
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

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
        for n in [2usize, 3, 5] {
            let inputs = random_inputs(n, 80, 13);
            let threaded = run_comparisons(n, &inputs, 21).unwrap();
            let mut engine = SacEngine::new(n, SacBackend::Real, 5);
            for ((a, b), bit) in inputs.iter().zip(&threaded) {
                assert_eq!(engine.less_than(a, b).unwrap(), *bit, "{n} parties");
            }
            // One batched lockstep execution reveals the same bits too.
            let mut batched = SacEngine::new(n, SacBackend::Real, 21);
            assert_eq!(batched.less_than_many(&inputs).unwrap(), threaded);
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
