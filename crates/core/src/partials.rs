//! Partial-cost vectors and the joint comparator abstraction.
//!
//! In a federation of `P` silos the *same* path `ρ` has a different partial
//! cost `φ_p(ρ)` on every silo; the joint cost is their average
//! (Equation 2). All federated algorithms therefore carry per-silo vectors
//! and route every ordering decision through a [`JointComparator`] —
//! normally Fed-SAC, but in the §VII simulation test a bit-replay stub that
//! proves control flow depends only on the revealed comparison results.

use fedroad_mpc::{BitReplaySimulator, DuelBuf, DuelTicket, SacEngine, SacSession};
use fedroad_queue::DuelBatch;

/// Per-silo signed key values. Signed because A* keys fold in landmark
/// potential differences, which can be negative on individual silos even
/// when the joint potential is non-negative.
pub type PartialKey = Vec<i64>;

/// Per-silo unsigned path costs (`φ_p(ρ)` for `p = 0..P`).
pub type PartialCosts = Vec<u64>;

/// Uniform offset applied per silo before handing keys to Fed-SAC, which
/// operates on unsigned ring elements. The offset cancels in every
/// comparison (both operands carry `P` copies of it) and keeps the sum far
/// below the 2⁵⁴ exactness bound: keys are bounded by doubled path costs
/// (≲ 2³³) plus potential terms of the same magnitude.
pub const KEY_OFFSET: i64 = 1 << 44;

/// Compares joint (summed) keys, revealing only the boolean.
pub trait JointComparator {
    /// Returns `true` iff `Σ a[p] < Σ b[p]` (strict).
    fn less(&mut self, a: &PartialKey, b: &PartialKey) -> bool;

    /// Decides a batch of independent comparisons; results must equal
    /// element-wise [`Self::less`]. Protocol-backed comparators override
    /// this to share rounds (the round-batching extension).
    fn less_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> Vec<bool> {
        pairs.iter().map(|(a, b)| self.less(a, b)).collect()
    }

    /// Issues a batch of independent comparisons as a request instead of a
    /// blocking call (see [`fedroad_queue::Comparator::submit_batch`]).
    /// Comparators wired to a cross-query round scheduler override this to
    /// return [`DuelBatch::Deferred`]; the default decides immediately.
    fn submit_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> DuelBatch {
        DuelBatch::Ready(self.less_batch(pairs))
    }

    /// Redeems a [`DuelBatch`] from [`Self::submit_batch`]. Comparators
    /// that defer must override this; a deferred ticket reaching the
    /// default is a caller bug (tickets are comparator-private).
    fn resolve_batch(&mut self, batch: DuelBatch) -> Vec<bool> {
        match batch {
            DuelBatch::Ready(bits) => bits,
            DuelBatch::Deferred(_) => {
                unreachable!("deferred ticket redeemed on a comparator that never defers")
            }
        }
    }
}

/// The production comparator: every request is one Fed-SAC execution.
///
/// Requests go to one of two targets. An engine target
/// ([`Self::new`]) executes each request on a [`SacEngine`] at once. A
/// session target ([`Self::session`]) hands each request to a shared
/// [`BatchScheduler`](fedroad_mpc::BatchScheduler), where ready duels from
/// many in-flight queries coalesce into one protocol round, and lets
/// [`JointComparator::submit_batch`] defer. Both targets receive the same
/// requests in the same order from this one piece of code, which is what
/// makes batch execution bit-identical to sequential.
pub struct SacComparator<'e> {
    target: Target<'e>,
    batched: bool,
    invocations: u64,
    /// Every request's duels, shifted into the ring; refilled per request.
    duels: DuelBuf,
    /// Deferred batches' tickets; `DuelBatch::Deferred(i)` is slot `i`.
    deferred: Vec<Option<DuelTicket>>,
}

/// Where a [`SacComparator`] sends its requests.
enum Target<'e> {
    Engine(&'e mut SacEngine),
    Session(&'e SacSession<'e>),
}

/// Shifts a signed per-silo key into the unsigned Fed-SAC ring (the
/// uniform [`KEY_OFFSET`] cancels in every comparison), word by word.
fn ring_words(k: &PartialKey) -> impl Iterator<Item = u64> + '_ {
    k.iter().map(|&v| {
        debug_assert!(v > -KEY_OFFSET && v < KEY_OFFSET, "key {v} out of range");
        (v + KEY_OFFSET) as u64
    })
}

impl<'e> SacComparator<'e> {
    /// Wraps an MPC engine (one protocol execution per comparison, the
    /// paper-faithful accounting).
    pub fn new(engine: &'e mut SacEngine) -> Self {
        let num_silos = engine.num_parties();
        SacComparator::with_target(Target::Engine(engine), num_silos)
    }

    /// Routes every request through a scheduler session for a federation
    /// of `num_silos` silos.
    pub fn session(session: &'e SacSession<'e>, num_silos: usize) -> Self {
        SacComparator::with_target(Target::Session(session), num_silos)
    }

    fn with_target(target: Target<'e>, num_silos: usize) -> Self {
        SacComparator {
            target,
            batched: false,
            invocations: 0,
            duels: DuelBuf::new(num_silos),
            deferred: Vec::new(),
        }
    }

    /// Enables round batching: independent comparison batches handed in
    /// via [`JointComparator::less_batch`] share one protocol execution.
    pub fn with_batching(mut self) -> Self {
        self.batched = true;
        self
    }

    /// Comparisons decided so far.
    pub(crate) fn invocations(&self) -> u64 {
        self.invocations
    }

    /// Refills the duel buffer with `pairs` and counts them.
    fn load(&mut self, pairs: &[(&PartialKey, &PartialKey)]) {
        self.invocations += pairs.len() as u64;
        self.duels.clear();
        for (a, b) in pairs {
            self.duels
                .push(ring_words(a), ring_words(b))
                .expect("keys carry one partial cost per silo");
        }
    }

    /// Executes `pairs` as one request and waits for the bits.
    fn compare_now(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> Vec<bool> {
        self.load(pairs);
        match &mut self.target {
            Target::Engine(engine) => engine.less_than_many(&self.duels),
            Target::Session(session) => session.compare_many(&self.duels),
        }
        .expect("Fed-SAC cannot fail on range-checked keys")
    }
}

impl JointComparator for SacComparator<'_> {
    fn less(&mut self, a: &PartialKey, b: &PartialKey) -> bool {
        debug_assert_eq!(a.len(), b.len());
        self.compare_now(&[(a, b)])[0]
    }

    fn less_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> Vec<bool> {
        if !self.batched || pairs.len() <= 1 {
            return pairs.iter().map(|(a, b)| self.less(a, b)).collect();
        }
        self.compare_now(pairs)
    }

    fn submit_batch(&mut self, pairs: &[(&PartialKey, &PartialKey)]) -> DuelBatch {
        let session = match self.target {
            Target::Session(session) if self.batched && pairs.len() > 1 => session,
            _ => return DuelBatch::Ready(self.less_batch(pairs)),
        };
        self.load(pairs);
        self.deferred.push(Some(session.submit(&self.duels)));
        DuelBatch::Deferred((self.deferred.len() - 1) as u64)
    }

    fn resolve_batch(&mut self, batch: DuelBatch) -> Vec<bool> {
        match (batch, &self.target) {
            (DuelBatch::Ready(bits), _) => bits,
            (DuelBatch::Deferred(slot), Target::Session(session)) => {
                let ticket = self
                    .deferred
                    .get_mut(slot as usize)
                    .and_then(Option::take)
                    .expect("deferred ticket issued by this comparator");
                // Trim redeemed slots off the end so slot numbers restart.
                while let Some(None) = self.deferred.last() {
                    self.deferred.pop();
                }
                session
                    .wait(ticket)
                    .expect("Fed-SAC cannot fail on range-checked keys")
            }
            (DuelBatch::Deferred(_), Target::Engine(_)) => {
                unreachable!("an engine-backed comparator never defers")
            }
        }
    }
}

/// The §VII simulator: answers comparisons from a recorded bit sequence,
/// *never looking at the key values*. If a federated search run against
/// this comparator reproduces the original answer, the search's control
/// flow provably depends on nothing but the revealed comparison bits.
pub struct ReplayComparator {
    sim: BitReplaySimulator,
}

impl ReplayComparator {
    /// Builds a replay comparator over a recorded transcript.
    pub fn new(sim: BitReplaySimulator) -> Self {
        ReplayComparator { sim }
    }

    /// Bits left unconsumed (0 after a faithful replay).
    pub fn remaining(&self) -> usize {
        self.sim.remaining()
    }
}

impl JointComparator for ReplayComparator {
    fn less(&mut self, _a: &PartialKey, _b: &PartialKey) -> bool {
        self.sim.next_bit()
    }
}

/// Plain-text comparator for oracle/baseline runs (no MPC, no security).
#[derive(Default)]
pub struct PlainComparator {
    /// Number of comparisons performed.
    pub count: u64,
}

impl JointComparator for PlainComparator {
    fn less(&mut self, a: &PartialKey, b: &PartialKey) -> bool {
        self.count += 1;
        a.iter().sum::<i64>() < b.iter().sum::<i64>()
    }
}

/// A search item that carries a per-silo comparison key — lets one queue
/// comparator adapter serve every federated search entry type.
pub(crate) trait KeyedEntry {
    /// The item's per-silo key.
    fn key(&self) -> &PartialKey;
}

/// Adapts a [`JointComparator`] into a queue comparator over keyed search
/// entries, forwarding batches so round-batched engines can exploit the
/// TM-tree's independent tournament duels.
pub(crate) struct EntryComparator<'c, 'j> {
    cmp: &'c mut (dyn JointComparator + 'j),
}

impl<'c, 'j> EntryComparator<'c, 'j> {
    pub(crate) fn new(cmp: &'c mut (dyn JointComparator + 'j)) -> Self {
        EntryComparator { cmp }
    }
}

impl<T: KeyedEntry> fedroad_queue::Comparator<T> for EntryComparator<'_, '_> {
    fn less(&mut self, a: &T, b: &T) -> bool {
        self.cmp.less(a.key(), b.key())
    }

    fn less_batch(&mut self, pairs: &[(&T, &T)]) -> Vec<bool> {
        let key_pairs: Vec<(&PartialKey, &PartialKey)> =
            pairs.iter().map(|(a, b)| (a.key(), b.key())).collect();
        self.cmp.less_batch(&key_pairs)
    }

    fn submit_batch(&mut self, pairs: &[(&T, &T)]) -> DuelBatch {
        let key_pairs: Vec<(&PartialKey, &PartialKey)> =
            pairs.iter().map(|(a, b)| (a.key(), b.key())).collect();
        self.cmp.submit_batch(&key_pairs)
    }

    fn resolve_batch(&mut self, batch: DuelBatch) -> Vec<bool> {
        self.cmp.resolve_batch(batch)
    }
}

/// Adds two partial vectors element-wise.
pub fn add_keys(a: &PartialKey, b: &PartialKey) -> PartialKey {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x + y).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedroad_mpc::SacBackend;

    #[test]
    fn sac_comparator_handles_negative_partials() {
        let mut engine = SacEngine::new(2, SacBackend::Real, 3);
        let mut cmp = SacComparator::new(&mut engine);
        // Joint: (-5 + 9) = 4 vs (3 + 3) = 6.
        assert!(cmp.less(&vec![-5, 9], &vec![3, 3]));
        assert!(!cmp.less(&vec![3, 3], &vec![-5, 9]));
        // Equal joints are not strictly less.
        assert!(!cmp.less(&vec![-10, 10], &vec![5, -5]));
    }

    #[test]
    fn plain_and_sac_agree() {
        let mut engine = SacEngine::new(3, SacBackend::Real, 5);
        let mut sac = SacComparator::new(&mut engine);
        let mut plain = PlainComparator::default();
        let cases = [
            (vec![1i64, 2, 3], vec![3i64, 2, 1]),
            (vec![-100, 50, 51], vec![0, 0, 0]),
            (vec![7, 7, 7], vec![7, 7, 7]),
        ];
        for (a, b) in cases {
            assert_eq!(sac.less(&a, &b), plain.less(&a, &b));
        }
        assert_eq!(plain.count, 3);
    }

    #[test]
    fn replay_comparator_ignores_values() {
        let mut engine = SacEngine::new(2, SacBackend::Real, 1);
        engine.enable_transcript();
        {
            let mut sac = SacComparator::new(&mut engine);
            sac.less(&vec![1, 1], &vec![2, 2]);
            sac.less(&vec![9, 9], &vec![2, 2]);
        }
        let sim = BitReplaySimulator::from_transcript(engine.transcript().unwrap());
        let mut replay = ReplayComparator::new(sim);
        // Garbage keys; answers come from the transcript.
        assert!(replay.less(&vec![0, 0], &vec![0, 0]));
        assert!(!replay.less(&vec![0, 0], &vec![0, 0]));
        assert_eq!(replay.remaining(), 0);
    }
}
