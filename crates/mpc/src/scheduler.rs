//! Cross-query Fed-SAC round scheduler.
//!
//! The paper's cost model (§VI, `R·(L + S/B)`) says network round-trips
//! dominate secure comparison cost, and a Fed-SAC execution costs the same
//! [`FEDSAC_ROUNDS`](crate::FEDSAC_ROUNDS) rounds whether it carries one
//! duel or a thousand. Sequential query execution therefore wastes the
//! protocol's own batching headroom: two concurrent queries that each need
//! a comparison *right now* should share one protocol execution, not pay
//! `R` rounds twice.
//!
//! [`BatchScheduler`] is that coalescing point. Each in-flight query
//! registers a [`SacSession`]; sessions [`submit`](SacSession::submit)
//! comparison requests without blocking and later
//! [`wait`](SacSession::wait) on the returned [`DuelTicket`]. A round
//! fires when **every** registered session has at least one unresolved
//! submitted request — the barrier that guarantees a round is maximally
//! wide without speculating about future submissions. The thread that
//! observes the barrier becomes the round leader: it drains the submission
//! queue, merges all pending duels into one protocol execution (either a
//! lockstep [`SacEngine`] or the per-party threaded runner from
//! [`crate::threaded`]), and distributes each request's slice of the
//! revealed bits back to its ticket.
//!
//! Requests queue back to back in one flat [`DuelBuf`]; the leader swaps
//! it out whole and hands it to the backend as is, so no request's costs
//! are copied after submission.
//!
//! ## Spin-then-park
//!
//! A merged round at batch 1–2 takes tens of microseconds, about what a
//! futex sleep and wake-up pair costs. A waiter therefore spins on the
//! scheduler's generation counter for a short fixed budget before it parks
//! on the condvar; see [`SacSession::wait`] for why no wake-up is lost.
//! Each spin iteration yields the core: with more sessions than cores, a
//! busy-spinning waiter would hold the core of the very session it waits
//! for.
//!
//! ## Liveness contract
//!
//! Every registered session must eventually either submit a request or
//! drop — an idle session that stays registered forever would stall the
//! barrier for everyone (callers drop sessions between queries for exactly
//! this reason). Under that contract the scheduler is deadlock-free: once
//! all sessions are ready the first waiter fires the round, rounds execute
//! outside the state lock, and completion wakes every waiter.
//!
//! ## Secret hygiene
//!
//! Requests carry per-silo partial costs — secret material. The scheduler
//! only ever observes *shapes* (request counts, duel counts); costs flow
//! opaquely into the protocol backends and nothing value-dependent is
//! logged or recorded (`fedroad-lint` checks this mechanically).

// Protocol hot path: malformed requests become typed errors, never panics
// (see fedroad-lint rule `no-panic-hot-path`).
#![deny(clippy::unwrap_used)]

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crate::duels::{validate, DuelBuf, Duels};
use crate::error::ProtocolError;
use crate::fedsac::{SacEngine, SacStats};
use crate::threaded::run_comparisons;

/// How long a waiter spins on the generation counter, lock released,
/// before it parks on the condvar: long enough to cover a merged round at
/// batch 1–2 and a partner's next submission, short enough that a waiter
/// whose partner is busy elsewhere soon stops polling.
const SPIN_BUDGET: Duration = Duration::from_micros(200);

/// Aggregate counters of a [`BatchScheduler`] — how much cross-query
/// coalescing actually happened.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Merged protocol executions fired.
    pub rounds: u64,
    /// Requests coalesced across all rounds.
    pub coalesced_requests: u64,
    /// Individual duels carried by all rounds.
    pub coalesced_duels: u64,
    /// Widest round, in requests (≥ 2 means cross-query merging occurred).
    pub max_requests_per_round: u64,
}

impl SchedulerStats {
    /// Component-wise difference `self − baseline`. Both snapshots must
    /// come from the same monotonic [`BatchScheduler::stats`] source, so
    /// underflow is impossible by construction (`max_requests_per_round`
    /// is a high-water mark, not a counter, and is carried over).
    pub fn delta_since(&self, baseline: &SchedulerStats) -> SchedulerStats {
        SchedulerStats {
            rounds: self.rounds - baseline.rounds,
            coalesced_requests: self.coalesced_requests - baseline.coalesced_requests,
            coalesced_duels: self.coalesced_duels - baseline.coalesced_duels,
            max_requests_per_round: self.max_requests_per_round,
        }
    }
}

/// One submitted-but-unexecuted comparison request; its duels sit in
/// [`State::pending_duels`], in queue order.
struct PendingRequest {
    ticket: u64,
    session: u64,
    duels: usize,
}

/// Shared mutable scheduler state, guarded by one mutex.
#[derive(Default)]
struct State {
    /// Registered (live) sessions.
    active: usize,
    /// Sessions with at least one unresolved submitted request.
    ready: usize,
    /// Unresolved request count per session id.
    unresolved: HashMap<u64, usize>,
    /// Submission queue, drained whole by the round leader.
    pending: Vec<PendingRequest>,
    /// The queued requests' duels, back to back.
    pending_duels: DuelBuf,
    /// The last round's emptied queue buffers, swapped in by the next
    /// leader so the queue keeps its allocations from round to round.
    spare_requests: Vec<PendingRequest>,
    spare_duels: DuelBuf,
    /// Completed results keyed by ticket, removed on `wait`.
    done: HashMap<u64, Result<Vec<bool>, ProtocolError>>,
    /// A leader is executing a round outside the lock.
    round_in_flight: bool,
    next_ticket: u64,
    next_session: u64,
    stats: SchedulerStats,
}

/// Which protocol machinery executes a merged round.
enum RoundBackend {
    /// One lockstep [`SacEngine`] shared by all rounds — cheap, and its
    /// [`SacStats`] double as the scheduler's cost accounting. Boxed so
    /// the enum stays small next to the flyweight `Threaded` variant.
    Lockstep(Box<Mutex<SacEngine>>),
    /// The coordinator-free per-party threaded runner
    /// ([`crate::threaded::run_comparisons`]): one OS thread per silo per
    /// round, seeded deterministically per round.
    Threaded {
        /// Silo count every request must match.
        num_parties: usize,
        /// Base seed; round `i` runs with `seed + i`.
        seed: u64,
    },
}

/// A submission queue + round scheduler coalescing Fed-SAC comparison
/// requests from many in-flight queries into shared protocol executions.
pub struct BatchScheduler {
    backend: RoundBackend,
    /// Silo count every request must match.
    parties: usize,
    state: Mutex<State>,
    wakeup: Condvar,
    /// Bumped, under the state lock, at every state change a waiter may
    /// be waiting for; spinning waiters watch it instead of the condvar.
    generation: AtomicU64,
}

/// Recovers a poisoned guard: scheduler state holds only counters and
/// result maps, which stay structurally valid even if a panicking thread
/// released the lock mid-update, and propagating poison would turn one
/// failed query into a panic for every concurrent query.
fn lock_state<'a>(m: &'a Mutex<State>) -> MutexGuard<'a, State> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Publishes the scheduler's occupancy levels as obs gauges (queue depth
/// and live sessions are public shapes; no-ops when the recorder is off).
fn publish_gauges(st: &State) {
    fedroad_obs::gauge_set("sched.pending_requests", st.pending.len() as u64);
    fedroad_obs::gauge_set("sched.active_sessions", st.active as u64);
}

impl BatchScheduler {
    /// Scheduler executing merged rounds on a lockstep engine.
    pub fn lockstep(engine: SacEngine) -> Self {
        let parties = engine.num_parties();
        Self::with_backend(
            RoundBackend::Lockstep(Box::new(Mutex::new(engine))),
            parties,
        )
    }

    /// Scheduler executing merged rounds on the threaded per-party runner,
    /// reusing the machinery in [`crate::threaded`].
    pub fn threaded(num_parties: usize, seed: u64) -> Self {
        Self::with_backend(RoundBackend::Threaded { num_parties, seed }, num_parties)
    }

    fn with_backend(backend: RoundBackend, parties: usize) -> Self {
        BatchScheduler {
            backend,
            parties,
            state: Mutex::new(State {
                pending_duels: DuelBuf::new(parties),
                spare_duels: DuelBuf::new(parties),
                ..State::default()
            }),
            wakeup: Condvar::new(),
            generation: AtomicU64::new(0),
        }
    }

    /// Silo count every request must match.
    pub fn num_parties(&self) -> usize {
        self.parties
    }

    /// Publishes a state change: bumps the generation for spinning
    /// waiters and wakes parked ones. Takes the guard to prove the state
    /// lock is held, which the no-lost-wake-up argument in
    /// [`SacSession::wait`] rests on.
    fn notify(&self, _held: &MutexGuard<'_, State>) {
        self.generation.fetch_add(1, Ordering::Release);
        self.wakeup.notify_all();
    }

    /// Snapshot of the coalescing counters.
    pub fn stats(&self) -> SchedulerStats {
        lock_state(&self.state).stats
    }

    /// Cumulative [`SacStats`] of the underlying engine — `Some` for the
    /// lockstep backend (whose engine accounts every merged round), `None`
    /// for the threaded backend (parties account internally per run).
    pub fn sac_cumulative_stats(&self) -> Option<SacStats> {
        match &self.backend {
            RoundBackend::Lockstep(engine) => Some(
                engine
                    .lock()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .cumulative_stats(),
            ),
            RoundBackend::Threaded { .. } => None,
        }
    }

    /// Registers a query with the barrier. The session participates in
    /// round scheduling until dropped; see the module-level liveness
    /// contract.
    pub fn register(&self) -> SacSession<'_> {
        let mut st = lock_state(&self.state);
        st.active += 1;
        let id = st.next_session;
        st.next_session += 1;
        publish_gauges(&st);
        SacSession {
            scheduler: self,
            id,
        }
    }

    /// Executes one merged round over `merged` duels. Runs *outside* the
    /// state lock; exclusivity comes from the `round_in_flight` flag.
    fn execute_round(
        &self,
        merged: &DuelBuf,
        round_index: u64,
    ) -> Result<Vec<bool>, ProtocolError> {
        match &self.backend {
            RoundBackend::Lockstep(engine) => engine
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .less_than_many(merged),
            RoundBackend::Threaded { num_parties, seed } => {
                // Deterministic per-round seed: replaying the same request
                // schedule replays identical protocol randomness. Result
                // bits are value-determined either way (pinned by tests).
                run_comparisons(
                    *num_parties,
                    &merged.to_pairs(),
                    seed.wrapping_add(round_index),
                )
            }
        }
    }

    /// Leader path: takes the whole submission queue, executes it as one
    /// protocol round, and distributes per-request results. Called with
    /// the state lock held; returns with it re-acquired.
    fn fire_round<'a>(&'a self, mut st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        st.round_in_flight = true;
        let round_index = st.stats.rounds;
        // Take the queue whole, leaving the spare (empty) buffers in its
        // place for the submissions that arrive during the round.
        let queue = &mut *st;
        std::mem::swap(&mut queue.pending, &mut queue.spare_requests);
        std::mem::swap(&mut queue.pending_duels, &mut queue.spare_duels);
        let mut requests = std::mem::take(&mut queue.spare_requests);
        let mut merged = std::mem::replace(&mut queue.spare_duels, DuelBuf::new(self.parties));
        drop(st);

        // Only shape-level quantities reach observability: request/duel
        // counts, never the partial costs themselves. `is_active` (not
        // `is_enabled`) so the flight recorder captures round spans even
        // when the aggregate recorder is off.
        let obs = fedroad_obs::is_active();
        if obs {
            fedroad_obs::span_begin(
                "sched.round",
                &[
                    (
                        "requests",
                        fedroad_obs::ObsValue::Count(requests.len() as u64),
                    ),
                    ("duels", fedroad_obs::ObsValue::Count(merged.count() as u64)),
                ],
            );
        }
        let outcome = self.execute_round(&merged, round_index);
        if outcome.is_err() {
            // Black-box dump before the error fans out to the tickets: the
            // flight rings hold the events leading up to the failure, and
            // the static reason string keeps the dump redacted.
            let _ = fedroad_obs::flight::dump_on_error("protocol-error");
        }
        if obs {
            fedroad_obs::counter_add("sched.rounds", 1);
            fedroad_obs::counter_add("sched.coalesced_requests", requests.len() as u64);
            fedroad_obs::hist_record("sched.batch_width", requests.len() as u64);
            fedroad_obs::hist_record("sched.duels_per_round", merged.count() as u64);
            fedroad_obs::span_end(
                "sched.round",
                &[
                    (
                        "requests",
                        fedroad_obs::ObsValue::Count(requests.len() as u64),
                    ),
                    ("duels", fedroad_obs::ObsValue::Count(merged.count() as u64)),
                ],
            );
        }

        let mut st = lock_state(&self.state);
        st.stats.rounds += 1;
        st.stats.coalesced_requests += requests.len() as u64;
        st.stats.coalesced_duels += merged.count() as u64;
        st.stats.max_requests_per_round =
            st.stats.max_requests_per_round.max(requests.len() as u64);

        match outcome {
            Ok(bits) => {
                let mut offset = 0;
                for req in &requests {
                    let next = offset + req.duels;
                    let slice = bits.get(offset..next).map(<[bool]>::to_vec);
                    // A protocol execution returning fewer bits than duels
                    // would be an engine invariant violation; surface it as
                    // a typed error on the affected tickets, never a panic.
                    st.done
                        .insert(req.ticket, slice.ok_or(ProtocolError::MissingOutput));
                    offset = next;
                }
            }
            Err(e) => {
                // Engine/protocol failure of the merged execution: every
                // merged request observes the same error.
                for req in &requests {
                    st.done.insert(req.ticket, Err(e.clone()));
                }
            }
        }
        for req in &requests {
            Self::resolve_one(&mut st, req.session);
        }
        requests.clear();
        merged.clear();
        st.spare_requests = requests;
        st.spare_duels = merged;
        st.round_in_flight = false;
        publish_gauges(&st);
        self.notify(&st);
        st
    }

    /// Marks one of `session`'s unresolved requests resolved, maintaining
    /// the `ready` barrier count.
    fn resolve_one(st: &mut State, session: u64) {
        if let Some(count) = st.unresolved.get_mut(&session) {
            *count -= 1;
            if *count == 0 {
                st.unresolved.remove(&session);
                st.ready -= 1;
            }
        }
    }
}

/// Handle a ready comparison request is redeemed with; returned by
/// [`SacSession::submit`] and consumed by [`SacSession::wait`].
///
/// Deliberately neither `Copy` nor `Clone`: a ticket is redeemed exactly
/// once, and redeeming it removes the stored result.
#[derive(Debug)]
pub struct DuelTicket(u64);

/// One query's membership in a [`BatchScheduler`]'s round barrier.
///
/// Dropping the session deregisters it: its unexecuted requests are
/// cancelled and the barrier shrinks, so a finished (or failed) query can
/// never stall other queries' rounds.
pub struct SacSession<'a> {
    scheduler: &'a BatchScheduler,
    id: u64,
}

impl SacSession<'_> {
    /// Session id — stable for the scheduler's lifetime, useful in tests.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits a batch of duels without blocking. The request joins the
    /// next merged round; redeem the ticket with [`Self::wait`]. The duels
    /// are copied once, into the scheduler's flat queue.
    ///
    /// Malformed requests (silo-count or 2⁵⁴-range violations) and empty
    /// batches resolve immediately — they never occupy a protocol round
    /// and never fail other queries' requests. An empty batch resolves to
    /// `Ok(vec![])`, mirroring
    /// [`run_comparisons`](crate::threaded::run_comparisons) on no input.
    pub fn submit<D: Duels + ?Sized>(&self, duels: &D) -> DuelTicket {
        let sched = self.scheduler;
        let count = duels.count();
        // Validated here, outside the lock, so a malformed request fails
        // alone instead of failing the whole merged round it would join.
        let immediate: Option<Result<Vec<bool>, ProtocolError>> = if count == 0 {
            Some(Ok(Vec::new()))
        } else {
            validate(duels, sched.parties).err().map(Err)
        };

        let mut st = lock_state(&sched.state);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        match immediate {
            Some(result) => {
                st.done.insert(ticket, result);
            }
            None => {
                st.pending_duels.extend_from(duels);
                st.pending.push(PendingRequest {
                    ticket,
                    session: self.id,
                    duels: count,
                });
                let count = st.unresolved.entry(self.id).or_insert(0);
                *count += 1;
                if *count == 1 {
                    st.ready += 1;
                }
                publish_gauges(&st);
                // The barrier may have just completed: wake waiters so one
                // of them can lead the round.
                sched.notify(&st);
            }
        }
        DuelTicket(ticket)
    }

    /// Blocks until the ticket's request has executed and returns its
    /// comparison bits. The caller may be elected round leader while
    /// waiting (it then executes the merged protocol round itself).
    ///
    /// Between checks the waiter spins, lock released, until the
    /// scheduler's generation moves or [`SPIN_BUDGET`] runs out, then
    /// re-locks and parks on the condvar only if the generation still
    /// holds the value it read under the lock. No wake-up is lost: every
    /// state change bumps the generation under the lock before notifying,
    /// so an unchanged generation seen under the lock means no change
    /// since the last check, and the condvar wait releases the lock
    /// atomically, before any later change can notify.
    pub fn wait(&self, ticket: DuelTicket) -> Result<Vec<bool>, ProtocolError> {
        let sched = self.scheduler;
        // Barrier wait time: from entering `wait` until the result is in
        // hand (leader execution time included — that *is* what the query
        // experiences). A pure duration; nothing value-dependent.
        let obs = fedroad_obs::is_enabled();
        let waited = obs.then(std::time::Instant::now);
        let mut st = lock_state(&sched.state);
        loop {
            if let Some(result) = st.done.remove(&ticket.0) {
                drop(st);
                if let Some(t0) = waited {
                    fedroad_obs::hist_record(
                        "sched.barrier_wait_ns",
                        t0.elapsed().as_nanos() as u64,
                    );
                }
                return result;
            }
            let barrier_complete =
                !st.round_in_flight && !st.pending.is_empty() && st.ready == st.active;
            if barrier_complete {
                st = sched.fire_round(st);
                continue;
            }
            let seen = sched.generation.load(Ordering::Acquire);
            drop(st);
            let spin_start = Instant::now();
            while sched.generation.load(Ordering::Acquire) == seen
                && spin_start.elapsed() < SPIN_BUDGET
            {
                // Yield rather than `spin_loop`: on an idle core this
                // returns at once, on an oversubscribed one it hands the
                // core to a session that has work.
                std::thread::yield_now();
            }
            st = lock_state(&sched.state);
            if sched.generation.load(Ordering::Acquire) == seen {
                st = sched
                    .wakeup
                    .wait(st)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
    }

    /// Submit-and-wait convenience: one blocking merged comparison.
    pub fn compare_many<D: Duels + ?Sized>(&self, duels: &D) -> Result<Vec<bool>, ProtocolError> {
        let ticket = self.submit(duels);
        self.wait(ticket)
    }
}

impl Drop for SacSession<'_> {
    fn drop(&mut self) {
        let sched = self.scheduler;
        let mut st = lock_state(&sched.state);
        st.active -= 1;
        // Cancel unexecuted requests and their queued duels: their tickets
        // can no longer be waited on (the session owns the only path to
        // them).
        let State {
            pending,
            pending_duels,
            ..
        } = &mut *st;
        let mut first = 0;
        pending.retain(|req| {
            if req.session == self.id {
                pending_duels.remove(first, req.duels);
                false
            } else {
                first += req.duels;
                true
            }
        });
        if st.unresolved.remove(&self.id).is_some() {
            st.ready -= 1;
        }
        publish_gauges(&st);
        // Shrinking the barrier may complete it for the remaining
        // sessions.
        sched.notify(&st);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fedsac::{SacBackend, FEDSAC_ROUNDS};
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha12Rng;

    type DuelPairs = Vec<(Vec<u64>, Vec<u64>)>;

    fn random_pairs(parties: usize, n: usize, seed: u64) -> DuelPairs {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let a = (0..parties).map(|_| rng.gen_range(0..1_000_000)).collect();
                let b = (0..parties).map(|_| rng.gen_range(0..1_000_000)).collect();
                (a, b)
            })
            .collect()
    }

    fn plain_bits(pairs: &[(Vec<u64>, Vec<u64>)]) -> Vec<bool> {
        pairs
            .iter()
            .map(|(a, b)| a.iter().sum::<u64>() < b.iter().sum::<u64>())
            .collect()
    }

    #[test]
    fn single_session_fires_immediately_and_matches_plain() {
        let sched = BatchScheduler::lockstep(SacEngine::new(3, SacBackend::Real, 7));
        let session = sched.register();
        let pairs = random_pairs(3, 5, 11);
        assert_eq!(
            session.compare_many(&pairs).expect("in-range comparison"),
            plain_bits(&pairs)
        );
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.coalesced_requests, 1);
        assert_eq!(stats.coalesced_duels, 5);
    }

    #[test]
    fn concurrent_sessions_coalesce_into_one_round() {
        let sched = BatchScheduler::lockstep(SacEngine::new(3, SacBackend::Real, 13));
        let expected: Vec<DuelPairs> = (0..4)
            .map(|i| random_pairs(3, 3 + i, 100 + i as u64))
            .collect();
        std::thread::scope(|scope| {
            for pairs in &expected {
                let sched = &sched;
                scope.spawn(move || {
                    let session = sched.register();
                    assert_eq!(
                        session.compare_many(pairs).expect("in-range comparison"),
                        plain_bits(pairs)
                    );
                });
            }
        });
        let stats = sched.stats();
        // Exactly how many rounds fire depends on thread interleaving
        // (sessions register at different times), but coalescing must
        // never *add* executions beyond one per request, and the totals
        // are exact.
        assert!(stats.rounds <= 4);
        assert_eq!(stats.coalesced_requests, 4);
        assert_eq!(
            stats.coalesced_duels,
            expected.iter().map(Vec::len).sum::<usize>() as u64
        );
        let sac = sched.sac_cumulative_stats().expect("lockstep backend");
        assert_eq!(sac.net.rounds, stats.rounds * FEDSAC_ROUNDS);
    }

    #[test]
    fn forced_barrier_coalesces_both_requests_into_one_round() {
        // Deterministic coalescing: both sessions submit before anyone
        // waits, so the first waiter leads exactly one two-request round.
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 17));
        let s1 = sched.register();
        let s2 = sched.register();
        let p1 = random_pairs(2, 2, 1);
        let p2 = random_pairs(2, 4, 2);
        let t1 = s1.submit(&p1);
        let t2 = s2.submit(&p2);
        assert_eq!(s1.wait(t1).expect("in-range comparison"), plain_bits(&p1));
        assert_eq!(s2.wait(t2).expect("in-range comparison"), plain_bits(&p2));
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.max_requests_per_round, 2);
        assert_eq!(stats.coalesced_duels, 6);
    }

    #[test]
    fn threaded_backend_matches_plain() {
        let sched = BatchScheduler::threaded(3, 23);
        let session = sched.register();
        let pairs = random_pairs(3, 7, 29);
        assert_eq!(
            session.compare_many(&pairs).expect("in-range comparison"),
            plain_bits(&pairs)
        );
        assert!(sched.sac_cumulative_stats().is_none());
        assert_eq!(sched.stats().rounds, 1);
    }

    #[test]
    fn malformed_request_fails_alone_without_poisoning_the_round() {
        let sched = BatchScheduler::lockstep(SacEngine::new(3, SacBackend::Real, 31));
        let s1 = sched.register();
        let s2 = sched.register();
        let good = random_pairs(3, 2, 37);
        let bad = vec![(vec![1, 2], vec![3, 4])]; // two silos, expected three
        let t_bad = s1.submit(&bad);
        let t_good = s2.submit(&good);
        assert_eq!(
            s1.wait(t_bad),
            Err(ProtocolError::WrongSiloCount {
                expected: 3,
                got: 2
            })
        );
        // s1 still has no unresolved request after the early failure, so
        // its *next* submission keeps the barrier sound; here it simply
        // drops, and s2's round proceeds.
        drop(s1);
        assert_eq!(
            s2.wait(t_good).expect("in-range comparison"),
            plain_bits(&good)
        );
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.coalesced_requests, 1);
    }

    #[test]
    fn out_of_range_cost_is_rejected_per_request() {
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 41));
        let session = sched.register();
        let bad = vec![(vec![1 << 54, 0], vec![1, 2])];
        assert_eq!(
            session.compare_many(&bad),
            Err(ProtocolError::CostOutOfRange { value: 1 << 54 })
        );
        assert_eq!(sched.stats().rounds, 0);
    }

    #[test]
    fn empty_submit_resolves_without_a_round() {
        let sched = BatchScheduler::lockstep(SacEngine::new(3, SacBackend::Real, 43));
        let session = sched.register();
        assert_eq!(
            session.compare_many(&[]).expect("in-range comparison"),
            Vec::<bool>::new()
        );
        let stats = sched.stats();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.coalesced_requests, 0);
    }

    #[test]
    fn session_drop_unblocks_the_barrier() {
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 47));
        let waiter_pairs = random_pairs(2, 3, 53);
        std::thread::scope(|scope| {
            let idle = sched.register();
            let sched_ref = &sched;
            let pairs = &waiter_pairs;
            let handle = scope.spawn(move || {
                let session = sched_ref.register();
                session.compare_many(pairs)
            });
            // Give the waiter time to submit and block on the barrier
            // (the idle session keeps `ready < active`).
            std::thread::sleep(std::time::Duration::from_millis(50));
            drop(idle);
            let bits = handle.join().expect("waiter thread");
            assert_eq!(
                bits.expect("in-range comparison"),
                plain_bits(&waiter_pairs)
            );
        });
    }

    #[test]
    fn interleaved_multi_submit_per_session_resolves_all_tickets() {
        let sched = BatchScheduler::lockstep(SacEngine::new(3, SacBackend::Real, 59));
        let s1 = sched.register();
        let s2 = sched.register();
        let p1a = random_pairs(3, 2, 61);
        let p1b = random_pairs(3, 1, 67);
        let p2 = random_pairs(3, 3, 71);
        let t1a = s1.submit(&p1a);
        let t1b = s1.submit(&p1b);
        let t2 = s2.submit(&p2);
        assert_eq!(s2.wait(t2).expect("in-range comparison"), plain_bits(&p2));
        assert_eq!(s1.wait(t1b).expect("in-range comparison"), plain_bits(&p1b));
        assert_eq!(s1.wait(t1a).expect("in-range comparison"), plain_bits(&p1a));
        // All three requests were pending when the barrier completed, so
        // one round carried them all.
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.max_requests_per_round, 3);
    }

    #[test]
    fn poisoned_state_lock_recovers() {
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 83));
        // Poison the state mutex for real: a thread panics while holding
        // the guard (the only way std marks a mutex poisoned).
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                let _guard = sched.state.lock().expect("scheduler state lock");
                panic!("poison the scheduler state");
            });
            assert!(handle.join().is_err(), "the poisoner must panic");
        });
        assert!(
            sched.state.lock().is_err(),
            "the mutex must actually be poisoned for this regression test"
        );

        // Every public entry point goes through `lock_state`, which
        // recovers the guard instead of cascading the panic — a full
        // round must still schedule and execute. Run it under a watchdog
        // so a recovery regression fails fast instead of hanging.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let session = sched.register();
                let pairs = random_pairs(2, 2, 89);
                let bits = session.compare_many(&pairs);
                let _ = tx.send((bits, pairs));
            });
            let (bits, pairs) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .expect("deadlock watchdog: poisoned-state round never completed");
            assert_eq!(bits.expect("in-range comparison"), plain_bits(&pairs));
        });
        assert_eq!(sched.stats().rounds, 1);
    }
}
