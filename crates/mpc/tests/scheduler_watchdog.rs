//! Deadlock-watchdog regression tests for the [`BatchScheduler`] round
//! barrier. The liveness contract under test: a waiter that *panics*
//! mid-round must unwind-drop its session, which cancels its unexecuted
//! requests and shrinks the barrier, so the surviving sessions' rounds
//! still fire. Every scenario runs under a hard watchdog timeout — a
//! liveness regression fails the suite in seconds instead of hanging
//! the test runner forever (the failure mode static rule R11 and the
//! TSan job cannot see).

use fedroad_mpc::{BatchScheduler, SacBackend, SacEngine};
use std::sync::mpsc;
use std::time::Duration;

/// Generous bound: the scenarios finish in well under a second when the
/// barrier behaves; only a deadlock gets anywhere near it.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `scenario` on its own thread and fails fast if it neither
/// finishes nor panics within [`WATCHDOG`].
fn with_watchdog<F>(label: &str, scenario: F)
where
    F: FnOnce() + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        scenario();
        let _ = tx.send(());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{label}: deadlock watchdog fired after {WATCHDOG:?}")
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            panic!("{label}: scenario thread panicked (see output above)")
        }
    }
}

/// Share pairs for a 2-silo comparison whose plaintext outcome is fixed:
/// 1+2 = 3 versus 3+4 = 7, so `less-than` is `true`.
fn one_true_pair() -> Vec<(Vec<u64>, Vec<u64>)> {
    vec![(vec![1, 2], vec![3, 4])]
}

#[test]
fn panicking_idle_waiter_unblocks_the_barrier() {
    with_watchdog("idle waiter panic", || {
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 97));
        // Registered before the survivor submits, so the survivor's wait
        // genuinely blocks on the doomed session (`ready < active`).
        let doomed = sched.register();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let _held = doomed;
                std::thread::sleep(Duration::from_millis(100));
                // The unwind drops `_held`: Drop deregisters the session
                // and shrinks the barrier for the survivor below.
                panic!("waiter dies mid-round");
            });
            let survivor = sched.register();
            let bits = survivor
                .compare_many(&one_true_pair())
                .expect("the surviving session's round must execute");
            assert_eq!(bits, vec![true]);
            assert!(
                handle.join().is_err(),
                "the doomed waiter must have panicked, not returned"
            );
        });
        // Only the survivor's request reached a round.
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.coalesced_requests, 1);
    });
}

#[test]
fn panicking_submitter_cancels_its_pending_request() {
    with_watchdog("submitter panic", || {
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 101));
        let doomed = sched.register();
        // An unredeemed ticket: the request sits in the queue (or a
        // round) when its session dies.
        let _orphan_ticket = doomed.submit(&one_true_pair());
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let _held = doomed;
                std::thread::sleep(Duration::from_millis(100));
                panic!("submitter dies before redeeming its ticket");
            });
            let survivor = sched.register();
            let bits = survivor
                .compare_many(&one_true_pair())
                .expect("the surviving session's round must execute");
            assert_eq!(bits, vec![true]);
            assert!(handle.join().is_err());
        });
        // Liveness holds regardless of whether the orphan request made it
        // into a round before the panic or was cancelled by the drop.
        assert!(sched.stats().rounds >= 1);
    });
}

#[test]
fn threaded_backend_survives_a_panicking_waiter_too() {
    with_watchdog("threaded backend waiter panic", || {
        let sched = BatchScheduler::threaded(3, 103);
        let doomed = sched.register();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let _held = doomed;
                std::thread::sleep(Duration::from_millis(100));
                panic!("waiter dies mid-round");
            });
            let survivor = sched.register();
            let pairs = vec![(vec![1, 2, 3], vec![4, 5, 6])];
            let bits = survivor
                .compare_many(&pairs)
                .expect("the surviving session's round must execute");
            assert_eq!(bits, vec![true]);
            assert!(handle.join().is_err());
        });
    });
}

/// Far past the waiter's spin budget (a private constant of a few hundred
/// microseconds): a partner this late finds the waiter parked.
const LATE_PARTNER: Duration = Duration::from_millis(50);

#[test]
fn waiter_parks_after_its_spin_and_completes_when_the_partner_submits_late() {
    with_watchdog("park after spin", || {
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 107));
        let partner = sched.register();
        let waiter = sched.register();
        let (submitted, on_submit) = mpsc::channel();
        std::thread::scope(|scope| {
            let handle = scope.spawn(move || {
                let ticket = waiter.submit(&one_true_pair());
                submitted.send(()).expect("main thread listens");
                waiter.wait(ticket)
            });
            on_submit.recv().expect("waiter submits");
            std::thread::sleep(LATE_PARTNER);
            let bits = partner
                .compare_many(&[(vec![9, 9], vec![1, 1])])
                .expect("the merged round must execute");
            assert_eq!(bits, vec![false]);
            let bits = handle.join().expect("waiter thread");
            assert_eq!(bits.expect("the parked waiter's request"), vec![true]);
        });
        // The waiter submitted first, so both requests rode one round.
        let stats = sched.stats();
        assert_eq!(stats.rounds, 1);
        assert_eq!(stats.max_requests_per_round, 2);
    });
}

#[test]
fn dropping_the_partner_while_the_waiter_spins_unblocks_it() {
    with_watchdog("partner drop during spin", || {
        let sched = BatchScheduler::lockstep(SacEngine::new(2, SacBackend::Real, 109));
        // The partner drops microseconds after the waiter submits: mostly
        // inside the waiter's spin, sometimes before the waiter reaches
        // `wait` at all. Both interleavings must unblock it.
        const TRIALS: u64 = 200;
        for _ in 0..TRIALS {
            let partner = sched.register();
            let waiter = sched.register();
            let (submitted, on_submit) = mpsc::channel();
            std::thread::scope(|scope| {
                let handle = scope.spawn(move || {
                    let ticket = waiter.submit(&one_true_pair());
                    submitted.send(()).expect("main thread listens");
                    waiter.wait(ticket)
                });
                on_submit.recv().expect("waiter submits");
                drop(partner);
                let bits = handle.join().expect("waiter thread");
                assert_eq!(bits.expect("the waiter's lone round"), vec![true]);
            });
        }
        assert_eq!(sched.stats().rounds, TRIALS);
    });
}
