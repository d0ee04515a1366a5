//! Admission control: coalescing identical in-flight sat-set requests.
//!
//! When several clients ask one snapshot for the same formula while
//! the first request is still being evaluated, only the **leader** (the
//! first arrival) evaluates; every later arrival becomes a
//! **follower** holding a one-shot receiver, and the leader broadcasts
//! its outcome to all of them on completion. Combined with the
//! cross-query [`SatCache`](hpl_core::SatCache) (which serves repeats
//! *after* completion) this bounds the evaluation cost of a thundering
//! herd of identical queries to a single evaluation.
//!
//! The map key is the **folded plan root**
//! ([`QueryPlan::root`](crate::planner::QueryPlan::root)), so requests
//! that differ only by constant clutter (`φ ∧ true` vs `φ`) coalesce
//! too.

use crossbeam::channel::{unbounded, Receiver, Sender};
use hpl_core::Formula;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

/// The outcome of admitting a request.
#[derive(Debug)]
enum Ticket<T> {
    /// First in-flight arrival: evaluate, then
    /// [`settle`](Admission::settle) with the outcome.
    Leader,
    /// A duplicate of an in-flight request: block on the receiver for
    /// the leader's broadcast. A disconnect (the leader unwound without
    /// settling) means the follower must evaluate for itself.
    Follower(Receiver<T>),
}

/// The followers waiting on each in-flight formula: a lookup borrows
/// the formula, and only a leader clones it in.
type Inflight<T> = HashMap<Formula, Vec<Sender<T>>>;

/// In-flight request coalescing, keyed by formula. Each snapshot holds
/// its own table, so every key belongs to that snapshot's generation.
///
/// `T` is the broadcast outcome type; it must be `Clone` so one
/// leader's result can fan out to every follower.
#[derive(Debug, Default)]
pub struct Admission<T> {
    inflight: Mutex<Inflight<T>>,
    coalesced: AtomicU64,
    led: AtomicU64,
}

impl<T: Clone> Admission<T> {
    /// Creates an empty admission table.
    #[must_use]
    pub fn new() -> Self {
        Admission {
            inflight: Mutex::new(HashMap::new()),
            coalesced: AtomicU64::new(0),
            led: AtomicU64::new(0),
        }
    }

    /// Serves a request for `f` and returns its outcome, with `true`
    /// when it was coalesced. The first in-flight arrival leads: it runs
    /// `evaluate` and broadcasts the outcome to every duplicate that
    /// arrived meanwhile, which blocks for it instead of evaluating.
    ///
    /// If the leader's `evaluate` unwinds, its entry leaves the table
    /// before the unwind goes on: each waiting follower then runs its
    /// own `evaluate`, and the next identical request leads.
    pub fn serve(&self, f: &Formula, evaluate: impl FnOnce() -> T) -> (T, bool) {
        match self.admit(f) {
            // nothing observes this request's state between the catch
            // and the resumed unwind, so asserting unwind safety is sound
            Ticket::Leader => match catch_unwind(AssertUnwindSafe(evaluate)) {
                Ok(outcome) => {
                    self.settle(f, &outcome);
                    (outcome, false)
                }
                Err(panic) => {
                    // dropping the followers' senders disconnects them
                    drop(self.remove(f));
                    resume_unwind(panic)
                }
            },
            // analyze:blocking(admission.broadcast)
            Ticket::Follower(rx) => match rx.recv() {
                Ok(outcome) => (outcome, true),
                Err(_) => (evaluate(), false),
            },
        }
    }

    /// Admits a request for `f`: the first in-flight arrival leads,
    /// duplicates follow.
    #[must_use]
    fn admit(&self, f: &Formula) -> Ticket<T> {
        // held to function end; nothing under it blocks (the follower
        // channel is created, not received on)
        // analyze:acquire(admission.inflight)
        let mut inflight = self.inflight.lock();
        if let Some(followers) = inflight.get_mut(f) {
            let (tx, rx) = unbounded();
            followers.push(tx);
            self.coalesced.fetch_add(1, Ordering::Relaxed);
            Ticket::Follower(rx)
        } else {
            inflight.insert(f.clone(), Vec::new());
            self.led.fetch_add(1, Ordering::Relaxed);
            Ticket::Leader
        }
    }

    /// Settles a led request: removes the in-flight entry and
    /// broadcasts `outcome` to every follower that joined while it was
    /// evaluating.
    fn settle(&self, f: &Formula, outcome: &T) {
        for w in self.remove(f) {
            // a follower that gave up (dropped its receiver) is fine
            let _ = w.send(outcome.clone());
        }
    }

    /// Takes a led request's entry out of the table, by borrow, and
    /// returns the followers that joined it.
    fn remove(&self, f: &Formula) -> Vec<Sender<T>> {
        // the map guard is a statement temporary — dropped before the
        // caller broadcasts to or disconnects the followers
        // analyze:acquire(admission.inflight) analyze:release(admission.inflight)
        self.inflight.lock().remove(f).unwrap_or_default()
    }

    /// Requests that joined an in-flight leader instead of evaluating.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Requests that led an evaluation.
    #[must_use]
    pub fn led(&self) -> u64 {
        self.led.load(Ordering::Relaxed)
    }

    /// Number of requests currently in flight (for tests).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn duplicate_requests_coalesce_until_settled() {
        let adm: Admission<u32> = Admission::new();
        let f = Formula::True;
        assert!(matches!(adm.admit(&f), Ticket::Leader));
        let Ticket::Follower(rx) = adm.admit(&f) else {
            panic!("second arrival must follow");
        };
        // a different formula is a different request
        assert!(matches!(adm.admit(&Formula::False), Ticket::Leader));
        assert_eq!(adm.in_flight(), 2);

        adm.settle(&f, &41);
        assert_eq!(rx.recv(), Ok(41));
        assert_eq!(adm.in_flight(), 1);
        // after settling, the next identical request leads again
        assert!(matches!(adm.admit(&f), Ticket::Leader));
        assert_eq!(adm.coalesced(), 1);
        assert_eq!(adm.led(), 3);
    }

    #[test]
    fn a_leader_that_panics_strands_no_follower() {
        let adm: Arc<Admission<u32>> = Arc::new(Admission::new());
        let f = Formula::True;
        let mut follower = None;
        let led = catch_unwind(AssertUnwindSafe(|| {
            adm.serve(&f, || {
                let (shared, g) = (Arc::clone(&adm), f.clone());
                follower = Some(std::thread::spawn(move || shared.serve(&g, || 42)));
                // the follower has joined once admission counts it
                while adm.coalesced() == 0 {
                    std::thread::yield_now();
                }
                panic!("the leader's evaluation fails");
            })
        }));
        assert!(led.is_err());
        // checked before joining: an entry left in flight would block
        // the (detached) follower forever, not this test
        assert_eq!(adm.in_flight(), 0);
        let served = follower.expect("spawned").join().expect("follower");
        assert_eq!(served, (42, false), "the follower evaluates for itself");
        assert_eq!(adm.serve(&f, || 5), (5, false), "the next one leads");
        assert_eq!((adm.led(), adm.coalesced()), (2, 1));
    }
}
