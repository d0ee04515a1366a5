//! # hpl-runtime — real threads, recorded as computations
//!
//! Two runtime shapes live here:
//!
//! 1. A small message-passing runtime over OS threads and crossbeam
//!    channels whose every execution is captured as a validated
//!    [`hpl_model::Computation`]. It demonstrates that the calculus of
//!    *How Processes Learn* applies to genuine concurrent
//!    interleavings, not only simulated ones: traces recorded here feed
//!    directly into `hpl-core`'s causality and chain analyses (see the
//!    `live_run` example).
//! 2. The **persistent knowledge-query service** ([`QueryService`]):
//!    generation-keyed immutable universe snapshots, a formula-text
//!    session API ([`Session`]), a query planner with constant folding,
//!    common-subformula dedup and per-subtree quotient selection
//!    ([`planner`]), in-flight request coalescing ([`batching`]), and
//!    evaluation on each asking thread through shared class/sat-set
//!    caches ([`service`]).
//!
//! ## Recording discipline
//!
//! A global [`parking_lot::Mutex`]-guarded log assigns each event its
//! position: a thread records its *send* under the lock **before**
//! pushing the envelope into the channel, and records a *receive* after
//! popping — so every receive appears after its corresponding send and
//! the log is always a valid system computation (the defining condition
//! of paper §2).
//!
//! # Example
//!
//! ```
//! use hpl_runtime::{Behavior, Runtime, ThreadCtx};
//! use hpl_model::ProcessId;
//!
//! struct Ping;
//! impl Behavior for Ping {
//!     fn run(&mut self, ctx: &mut ThreadCtx) {
//!         if ctx.me().index() == 0 {
//!             ctx.send(ProcessId::new(1), 7);
//!             let (_, reply) = ctx.recv().expect("pong");
//!             assert_eq!(reply, 8);
//!         } else {
//!             let (from, _) = ctx.recv().expect("ping");
//!             ctx.send(from, 8);
//!         }
//!     }
//! }
//!
//! let trace = Runtime::new(2).run(|_| Box::new(Ping));
//! assert_eq!(trace.sends(), 2);
//! assert_eq!(trace.receives(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batching;
pub mod planner;
pub mod service;
pub mod session;

pub use batching::Admission;
pub use planner::{execute, fold, plan, PlanStats, PlanStep, QueryPlan, SubtreeMode};
pub use service::{QueryError, QueryService, Snapshot};
pub use session::{QueryResponse, Session};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use hpl_model::{ActionId, Computation, Event, EventId, EventKind, MessageId, ProcessId};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// An envelope carried between threads.
#[derive(Debug)]
struct Envelope {
    from: ProcessId,
    message: MessageId,
    payload: u64,
}

/// The shared, ordered event log.
#[derive(Debug, Default)]
struct Recorder {
    events: Mutex<RecorderInner>,
}

#[derive(Debug, Default)]
struct RecorderInner {
    log: Vec<Event>,
    next_event: usize,
    next_message: usize,
}

impl Recorder {
    /// Records a send and allocates the message id, atomically w.r.t.
    /// the global order.
    fn record_send(&self, from: ProcessId, to: ProcessId) -> MessageId {
        let mut inner = self.events.lock();
        let message = MessageId::new(inner.next_message);
        inner.next_message += 1;
        let id = EventId::new(inner.next_event);
        inner.next_event += 1;
        inner
            .log
            .push(Event::new(id, from, EventKind::Send { to, message }));
        message
    }

    fn record_receive(&self, at: ProcessId, from: ProcessId, message: MessageId) {
        let mut inner = self.events.lock();
        let id = EventId::new(inner.next_event);
        inner.next_event += 1;
        inner
            .log
            .push(Event::new(id, at, EventKind::Receive { from, message }));
    }

    fn record_internal(&self, at: ProcessId, action: ActionId) {
        let mut inner = self.events.lock();
        let id = EventId::new(inner.next_event);
        inner.next_event += 1;
        inner
            .log
            .push(Event::new(id, at, EventKind::Internal { action }));
    }
}

/// The per-thread handle a [`Behavior`] uses to communicate.
#[derive(Debug)]
pub struct ThreadCtx {
    me: ProcessId,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    recorder: Arc<Recorder>,
}

impl ThreadCtx {
    /// This thread's process id.
    #[must_use]
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Number of processes in the runtime.
    #[must_use]
    pub fn len(&self) -> usize {
        self.senders.len()
    }

    /// Returns `true` if this is a single-process runtime.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.senders.is_empty()
    }

    /// Sends `payload` to `to`; the send event is recorded before the
    /// envelope becomes visible to the receiver.
    pub fn send(&self, to: ProcessId, payload: u64) {
        let message = self.recorder.record_send(self.me, to);
        // a closed peer (already finished) just drops the message — it
        // stays "in flight" in the recorded computation, which is valid
        let _ = self.senders[to.index()].send(Envelope {
            from: self.me,
            message,
            payload,
        });
    }

    /// Blocking receive. Returns `None` if all peers have finished and
    /// the channel drained.
    pub fn recv(&self) -> Option<(ProcessId, u64)> {
        let envelope = self.receiver.recv().ok()?;
        self.recorder
            .record_receive(self.me, envelope.from, envelope.message);
        Some((envelope.from, envelope.payload))
    }

    /// Receive with a timeout; `None` on timeout or disconnection.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<(ProcessId, u64)> {
        match self.receiver.recv_timeout(timeout) {
            Ok(envelope) => {
                self.recorder
                    .record_receive(self.me, envelope.from, envelope.message);
                Some((envelope.from, envelope.payload))
            }
            Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => None,
        }
    }

    /// Records an internal event (a local state change worth analysing).
    pub fn internal(&self, action: ActionId) {
        self.recorder.record_internal(self.me, action);
    }
}

/// The behaviour of one process, run on its own OS thread.
pub trait Behavior: Send {
    /// Runs the process to completion.
    fn run(&mut self, ctx: &mut ThreadCtx);
}

/// A runtime of `n` processes communicating over unbounded channels.
#[derive(Debug)]
pub struct Runtime {
    n: usize,
}

impl Runtime {
    /// Creates a runtime of `n` processes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Runtime { n }
    }

    /// Spawns one thread per process, runs every behaviour to
    /// completion, and returns the recorded computation.
    ///
    /// # Panics
    ///
    /// Propagates panics from behaviour threads.
    pub fn run<F>(&self, mut make: F) -> Computation
    where
        F: FnMut(ProcessId) -> Box<dyn Behavior>,
    {
        let recorder = Arc::new(Recorder::default());
        let mut senders = Vec::with_capacity(self.n);
        let mut receivers = Vec::with_capacity(self.n);
        for _ in 0..self.n {
            let (tx, rx) = unbounded();
            senders.push(tx);
            receivers.push(rx);
        }

        let mut handles = Vec::with_capacity(self.n);
        for (i, receiver) in receivers.into_iter().enumerate() {
            let me = ProcessId::new(i);
            let mut ctx = ThreadCtx {
                me,
                senders: senders.clone(),
                receiver,
                recorder: Arc::clone(&recorder),
            };
            let mut behavior = make(me);
            handles.push(std::thread::spawn(move || {
                behavior.run(&mut ctx);
            }));
        }
        drop(senders);
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }

        let inner = recorder.events.lock();
        Computation::from_events(self.n, inner.log.clone())
            .expect("recording discipline maintains validity")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::{CausalClosure, ProcessSet};

    /// Relay: 0 → 1 → … → n−1, each forwarding an incremented value.
    struct Relay {
        n: usize,
    }

    impl Behavior for Relay {
        fn run(&mut self, ctx: &mut ThreadCtx) {
            let me = ctx.me().index();
            if me == 0 {
                ctx.send(ProcessId::new(1), 1);
            } else {
                let (_, v) = ctx.recv().expect("relay value");
                if me + 1 < self.n {
                    ctx.send(ProcessId::new(me + 1), v + 1);
                }
            }
        }
    }

    #[test]
    fn relay_records_full_chain() {
        let n = 5;
        let trace = Runtime::new(n).run(|_| Box::new(Relay { n }));
        assert_eq!(trace.sends(), n - 1);
        assert_eq!(trace.receives(), n - 1);
        // the recorded trace carries the process chain <p0 p1 … p4>
        let sets: Vec<ProcessSet> = (0..n).map(|i| ProcessSet::from_indices([i])).collect();
        assert!(
            hpl_model::has_chain(&trace, 0, &sets),
            "live trace must contain the relay chain"
        );
        // and not the reverse
        let rev: Vec<ProcessSet> = sets.iter().rev().copied().collect();
        assert!(!hpl_model::has_chain(&trace, 0, &rev));
    }

    /// All-to-one: everyone reports to 0, which counts.
    struct Gather {
        n: usize,
        got: usize,
    }

    impl Behavior for Gather {
        fn run(&mut self, ctx: &mut ThreadCtx) {
            if ctx.me().index() == 0 {
                while self.got + 1 < self.n {
                    if ctx.recv().is_some() {
                        self.got += 1;
                    } else {
                        break;
                    }
                }
                ctx.internal(ActionId::new(42)); // "all reports in"
            } else {
                ctx.send(ProcessId::new(0), ctx.me().index() as u64);
            }
        }
    }

    #[test]
    fn gather_causality_in_live_trace() {
        let n = 4;
        let trace = Runtime::new(n).run(|_| Box::new(Gather { n, got: 0 }));
        assert_eq!(trace.receives(), n - 1);
        // the "all reports in" event is causally after every send
        let hb = CausalClosure::new(&trace);
        let mark = trace
            .iter()
            .position(|e| e.is_internal())
            .expect("internal marker");
        for (i, e) in trace.iter().enumerate() {
            if e.is_send() {
                assert!(
                    hb.happened_before(i, mark),
                    "report {i} must precede the marker"
                );
            }
        }
    }

    #[test]
    fn concurrent_sends_yield_valid_traces_every_time() {
        // hammer the recorder: many threads sending concurrently; the
        // trace must validate (the constructor checks) on every run
        for run in 0..20 {
            let n = 6;
            let trace = Runtime::new(n).run(|_| Box::new(Gather { n, got: 0 }));
            assert_eq!(trace.system_size(), n, "run {run}");
            assert_eq!(trace.sends(), n - 1);
        }
    }

    #[test]
    fn recv_timeout_expires() {
        struct Waiter;
        impl Behavior for Waiter {
            fn run(&mut self, ctx: &mut ThreadCtx) {
                // nobody ever sends to 0
                let got = ctx.recv_timeout(Duration::from_millis(10));
                assert!(got.is_none());
            }
        }
        let trace = Runtime::new(1).run(|_| Box::new(Waiter));
        assert!(trace.is_empty());
    }

    #[test]
    fn messages_to_finished_peers_stay_in_flight() {
        struct FireAndForget;
        impl Behavior for FireAndForget {
            fn run(&mut self, ctx: &mut ThreadCtx) {
                if ctx.me().index() == 0 {
                    // peer 1 exits immediately; the message is never read
                    std::thread::sleep(Duration::from_millis(20));
                    ctx.send(ProcessId::new(1), 9);
                }
            }
        }
        let trace = Runtime::new(2).run(|_| Box::new(FireAndForget));
        assert_eq!(trace.sends(), 1);
        assert_eq!(trace.receives(), 0);
        assert_eq!(trace.in_flight().len(), 1);
    }
}
