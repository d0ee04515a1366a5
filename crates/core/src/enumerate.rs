//! Exhaustive enumeration of a protocol's system computations.
//!
//! The paper fixes "a single (generic) distributed system" whose behaviour
//! is the set of its system computations. [`Protocol`] describes such a
//! system operationally — each process, given its own local history,
//! offers a set of next steps — and [`enumerate`] produces **every**
//! system computation up to a depth bound, sharing events between
//! interleavings exactly as the paper's "all events are distinguished"
//! convention requires: an event's identity is (process, local history
//! before it, action), so the "same step" reached along two interleavings
//! is the same event, and isomorphism between the enumerated computations
//! is meaningful.
//!
//! The resulting [`ProtocolUniverse`] is prefix closed by construction and
//! exact: a computation of length ≤ the bound is in the universe iff it is
//! a system computation of the protocol.

use crate::error::CoreError;
use crate::universe::{CompId, Universe};
use hpl_model::{
    ActionId, Computation, Event, EventId, EventKind, MessageId, ProcessId, SymmetryGroup,
};
use std::collections::HashMap;

/// A spontaneous step a process may take (receives are driven by the
/// network, not chosen, and are therefore not `ProtoAction`s).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProtoAction {
    /// Send a message with an opaque payload tag.
    Send {
        /// Destination process.
        to: ProcessId,
        /// Protocol-defined payload tag (visible to the receiver).
        payload: u32,
    },
    /// Perform an internal step.
    Internal {
        /// Protocol-defined action tag.
        action: ActionId,
    },
}

/// One step of a process's local history, as the process itself sees it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LocalStep {
    /// The process sent `payload` to `to`.
    Sent {
        /// Destination process.
        to: ProcessId,
        /// Payload tag.
        payload: u32,
    },
    /// The process received `payload` from `from`.
    Received {
        /// Source process.
        from: ProcessId,
        /// Payload tag.
        payload: u32,
    },
    /// The process performed internal action `action`.
    Did {
        /// Action tag.
        action: ActionId,
    },
}

/// A process's local history — the protocol-visible view of its
/// computation (payloads instead of raw message ids).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct LocalView {
    steps: Vec<LocalStep>,
}

impl LocalView {
    /// The empty view.
    #[must_use]
    pub fn new() -> Self {
        LocalView { steps: Vec::new() }
    }

    /// The steps, oldest first.
    #[must_use]
    pub fn steps(&self) -> &[LocalStep] {
        &self.steps
    }

    /// Number of steps taken.
    #[must_use]
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Returns `true` if the process has taken no step.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The most recent step, if any.
    #[must_use]
    pub fn last(&self) -> Option<LocalStep> {
        self.steps.last().copied()
    }

    /// Count of steps matching a predicate.
    pub fn count_matching<F: Fn(&LocalStep) -> bool>(&self, f: F) -> usize {
        self.steps.iter().filter(|s| f(s)).count()
    }

    /// Crate-internal step application for enumeration engines.
    pub(crate) fn push_step(&mut self, s: LocalStep) {
        self.steps.push(s);
    }

    /// Crate-internal undo for enumeration engines.
    pub(crate) fn pop_step(&mut self) {
        self.steps.pop();
    }
}

/// An operational description of a distributed system: per-process
/// enabled steps as a function of local history.
///
/// Receives are always possible for in-flight messages unless
/// [`Protocol::accepts`] says otherwise.
pub trait Protocol {
    /// Number of processes.
    fn system_size(&self) -> usize;

    /// The spontaneous steps process `p` may take next, given its local
    /// view. Return an empty vector for a process that is blocked
    /// (waiting for a message) or finished.
    fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction>;

    /// Whether `p` is willing to receive a pending message. Defaults to
    /// `true` (the standard asynchronous model).
    fn accepts(&self, _p: ProcessId, _view: &LocalView, _from: ProcessId, _payload: u32) -> bool {
        true
    }

    /// The protocol's declared automorphism group: permutations `π` of
    /// the process indices under which the protocol is invariant —
    /// process `π(p)` with the relabeled view offers exactly the
    /// relabeled actions (and acceptances) of `p`.
    ///
    /// The default is [`SymmetryGroup::Trivial`], which is always sound.
    /// Declaring a larger group enables the symmetry-quotient mode of
    /// [`enumerate_sharded`](crate::enumerate_sharded); declaring
    /// non-automorphisms makes that quotient unsound — validate with
    /// [`symmetry::check_closure`](crate::symmetry::check_closure).
    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::Trivial
    }
}

/// Bounds for [`enumerate`].
#[derive(Clone, Copy, Debug)]
pub struct EnumerationLimits {
    /// Maximum number of events per computation (depth bound).
    pub max_events: usize,
    /// Hard cap on the number of computations (guards against explosion).
    pub max_computations: usize,
}

impl Default for EnumerationLimits {
    fn default() -> Self {
        EnumerationLimits {
            max_events: 6,
            max_computations: 500_000,
        }
    }
}

impl EnumerationLimits {
    /// Limits with the given depth bound and the default computation cap.
    #[must_use]
    pub fn depth(max_events: usize) -> Self {
        EnumerationLimits {
            max_events,
            ..Default::default()
        }
    }
}

/// The result of enumeration: a prefix-closed [`Universe`] containing
/// every system computation of the protocol up to the depth bound, plus
/// the payload table needed to reconstruct protocol-level views.
#[derive(Clone, Debug)]
pub struct ProtocolUniverse {
    universe: Universe,
    payloads: HashMap<MessageId, u32>,
}

impl ProtocolUniverse {
    /// Crate-internal assembly from an enumeration engine's parts.
    pub(crate) fn from_parts(universe: Universe, payloads: HashMap<MessageId, u32>) -> Self {
        ProtocolUniverse { universe, payloads }
    }

    /// The underlying universe.
    #[must_use]
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// Releases the underlying universe, discarding the payload table —
    /// the hand-off point to owners that need the universe alone, e.g.
    /// an `Arc<Universe>` snapshot registered with a query service.
    #[must_use]
    pub fn into_universe(self) -> Universe {
        self.universe
    }

    /// The payload tag of a message.
    #[must_use]
    pub fn payload_of(&self, m: MessageId) -> Option<u32> {
        self.payloads.get(&m).copied()
    }

    /// The full message→payload table, sorted by message id — a canonical
    /// view used by determinism checks.
    #[must_use]
    pub fn payload_table(&self) -> Vec<(MessageId, u32)> {
        let mut t: Vec<(MessageId, u32)> = self.payloads.iter().map(|(&m, &p)| (m, p)).collect();
        t.sort_unstable();
        t
    }

    /// Reconstructs process `p`'s protocol-level view of a computation.
    #[must_use]
    pub fn view(&self, c: &Computation, p: ProcessId) -> LocalView {
        let mut v = LocalView::new();
        for e in c.iter().filter(|e| e.is_on(p)) {
            match e.kind() {
                EventKind::Send { to, message } => v.push_step(LocalStep::Sent {
                    to,
                    payload: self.payloads.get(&message).copied().unwrap_or(0),
                }),
                EventKind::Receive { from, message } => v.push_step(LocalStep::Received {
                    from,
                    payload: self.payloads.get(&message).copied().unwrap_or(0),
                }),
                EventKind::Internal { action } => v.push_step(LocalStep::Did { action }),
            }
        }
        v
    }

    /// Reconstructs the view by computation id.
    #[must_use]
    pub fn view_of(&self, id: CompId, p: ProcessId) -> LocalView {
        self.view(self.universe.get(id), p)
    }

    /// Finds all computations satisfying a predicate.
    pub fn find<F: Fn(&Computation) -> bool>(&self, f: F) -> Vec<CompId> {
        self.universe
            .iter()
            .filter(|(_, c)| f(c))
            .map(|(id, _)| id)
            .collect()
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum StepKey {
    Send { to: ProcessId, payload: u32 },
    Recv { send_event: EventId },
    Internal { action: ActionId },
}

/// Interns events so that the same logical step along different
/// interleavings is one distinguished event.
#[derive(Default)]
pub(crate) struct EventSpace {
    table: HashMap<(ProcessId, Option<EventId>, StepKey), EventId>,
    pub(crate) events: Vec<Event>,
    send_message: HashMap<EventId, MessageId>,
    pub(crate) payloads: HashMap<MessageId, u32>,
    next_message: usize,
}

impl EventSpace {
    pub(crate) fn intern(&mut self, p: ProcessId, prev: Option<EventId>, key: StepKey) -> Event {
        if let Some(&id) = self.table.get(&(p, prev, key)) {
            return self.events[id.index()];
        }
        let id = EventId::new(self.events.len());
        let kind = match key {
            StepKey::Send { to, payload } => {
                let m = MessageId::new(self.next_message);
                self.next_message += 1;
                self.send_message.insert(id, m);
                self.payloads.insert(m, payload);
                EventKind::Send { to, message: m }
            }
            StepKey::Recv { send_event } => {
                let send = self.events[send_event.index()];
                let m = self.send_message[&send_event];
                EventKind::Receive {
                    from: send.process(),
                    message: m,
                }
            }
            StepKey::Internal { action } => EventKind::Internal { action },
        };
        let e = Event::new(id, p, kind);
        self.table.insert((p, prev, key), id);
        self.events.push(e);
        e
    }
}

struct EnumState {
    events: Vec<Event>,
    last_event: Vec<Option<EventId>>,
    views: Vec<LocalView>,
    // (send event id, from, to, payload)
    in_flight: Vec<(EventId, ProcessId, ProcessId, u32)>,
}

/// Enumerates every system computation of `protocol` with at most
/// `limits.max_events` events.
///
/// # Errors
///
/// Returns [`CoreError::EnumerationBudgetExceeded`] if the state space
/// exceeds `limits.max_computations`.
pub fn enumerate<P: Protocol + ?Sized>(
    protocol: &P,
    limits: EnumerationLimits,
) -> Result<ProtocolUniverse, CoreError> {
    let n = protocol.system_size();
    let mut space = EventSpace::default();
    let mut universe = Universe::new(n);

    let mut state = EnumState {
        events: Vec::new(),
        last_event: vec![None; n],
        views: vec![LocalView::new(); n],
        in_flight: Vec::new(),
    };

    dfs(protocol, &limits, &mut space, &mut universe, &mut state)?;

    Ok(ProtocolUniverse {
        universe,
        payloads: space.payloads,
    })
}

fn dfs<P: Protocol + ?Sized>(
    protocol: &P,
    limits: &EnumerationLimits,
    space: &mut EventSpace,
    universe: &mut Universe,
    state: &mut EnumState,
) -> Result<(), CoreError> {
    if universe.len() >= limits.max_computations {
        return Err(CoreError::EnumerationBudgetExceeded {
            max_computations: limits.max_computations,
        });
    }
    let c = Computation::from_events(protocol.system_size(), state.events.clone())?;
    universe.insert(c)?;

    if state.events.len() >= limits.max_events {
        return Ok(());
    }

    // spontaneous actions
    for pi in 0..protocol.system_size() {
        let p = ProcessId::new(pi);
        let actions = protocol.actions(p, &state.views[pi]);
        for a in actions {
            let key = match a {
                ProtoAction::Send { to, payload } => StepKey::Send { to, payload },
                ProtoAction::Internal { action } => StepKey::Internal { action },
            };
            let e = space.intern(p, state.last_event[pi], key);
            let step = match a {
                ProtoAction::Send { to, payload } => LocalStep::Sent { to, payload },
                ProtoAction::Internal { action } => LocalStep::Did { action },
            };
            // apply
            state.events.push(e);
            let saved_last = state.last_event[pi];
            state.last_event[pi] = Some(e.id());
            state.views[pi].push_step(step);
            if let ProtoAction::Send { to, payload } = a {
                state.in_flight.push((e.id(), p, to, payload));
            }

            dfs(protocol, limits, space, universe, state)?;

            // undo
            if matches!(a, ProtoAction::Send { .. }) {
                state.in_flight.pop();
            }
            state.views[pi].pop_step();
            state.last_event[pi] = saved_last;
            state.events.pop();
        }
    }

    // receives of in-flight messages
    for k in 0..state.in_flight.len() {
        let (send_eid, from, to, payload) = state.in_flight[k];
        let ti = to.index();
        if !protocol.accepts(to, &state.views[ti], from, payload) {
            continue;
        }
        let e = space.intern(
            to,
            state.last_event[ti],
            StepKey::Recv {
                send_event: send_eid,
            },
        );
        // apply
        state.events.push(e);
        let saved_last = state.last_event[ti];
        state.last_event[ti] = Some(e.id());
        state.views[ti].push_step(LocalStep::Received { from, payload });
        let removed = state.in_flight.remove(k);

        dfs(protocol, limits, space, universe, state)?;

        // undo
        state.in_flight.insert(k, removed);
        state.views[ti].pop_step();
        state.last_event[ti] = saved_last;
        state.events.pop();
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Evaluator;
    use crate::formula::{Formula, Interpretation};
    use hpl_model::ProcessSet;

    /// p0 sends one "ping" to p1; p1 replies "pong" after receiving.
    struct PingPong;

    impl Protocol for PingPong {
        fn system_size(&self) -> usize {
            2
        }

        fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            match p.index() {
                0 if view.is_empty() => vec![ProtoAction::Send {
                    to: ProcessId::new(1),
                    payload: 1,
                }],
                1 => {
                    let received = view.count_matching(|s| matches!(s, LocalStep::Received { .. }));
                    let sent = view.count_matching(|s| matches!(s, LocalStep::Sent { .. }));
                    if received > sent {
                        vec![ProtoAction::Send {
                            to: ProcessId::new(0),
                            payload: 2,
                        }]
                    } else {
                        vec![]
                    }
                }
                _ => vec![],
            }
        }
    }

    #[test]
    fn ping_pong_universe_shape() {
        let pu = enumerate(&PingPong, EnumerationLimits::depth(4)).unwrap();
        let u = pu.universe();
        // computations: ε, s1, s1r1, s1r1s2, s1r1s2r2 — exactly 5 (the
        // protocol is sequential).
        assert_eq!(u.len(), 5);
        assert!(u.is_prefix_closed());
        // the full run:
        let full = pu.find(|c| c.len() == 4);
        assert_eq!(full.len(), 1);
        let c = u.get(full[0]);
        assert_eq!(c.sends(), 2);
        assert_eq!(c.receives(), 2);
    }

    #[test]
    fn views_reconstruct_payloads() {
        let pu = enumerate(&PingPong, EnumerationLimits::depth(4)).unwrap();
        let full = pu.find(|c| c.len() == 4)[0];
        let v0 = pu.view_of(full, ProcessId::new(0));
        assert_eq!(
            v0.steps()[0],
            LocalStep::Sent {
                to: ProcessId::new(1),
                payload: 1
            }
        );
        assert_eq!(
            v0.steps()[1],
            LocalStep::Received {
                from: ProcessId::new(1),
                payload: 2
            }
        );
        let v1 = pu.view_of(full, ProcessId::new(1));
        assert_eq!(v1.len(), 2);
        assert_eq!(
            v1.last().unwrap(),
            LocalStep::Sent {
                to: ProcessId::new(0),
                payload: 2
            }
        );
    }

    /// Two processes that each may do up to `k` internal steps — pure
    /// interleaving explosion, for counting.
    struct Clocks {
        k: usize,
    }

    impl Protocol for Clocks {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            if view.len() < self.k {
                vec![ProtoAction::Internal {
                    action: ActionId::new(view.len() as u32),
                }]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn interleaving_count_matches_binomials() {
        // computations of length l = sum over a+b=l, a,b ≤ k of C(l, a)
        let pu = enumerate(&Clocks { k: 2 }, EnumerationLimits::depth(4)).unwrap();
        // lengths: 0:1, 1:2, 2:C(2,0)+C(2,1)+C(2,2)=1+2+1=4,
        // 3: a+b=3 with a,b≤2 → (1,2),(2,1): C(3,1)+C(3,2)=3+3=6,
        // 4: (2,2): C(4,2)=6. total=1+2+4+6+6=19
        assert_eq!(pu.universe().len(), 19);
    }

    #[test]
    fn budget_guard_trips() {
        let err = enumerate(
            &Clocks { k: 3 },
            EnumerationLimits {
                max_events: 6,
                max_computations: 10,
            },
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::EnumerationBudgetExceeded { .. }));
    }

    #[test]
    fn events_are_shared_across_interleavings() {
        let pu = enumerate(&Clocks { k: 1 }, EnumerationLimits::depth(2)).unwrap();
        let u = pu.universe();
        // ab and ba use the same two events
        let ab = pu.find(|c| c.len() == 2);
        assert_eq!(ab.len(), 2);
        let x = u.get(ab[0]);
        let y = u.get(ab[1]);
        assert!(x.is_permutation_of(y));
        assert!(x.agrees_on(y, ProcessSet::full(2)));
    }

    #[test]
    fn knowledge_on_enumerated_pingpong() {
        let pu = enumerate(&PingPong, EnumerationLimits::depth(4)).unwrap();
        let mut interp = Interpretation::new();
        let pinged = interp.register("pinged", |c| c.sends() >= 1);
        let mut ev = Evaluator::new(pu.universe(), &interp);
        let q = ProcessSet::singleton(ProcessId::new(1));
        let p = ProcessSet::singleton(ProcessId::new(0));
        let kq = Formula::knows(q, Formula::atom(pinged));
        // q knows after its receive:
        let after_recv = pu.find(|c| c.receives() >= 1 && c.len() == 2)[0];
        assert!(ev.holds_at(&kq, after_recv));
        // p knows q knows only after receiving the pong:
        let kpq = Formula::knows(p, kq.clone());
        let full = pu.find(|c| c.len() == 4)[0];
        let partial = pu.find(|c| c.len() == 3)[0];
        assert!(ev.holds_at(&kpq, full));
        assert!(!ev.holds_at(&kpq, partial));
    }

    #[test]
    fn accepts_gate_blocks_receives() {
        /// p1 refuses all messages.
        struct Deaf;
        impl Protocol for Deaf {
            fn system_size(&self) -> usize {
                2
            }
            fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
                if p.index() == 0 && view.is_empty() {
                    vec![ProtoAction::Send {
                        to: ProcessId::new(1),
                        payload: 9,
                    }]
                } else {
                    vec![]
                }
            }
            fn accepts(
                &self,
                _p: ProcessId,
                _view: &LocalView,
                _from: ProcessId,
                _payload: u32,
            ) -> bool {
                false
            }
        }
        let pu = enumerate(&Deaf, EnumerationLimits::depth(4)).unwrap();
        assert_eq!(pu.universe().len(), 2); // ε and the send only
    }
}
