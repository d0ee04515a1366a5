//! Fluent construction of computations and shared event spaces.
//!
//! [`ComputationBuilder`] maintains validity incrementally, so
//! [`ComputationBuilder::finish`] is infallible. [`ScenarioPool`] supports
//! the paper's worked examples (e.g. Figure 3-1), where *several*
//! computations are built over one shared event space so that isomorphism
//! between them is meaningful.

use crate::computation::Computation;
use crate::error::ModelError;
use crate::event::{Event, EventKind};
use crate::id::{ActionId, EventId, MessageId, ProcessId};
use crate::symmetry::Permutation;
use std::collections::HashMap;

/// Incremental builder for a single [`Computation`].
///
/// Every step validates eagerly, so the final [`finish`](Self::finish)
/// cannot fail.
///
/// # Example
///
/// ```
/// use hpl_model::{ComputationBuilder, ProcessId};
/// # fn main() -> Result<(), hpl_model::ModelError> {
/// let (p, q) = (ProcessId::new(0), ProcessId::new(1));
/// let mut b = ComputationBuilder::new(2);
/// let m = b.send(p, q)?;
/// b.receive(q, m)?;
/// b.internal(p)?;
/// let z = b.finish();
/// assert_eq!(z.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ComputationBuilder {
    system_size: usize,
    events: Vec<Event>,
    next_event: usize,
    next_message: usize,
    // message -> (sender, addressee, already received?)
    messages: HashMap<MessageId, (ProcessId, ProcessId, bool)>,
}

impl ComputationBuilder {
    /// Creates a builder for a system of `system_size` processes.
    #[must_use]
    pub fn new(system_size: usize) -> Self {
        ComputationBuilder {
            system_size,
            events: Vec::new(),
            next_event: 0,
            next_message: 0,
            messages: HashMap::new(),
        }
    }

    /// Creates a builder whose event/message ids start at the given
    /// offsets, so that independently built computations use disjoint id
    /// ranges when that is desired.
    #[must_use]
    pub fn with_id_offsets(system_size: usize, first_event: usize, first_message: usize) -> Self {
        ComputationBuilder {
            system_size,
            events: Vec::new(),
            next_event: first_event,
            next_message: first_message,
            messages: HashMap::new(),
        }
    }

    fn check_process(&self, p: ProcessId) -> Result<(), ModelError> {
        if p.index() >= self.system_size {
            return Err(ModelError::ProcessOutOfRange {
                process: p,
                system_size: self.system_size,
            });
        }
        Ok(())
    }

    fn fresh_event(&mut self) -> EventId {
        let id = EventId::new(self.next_event);
        self.next_event += 1;
        id
    }

    /// Appends a send event from `from` to `to`, returning the fresh
    /// message id.
    ///
    /// # Errors
    ///
    /// Returns an error if either process is out of range.
    pub fn send(&mut self, from: ProcessId, to: ProcessId) -> Result<MessageId, ModelError> {
        self.check_process(from)?;
        self.check_process(to)?;
        let message = MessageId::new(self.next_message);
        self.next_message += 1;
        let id = self.fresh_event();
        self.messages.insert(message, (from, to, false));
        self.events
            .push(Event::new(id, from, EventKind::Send { to, message }));
        Ok(message)
    }

    /// Appends a receive of `message` at process `at`.
    ///
    /// # Errors
    ///
    /// Returns an error if the message was never sent, was sent to a
    /// different process, or was already received.
    pub fn receive(&mut self, at: ProcessId, message: MessageId) -> Result<EventId, ModelError> {
        self.check_process(at)?;
        let Some(&(from, addressee, received)) = self.messages.get(&message) else {
            return Err(ModelError::ReceiveBeforeSend {
                receive: EventId::new(self.next_event),
                message,
            });
        };
        if addressee != at {
            return Err(ModelError::MisdeliveredMessage {
                message,
                addressed_to: addressee,
                received_by: at,
            });
        }
        if received {
            return Err(ModelError::DuplicateReceive { message });
        }
        self.messages.insert(message, (from, addressee, true));
        let id = self.fresh_event();
        self.events
            .push(Event::new(id, at, EventKind::Receive { from, message }));
        Ok(id)
    }

    /// Appends an internal event with the default action tag.
    ///
    /// # Errors
    ///
    /// Returns an error if the process is out of range.
    pub fn internal(&mut self, p: ProcessId) -> Result<EventId, ModelError> {
        self.internal_with(p, ActionId::new(0))
    }

    /// Appends an internal event with an explicit action tag.
    ///
    /// # Errors
    ///
    /// Returns an error if the process is out of range.
    pub fn internal_with(&mut self, p: ProcessId, action: ActionId) -> Result<EventId, ModelError> {
        self.check_process(p)?;
        let id = self.fresh_event();
        self.events
            .push(Event::new(id, p, EventKind::Internal { action }));
        Ok(id)
    }

    /// Number of events appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no events have been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finishes the build. Infallible: validity was maintained per step.
    #[must_use]
    pub fn finish(self) -> Computation {
        Computation::from_events(self.system_size, self.events)
            .expect("builder maintains validity invariant")
    }
}

/// A shared event space from which *multiple* computations are composed.
///
/// The paper's isomorphism diagrams (e.g. Figure 3-1) relate several
/// computations built from the same distinguished events. A pool first
/// *declares* events (fixing their identity), then [`compose`]s any number
/// of computations as orderings of declared events; each composition is
/// validated.
///
/// [`compose`]: ScenarioPool::compose
///
/// # Example
///
/// ```
/// use hpl_model::{ProcessId, ScenarioPool};
/// # fn main() -> Result<(), hpl_model::ModelError> {
/// let (p, q) = (ProcessId::new(0), ProcessId::new(1));
/// let mut pool = ScenarioPool::new(2);
/// let a = pool.internal(p);
/// let b = pool.internal(q);
///
/// // Two interleavings of the same two independent events:
/// let x = pool.compose([a, b])?;
/// let y = pool.compose([b, a])?;
/// assert!(x.is_permutation_of(&y));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ScenarioPool {
    system_size: usize,
    events: Vec<Event>,
    next_message: usize,
}

impl ScenarioPool {
    /// Creates an empty pool for a system of `system_size` processes.
    #[must_use]
    pub fn new(system_size: usize) -> Self {
        ScenarioPool {
            system_size,
            events: Vec::new(),
            next_message: 0,
        }
    }

    /// Number of processes in the system.
    #[must_use]
    pub fn system_size(&self) -> usize {
        self.system_size
    }

    /// Declares a send event; returns its id and the fresh message id.
    pub fn send(&mut self, from: ProcessId, to: ProcessId) -> (EventId, MessageId) {
        let message = MessageId::new(self.next_message);
        self.next_message += 1;
        let id = EventId::new(self.events.len());
        self.events
            .push(Event::new(id, from, EventKind::Send { to, message }));
        (id, message)
    }

    /// Declares the receive of `message` at `at` from `from`.
    pub fn receive(&mut self, at: ProcessId, from: ProcessId, message: MessageId) -> EventId {
        let id = EventId::new(self.events.len());
        self.events
            .push(Event::new(id, at, EventKind::Receive { from, message }));
        id
    }

    /// Declares an internal event with the default action.
    pub fn internal(&mut self, p: ProcessId) -> EventId {
        self.internal_with(p, ActionId::new(0))
    }

    /// Declares an internal event with an explicit action tag.
    pub fn internal_with(&mut self, p: ProcessId, action: ActionId) -> EventId {
        let id = EventId::new(self.events.len());
        self.events
            .push(Event::new(id, p, EventKind::Internal { action }));
        id
    }

    /// Number of declared events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if no event has been declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All declared events, in declaration order.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Looks up a declared event.
    ///
    /// # Panics
    ///
    /// Panics if the id was not declared by this pool.
    #[must_use]
    pub fn event(&self, id: EventId) -> Event {
        self.events[id.index()]
    }

    /// Composes a computation as an ordering of declared events.
    ///
    /// # Errors
    ///
    /// Returns an error if the ordering violates system-computation
    /// validity (receive before send, duplicates, …).
    pub fn compose<I: IntoIterator<Item = EventId>>(
        &self,
        order: I,
    ) -> Result<Computation, ModelError> {
        let events: Vec<Event> = order.into_iter().map(|id| self.event(id)).collect();
        Computation::from_events(self.system_size, events)
    }

    /// Declares a relabeled twin of every event declared so far: each
    /// existing event is re-declared on its permuted process (send
    /// destinations and receive sources mapped, messages given fresh
    /// ids), and the mapping `old event id → twin event id` is returned.
    ///
    /// This is the builder hook behind worked symmetry examples: compose
    /// a computation from original events and its relabeling `π·x` from
    /// the twins, and the two live in one shared event space where
    /// isomorphism between them is meaningful.
    ///
    /// # Panics
    ///
    /// Panics if a receive's message was declared by a different pool
    /// (cannot happen for events declared through this pool's methods).
    ///
    /// # Example
    ///
    /// ```
    /// use hpl_model::{Permutation, ProcessId, ProcessSet, ScenarioPool};
    /// # fn main() -> Result<(), hpl_model::ModelError> {
    /// let mut pool = ScenarioPool::new(2);
    /// let a = pool.internal(ProcessId::new(0));
    /// let swap = Permutation::transposition(2, 0, 1);
    /// let twins = pool.permuted_twins(&swap);
    /// let x = pool.compose([a])?;
    /// let y = pool.compose([twins[a.index()]])?;
    /// // y is x with p0 and p1 swapped:
    /// assert_eq!(y.events()[0].process(), ProcessId::new(1));
    /// # Ok(())
    /// # }
    /// ```
    pub fn permuted_twins(&mut self, pi: &Permutation) -> Vec<EventId> {
        let originals: Vec<Event> = self.events.clone();
        let mut message_map: HashMap<MessageId, MessageId> = HashMap::new();
        let mut twins = Vec::with_capacity(originals.len());
        for e in originals {
            let twin = match e.kind() {
                EventKind::Send { to, message } => {
                    let (id, m) = self.send(pi.apply(e.process()), pi.apply(to));
                    message_map.insert(message, m);
                    id
                }
                EventKind::Receive { from, message } => {
                    let m = *message_map
                        .get(&message)
                        .expect("receive's message declared by this pool");
                    self.receive(pi.apply(e.process()), pi.apply(from), m)
                }
                EventKind::Internal { action } => self.internal_with(pi.apply(e.process()), action),
            };
            twins.push(twin);
        }
        twins
    }

    /// Composes many computations at once — the sharding hook used when a
    /// universe is assembled from orderings produced by parallel workers.
    ///
    /// All-or-nothing: the first invalid ordering aborts the batch.
    ///
    /// # Errors
    ///
    /// Returns the first composition error encountered, if any.
    pub fn compose_batch<O, I>(&self, orderings: O) -> Result<Vec<Computation>, ModelError>
    where
        O: IntoIterator<Item = I>,
        I: IntoIterator<Item = EventId>,
    {
        orderings.into_iter().map(|o| self.compose(o)).collect()
    }
}

/// A reproducible random computation over `n` processes with `steps`
/// events (mixed sends, receives and internal events), for the crate's
/// property tests.
#[cfg(test)]
pub(crate) fn random_computation(n: usize, steps: usize, seed: u64) -> Computation {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ComputationBuilder::new(n);
    let mut in_flight: Vec<(ProcessId, MessageId)> = Vec::new();
    for _ in 0..steps {
        match rng.random_range(0..3) {
            0 => {
                let from = ProcessId::new(rng.random_range(0..n));
                let to = ProcessId::new(rng.random_range(0..n));
                let m = b.send(from, to).expect("valid send");
                in_flight.push((to, m));
            }
            1 if !in_flight.is_empty() => {
                let k = rng.random_range(0..in_flight.len());
                let (to, m) = in_flight.remove(k);
                b.receive(to, m).expect("valid receive");
            }
            _ => {
                b.internal(ProcessId::new(rng.random_range(0..n)))
                    .expect("valid internal");
            }
        }
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procset::ProcessSet;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn builder_happy_path() {
        let mut b = ComputationBuilder::new(3);
        let m1 = b.send(pid(0), pid(1)).unwrap();
        let m2 = b.send(pid(1), pid(2)).unwrap();
        b.receive(pid(1), m1).unwrap();
        b.receive(pid(2), m2).unwrap();
        b.internal_with(pid(2), ActionId::new(9)).unwrap();
        assert_eq!(b.len(), 5);
        assert!(!b.is_empty());
        let z = b.finish();
        assert_eq!(z.sends(), 2);
        assert_eq!(z.receives(), 2);
    }

    #[test]
    fn builder_rejects_bad_steps() {
        let mut b = ComputationBuilder::new(2);
        assert!(b.send(pid(0), pid(5)).is_err());
        assert!(b.internal(pid(2)).is_err());
        assert!(b.receive(pid(1), MessageId::new(42)).is_err());
        let m = b.send(pid(0), pid(1)).unwrap();
        assert!(b.receive(pid(0), m).is_err()); // misdelivery
        b.receive(pid(1), m).unwrap();
        assert!(b.receive(pid(1), m).is_err()); // duplicate
    }

    #[test]
    fn builder_id_offsets() {
        let mut b = ComputationBuilder::with_id_offsets(2, 100, 50);
        let m = b.send(pid(0), pid(1)).unwrap();
        assert_eq!(m, MessageId::new(50));
        let z = b.finish();
        assert_eq!(z.events()[0].id(), EventId::new(100));
    }

    #[test]
    fn pool_composes_interleavings() {
        let mut pool = ScenarioPool::new(2);
        let (s, m) = pool.send(pid(0), pid(1));
        let r = pool.receive(pid(1), pid(0), m);
        let i = pool.internal(pid(0));

        let x = pool.compose([s, r, i]).unwrap();
        let y = pool.compose([s, i, r]).unwrap();
        assert!(x.is_permutation_of(&y));
        assert!(x.agrees_on(&y, ProcessSet::full(2))); // x [D] y

        // receive before send is invalid
        assert!(pool.compose([r, s]).is_err());
        // partial compositions are fine
        assert!(pool.compose([s]).is_ok());
        assert!(pool.compose([i]).is_ok());
    }

    #[test]
    fn pool_compose_batch() {
        let mut pool = ScenarioPool::new(2);
        let (s, m) = pool.send(pid(0), pid(1));
        let r = pool.receive(pid(1), pid(0), m);
        let i = pool.internal(pid(0));
        assert_eq!(pool.len(), 3);
        assert!(!pool.is_empty());
        assert_eq!(pool.events().len(), 3);

        let batch = pool
            .compose_batch([vec![s, r, i], vec![s, i, r], vec![i]])
            .unwrap();
        assert_eq!(batch.len(), 3);
        assert!(batch[0].is_permutation_of(&batch[1]));
        // the first invalid ordering aborts the whole batch
        assert!(pool.compose_batch([vec![s], vec![r, s]]).is_err());
    }

    #[test]
    fn pool_event_lookup() {
        let mut pool = ScenarioPool::new(1);
        let a = pool.internal_with(pid(0), ActionId::new(3));
        let e = pool.event(a);
        assert_eq!(e.id(), a);
        assert!(e.is_internal());
    }

    #[test]
    fn shared_events_make_isomorphism_meaningful() {
        // Figure 3-1 style: x and y share p's event but differ on q.
        let (p, q) = (pid(0), pid(1));
        let mut pool = ScenarioPool::new(2);
        let ep = pool.internal(p);
        let eq1 = pool.internal_with(q, ActionId::new(1));
        let eq2 = pool.internal_with(q, ActionId::new(2));

        let x = pool.compose([ep, eq1]).unwrap();
        let y = pool.compose([ep, eq2]).unwrap();
        assert!(x.agrees_on(&y, ProcessSet::singleton(p)));
        assert!(!x.agrees_on(&y, ProcessSet::singleton(q)));
    }
}
