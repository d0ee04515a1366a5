//! Lamport causality: the `→` ("happened before") relation of §3.1.
//!
//! For events `e, e'` in a computation `z`, `e → e'` means:
//!
//! 1. `e'` is a receive and `e` is the corresponding send, or
//! 2. `e, e'` are in the same process computation and `e = e'` or `e`
//!    occurs earlier than `e'`, or
//! 3. transitivity.
//!
//! Note the paper's relation is *reflexive* (`e → e` for every event); this
//! module follows that convention.
//!
//! [`CausalClosure`] materializes the full relation as per-event bit-sets
//! (O(m²/64) space), which makes process-chain detection and fusion checks
//! linear-ish scans. [`VectorClock`]s are provided as the classical
//! alternative representation; the two are cross-checked in tests.

use crate::computation::Computation;
use crate::event::EventKind;
use crate::id::{EventId, MessageId, ProcessId};
use std::collections::HashMap;
use std::fmt;

/// A dense bit-matrix closure of the happened-before relation of one
/// computation.
///
/// Row `j` holds the set of positions `i` with `eᵢ → eⱼ` (reflexively
/// including `j` itself).
///
/// # Example
///
/// ```
/// use hpl_model::{CausalClosure, ComputationBuilder, ProcessId};
/// # fn main() -> Result<(), hpl_model::ModelError> {
/// let (p, q) = (ProcessId::new(0), ProcessId::new(1));
/// let mut b = ComputationBuilder::new(2);
/// let m = b.send(p, q)?;      // position 0
/// b.internal(p)?;             // position 1
/// b.receive(q, m)?;           // position 2
/// let z = b.finish();
///
/// let hb = CausalClosure::new(&z);
/// assert!(hb.happened_before(0, 2)); // send → receive
/// assert!(!hb.happened_before(1, 2)); // p's internal is concurrent with the receive
/// assert!(hb.concurrent(1, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct CausalClosure {
    len: usize,
    words: usize,
    rows: Vec<u64>,
    id_to_pos: HashMap<EventId, usize>,
}

impl CausalClosure {
    /// Builds the closure for `z` in O(m²/64) time and space.
    #[must_use]
    pub fn new(z: &Computation) -> Self {
        let len = z.len();
        let words = len.div_ceil(64).max(1);
        let mut rows = vec![0u64; len * words];
        let mut id_to_pos = HashMap::with_capacity(len);

        // last position per process and send position per message
        let mut last_on: HashMap<ProcessId, usize> = HashMap::new();
        let mut send_pos: HashMap<MessageId, usize> = HashMap::new();

        for (j, e) in z.iter().enumerate() {
            id_to_pos.insert(e.id(), j);
            let (head, tail) = rows.split_at_mut(j * words);
            let row_j = &mut tail[..words];
            // reflexive
            row_j[j / 64] |= 1u64 << (j % 64);
            // same-process predecessor (its closure subsumes all earlier
            // same-process events by transitivity)
            if let Some(&i) = last_on.get(&e.process()) {
                let row_i = &head[i * words..(i + 1) * words];
                for (w, &bits) in row_i.iter().enumerate() {
                    row_j[w] |= bits;
                }
            }
            // corresponding send for receives
            if let EventKind::Receive { message, .. } = e.kind() {
                if let Some(&i) = send_pos.get(&message) {
                    let row_i = &head[i * words..(i + 1) * words];
                    for (w, &bits) in row_i.iter().enumerate() {
                        row_j[w] |= bits;
                    }
                }
            }
            if let EventKind::Send { message, .. } = e.kind() {
                send_pos.insert(message, j);
            }
            last_on.insert(e.process(), j);
        }

        CausalClosure {
            len,
            words,
            rows,
            id_to_pos,
        }
    }

    /// Number of events covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the underlying computation was empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The closure row for position `j`: bit `i` set iff `eᵢ → eⱼ`.
    #[must_use]
    pub fn row(&self, j: usize) -> &[u64] {
        &self.rows[j * self.words..(j + 1) * self.words]
    }

    /// Tests `eᵢ → eⱼ` by position (reflexive).
    ///
    /// # Panics
    ///
    /// Panics if either position is out of range.
    #[must_use]
    pub fn happened_before(&self, i: usize, j: usize) -> bool {
        assert!(i < self.len && j < self.len, "position out of range");
        self.row(j)[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Tests `e → e'` by event id. Returns `None` if either id is not in
    /// the computation.
    #[must_use]
    pub fn happened_before_ids(&self, e: EventId, e2: EventId) -> Option<bool> {
        let i = *self.id_to_pos.get(&e)?;
        let j = *self.id_to_pos.get(&e2)?;
        Some(self.happened_before(i, j))
    }

    /// Two distinct events are *concurrent* iff neither happened before the
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if either position is out of range.
    #[must_use]
    pub fn concurrent(&self, i: usize, j: usize) -> bool {
        i != j && !self.happened_before(i, j) && !self.happened_before(j, i)
    }

    /// The positions causally preceding `j` (inclusive of `j`).
    #[must_use]
    pub fn causes_of(&self, j: usize) -> Vec<usize> {
        (0..self.len)
            .filter(|&i| self.happened_before(i, j))
            .collect()
    }

    /// Number of causal pairs `(i, j)` with `eᵢ → eⱼ` and `i ≠ j`.
    #[must_use]
    pub fn pair_count(&self) -> usize {
        let mut total = 0usize;
        for j in 0..self.len {
            for w in self.row(j) {
                total += w.count_ones() as usize;
            }
        }
        total - self.len // remove reflexive pairs
    }
}

/// A vector clock: one counter per process, the classical encoding of
/// causal history.
///
/// `VectorClock::of_events` assigns each event its clock; `e → e'` iff
/// `clock(e) ≤ clock(e')` pointwise (for distinct events). Used as an
/// independent cross-check of [`CausalClosure`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct VectorClock(Vec<u32>);

impl VectorClock {
    /// The zero clock for a system of `n` processes.
    #[must_use]
    pub fn zero(n: usize) -> Self {
        VectorClock(vec![0; n])
    }

    /// The component for process `p`.
    #[must_use]
    pub fn get(&self, p: ProcessId) -> u32 {
        self.0[p.index()]
    }

    /// Pointwise `self ≤ other`.
    #[must_use]
    pub fn le(&self, other: &VectorClock) -> bool {
        self.0.iter().zip(&other.0).all(|(a, b)| a <= b)
    }

    /// Pointwise maximum, in place.
    pub fn merge(&mut self, other: &VectorClock) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a = (*a).max(*b);
        }
    }

    /// Increments the component of `p`.
    pub fn tick(&mut self, p: ProcessId) {
        self.0[p.index()] += 1;
    }

    /// Assigns every event of `z` its vector clock, in computation order.
    #[must_use]
    pub fn of_events(z: &Computation) -> Vec<VectorClock> {
        let n = z.system_size();
        let mut proc_clock: Vec<VectorClock> = (0..n).map(|_| VectorClock::zero(n)).collect();
        let mut msg_clock: HashMap<MessageId, VectorClock> = HashMap::new();
        let mut out = Vec::with_capacity(z.len());
        for e in z.iter() {
            let pi = e.process().index();
            if let EventKind::Receive { message, .. } = e.kind() {
                let mc = msg_clock
                    .get(&message)
                    .expect("validated computation: send precedes receive")
                    .clone();
                proc_clock[pi].merge(&mc);
            }
            proc_clock[pi].tick(e.process());
            if let EventKind::Send { message, .. } = e.kind() {
                msg_clock.insert(message, proc_clock[pi].clone());
            }
            out.push(proc_clock[pi].clone());
        }
        out
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{random_computation, ComputationBuilder};
    use proptest::prelude::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// p0 sends to p1; p1 receives then sends to p2; p2 receives.
    fn relay() -> Computation {
        let mut b = ComputationBuilder::new(3);
        let m1 = b.send(pid(0), pid(1)).unwrap(); // 0
        b.receive(pid(1), m1).unwrap(); // 1
        let m2 = b.send(pid(1), pid(2)).unwrap(); // 2
        b.receive(pid(2), m2).unwrap(); // 3
        b.finish()
    }

    #[test]
    fn reflexivity() {
        let z = relay();
        let hb = CausalClosure::new(&z);
        for i in 0..z.len() {
            assert!(hb.happened_before(i, i));
        }
    }

    #[test]
    fn chain_through_messages() {
        let z = relay();
        let hb = CausalClosure::new(&z);
        // transitive: the first send happened before the last receive
        assert!(hb.happened_before(0, 3));
        assert!(hb.happened_before(0, 1));
        assert!(hb.happened_before(1, 2));
        assert!(!hb.happened_before(3, 0));
    }

    #[test]
    fn concurrency() {
        let mut b = ComputationBuilder::new(2);
        b.internal(pid(0)).unwrap(); // 0
        b.internal(pid(1)).unwrap(); // 1
        let z = b.finish();
        let hb = CausalClosure::new(&z);
        assert!(hb.concurrent(0, 1));
        assert!(!hb.concurrent(0, 0));
    }

    #[test]
    fn ids_api() {
        let z = relay();
        let hb = CausalClosure::new(&z);
        let ids: Vec<EventId> = z.iter().map(|e| e.id()).collect();
        assert_eq!(hb.happened_before_ids(ids[0], ids[3]), Some(true));
        assert_eq!(hb.happened_before_ids(ids[3], ids[0]), Some(false));
        assert_eq!(hb.happened_before_ids(EventId::new(999), ids[0]), None);
    }

    #[test]
    fn causes_and_pairs() {
        let z = relay();
        let hb = CausalClosure::new(&z);
        assert_eq!(hb.causes_of(3), vec![0, 1, 2, 3]);
        assert_eq!(hb.causes_of(0), vec![0]);
        // pairs: (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        assert_eq!(hb.pair_count(), 6);
    }

    #[test]
    fn empty_computation() {
        let z = Computation::empty(2);
        let hb = CausalClosure::new(&z);
        assert!(hb.is_empty());
        assert_eq!(hb.len(), 0);
        assert_eq!(hb.pair_count(), 0);
    }

    #[test]
    fn vector_clock_basics() {
        let z = relay();
        let clocks = VectorClock::of_events(&z);
        assert_eq!(clocks[0].to_string(), "⟨1,0,0⟩");
        assert_eq!(clocks[1].to_string(), "⟨1,1,0⟩");
        assert_eq!(clocks[2].to_string(), "⟨1,2,0⟩");
        assert_eq!(clocks[3].to_string(), "⟨1,2,1⟩");
    }

    proptest! {
        /// The bit-matrix closure and vector clocks agree on →.
        #[test]
        fn prop_closure_matches_vector_clocks(seed in 0u64..200, steps in 1usize..30) {
            let z = random_computation(3, steps, seed);
            let hb = CausalClosure::new(&z);
            let clocks = VectorClock::of_events(&z);
            for i in 0..z.len() {
                for j in 0..z.len() {
                    let by_matrix = hb.happened_before(i, j);
                    let by_clock = if i == j {
                        true
                    } else {
                        // e_i → e_j iff clock(i) ≤ clock(j) and they are
                        // ordered (strictly less or same-process order).
                        clocks[i].le(&clocks[j])
                            && (clocks[i] != clocks[j]
                                || z.events()[i].process() == z.events()[j].process())
                    };
                    prop_assert_eq!(
                        by_matrix, by_clock,
                        "disagree on ({}, {}) in {}", i, j, z
                    );
                }
            }
        }

        /// → is transitive and respects computation order.
        #[test]
        fn prop_transitive_and_order_respecting(seed in 0u64..200, steps in 1usize..25) {
            let z = random_computation(3, steps, seed);
            let hb = CausalClosure::new(&z);
            for i in 0..z.len() {
                for j in 0..z.len() {
                    if hb.happened_before(i, j) && i != j {
                        prop_assert!(i < j, "→ must respect the linear order");
                    }
                    for k in 0..z.len() {
                        if hb.happened_before(i, j) && hb.happened_before(j, k) {
                            prop_assert!(hb.happened_before(i, k));
                        }
                    }
                }
            }
        }
    }
}
