//! Consistent cuts: the global states of a computation.
//!
//! The paper's motivation — "a process determine\[s\] facts about the
//! overall system computation" — is about *global states*. A **cut** of a
//! computation assigns each process a prefix of its local computation; it
//! is **consistent** iff no received message is still unsent, i.e. the
//! cut's event set is causally downward closed. Consistent cuts are
//! exactly the valid computations assembled from per-process prefixes
//! (up to permutation), exactly what a Chandy–Lamport snapshot records,
//! and they form a **distributive lattice** under pointwise min/max —
//! all three facts are implemented and tested here.
//!
//! The number of consistent cuts also measures how much "global
//! uncertainty" a computation carries: a fully sequential computation has
//! `m + 1` cuts, `n` fully independent processes have `∏(mᵢ + 1)`.

use crate::causality::CausalClosure;
use crate::computation::Computation;
use crate::event::Event;
use crate::id::ProcessId;
use std::fmt;

/// A cut: for each process, how many of its events are included.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Cut {
    counts: Vec<usize>,
}

impl Cut {
    /// The empty cut for a system of `n` processes.
    #[must_use]
    pub fn empty(n: usize) -> Self {
        Cut { counts: vec![0; n] }
    }

    /// Builds a cut from per-process event counts.
    #[must_use]
    pub fn from_counts(counts: Vec<usize>) -> Self {
        Cut { counts }
    }

    /// Number of events of process `p` included in the cut.
    #[must_use]
    pub fn count(&self, p: ProcessId) -> usize {
        self.counts[p.index()]
    }

    /// Per-process counts.
    #[must_use]
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of events in the cut.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Returns `true` if the cut contains no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Pointwise ≤ (the lattice order).
    #[must_use]
    pub fn le(&self, other: &Cut) -> bool {
        self.counts.iter().zip(&other.counts).all(|(a, b)| a <= b)
    }

    /// The lattice meet: pointwise minimum.
    #[must_use]
    pub fn meet(&self, other: &Cut) -> Cut {
        Cut {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(&a, &b)| a.min(b))
                .collect(),
        }
    }

    /// The lattice join: pointwise maximum.
    #[must_use]
    pub fn join(&self, other: &Cut) -> Cut {
        Cut {
            counts: self
                .counts
                .iter()
                .zip(&other.counts)
                .map(|(&a, &b)| a.max(b))
                .collect(),
        }
    }
}

impl fmt::Display for Cut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.counts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

/// Analysis of a computation's consistent cuts.
#[derive(Debug)]
pub struct CutLattice<'a> {
    z: &'a Computation,
    /// positions of each process's events, in order
    proc_events: Vec<Vec<usize>>,
    hb: CausalClosure,
}

impl<'a> CutLattice<'a> {
    /// Prepares cut analysis for `z`.
    #[must_use]
    pub fn new(z: &'a Computation) -> Self {
        let n = z.system_size();
        let mut proc_events = vec![Vec::new(); n];
        for (i, e) in z.iter().enumerate() {
            proc_events[e.process().index()].push(i);
        }
        CutLattice {
            z,
            proc_events,
            hb: CausalClosure::new(z),
        }
    }

    /// The full cut (every event included).
    #[must_use]
    pub fn full_cut(&self) -> Cut {
        Cut::from_counts(self.proc_events.iter().map(Vec::len).collect())
    }

    /// Is the cut consistent? (Downward closed under happened-before:
    /// every event causally below an included event is included.)
    #[must_use]
    pub fn is_consistent(&self, cut: &Cut) -> bool {
        // collect included positions
        let mut included = vec![false; self.z.len()];
        for (pi, events) in self.proc_events.iter().enumerate() {
            let k = cut.count(ProcessId::new(pi));
            if k > events.len() {
                return false;
            }
            for &pos in &events[..k] {
                included[pos] = true;
            }
        }
        // downward closure: for each included position, all its causes
        // must be included
        for j in 0..self.z.len() {
            if !included[j] {
                continue;
            }
            let row = self.hb.row(j);
            for i in 0..self.z.len() {
                if row[i / 64] & (1u64 << (i % 64)) != 0 && !included[i] {
                    return false;
                }
            }
        }
        true
    }

    /// The events of a consistent cut, in `z`'s order — always a valid
    /// computation (the formal content of "a consistent cut is a possible
    /// global state").
    ///
    /// # Panics
    ///
    /// Panics if the cut is not consistent for `z`.
    #[must_use]
    pub fn cut_computation(&self, cut: &Cut) -> Computation {
        assert!(self.is_consistent(cut), "cut must be consistent");
        let mut take = vec![0usize; self.z.system_size()];
        let events: Vec<Event> = self
            .z
            .iter()
            .filter(|e| {
                let pi = e.process().index();
                if take[pi] < cut.count(e.process()) {
                    take[pi] += 1;
                    true
                } else {
                    false
                }
            })
            .collect();
        Computation::from_events(self.z.system_size(), events)
            .expect("consistent cuts are valid computations")
    }

    /// Enumerates every consistent cut (exponential in general; intended
    /// for analysis of small computations).
    #[must_use]
    pub fn enumerate(&self) -> Vec<Cut> {
        let n = self.z.system_size();
        let mut out = Vec::new();
        let mut counts = vec![0usize; n];
        loop {
            let cut = Cut::from_counts(counts.clone());
            if self.is_consistent(&cut) {
                out.push(cut);
            }
            // odometer increment over the product of (0..=mᵢ)
            let mut i = 0;
            loop {
                if i == n {
                    return out;
                }
                counts[i] += 1;
                if counts[i] <= self.proc_events[i].len() {
                    break;
                }
                counts[i] = 0;
                i += 1;
            }
        }
    }

    /// Number of consistent cuts.
    #[must_use]
    pub fn count(&self) -> usize {
        self.enumerate().len()
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

    fn sequential_chain() -> Computation {
        // p0 → p1 → p2, fully causal
        let mut b = ComputationBuilder::new(3);
        let m1 = b.send(pid(0), pid(1)).unwrap();
        b.receive(pid(1), m1).unwrap();
        let m2 = b.send(pid(1), pid(2)).unwrap();
        b.receive(pid(2), m2).unwrap();
        b.finish()
    }

    fn independent(n: usize, k: usize) -> Computation {
        let mut b = ComputationBuilder::new(n);
        for i in 0..n {
            for _ in 0..k {
                b.internal(pid(i)).unwrap();
            }
        }
        b.finish()
    }

    #[test]
    fn sequential_chain_has_linear_cuts() {
        let z = sequential_chain();
        let lattice = CutLattice::new(&z);
        // fully causal: exactly m+1 cuts
        assert_eq!(lattice.count(), z.len() + 1);
    }

    #[test]
    fn independent_processes_have_product_cuts() {
        let z = independent(3, 2);
        let lattice = CutLattice::new(&z);
        assert_eq!(lattice.count(), 3usize.pow(3)); // (2+1)^3
    }

    #[test]
    fn empty_and_full_cuts_are_consistent() {
        let z = sequential_chain();
        let lattice = CutLattice::new(&z);
        assert!(lattice.is_consistent(&Cut::empty(3)));
        assert!(lattice.is_consistent(&lattice.full_cut()));
        assert!(Cut::empty(3).is_empty());
        assert_eq!(lattice.full_cut().len(), z.len());
    }

    #[test]
    fn inconsistent_cut_detected() {
        let z = sequential_chain();
        let lattice = CutLattice::new(&z);
        // include p1's receive without p0's send
        let bad = Cut::from_counts(vec![0, 1, 0]);
        assert!(!lattice.is_consistent(&bad));
        // over-long counts are inconsistent, not a panic
        let too_long = Cut::from_counts(vec![9, 0, 0]);
        assert!(!lattice.is_consistent(&too_long));
    }

    #[test]
    fn cut_computations_are_valid() {
        let z = sequential_chain();
        let lattice = CutLattice::new(&z);
        for cut in lattice.enumerate() {
            let c = lattice.cut_computation(&cut);
            assert_eq!(c.len(), cut.len());
            // validity is enforced by the constructor; also each
            // projection is a prefix of z's
            for i in 0..3 {
                let cp = c.projection_ids(pid(i));
                let zp = z.projection_ids(pid(i));
                assert!(zp.starts_with(&cp));
            }
        }
    }

    #[test]
    #[should_panic(expected = "consistent")]
    fn cut_computation_rejects_inconsistent() {
        let z = sequential_chain();
        let lattice = CutLattice::new(&z);
        let _ = lattice.cut_computation(&Cut::from_counts(vec![0, 1, 0]));
    }

    #[test]
    fn display_format() {
        assert_eq!(Cut::from_counts(vec![1, 0, 2]).to_string(), "⟨1,0,2⟩");
    }

    proptest! {
        /// Consistent cuts form a lattice: closed under meet and join.
        #[test]
        fn prop_cuts_form_a_lattice(seed in 0u64..60, steps in 1usize..10) {
            let z = random_computation(3, steps, seed);
            let lattice = CutLattice::new(&z);
            let cuts = lattice.enumerate();
            for a in &cuts {
                for b in &cuts {
                    prop_assert!(lattice.is_consistent(&a.meet(b)), "meet of {a} and {b}");
                    prop_assert!(lattice.is_consistent(&a.join(b)), "join of {a} and {b}");
                }
            }
        }

        /// Every prefix of the computation induces a consistent cut, so
        /// #cuts ≥ #distinct prefix cuts.
        #[test]
        fn prop_prefixes_are_cuts(seed in 0u64..60, steps in 1usize..12) {
            let z = random_computation(3, steps, seed);
            let lattice = CutLattice::new(&z);
            for l in 0..=z.len() {
                let pfx = z.prefix(l);
                let counts: Vec<usize> = (0..3)
                    .map(|i| pfx.projection_ids(pid(i)).len())
                    .collect();
                prop_assert!(lattice.is_consistent(&Cut::from_counts(counts)));
            }
        }

        /// The cut order is respected: a ≤ b implies |a| ≤ |b|, and the
        /// meet/join are the glb/lub.
        #[test]
        fn prop_lattice_laws(seed in 0u64..40, steps in 1usize..8) {
            let z = random_computation(2, steps, seed);
            let lattice = CutLattice::new(&z);
            let cuts = lattice.enumerate();
            for a in &cuts {
                for b in &cuts {
                    let m = a.meet(b);
                    let j = a.join(b);
                    prop_assert!(m.le(a) && m.le(b));
                    prop_assert!(a.le(&j) && b.le(&j));
                    if a.le(b) {
                        prop_assert_eq!(&m, a);
                        prop_assert_eq!(&j, b);
                    }
                }
            }
        }
    }
}
