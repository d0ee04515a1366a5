//! Process chains: `⟨P₁ P₂ … Pₙ⟩ in (x, z)` (paper §3.1).
//!
//! A computation `z` *has a process chain* `⟨P₁ … Pₙ⟩` iff there exist
//! events `e₁, …, eₙ` — **not necessarily distinct** — with `eᵢ` on `Pᵢ`
//! and `e₁ → e₂ → … → eₙ`. A chain *in the suffix* `(x, z)` restricts the
//! events to those after the prefix `x`; because causal successors of
//! suffix events are themselves in the suffix, the happened-before relation
//! restricted to the suffix is self-contained.
//!
//! Detection is a layered dynamic program over the causal closure:
//! `layerₖ = { positions on Pₖ whose causal past meets layerₖ₋₁ }`, which
//! runs in `O(n · m² / 64)` for a chain of `n` sets over `m` suffix events.
//!
//! The paper's Observation 1 — any `P` in a chain may be replaced by `P P`
//! since `e → e` — is covered by the reflexivity of the closure and tested
//! below.

use crate::causality::CausalClosure;
use crate::computation::Computation;
use crate::event::Event;
use crate::id::EventId;
use crate::procset::ProcessSet;

/// A witness for a process chain: one event per chain position, with
/// `events[i] → events[i+1]` (events may repeat).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainWitness {
    events: Vec<Event>,
}

impl ChainWitness {
    /// Wraps explicit events as a witness (one per chain position).
    ///
    /// The events are not checked here; use [`ChainWitness::verify`] to
    /// validate a wrapped witness against a computation.
    #[must_use]
    pub fn from_events(events: Vec<Event>) -> Self {
        ChainWitness { events }
    }

    /// The witnessing events, one per chain position.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The witnessing event ids.
    #[must_use]
    pub fn event_ids(&self) -> Vec<EventId> {
        self.events.iter().map(|e| e.id()).collect()
    }

    /// Chain length `n` (number of process sets matched).
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the witness is empty (only for the degenerate zero-length
    /// chain, which trivially exists).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks the witness against a computation: each event is on its set
    /// and consecutive events are causally ordered.
    #[must_use]
    pub fn verify(&self, z: &Computation, prefix_len: usize, sets: &[ProcessSet]) -> bool {
        if self.events.len() != sets.len() {
            return false;
        }
        let hb = CausalClosure::new(z);
        let mut positions = Vec::with_capacity(self.events.len());
        for e in &self.events {
            match z.position_of(e.id()) {
                Some(pos) if pos >= prefix_len => positions.push(pos),
                _ => return false,
            }
        }
        for (e, set) in self.events.iter().zip(sets) {
            if !e.is_on_set(*set) {
                return false;
            }
        }
        positions.windows(2).all(|w| hb.happened_before(w[0], w[1]))
    }
}

/// Returns `true` iff `(x, z)` — where `x = z.prefix(prefix_len)` —
/// contains a process chain `⟨sets[0] … sets[n-1]⟩`.
///
/// An empty `sets` slice denotes the degenerate chain, which always exists.
///
/// # Panics
///
/// Panics if `prefix_len > z.len()`.
#[must_use]
pub fn has_chain(z: &Computation, prefix_len: usize, sets: &[ProcessSet]) -> bool {
    find_chain(z, prefix_len, sets).is_some()
}

/// Finds a witness for the process chain `⟨sets[0] … sets[n-1]⟩ in (x, z)`,
/// or returns `None` if no chain exists.
///
/// # Panics
///
/// Panics if `prefix_len > z.len()`.
#[must_use]
pub fn find_chain(z: &Computation, prefix_len: usize, sets: &[ProcessSet]) -> Option<ChainWitness> {
    assert!(prefix_len <= z.len(), "prefix length out of range");
    if sets.is_empty() {
        return Some(ChainWitness { events: Vec::new() });
    }
    let m = z.len();
    let hb = CausalClosure::new(z);
    let words = m.div_ceil(64).max(1);

    // layer bitsets over *positions* of z; only positions >= prefix_len
    // may participate.
    let mut layer = vec![0u64; words];
    // pred[k][j] = predecessor position chosen for position j at layer k
    let mut preds: Vec<Vec<Option<usize>>> = Vec::with_capacity(sets.len());

    for (k, set) in sets.iter().enumerate() {
        let mut next = vec![0u64; words];
        let mut pred_k = vec![None; m];
        for j in prefix_len..m {
            if !z.events()[j].is_on_set(*set) {
                continue;
            }
            if k == 0 {
                next[j / 64] |= 1u64 << (j % 64);
                continue;
            }
            // does j's causal past (reflexive) meet the previous layer?
            let row = hb.row(j);
            let mut hit = None;
            for w in 0..words {
                let meet = row[w] & layer[w];
                if meet != 0 {
                    hit = Some(w * 64 + meet.trailing_zeros() as usize);
                    break;
                }
            }
            if let Some(i) = hit {
                next[j / 64] |= 1u64 << (j % 64);
                pred_k[j] = Some(i);
            }
        }
        preds.push(pred_k);
        layer = next;
        if layer.iter().all(|&w| w == 0) {
            return None;
        }
    }

    // reconstruct: pick any member of the final layer, walk predecessors
    let mut j = (0..m).find(|&j| layer[j / 64] & (1u64 << (j % 64)) != 0)?;
    let mut chain_rev = vec![j];
    for k in (1..sets.len()).rev() {
        j = preds[k][j].expect("layer membership implies recorded predecessor");
        chain_rev.push(j);
    }
    chain_rev.reverse();
    Some(ChainWitness {
        events: chain_rev.iter().map(|&p| z.events()[p]).collect(),
    })
}

/// Convenience wrapper taking the prefix as a computation.
///
/// # Errors
///
/// Returns [`crate::ModelError::NotAPrefix`] if `x` is not a prefix of `z`.
pub fn find_chain_between(
    x: &Computation,
    z: &Computation,
    sets: &[ProcessSet],
) -> Result<Option<ChainWitness>, crate::ModelError> {
    if !x.is_prefix_of(z) {
        return Err(crate::ModelError::NotAPrefix);
    }
    Ok(find_chain(z, x.len(), sets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{random_computation, ComputationBuilder};
    use crate::id::ProcessId;
    use proptest::prelude::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn ps(i: usize) -> ProcessSet {
        ProcessSet::singleton(pid(i))
    }

    /// p0 → p1 → p2 relay.
    fn relay() -> Computation {
        let mut b = ComputationBuilder::new(3);
        let m1 = b.send(pid(0), pid(1)).unwrap();
        b.receive(pid(1), m1).unwrap();
        let m2 = b.send(pid(1), pid(2)).unwrap();
        b.receive(pid(2), m2).unwrap();
        b.finish()
    }

    #[test]
    fn degenerate_chain_exists() {
        let z = relay();
        assert!(has_chain(&z, 0, &[]));
        assert!(has_chain(&z, z.len(), &[]));
    }

    #[test]
    fn single_set_chain_is_event_presence() {
        let z = relay();
        assert!(has_chain(&z, 0, &[ps(0)]));
        assert!(has_chain(&z, 0, &[ps(2)]));
        // after the full computation, no events remain
        assert!(!has_chain(&z, z.len(), &[ps(0)]));
        // p0 has no event after position 1
        assert!(!has_chain(&z, 1, &[ps(0)]));
        assert!(has_chain(&z, 1, &[ps(2)]));
    }

    #[test]
    fn relay_has_full_chain() {
        let z = relay();
        let w = find_chain(&z, 0, &[ps(0), ps(1), ps(2)]).expect("chain must exist");
        assert!(w.verify(&z, 0, &[ps(0), ps(1), ps(2)]));
        assert_eq!(w.len(), 3);
        // but no chain in the reverse direction
        assert!(!has_chain(&z, 0, &[ps(2), ps(1), ps(0)]));
    }

    #[test]
    fn chain_respects_prefix_boundary() {
        let z = relay();
        // after the first send is in the prefix, p0 can no longer start a
        // chain: <p0 p2> needs a p0 event in the suffix.
        assert!(has_chain(&z, 0, &[ps(0), ps(2)]));
        assert!(!has_chain(&z, 1, &[ps(0), ps(2)]));
        // but p1's receive is in the suffix and reaches p2:
        assert!(has_chain(&z, 1, &[ps(1), ps(2)]));
    }

    #[test]
    fn observation_1_stuttering() {
        // <P> exists iff <P P> exists iff <P P P> exists (e → e).
        let z = relay();
        for base in [ps(0), ps(1), ps(2)] {
            let once = has_chain(&z, 0, &[base]);
            let twice = has_chain(&z, 0, &[base, base]);
            let thrice = has_chain(&z, 0, &[base, base, base]);
            assert_eq!(once, twice);
            assert_eq!(twice, thrice);
        }
        // also inside longer chains: <p0 p1> iff <p0 p0 p1 p1>
        assert_eq!(
            has_chain(&z, 0, &[ps(0), ps(1)]),
            has_chain(&z, 0, &[ps(0), ps(0), ps(1), ps(1)])
        );
    }

    #[test]
    fn concurrent_events_give_no_chain() {
        let mut b = ComputationBuilder::new(2);
        b.internal(pid(0)).unwrap();
        b.internal(pid(1)).unwrap();
        let z = b.finish();
        assert!(!has_chain(&z, 0, &[ps(0), ps(1)]));
        assert!(!has_chain(&z, 0, &[ps(1), ps(0)]));
        assert!(has_chain(&z, 0, &[ps(0)]));
        assert!(has_chain(&z, 0, &[ps(1)]));
    }

    #[test]
    fn set_valued_links() {
        let z = relay();
        let p01 = ProcessSet::from_indices([0, 1]);
        // <{p0,p1} {p2}> holds via p1's send → p2's receive
        let w = find_chain(&z, 0, &[p01, ps(2)]).unwrap();
        assert!(w.verify(&z, 0, &[p01, ps(2)]));
        // a set containing no event yields no chain
        assert!(!has_chain(&z, 0, &[ProcessSet::EMPTY, ps(2)]));
    }

    #[test]
    fn witness_single_event_for_repeated_sets() {
        // a single receive event on p1 can serve consecutive chain slots
        let mut b = ComputationBuilder::new(2);
        let m = b.send(pid(0), pid(1)).unwrap();
        b.receive(pid(1), m).unwrap();
        let z = b.finish();
        let w = find_chain(&z, 0, &[ps(0), ps(1), ps(1)]).unwrap();
        assert!(w.verify(&z, 0, &[ps(0), ps(1), ps(1)]));
    }

    #[test]
    fn find_chain_between_requires_prefix() {
        let z = relay();
        let x = z.prefix(2);
        assert!(find_chain_between(&x, &z, &[ps(1), ps(2)])
            .unwrap()
            .is_some());
        // Disjoint id range so the computation shares no events with z.
        let mut b = ComputationBuilder::with_id_offsets(3, 500, 500);
        b.internal(pid(0)).unwrap();
        let not_prefix = b.finish();
        assert!(find_chain_between(&not_prefix, &z, &[ps(0)]).is_err());
    }

    #[test]
    fn witness_verify_rejects_wrong_claims() {
        let z = relay();
        let w = find_chain(&z, 0, &[ps(0), ps(1)]).unwrap();
        // wrong sets
        assert!(!w.verify(&z, 0, &[ps(1), ps(0)]));
        // wrong arity
        assert!(!w.verify(&z, 0, &[ps(0)]));
        // wrong prefix: witness events must live in the suffix
        assert!(!w.verify(&z, z.len(), &[ps(0), ps(1)]));
    }

    /// Brute-force chain detection by recursive search, for cross-checking.
    fn brute_force_chain(z: &Computation, prefix_len: usize, sets: &[ProcessSet]) -> bool {
        fn rec(
            z: &Computation,
            hb: &CausalClosure,
            prefix_len: usize,
            sets: &[ProcessSet],
            k: usize,
            last: Option<usize>,
        ) -> bool {
            if k == sets.len() {
                return true;
            }
            for j in prefix_len..z.len() {
                if !z.events()[j].is_on_set(sets[k]) {
                    continue;
                }
                let ok = match last {
                    None => true,
                    Some(i) => hb.happened_before(i, j),
                };
                if ok && rec(z, hb, prefix_len, sets, k + 1, Some(j)) {
                    return true;
                }
            }
            false
        }
        let hb = CausalClosure::new(z);
        rec(z, &hb, prefix_len, sets, 0, None)
    }

    proptest! {
        #[test]
        fn prop_matches_brute_force(
            seed in 0u64..120,
            steps in 1usize..18,
            chain_seed in 0u64..40,
        ) {
            use rand::rngs::StdRng;
            use rand::{RngExt, SeedableRng};
            let z = random_computation(3, steps, seed);
            let mut rng = StdRng::seed_from_u64(chain_seed);
            let n_sets = rng.random_range(1..4usize);
            let sets: Vec<ProcessSet> = (0..n_sets)
                .map(|_| ProcessSet::from_bits(u128::from(rng.random_range(1u8..8))))
                .collect();
            let prefix_len = rng.random_range(0..=z.len());
            let fast = find_chain(&z, prefix_len, &sets);
            let slow = brute_force_chain(&z, prefix_len, &sets);
            prop_assert_eq!(fast.is_some(), slow);
            if let Some(w) = fast {
                prop_assert!(w.verify(&z, prefix_len, &sets));
            }
        }
    }
}
