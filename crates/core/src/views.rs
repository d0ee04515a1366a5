//! State-based isomorphism — the paper's first proposed generalization.
//!
//! Discussion (§6): "we can define isomorphism based on *states* of
//! processes, rather than computations … Most of the results in this
//! paper are applicable in the first case."
//!
//! This module makes that remark precise and testable. A
//! [`ViewAbstraction`] maps a process's local computation to an
//! *observation key*; two computations are `x [P]ᵥ y` iff every `p ∈ P`
//! has the same key in both. The full-history abstraction recovers the
//! paper's isomorphism exactly; coarser abstractions model processes
//! whose knowledge is determined by bounded state.
//!
//! The ablation, executable via [`check_event_semantics`]:
//!
//! * every `[P]ᵥ` is still an equivalence, so all twelve knowledge facts
//!   of §4.1 survive *any* abstraction (they only use the equivalence
//!   structure) — see the tests;
//! * Theorem 3's event semantics (receives shrink, sends grow,
//!   **internal events preserve**) holds for the full-history view but
//!   **fails for forgetful views**: an internal event can overwrite
//!   state and thereby lose — or spuriously create — knowledge. The
//!   checker finds concrete counterexamples on small universes.
//!
//! This is exactly the boundary the paper hints at: the results carry
//! over when the state faithfully encodes the local computation, and
//! break where it forgets.

use crate::bitset::CompSet;
use crate::isomorphism::{verdicts, Classes, Test};
use crate::universe::{CompId, Universe};
use hpl_model::{Computation, EventKind, ProcessId, ProcessSet};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

/// Maps a process's local computation to its observable view key.
///
/// Keys are arbitrary byte strings; equality of keys defines the
/// state-based isomorphism.
pub trait ViewAbstraction {
    /// The observation key of process `p` in computation `c`.
    fn view_key(&self, c: &Computation, p: ProcessId) -> Vec<u64>;

    /// A short name for reports.
    fn name(&self) -> &str;
}

/// The identity abstraction: the view is the full local computation.
/// State-based isomorphism under this abstraction *is* the paper's
/// isomorphism.
#[derive(Clone, Copy, Debug, Default)]
pub struct FullHistory;

impl ViewAbstraction for FullHistory {
    fn view_key(&self, c: &Computation, p: ProcessId) -> Vec<u64> {
        c.projection_ids(p)
            .into_iter()
            .map(|e| e.index() as u64)
            .collect()
    }

    fn name(&self) -> &str {
        "full-history"
    }
}

/// A forgetful abstraction: the view is the *surface form* (kind, peer,
/// action tag — not the globally distinguished identity) of only the
/// last `window` events of the local computation — a bounded-memory
/// process.
///
/// Surface form matters: globally distinguished event ids encode the
/// full preceding history (the interning convention), so a truly
/// forgetful state must drop them.
#[derive(Clone, Copy, Debug)]
pub struct BoundedMemory {
    /// How many trailing events the process remembers.
    pub window: usize,
}

impl ViewAbstraction for BoundedMemory {
    fn view_key(&self, c: &Computation, p: ProcessId) -> Vec<u64> {
        let events: Vec<_> = c.iter().filter(|e| e.is_on(p)).collect();
        let start = events.len().saturating_sub(self.window);
        events[start..]
            .iter()
            .flat_map(|e| match e.kind() {
                EventKind::Send { to, .. } => [1u64, to.index() as u64],
                EventKind::Receive { from, .. } => [2u64, from.index() as u64],
                EventKind::Internal { action } => [3u64, u64::from(action.tag())],
            })
            .collect()
    }

    fn name(&self) -> &str {
        "bounded-memory"
    }
}

/// An abstraction that only counts events per kind — the coarsest
/// state that still distinguishes activity levels.
#[derive(Clone, Copy, Debug, Default)]
pub struct EventCounts;

impl ViewAbstraction for EventCounts {
    fn view_key(&self, c: &Computation, p: ProcessId) -> Vec<u64> {
        let mut sends = 0u64;
        let mut recvs = 0u64;
        let mut internals = 0u64;
        for e in c.iter().filter(|e| e.is_on(p)) {
            match e.kind() {
                EventKind::Send { .. } => sends += 1,
                EventKind::Receive { .. } => recvs += 1,
                EventKind::Internal { .. } => internals += 1,
            }
        }
        vec![sends, recvs, internals]
    }

    fn name(&self) -> &str {
        "event-counts"
    }
}

/// State-based isomorphism classes over a universe, for one abstraction:
/// per process set, one class label per computation (cached), read by
/// the same label kernel that answers `P knows b` for the paper's
/// isomorphism.
pub struct ViewIndex<'u, V: ViewAbstraction> {
    universe: &'u Universe,
    abstraction: V,
    cache: RefCell<HashMap<u128, Rc<Classes>>>,
}

impl<'u, V: ViewAbstraction> ViewIndex<'u, V> {
    /// Creates the index.
    pub fn new(universe: &'u Universe, abstraction: V) -> Self {
        ViewIndex {
            universe,
            abstraction,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The underlying universe.
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// The `[P]ᵥ`-partition (cached): computations share a class iff
    /// every `p ∈ P` has the same view key in both.
    fn classes(&self, p: ProcessSet) -> Rc<Classes> {
        if let Some(classes) = self.cache.borrow().get(&p.bits()) {
            return Rc::clone(classes);
        }
        let (classes, _) = Classes::by_key(self.universe.len(), |i, key| {
            let c = self.universe.get(CompId::from_index(i));
            for proc in p.iter() {
                key.push(u64::MAX);
                key.extend(self.abstraction.view_key(c, proc));
            }
        });
        let classes = Rc::new(classes);
        self.cache
            .borrow_mut()
            .insert(p.bits(), Rc::clone(&classes));
        classes
    }

    /// Tests state-based isomorphism `x [P]ᵥ y`.
    pub fn isomorphic(&self, x: CompId, y: CompId, p: ProcessSet) -> bool {
        self.classes(p).same_class(x, y)
    }

    /// The satisfaction set of `P knows ⟨sat⟩` under this abstraction:
    /// `{x : [P]ᵥ-class of x ⊆ sat}`.
    pub fn knows_set(&self, p: ProcessSet, sat: &CompSet) -> CompSet {
        verdicts(&*self.classes(p), sat, Test::Knows)
    }

    /// The `[P]ᵥ`-class of `x`.
    pub fn class_set(&self, x: CompId, p: ProcessSet) -> CompSet {
        let classes = self.classes(p);
        classes.member_set(classes.class_of(x))
    }
}

impl<V: ViewAbstraction> fmt::Debug for ViewIndex<'_, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ViewIndex({}, universe of {})",
            self.abstraction.name(),
            self.universe.len()
        )
    }
}

/// One counterexample found by [`check_event_semantics`].
#[derive(Clone, Debug)]
pub struct SemanticsViolation {
    /// The computation before the event.
    pub x: CompId,
    /// The computation after the event (`x;e`).
    pub xe: CompId,
    /// Rendered description of the event and failure mode.
    pub description: String,
}

/// Checks Theorem 3's event semantics under an abstraction, for
/// knowledge of an arbitrary target set `sat` (e.g. a predicate's
/// satisfaction set): across every member pair `(x, (x;e))`,
///
/// * a receive must not grow `{y : x [P]ᵥ y}`-based knowledge loss …
///   concretely: internal events must neither gain nor lose
///   `P knows ⟨sat⟩` when `sat` is `P̄`-local-like; receives must not
///   lose it; sends must not gain it.
///
/// Under [`FullHistory`] this is Lemma 4 and never fires; under
/// forgetful abstractions it returns the concrete violations.
pub fn check_event_semantics<V: ViewAbstraction>(
    index: &ViewIndex<'_, V>,
    p: ProcessSet,
    sat: &CompSet,
) -> Vec<SemanticsViolation> {
    let universe = index.universe();
    let knows = index.knows_set(p, sat);
    let mut violations = Vec::new();
    for (xe_id, xe) in universe.iter() {
        let Some(e) = xe.events().last().copied() else {
            continue;
        };
        if !e.is_on_set(p) {
            continue;
        }
        let Some(x_id) = universe.id_of(&xe.prefix(xe.len() - 1)) else {
            continue;
        };
        let before = knows.contains(x_id.index());
        let after = knows.contains(xe_id.index());
        let failure = match e.kind() {
            EventKind::Receive { .. } if before && !after => Some("receive lost knowledge"),
            EventKind::Send { .. } if !before && after => Some("send gained knowledge"),
            EventKind::Internal { .. } if before != after => {
                Some("internal event changed knowledge")
            }
            _ => None,
        };
        if let Some(mode) = failure {
            violations.push(SemanticsViolation {
                x: x_id,
                xe: xe_id,
                description: format!("{mode} at {e}"),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate, EnumerationLimits, LocalView, ProtoAction, Protocol};
    use crate::isomorphism::IsoIndex;
    use hpl_model::ActionId;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// p0 toggles a bit and reports to p1; p1 may do unrelated internal
    /// work (which under bounded memory overwrites what it learned).
    struct Chatter;

    impl Protocol for Chatter {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            match p.index() {
                0 if view.is_empty() => vec![
                    ProtoAction::Internal {
                        action: ActionId::new(1),
                    },
                    ProtoAction::Send {
                        to: pid(1),
                        payload: 7,
                    },
                ],
                1 if view.len() < 2 => vec![ProtoAction::Internal {
                    action: ActionId::new(9),
                }],
                _ => vec![],
            }
        }
    }

    fn setup() -> crate::enumerate::ProtocolUniverse {
        enumerate(&Chatter, EnumerationLimits::depth(4)).unwrap()
    }

    #[test]
    fn full_history_matches_standard_isomorphism() {
        let pu = setup();
        let u = pu.universe();
        let view = ViewIndex::new(u, FullHistory);
        let iso = IsoIndex::new(u);
        for p in [
            ProcessSet::singleton(pid(0)),
            ProcessSet::singleton(pid(1)),
            ProcessSet::full(2),
        ] {
            for x in u.ids() {
                for y in u.ids() {
                    assert_eq!(
                        view.isomorphic(x, y, p),
                        iso.isomorphic(x, y, p),
                        "full-history view must equal the paper's isomorphism"
                    );
                }
            }
        }
    }

    #[test]
    fn coarser_views_merge_classes() {
        let pu = setup();
        let u = pu.universe();
        let full = ViewIndex::new(u, FullHistory);
        let counts = ViewIndex::new(u, EventCounts);
        let p = ProcessSet::singleton(pid(0));
        // counting abstraction cannot distinguish *which* internal action
        // happened, only how many — classes can only merge
        for x in u.ids() {
            let fine = full.class_set(x, p);
            let coarse = counts.class_set(x, p);
            assert!(fine.is_subset(&coarse), "coarse classes contain fine ones");
        }
    }

    #[test]
    fn knowledge_facts_survive_any_abstraction() {
        // K: knows(sat) ⊆ sat (truth), idempotence of knows, monotone in
        // the set — these use only the equivalence structure.
        let pu = setup();
        let u = pu.universe();
        for (name, knows_fn) in [
            (
                "full",
                ViewIndex::new(u, FullHistory)
                    .knows_set(ProcessSet::singleton(pid(1)), &sent_sat(u)),
            ),
            (
                "bounded",
                ViewIndex::new(u, BoundedMemory { window: 1 })
                    .knows_set(ProcessSet::singleton(pid(1)), &sent_sat(u)),
            ),
            (
                "counts",
                ViewIndex::new(u, EventCounts)
                    .knows_set(ProcessSet::singleton(pid(1)), &sent_sat(u)),
            ),
        ] {
            // knowledge implies truth under every abstraction
            assert!(knows_fn.is_subset(&sent_sat(u)), "{name}: K ⊆ sat");
        }
        // positive introspection: knows(knows(sat)) == knows(sat)
        let view = ViewIndex::new(u, BoundedMemory { window: 1 });
        let p = ProcessSet::singleton(pid(1));
        let k1 = view.knows_set(p, &sent_sat(u));
        let k2 = view.knows_set(p, &k1);
        assert_eq!(k1, k2, "positive introspection survives forgetfulness");
    }

    fn sent_sat(u: &Universe) -> CompSet {
        let mut s = CompSet::new(u.len());
        for (id, c) in u.iter() {
            if c.sends() > 0 {
                s.insert(id.index());
            }
        }
        s
    }

    #[test]
    fn event_semantics_hold_for_full_history() {
        let pu = setup();
        let u = pu.universe();
        let view = ViewIndex::new(u, FullHistory);
        let violations = check_event_semantics(&view, ProcessSet::singleton(pid(1)), &sent_sat(u));
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn event_semantics_break_under_forgetting() {
        // the paper's boundary: with bounded memory, p1's unrelated
        // internal work *overwrites* the receive it learned from —
        // an internal event loses knowledge, impossible in the paper's
        // model (Lemma 4 case 3).
        let pu = setup();
        let u = pu.universe();
        let view = ViewIndex::new(u, BoundedMemory { window: 1 });
        let violations = check_event_semantics(&view, ProcessSet::singleton(pid(1)), &sent_sat(u));
        assert!(
            violations
                .iter()
                .any(|v| v.description.contains("internal event changed knowledge")),
            "expected a forgetting counterexample, got {violations:?}"
        );
    }

    #[test]
    fn debug_rendering() {
        let pu = setup();
        let view = ViewIndex::new(pu.universe(), EventCounts);
        assert!(format!("{view:?}").contains("event-counts"));
    }
}
