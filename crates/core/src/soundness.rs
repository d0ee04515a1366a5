//! The symmetry-soundness checker: a static analysis over [`Formula`]
//! deciding whether a quotient evaluator may answer it.
//!
//! # The hole this closes
//!
//! A quotient universe stores one representative `s` per orbit of the
//! joint relation "relabeling ∘ interleaving" (see [`crate::symmetry`]).
//! Every satisfaction set the evaluator computes is indexed by
//! representatives, and a stored verdict at `s` implicitly stands for
//! every relabeling `π·s`. That is only correct when the formula's
//! verdict is **orbit-invariant**: `π·x ⊨ f ⟺ x ⊨ f` for every group
//! element `π`. The paper's permutation-isomorphism result (§4) makes
//! knowledge formulas *candidates* for this — symmetric processes cannot
//! be told apart — but does not make every formula invariant:
//! `π·s ⊨ P knows b` is `s ⊨ π⁻¹(P) knows b`, the same stored verdict
//! only when `π⁻¹(P) = P`.
//!
//! This module classifies each subformula by structural recursion:
//!
//! * [`Formula::True`]/[`Formula::False`] — invariant.
//! * Atoms — invariant iff declared so
//!   ([`Interpretation::register_invariant`]; the declaration is
//!   certified by [`Interpretation::validate_symmetry`]).
//! * Boolean connectives — as invariant as their least child (they are
//!   pointwise).
//! * `P knows φ` / `P sure φ` — exact at representatives when `φ` is
//!   invariant; additionally invariant when the group **stabilizes** `P`
//!   (`π(P) = P` for every generator,
//!   [`Permutation::stabilizes`]). Wrapping a non-invariant `φ` is out
//!   of contract: the stored verdict of `φ` does not speak for the
//!   orbit members the class quantifies over.
//! * `E φ` / `C φ` — invariant when `φ` is (they quantify over the
//!   orbit-closed family of singletons), out of contract otherwise.
//!
//! The three-valued result is [`Invariance`]. `Invariant` formulas are
//! sound anywhere, and their satisfaction counts expand through orbit
//! multiplicities ([`crate::Orbits::expanded_count`]).
//! `ExactAtRepresentatives` formulas (an outermost knowledge operator
//! over a non-stabilized set) evaluate pointwise-correctly *at the
//! stored representatives* but their verdict varies along orbits — they
//! must not be nested and their counts must not be expanded.
//! `OutOfContract` formulas would be silently mis-evaluated; the
//! [`QuotientPolicy`](crate::QuotientPolicy) of
//! [`Evaluator::with_symmetry`](crate::Evaluator::with_symmetry)
//! decides whether they are rejected with a typed error or
//! transparently corrected on orbit-expanded classes.
//!
//! The analysis is *conservative*: it never admits a formula that can
//! diverge (assuming honest atom declarations and a closed group,
//! [`check_closure`](crate::check_closure)), but may flag a formula
//! that happens to agree semantically (e.g. `P knows false`). The
//! adversarial proptest in `tests/symmetry_quotient.rs` certifies both
//! directions of the contract.

use crate::formula::{Formula, Interpretation};
use hpl_model::{AtomInvariance, Permutation, ProcessSet};
use std::fmt;

/// Why a subformula's verdict varies along orbits.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VarianceCause {
    /// The subformula is (or contains) an atom registered as
    /// [`AtomInvariance::Dependent`].
    DependentAtom {
        /// The variant atom.
        atom: crate::formula::AtomId,
    },
    /// The subformula is a knowledge operator over a process set some
    /// group generator moves.
    MovedSet {
        /// The non-stabilized process set.
        set: ProcessSet,
        /// A witness generator with `π(set) ≠ set`.
        generator: Permutation,
    },
}

impl fmt::Display for VarianceCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarianceCause::DependentAtom { atom } => {
                write!(f, "atom #{} is declared relabeling-dependent", atom.index())
            }
            VarianceCause::MovedSet { set, generator } => {
                write!(f, "process set {set} is moved by group element {generator}")
            }
        }
    }
}

/// A precise description of why quotient evaluation of a formula would
/// be unsound: the knowledge operator that consumes an orbit-variant
/// verdict, the variant subformula inside it, and the root cause.
///
/// Carried by [`CoreError::QuotientUnsound`](crate::CoreError) under
/// [`QuotientPolicy::Reject`](crate::QuotientPolicy).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SoundnessViolation {
    /// The smallest enclosing knowledge operator whose stored verdict
    /// would silently diverge from the full universe.
    pub operator: Formula,
    /// The orbit-variant subformula the operator quantifies over.
    pub subformula: Formula,
    /// Why that subformula's verdict varies along orbits.
    pub cause: VarianceCause,
}

impl SoundnessViolation {
    /// Renders the violation with atom names resolved through an
    /// interpretation.
    #[must_use]
    pub fn describe(&self, interp: &Interpretation) -> String {
        format!(
            "{} quantifies over the orbit-variant subformula {}: {}",
            self.operator.display_with(interp),
            self.subformula.display_with(interp),
            self.cause
        )
    }
}

impl fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} quantifies over the orbit-variant subformula {}: {}",
            self.operator.display_raw(),
            self.subformula.display_raw(),
            self.cause
        )
    }
}

/// The checker's verdict on one formula over one symmetry group.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Invariance {
    /// The verdict is constant along every orbit: quotient evaluation
    /// matches the full universe at every representative **and**
    /// satisfaction counts expand exactly through orbit multiplicities.
    Invariant,
    /// An outermost knowledge operator over a non-stabilized set:
    /// evaluation at the stored representatives is pointwise exact, but
    /// the verdict varies along orbits — nesting it under another
    /// knowledge operator, or expanding its count, would be wrong.
    ExactAtRepresentatives,
    /// A knowledge operator quantifies over an orbit-variant subformula:
    /// quotient evaluation would silently diverge from the full
    /// universe. The payload pinpoints the operator, the subformula and
    /// the violating generator or atom.
    OutOfContract(Box<SoundnessViolation>),
}

impl Invariance {
    /// `true` unless the formula is [`Invariance::OutOfContract`].
    #[must_use]
    pub fn is_sound(&self) -> bool {
        !matches!(self, Invariance::OutOfContract(_))
    }

    /// `true` exactly for [`Invariance::Invariant`] (orbit-constant
    /// verdicts, expandable counts).
    #[must_use]
    pub fn is_invariant(&self) -> bool {
        matches!(self, Invariance::Invariant)
    }
}

/// Internal lattice: `Inv > Exact > Unsound`, each lower level carrying
/// its witness, borrowed from the formula and the generators: only an
/// out-of-contract verdict copies it ([`Cause::to_owned`]).
#[derive(Clone, Copy)]
enum Level<'a> {
    Inv,
    /// The deepest orbit-variant subformula and why it varies.
    Exact(&'a Formula, Cause<'a>),
    /// The operator over an orbit-variant subformula, that subformula,
    /// and why it varies.
    Unsound(&'a Formula, &'a Formula, Cause<'a>),
}

/// A borrowed [`VarianceCause`].
#[derive(Clone, Copy)]
enum Cause<'a> {
    DependentAtom(crate::formula::AtomId),
    MovedSet(ProcessSet, &'a Permutation),
}

impl Cause<'_> {
    fn to_owned(self) -> VarianceCause {
        match self {
            Cause::DependentAtom(atom) => VarianceCause::DependentAtom { atom },
            Cause::MovedSet(set, generator) => VarianceCause::MovedSet {
                set,
                generator: generator.clone(),
            },
        }
    }
}

impl Level<'_> {
    fn rank(&self) -> u8 {
        match self {
            Level::Inv => 2,
            Level::Exact(..) => 1,
            Level::Unsound(..) => 0,
        }
    }

    /// Keeps the lower of the two levels (first witness wins ties).
    fn meet(self, other: Self) -> Self {
        if other.rank() < self.rank() {
            other
        } else {
            self
        }
    }
}

/// Classifies a formula's behavior under quotient evaluation over the
/// symmetry group spanned by `generators` (any generating set works,
/// but prefer a minimal one —
/// [`Orbits::generators`](crate::Orbits::generators) or
/// [`SymmetryGroup::generators_for`](hpl_model::SymmetryGroup::generators_for)
/// — over the expanded element list, so stabilizer tests cost
/// `O(|gens|)` rather than `O(|G|)`; identity entries are ignored).
/// See the [module docs](self) for the classification rules.
///
/// With an identity-only generator list (the trivial group) everything
/// is `Invariant`: the quotient then collapses only interleavings, which
/// no well-formed predicate (paper §4.1, [`Interpretation::validate`])
/// can observe.
///
/// # Example
///
/// ```
/// use hpl_core::{classify_invariance, Formula, Interpretation, Invariance};
/// use hpl_model::{ProcessSet, SymmetryGroup};
///
/// let mut interp = Interpretation::new();
/// let busy = Formula::atom(interp.register_invariant("busy", |c| c.len() >= 2));
/// let group = SymmetryGroup::fixing(3, 0);
/// let gens = group.generators_for(3);
///
/// // the fixed singleton is stabilized: nested knows is fine
/// let p0 = ProcessSet::from_indices([0]);
/// let nested = Formula::everyone(Formula::knows(p0, busy.clone()));
/// assert!(classify_invariance(&nested, &interp, &gens).is_invariant());
///
/// // a moved singleton may only appear outermost …
/// let p1 = ProcessSet::from_indices([1]);
/// let outer = Formula::knows(p1, busy.clone());
/// assert_eq!(
///     classify_invariance(&outer, &interp, &gens),
///     Invariance::ExactAtRepresentatives
/// );
/// // … nesting it is precisely what the quotient cannot answer
/// let unsound = Formula::everyone(Formula::knows(p1, busy));
/// assert!(!classify_invariance(&unsound, &interp, &gens).is_sound());
/// ```
#[must_use]
pub fn classify_invariance(
    f: &Formula,
    interp: &Interpretation,
    generators: &[Permutation],
) -> Invariance {
    let gens: Vec<&Permutation> = generators.iter().filter(|g| !g.is_identity()).collect();
    if gens.is_empty() {
        return Invariance::Invariant;
    }
    match level(f, interp, &gens) {
        Level::Inv => Invariance::Invariant,
        Level::Exact(..) => Invariance::ExactAtRepresentatives,
        Level::Unsound(operator, subformula, cause) => {
            Invariance::OutOfContract(Box::new(SoundnessViolation {
                operator: operator.clone(),
                subformula: subformula.clone(),
                cause: cause.to_owned(),
            }))
        }
    }
}

/// Classifies **every distinct subformula** of `f` in one post-order
/// walk: the returned schedule lists each unique subformula exactly
/// once, children strictly before parents, `f` itself last, each paired
/// with its [`classify_invariance`] verdict. The subformulas are
/// borrowed from `f`; only an out-of-contract verdict copies the
/// subformulas its witness names.
///
/// This is the query planner's diagnostic view: the per-subtree
/// verdicts say in advance which subtrees stay on the quotient fast
/// path and which take the policy fallback (orbit expansion or
/// rejection). Duplicate subtrees appear once, which is exactly the
/// common-subformula deduplication the evaluator's memo exploits.
#[must_use]
pub fn classify_subformulas<'f>(
    f: &'f Formula,
    interp: &Interpretation,
    generators: &[Permutation],
) -> Vec<(&'f Formula, Invariance)> {
    let mut seen = std::collections::HashSet::new();
    let mut order = Vec::new();
    collect_post_order(f, &mut seen, &mut order);
    order
        .into_iter()
        .map(|g| (g, classify_invariance(g, interp, generators)))
        .collect()
}

/// Appends `f`'s distinct subformulas to `out` post-order (children
/// before parents, duplicates skipped).
fn collect_post_order<'f>(
    f: &'f Formula,
    seen: &mut std::collections::HashSet<&'f Formula>,
    out: &mut Vec<&'f Formula>,
) {
    // marking `f` before its children is safe: no formula is its own
    // proper subformula
    if !seen.insert(f) {
        return;
    }
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => {}
        Formula::Not(g)
        | Formula::Knows(_, g)
        | Formula::Sure(_, g)
        | Formula::Everyone(g)
        | Formula::Common(g) => collect_post_order(g, seen, out),
        Formula::And(gs) | Formula::Or(gs) => {
            for g in gs {
                collect_post_order(g, seen, out);
            }
        }
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            collect_post_order(a, seen, out);
            collect_post_order(b, seen, out);
        }
    }
    out.push(f);
}

/// The first generator moving `set`, if any.
fn moved_by<'a>(set: ProcessSet, gens: &[&'a Permutation]) -> Option<&'a Permutation> {
    gens.iter().find(|g| !g.stabilizes(set)).copied()
}

fn level<'a>(f: &'a Formula, interp: &Interpretation, gens: &[&'a Permutation]) -> Level<'a> {
    match f {
        Formula::True | Formula::False => Level::Inv,
        Formula::Atom(id) => match interp.invariance(*id) {
            AtomInvariance::Invariant => Level::Inv,
            AtomInvariance::Dependent => Level::Exact(f, Cause::DependentAtom(*id)),
        },
        Formula::Not(g) => level(g, interp, gens),
        Formula::And(gs) | Formula::Or(gs) => gs
            .iter()
            .fold(Level::Inv, |acc, g| acc.meet(level(g, interp, gens))),
        Formula::Implies(a, b) | Formula::Iff(a, b) => {
            level(a, interp, gens).meet(level(b, interp, gens))
        }
        Formula::Knows(p, g) | Formula::Sure(p, g) => match level(g, interp, gens) {
            Level::Inv => match moved_by(*p, gens) {
                None => Level::Inv,
                Some(generator) => Level::Exact(f, Cause::MovedSet(*p, generator)),
            },
            Level::Exact(subformula, cause) => Level::Unsound(f, subformula, cause),
            unsound @ Level::Unsound(..) => unsound,
        },
        Formula::Everyone(g) | Formula::Common(g) => match level(g, interp, gens) {
            Level::Inv => Level::Inv,
            Level::Exact(subformula, cause) => Level::Unsound(f, subformula, cause),
            unsound @ Level::Unsound(..) => unsound,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::SymmetryGroup;

    fn setup() -> (Interpretation, Formula, Formula) {
        let mut interp = Interpretation::new();
        let inv = Formula::atom(interp.register_invariant("inv", |c| !c.is_empty()));
        let dep = Formula::atom(interp.register("dep", |_| true));
        (interp, inv, dep)
    }

    #[test]
    fn booleans_take_the_least_child() {
        let (interp, inv, dep) = setup();
        let gens = SymmetryGroup::Full { n: 3 }.generators_for(3);
        let c = |f: &Formula| classify_invariance(f, &interp, &gens);
        assert!(c(&Formula::True).is_invariant());
        assert!(c(&inv.clone().not()).is_invariant());
        assert!(c(&inv.clone().and(inv.clone())).is_invariant());
        // a dependent atom outside any knowledge operator is exact
        assert_eq!(c(&dep), Invariance::ExactAtRepresentatives);
        assert_eq!(
            c(&inv.clone().or(dep.clone())),
            Invariance::ExactAtRepresentatives
        );
        assert_eq!(
            c(&inv.clone().implies(dep.clone())),
            Invariance::ExactAtRepresentatives
        );
        assert_eq!(
            c(&dep.clone().iff(inv.clone())),
            Invariance::ExactAtRepresentatives
        );
        assert!(c(&Formula::And(vec![])).is_invariant());
    }

    #[test]
    fn knows_requires_stabilized_sets_when_nested() {
        let (interp, inv, _) = setup();
        let group = SymmetryGroup::fixing(4, 0);
        let gens = group.generators_for(4);
        let c = |f: &Formula| classify_invariance(f, &interp, &gens);

        let fixed = ProcessSet::from_indices([0]);
        let moved = ProcessSet::from_indices([2]);
        let others = ProcessSet::from_indices([1, 2, 3]);
        let full = ProcessSet::full(4);

        for p in [fixed, others, full] {
            assert!(
                c(&Formula::knows(p, inv.clone())).is_invariant(),
                "{p} is stabilized"
            );
            assert!(c(&Formula::everyone(Formula::knows(p, inv.clone()))).is_invariant());
            assert!(c(&Formula::sure(p, inv.clone())).is_invariant());
        }
        // outermost over a moved set: exact, admitted
        assert_eq!(
            c(&Formula::knows(moved, inv.clone())),
            Invariance::ExactAtRepresentatives
        );
        // nested over a moved set: out of contract, with a witness
        let bad = Formula::common(Formula::knows(moved, inv.clone()));
        match c(&bad) {
            Invariance::OutOfContract(v) => {
                assert_eq!(v.operator, bad);
                assert_eq!(v.subformula, Formula::knows(moved, inv.clone()));
                match v.cause {
                    VarianceCause::MovedSet { set, ref generator } => {
                        assert_eq!(set, moved);
                        assert!(!generator.stabilizes(moved));
                    }
                    ref other => panic!("wrong cause {other:?}"),
                }
                assert!(!v.to_string().is_empty());
                assert!(v.describe(&interp).contains("inv"));
            }
            other => panic!("expected OutOfContract, got {other:?}"),
        }
        // the violation names the *innermost* offender even deep down
        let deep = Formula::knows(full, Formula::knows(moved, inv.clone()).not());
        assert!(!c(&deep).is_sound());
    }

    #[test]
    fn knowledge_over_dependent_atoms_is_out_of_contract() {
        let (interp, _, dep) = setup();
        let gens = SymmetryGroup::Full { n: 3 }.generators_for(3);
        let c = |f: &Formula| classify_invariance(f, &interp, &gens);
        let full = ProcessSet::full(3);
        match c(&Formula::knows(full, dep.clone())) {
            Invariance::OutOfContract(v) => {
                assert!(matches!(v.cause, VarianceCause::DependentAtom { .. }));
            }
            other => panic!("expected OutOfContract, got {other:?}"),
        }
        assert!(!c(&Formula::everyone(dep.clone())).is_sound());
        assert!(!c(&Formula::common(dep.clone())).is_sound());
        // Sure is as strict as Knows
        assert!(!c(&Formula::everyone(Formula::sure(full, dep))).is_sound());
    }

    #[test]
    fn trivial_group_admits_everything() {
        let (interp, _, dep) = setup();
        let f = Formula::common(Formula::knows(ProcessSet::from_indices([1]), dep));
        assert!(classify_invariance(&f, &interp, &[]).is_invariant());
        let identity_only = SymmetryGroup::Trivial.elements_for(3);
        assert!(classify_invariance(&f, &interp, &identity_only).is_invariant());
    }
}
