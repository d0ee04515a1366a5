//! Epistemic formulas: predicates on system computations with `knows`.
//!
//! The paper's knowledge predicates (§4.1):
//!
//! * `(P knows b) at x ≜ ∀y: x [P] y ⇒ b at y`
//! * `(P sure b) ≜ (P knows b) ∨ (P knows ¬b)` (§4.2)
//! * `b is common knowledge` is the greatest fixpoint of
//!   `b ∧ ∀p: (p knows (b is common knowledge))`.
//!
//! Base predicates ("atoms") are arbitrary Rust closures over
//! computations, registered in an [`Interpretation`]. Per the paper,
//! predicates must be functions of the per-process computations only:
//! `x [D] y ⇒ (b at x = b at y)` — [`Interpretation::validate`] checks
//! this on a universe.

use crate::universe::Universe;
use hpl_model::{AtomInvariance, Computation, Permutation, ProcessSet};
use std::fmt;

/// Identifier of a registered atomic predicate.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AtomId(usize);

impl AtomId {
    /// The raw registry index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A registry of named atomic predicates over computations.
///
/// # Example
///
/// ```
/// use hpl_core::Interpretation;
/// let mut interp = Interpretation::new();
/// let quiet = interp.register("quiet", |c| c.sends() == 0);
/// assert_eq!(interp.name(quiet), "quiet");
/// ```
pub struct Interpretation {
    atoms: Vec<(String, AtomPredicate, AtomInvariance)>,
}

/// A boxed atomic predicate over computations. Predicates are `Send +
/// Sync` so an [`Interpretation`] can sit behind an `Arc` and be read
/// by a pool of query workers evaluating against one shared universe
/// snapshot.
type AtomPredicate = Box<dyn Fn(&Computation) -> bool + Send + Sync>;

impl Interpretation {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Interpretation { atoms: Vec::new() }
    }

    /// Registers a named predicate and returns its id. The atom is
    /// declared [`AtomInvariance::Dependent`] (the safe default): the
    /// symmetry-soundness checker will not let a quotient evaluator
    /// quantify over it inside a knowledge operator. Use
    /// [`Interpretation::register_invariant`] for atoms whose verdict is
    /// unchanged by the relevant symmetry group.
    pub fn register<F>(&mut self, name: &str, predicate: F) -> AtomId
    where
        F: Fn(&Computation) -> bool + Send + Sync + 'static,
    {
        self.register_with(name, AtomInvariance::Dependent, predicate)
    }

    /// Registers a predicate **declared invariant under process
    /// relabeling** through the symmetry group the universe was
    /// quotiented by: `b at π·x = b at x` for every group element `π`.
    /// The declaration is trusted by the static soundness checker
    /// ([`classify_invariance`](crate::classify_invariance)); certify it
    /// on an enumerated universe with
    /// [`Interpretation::validate_symmetry`].
    pub fn register_invariant<F>(&mut self, name: &str, predicate: F) -> AtomId
    where
        F: Fn(&Computation) -> bool + Send + Sync + 'static,
    {
        self.register_with(name, AtomInvariance::Invariant, predicate)
    }

    /// Registers a predicate with an explicit invariance declaration.
    pub fn register_with<F>(
        &mut self,
        name: &str,
        invariance: AtomInvariance,
        predicate: F,
    ) -> AtomId
    where
        F: Fn(&Computation) -> bool + Send + Sync + 'static,
    {
        self.atoms
            .push((name.to_owned(), Box::new(predicate), invariance));
        AtomId(self.atoms.len() - 1)
    }

    /// The declared relabeling-invariance of an atom.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this registry.
    #[must_use]
    pub fn invariance(&self, id: AtomId) -> AtomInvariance {
        self.atoms[id.0].2
    }

    /// Number of registered atoms.
    #[must_use]
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Returns `true` if no atoms are registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The name of an atom.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this registry.
    #[must_use]
    pub fn name(&self, id: AtomId) -> &str {
        &self.atoms[id.0].0
    }

    /// Evaluates an atom on a computation.
    ///
    /// # Panics
    ///
    /// Panics if the id is not from this registry.
    #[must_use]
    pub fn eval(&self, id: AtomId, c: &Computation) -> bool {
        (self.atoms[id.0].1)(c)
    }

    /// All registered atom ids.
    pub fn ids(&self) -> impl Iterator<Item = AtomId> + use<> {
        (0..self.atoms.len()).map(AtomId)
    }

    /// Verifies the **declared relabeling-invariance** of every atom on a
    /// universe: each atom registered as [`AtomInvariance::Invariant`]
    /// must satisfy `b at π·x = b at x` for every member `x` and every
    /// group element `π` in `elements`. Returns the ids of atoms whose
    /// declaration is wrong (empty = all declarations hold).
    ///
    /// This is the executable spot-check behind the static
    /// symmetry-soundness checker, the atom-level analogue of
    /// [`check_closure`](crate::check_closure): the checker trusts the
    /// declarations, this method certifies them.
    ///
    /// # Panics
    ///
    /// Panics if an element does not act on exactly the universe's
    /// system size.
    #[must_use]
    pub fn validate_symmetry(&self, universe: &Universe, elements: &[Permutation]) -> Vec<AtomId> {
        let n = universe.system_size();
        assert!(
            elements.iter().all(|p| p.len() == n),
            "group elements must act on all {n} processes — expand declarations \
             with SymmetryGroup::elements_for"
        );
        let mut bad = Vec::new();
        'atoms: for id in self.ids() {
            if self.invariance(id) != AtomInvariance::Invariant {
                continue;
            }
            for (_, x) in universe.iter() {
                let here = self.eval(id, x);
                for pi in elements {
                    if pi.is_identity() {
                        continue;
                    }
                    if self.eval(id, &x.permuted(pi)) != here {
                        bad.push(id);
                        continue 'atoms;
                    }
                }
            }
        }
        bad
    }

    /// Verifies the paper's well-formedness condition for every atom on a
    /// universe: `x [D] y ⇒ b at x = b at y` (predicates depend only on
    /// per-process computations, not the interleaving). Returns the ids of
    /// violating atoms (empty = all fine).
    #[must_use]
    pub fn validate(&self, universe: &Universe) -> Vec<AtomId> {
        let d = ProcessSet::full(universe.system_size());
        let mut bad = Vec::new();
        'atoms: for id in self.ids() {
            for (i, x) in universe.iter() {
                for (j, y) in universe.iter() {
                    if i < j && x.agrees_on(y, d) && self.eval(id, x) != self.eval(id, y) {
                        bad.push(id);
                        continue 'atoms;
                    }
                }
            }
        }
        bad
    }
}

impl Default for Interpretation {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Interpretation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Interpretation[")?;
        for (i, (name, _, _)) in self.atoms.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}")?;
        }
        write!(f, "]")
    }
}

/// An epistemic formula over a system of processes.
///
/// Built with the constructor methods; evaluated by
/// [`Evaluator`](crate::Evaluator) against a universe and an
/// [`Interpretation`].
///
/// # Example
///
/// ```
/// use hpl_core::Formula;
/// use hpl_model::ProcessSet;
/// let p = ProcessSet::from_indices([0]);
/// let q = ProcessSet::from_indices([1]);
/// // p knows q knows b
/// let f = Formula::knows(p, Formula::knows(q, Formula::atom_raw(0)));
/// assert_eq!(f.knowledge_depth(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Formula {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A registered atomic predicate.
    Atom(AtomId),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction (empty = `true`).
    And(Vec<Formula>),
    /// Disjunction (empty = `false`).
    Or(Vec<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Bi-implication.
    Iff(Box<Formula>, Box<Formula>),
    /// `P knows φ`.
    Knows(ProcessSet, Box<Formula>),
    /// `P sure φ ≜ (P knows φ) ∨ (P knows ¬φ)`.
    Sure(ProcessSet, Box<Formula>),
    /// `E φ`: every (singleton) process knows `φ`.
    Everyone(Box<Formula>),
    /// `C φ`: common knowledge of `φ` (greatest fixpoint).
    Common(Box<Formula>),
}

impl Formula {
    /// An atomic predicate.
    #[must_use]
    pub fn atom(id: AtomId) -> Formula {
        Formula::Atom(id)
    }

    /// An atom from a raw registry index (for doc examples and tests).
    #[must_use]
    pub fn atom_raw(index: usize) -> Formula {
        Formula::Atom(AtomId(index))
    }

    /// Negation `¬self`.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Conjunction of two formulas.
    #[must_use]
    pub fn and(self, other: Formula) -> Formula {
        Formula::And(vec![self, other])
    }

    /// Disjunction of two formulas.
    #[must_use]
    pub fn or(self, other: Formula) -> Formula {
        Formula::Or(vec![self, other])
    }

    /// Implication `self ⇒ other`.
    #[must_use]
    pub fn implies(self, other: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(other))
    }

    /// Bi-implication `self ⇔ other`.
    #[must_use]
    pub fn iff(self, other: Formula) -> Formula {
        Formula::Iff(Box::new(self), Box::new(other))
    }

    /// `P knows φ`.
    #[must_use]
    pub fn knows(p: ProcessSet, phi: Formula) -> Formula {
        Formula::Knows(p, Box::new(phi))
    }

    /// `P sure φ`.
    #[must_use]
    pub fn sure(p: ProcessSet, phi: Formula) -> Formula {
        Formula::Sure(p, Box::new(phi))
    }

    /// `P unsure φ ≜ ¬(P sure φ)` (§4.2).
    #[must_use]
    pub fn unsure(p: ProcessSet, phi: Formula) -> Formula {
        Formula::sure(p, phi).not()
    }

    /// `E φ` — everyone knows.
    #[must_use]
    pub fn everyone(phi: Formula) -> Formula {
        Formula::Everyone(Box::new(phi))
    }

    /// `C φ` — common knowledge.
    #[must_use]
    pub fn common(phi: Formula) -> Formula {
        Formula::Common(Box::new(phi))
    }

    /// The nested-knowledge chain
    /// `P₁ knows P₂ knows … Pₙ knows φ` (paper §4.3).
    ///
    /// For an empty slice this is just `φ`.
    #[must_use]
    pub fn knows_chain(sets: &[ProcessSet], phi: Formula) -> Formula {
        sets.iter()
            .rev()
            .fold(phi, |acc, &p| Formula::knows(p, acc))
    }

    /// Maximum nesting depth of `knows`/`sure`/`everyone`/`common`.
    #[must_use]
    pub fn knowledge_depth(&self) -> usize {
        match self {
            Formula::True | Formula::False | Formula::Atom(_) => 0,
            Formula::Not(f) => f.knowledge_depth(),
            Formula::And(fs) | Formula::Or(fs) => {
                fs.iter().map(Formula::knowledge_depth).max().unwrap_or(0)
            }
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                a.knowledge_depth().max(b.knowledge_depth())
            }
            Formula::Knows(_, f) | Formula::Sure(_, f) => 1 + f.knowledge_depth(),
            Formula::Everyone(f) | Formula::Common(f) => 1 + f.knowledge_depth(),
        }
    }

    /// Renders the formula with atom names resolved through an
    /// interpretation.
    #[must_use]
    pub fn display_with(&self, interp: &Interpretation) -> String {
        self.render(&|id| interp.name(id).to_owned())
    }

    /// Renders the formula without an interpretation: atoms appear as
    /// `atom#i`. For contexts that cannot carry the registry, e.g. the
    /// `Display` of [`SoundnessViolation`](crate::SoundnessViolation)
    /// inside [`CoreError`](crate::CoreError).
    #[must_use]
    pub fn display_raw(&self) -> String {
        self.render(&|id| format!("atom#{}", id.index()))
    }

    /// The one rendering implementation behind both display entry
    /// points (a second hand-maintained printer would drift).
    fn render(&self, atom: &dyn Fn(AtomId) -> String) -> String {
        let join = |fs: &[Formula], sep: &str, empty: &str| {
            if fs.is_empty() {
                empty.to_owned()
            } else {
                let parts: Vec<String> = fs.iter().map(|f| f.render(atom)).collect();
                format!("({})", parts.join(sep))
            }
        };
        match self {
            Formula::True => "true".to_owned(),
            Formula::False => "false".to_owned(),
            Formula::Atom(id) => atom(*id),
            Formula::Not(f) => format!("¬{}", f.render(atom)),
            Formula::And(fs) => join(fs, " ∧ ", "true"),
            Formula::Or(fs) => join(fs, " ∨ ", "false"),
            Formula::Implies(a, b) => {
                format!("({} ⇒ {})", a.render(atom), b.render(atom))
            }
            Formula::Iff(a, b) => {
                format!("({} ⇔ {})", a.render(atom), b.render(atom))
            }
            Formula::Knows(p, f) => format!("K{} {}", p, f.render(atom)),
            Formula::Sure(p, f) => format!("Sure{} {}", p, f.render(atom)),
            Formula::Everyone(f) => format!("E {}", f.render(atom)),
            Formula::Common(f) => format!("C {}", f.render(atom)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::ProcessId;

    #[test]
    fn interpretation_registry() {
        let mut interp = Interpretation::new();
        assert!(interp.is_empty());
        let a = interp.register("a", |c| !c.is_empty());
        let b = interp.register("b", |_| true);
        assert_eq!(interp.len(), 2);
        assert_eq!(interp.name(a), "a");
        assert_eq!(interp.name(b), "b");
        assert_eq!(interp.ids().count(), 2);
        let c = Computation::empty(1);
        assert!(!interp.eval(a, &c));
        assert!(interp.eval(b, &c));
        assert!(format!("{interp:?}").contains('a'));
    }

    #[test]
    fn validate_flags_interleaving_sensitive_atoms() {
        // Universe: two orderings of two independent events.
        use hpl_model::ScenarioPool;
        let mut pool = ScenarioPool::new(2);
        let a = pool.internal(ProcessId::new(0));
        let b = pool.internal(ProcessId::new(1));
        let mut u = Universe::new(2);
        u.insert(pool.compose([a, b]).unwrap()).unwrap();
        u.insert(pool.compose([b, a]).unwrap()).unwrap();

        let mut interp = Interpretation::new();
        let good = interp.register("len", |c| c.len() == 2);
        // depends on the interleaving → ill-formed per the paper
        let bad = interp.register("first-is-p0", |c| {
            c.get(0).map(|e| e.process().index() == 0).unwrap_or(false)
        });
        let violations = interp.validate(&u);
        assert_eq!(violations, vec![bad]);
        assert_ne!(good, bad);
    }

    #[test]
    fn invariance_declarations() {
        let mut interp = Interpretation::new();
        let a = interp.register("dep", |_| true);
        let b = interp.register_invariant("inv", |c| c.len() > 1);
        let c = interp.register_with("explicit", AtomInvariance::Dependent, |_| false);
        assert_eq!(interp.invariance(a), AtomInvariance::Dependent);
        assert_eq!(interp.invariance(b), AtomInvariance::Invariant);
        assert_eq!(interp.invariance(c), AtomInvariance::Dependent);
    }

    #[test]
    fn validate_symmetry_flags_false_declarations() {
        use hpl_model::{ScenarioPool, SymmetryGroup};
        // two symmetric processes, at most one internal step each
        let mut pool = ScenarioPool::new(2);
        let a0 = pool.internal(ProcessId::new(0));
        let a1 = pool.internal(ProcessId::new(1));
        let mut u = Universe::new(2);
        u.insert(pool.compose([]).unwrap()).unwrap();
        u.insert(pool.compose([a0]).unwrap()).unwrap();
        u.insert(pool.compose([a1]).unwrap()).unwrap();

        let mut interp = Interpretation::new();
        let good = interp.register_invariant("stepped", |c| c.len() == 1);
        // names a specific process — not invariant under the swap
        let bad =
            interp.register_invariant("p0-acted", |c| c.iter().any(|e| e.is_on(ProcessId::new(0))));
        // dependent atoms are never checked, however asymmetric
        let _dep = interp.register("p1-acted", |c| c.iter().any(|e| e.is_on(ProcessId::new(1))));

        let els = SymmetryGroup::Full { n: 2 }.elements();
        assert_eq!(interp.validate_symmetry(&u, &els), vec![bad]);
        assert_ne!(good, bad);
        // under the identity-only expansion nothing can be violated
        let trivial = SymmetryGroup::Trivial.elements_for(2);
        assert!(interp.validate_symmetry(&u, &trivial).is_empty());
    }

    #[test]
    fn constructors_and_depth() {
        let p = ProcessSet::from_indices([0]);
        let q = ProcessSet::from_indices([1]);
        let b = Formula::atom_raw(0);
        assert_eq!(b.knowledge_depth(), 0);
        assert_eq!(Formula::knows(p, b.clone()).knowledge_depth(), 1);
        let nested = Formula::knows_chain(&[p, q], b.clone());
        assert_eq!(nested.knowledge_depth(), 2);
        assert_eq!(nested, Formula::knows(p, Formula::knows(q, b.clone())));
        assert_eq!(Formula::knows_chain(&[], b.clone()), b.clone());
        assert_eq!(Formula::common(b.clone()).knowledge_depth(), 1);
        assert_eq!(b.clone().and(Formula::True).knowledge_depth(), 0);
        assert_eq!(Formula::everyone(Formula::sure(p, b)).knowledge_depth(), 2);
    }

    #[test]
    fn display_with_names() {
        let mut interp = Interpretation::new();
        let b = interp.register("token-at-r", |_| true);
        let p = ProcessSet::from_indices([0]);
        let f = Formula::knows(p, Formula::atom(b).not());
        assert_eq!(f.display_with(&interp), "K{p0} ¬token-at-r");
        // the raw renderer is the same printer with placeholder atoms
        assert_eq!(f.display_raw(), "K{p0} ¬atom#0");
        let g = Formula::atom(b).implies(Formula::True);
        assert_eq!(g.display_with(&interp), "(token-at-r ⇒ true)");
        let h = Formula::And(vec![]);
        assert_eq!(h.display_with(&interp), "true");
        let i = Formula::Or(vec![]);
        assert_eq!(i.display_with(&interp), "false");
        let j = Formula::sure(p, Formula::atom(b));
        assert!(j.display_with(&interp).starts_with("Sure"));
        let k = Formula::common(Formula::atom(b)).iff(Formula::everyone(Formula::atom(b)));
        assert!(k.display_with(&interp).contains('C'));
        assert!(k.display_with(&interp).contains('E'));
    }

    use hpl_model::Computation;
}
