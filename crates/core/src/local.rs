//! Local predicates, `sure`/`unsure`, Lemma 3 and the common-knowledge
//! corollaries (paper §4.2).
//!
//! * `(P sure b) at x ≜ (P knows b) at x ∨ (P knows ¬b) at x`
//! * `b` is **local to** `P` iff `P sure b` at every computation.
//! * **Lemma 3.** `b` local to disjoint `P` and `Q` ⇒ `b` is constant.
//! * **Corollary.** In a system with more than one process, *`b` is
//!   common knowledge* is a constant — common knowledge can be neither
//!   gained nor lost.
//! * **Corollary.** Disjoint `P, Q` with identical knowledge of `b`
//!   (`P knows b ≡ Q knows b`) ⇒ that knowledge is constant.
//!
//! The checkers are exhaustive over a universe. The common-knowledge
//! corollary holds on every *prefix-closed* universe with ≥ 2 processes
//! (removing a last event on `p` is a `[D − p]`-step, so the
//! `⋃ₚ [p]`-graph is connected), matching the paper's model assumptions.

use crate::axioms::{AxiomReport, FactResult};
use crate::eval::Evaluator;
use crate::formula::Formula;
use hpl_model::ProcessSet;

/// Is `b` local to `P` on this universe (`P sure b` everywhere)?
pub fn is_local(eval: &mut Evaluator<'_>, p: ProcessSet, b: &Formula) -> bool {
    eval.holds_everywhere(&Formula::sure(p, b.clone()))
}

/// Lemma 3: if `b` is local to disjoint `P` and `Q`, then `b` is constant
/// on the universe. Returns `None` if the hypothesis fails (not local or
/// not disjoint), `Some(result)` otherwise.
pub fn check_lemma3(
    eval: &mut Evaluator<'_>,
    p: ProcessSet,
    q: ProcessSet,
    b: &Formula,
) -> Option<FactResult> {
    if !p.is_disjoint(q) || !is_local(eval, p, b) || !is_local(eval, q, b) {
        return None;
    }
    let constant = eval.is_constant(b);
    Some(FactResult {
        name: format!("Lemma 3: local to disjoint {p},{q} ⇒ constant"),
        checks: eval.universe().len(),
        counterexample: if constant {
            None
        } else {
            Some("predicate is local to both yet varies".to_owned())
        },
    })
}

/// The local-predicate facts 1–8 of §4.2, checked for each predicate and
/// process-set pair supplied.
pub fn check_local_facts(
    eval: &mut Evaluator<'_>,
    predicates: &[Formula],
    sets: &[ProcessSet],
) -> AxiomReport {
    let mut report = AxiomReport::default();

    for &p in sets {
        for b in predicates {
            let local = is_local(eval, p, b);

            // Fact 1: (b local to P ∧ x[P]y) ⇒ (b at x ≡ b at y).
            if local {
                let classes = eval.iso().classes(p);
                let sat = eval.sat_set(b);
                report.facts.push(FactResult {
                    name: format!("LP1: local predicate is [P]-invariant [P={p}]"),
                    checks: classes.class_count(),
                    counterexample: classes
                        .first_mixed(&sat)
                        .map(|class| format!("class {class} mixes values")),
                });

                // Fact 2: b local to P ⇒ (b ≡ P knows b).
                let kb = Formula::knows(p, b.clone());
                let sb = eval.sat_set(b);
                let skb = eval.sat_set(&kb);
                report.facts.push(FactResult {
                    name: format!("LP2: local ⇒ (b ≡ P knows b) [P={p}]"),
                    checks: eval.universe().len(),
                    counterexample: if sb == skb {
                        None
                    } else {
                        Some("b and P-knows-b differ".to_owned())
                    },
                });

                // Fact 3: (¬b) local to P too.
                report.facts.push(FactResult {
                    name: format!("LP3: locality closed under negation [P={p}]"),
                    checks: eval.universe().len(),
                    counterexample: if is_local(eval, p, &b.clone().not()) {
                        None
                    } else {
                        Some("¬b not local".to_owned())
                    },
                });

                // Fact 4: ∀Q: Q knows b ≡ Q knows P knows b.
                for &q in sets {
                    let lhs = Formula::knows(q, b.clone());
                    let rhs = Formula::knows(q, Formula::knows(p, b.clone()));
                    let sl = eval.sat_set(&lhs);
                    let sr = eval.sat_set(&rhs);
                    report.facts.push(FactResult {
                        name: format!("LP4: Q knows b ≡ Q knows P knows b [P={p}, Q={q}]"),
                        checks: eval.universe().len(),
                        counterexample: if sl == sr {
                            None
                        } else {
                            Some("sets differ".to_owned())
                        },
                    });
                }
            }

            // Fact 5: (P knows b) is local to P — always.
            report.facts.push(FactResult {
                name: format!("LP5: (P knows b) is local to P [P={p}]"),
                checks: eval.universe().len(),
                counterexample: if is_local(eval, p, &Formula::knows(p, b.clone())) {
                    None
                } else {
                    Some("P knows b not local to P".to_owned())
                },
            });

            // Fact 8: (P sure b) is local to P — always.
            report.facts.push(FactResult {
                name: format!("LP8: (P sure b) is local to P [P={p}]"),
                checks: eval.universe().len(),
                counterexample: if is_local(eval, p, &Formula::sure(p, b.clone())) {
                    None
                } else {
                    Some("P sure b not local to P".to_owned())
                },
            });
        }

        // Fact 7: constants are local to every P.
        report.facts.push(FactResult {
            name: format!("LP7: constants are local [P={p}]"),
            checks: 2,
            counterexample: if is_local(eval, p, &Formula::True)
                && is_local(eval, p, &Formula::False)
            {
                None
            } else {
                Some("True/False not local".to_owned())
            },
        });
    }

    // Fact 6 = Lemma 3, for every disjoint pair.
    for &p in sets {
        for &q in sets {
            if !p.is_disjoint(q) || p.is_empty() || q.is_empty() {
                continue;
            }
            for b in predicates {
                if let Some(r) = check_lemma3(eval, p, q, b) {
                    report.facts.push(r);
                }
            }
        }
    }

    report
}

/// Corollary to Lemma 3: for any predicate `b`, *`b` is common knowledge*
/// is a constant (on a prefix-closed universe with ≥ 2 processes).
pub fn check_common_knowledge_constant(
    eval: &mut Evaluator<'_>,
    predicates: &[Formula],
) -> AxiomReport {
    let mut report = AxiomReport::default();
    assert!(
        eval.universe().system_size() >= 2,
        "the corollary needs more than one process"
    );
    for b in predicates {
        let ck = Formula::common(b.clone());
        let constant = eval.is_constant(&ck);
        report.facts.push(FactResult {
            name: "CK corollary: common knowledge is a constant".to_owned(),
            checks: eval.universe().len(),
            counterexample: if constant {
                None
            } else {
                Some("common knowledge varies across the universe".to_owned())
            },
        });

        // The gfp unfolding: C b ≡ b ∧ E (C b).
        let unfold = b.clone().and(Formula::everyone(ck.clone()));
        let s1 = eval.sat_set(&ck);
        let s2 = eval.sat_set(&unfold);
        report.facts.push(FactResult {
            name: "CK fixpoint: C b ≡ b ∧ E C b".to_owned(),
            checks: eval.universe().len(),
            counterexample: if s1 == s2 {
                None
            } else {
                Some("fixpoint equation violated".to_owned())
            },
        });
    }
    report
}

/// Corollary: if `P`, `Q` are disjoint and have identical knowledge of
/// `b` on this universe (`P knows b ≡ Q knows b`), then `P knows b` is a
/// constant. Returns `None` when the hypothesis fails.
pub fn check_identical_knowledge_constant(
    eval: &mut Evaluator<'_>,
    p: ProcessSet,
    q: ProcessSet,
    b: &Formula,
) -> Option<FactResult> {
    if !p.is_disjoint(q) {
        return None;
    }
    let kp = Formula::knows(p, b.clone());
    let kq = Formula::knows(q, b.clone());
    let sp = eval.sat_set(&kp);
    let sq = eval.sat_set(&kq);
    if sp != sq {
        return None;
    }
    let constant = eval.is_constant(&kp);
    Some(FactResult {
        name: format!("identical knowledge of disjoint {p},{q} is constant"),
        checks: eval.universe().len(),
        counterexample: if constant {
            None
        } else {
            Some("identical knowledge varies".to_owned())
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate, EnumerationLimits, LocalView, ProtoAction, Protocol};
    use crate::formula::Interpretation;
    use hpl_model::{ActionId, ProcessId};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn ps(i: usize) -> ProcessSet {
        ProcessSet::singleton(pid(i))
    }

    /// p0 may toggle a bit and may tell p1 about it; p1 just listens.
    struct Owner;

    impl Protocol for Owner {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            if p.index() == 0 && view.len() < 2 {
                vec![
                    ProtoAction::Internal {
                        action: ActionId::new(1),
                    },
                    ProtoAction::Send {
                        to: pid(1),
                        payload: 3,
                    },
                ]
            } else {
                vec![]
            }
        }
    }

    fn setup() -> (crate::enumerate::ProtocolUniverse, Interpretation) {
        let pu = enumerate(&Owner, EnumerationLimits::depth(5)).unwrap();
        let mut interp = Interpretation::new();
        // parity of p0's toggles: local to p0
        interp.register("even", |c| {
            c.iter()
                .filter(|e| e.is_internal() && e.process().index() == 0)
                .count()
                % 2
                == 0
        });
        (pu, interp)
    }

    #[test]
    fn parity_is_local_to_owner_only() {
        let (pu, interp) = setup();
        let mut ev = Evaluator::new(pu.universe(), &interp);
        let b = Formula::atom_raw(0);
        assert!(is_local(&mut ev, ps(0), &b));
        assert!(!is_local(&mut ev, ps(1), &b));
        // locality is monotone in the set:
        assert!(is_local(&mut ev, ProcessSet::full(2), &b));
    }

    #[test]
    fn local_facts_hold() {
        let (pu, interp) = setup();
        let mut ev = Evaluator::new(pu.universe(), &interp);
        let predicates = vec![Formula::atom_raw(0), Formula::True];
        let sets = vec![ps(0), ps(1), ProcessSet::full(2)];
        let report = check_local_facts(&mut ev, &predicates, &sets);
        assert!(report.passed(), "\n{}", report.render());
    }

    #[test]
    fn lemma3_constant_for_constants_only() {
        let (pu, interp) = setup();
        let mut ev = Evaluator::new(pu.universe(), &interp);
        // True is local to both p0 and p1 (disjoint) and indeed constant.
        let r = check_lemma3(&mut ev, ps(0), ps(1), &Formula::True).unwrap();
        assert!(r.passed());
        // parity is local to p0 but NOT to p1 → hypothesis fails → None.
        assert!(check_lemma3(&mut ev, ps(0), ps(1), &Formula::atom_raw(0)).is_none());
        // non-disjoint sets → None.
        assert!(check_lemma3(&mut ev, ps(0), ps(0), &Formula::True).is_none());
    }

    #[test]
    fn common_knowledge_is_constant() {
        let (pu, interp) = setup();
        let mut ev = Evaluator::new(pu.universe(), &interp);
        let predicates = vec![
            Formula::atom_raw(0),
            Formula::atom_raw(0).not(),
            Formula::True,
            Formula::False,
        ];
        let report = check_common_knowledge_constant(&mut ev, &predicates);
        assert!(report.passed(), "\n{}", report.render());
        // and in particular CK of the non-constant parity is *nowhere*:
        let ck = Formula::common(Formula::atom_raw(0));
        let sat = ev.sat_set(&ck);
        assert!(sat.is_empty());
    }

    #[test]
    fn identical_knowledge_corollary() {
        let (pu, interp) = setup();
        let mut ev = Evaluator::new(pu.universe(), &interp);
        // For the constant True, both p0 and p1 know it everywhere:
        // identical and constant.
        let r = check_identical_knowledge_constant(&mut ev, ps(0), ps(1), &Formula::True).unwrap();
        assert!(r.passed());
        // For parity, knowledge differs (p0 knows, p1 mostly not): None.
        assert!(
            check_identical_knowledge_constant(&mut ev, ps(0), ps(1), &Formula::atom_raw(0))
                .is_none()
        );
    }
}
