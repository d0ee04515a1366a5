//! The knowledge facts of §4.1 as an executable report.
//!
//! The paper lists twelve facts about `knows` (the S5-style axioms,
//! adapted to process sets) and proves Lemma 2
//! (`P knows ¬P knows b ≡ ¬P knows b`), "whose validity in other domains
//! has been questioned on philosophical grounds". [`check_knowledge_facts`]
//! verifies all of them exhaustively on a universe, for every predicate
//! and every process set supplied, and returns a per-fact report — used by
//! the test suites and the `repro` reproduction binary.

use crate::eval::Evaluator;
use crate::formula::Formula;
use hpl_model::ProcessSet;

/// Result of checking one fact.
#[derive(Clone, Debug)]
pub struct FactResult {
    /// Short identifier, e.g. `"K4: knowledge implies truth"`.
    pub name: String,
    /// Number of instantiations checked.
    pub checks: usize,
    /// Description of the first counterexample, if any.
    pub counterexample: Option<String>,
}

impl FactResult {
    /// Did every instantiation pass?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// Report over all knowledge facts.
#[derive(Clone, Debug, Default)]
pub struct AxiomReport {
    /// Per-fact outcomes.
    pub facts: Vec<FactResult>,
}

impl AxiomReport {
    /// Did every fact pass?
    #[must_use]
    pub fn passed(&self) -> bool {
        self.facts.iter().all(FactResult::passed)
    }

    /// Total instantiations checked.
    #[must_use]
    pub fn total_checks(&self) -> usize {
        self.facts.iter().map(|f| f.checks).sum()
    }

    /// A compact multi-line rendering.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.facts {
            out.push_str(&format!(
                "{} [{} checks] {}\n",
                if f.passed() { "PASS" } else { "FAIL" },
                f.checks,
                f.name
            ));
            if let Some(ce) = &f.counterexample {
                out.push_str(&format!("      counterexample: {ce}\n"));
            }
        }
        out
    }
}

/// Checks that two formulas have the same satisfaction set; returns the
/// first differing computation.
fn equal_sets(eval: &mut Evaluator<'_>, name: &str, lhs: &Formula, rhs: &Formula) -> FactResult {
    let a = eval.sat_set(lhs);
    let b = eval.sat_set(rhs);
    let n = eval.universe().len();
    let mut counterexample = None;
    for i in 0..n {
        if a.contains(i) != b.contains(i) {
            counterexample = Some(format!("differ at c{i}"));
            break;
        }
    }
    FactResult {
        name: name.to_owned(),
        checks: n,
        counterexample,
    }
}

/// Checks `lhs ⇒ rhs` setwise.
fn implies_sets(eval: &mut Evaluator<'_>, name: &str, lhs: &Formula, rhs: &Formula) -> FactResult {
    let a = eval.sat_set(lhs);
    let b = eval.sat_set(rhs);
    let n = eval.universe().len();
    let mut counterexample = None;
    for i in 0..n {
        if a.contains(i) && !b.contains(i) {
            counterexample = Some(format!("lhs holds, rhs fails at c{i}"));
            break;
        }
    }
    FactResult {
        name: name.to_owned(),
        checks: n,
        counterexample,
    }
}

/// Verifies knowledge facts 1–12 of §4.1 (including Lemma 2 as fact 11)
/// for every `b, b'` in `predicates` and every `P, Q` in `sets`.
pub fn check_knowledge_facts(
    eval: &mut Evaluator<'_>,
    predicates: &[Formula],
    sets: &[ProcessSet],
) -> AxiomReport {
    let mut report = AxiomReport::default();

    for &p in sets {
        for b in predicates {
            let kb = Formula::knows(p, b.clone());

            // Fact 1&2: (P knows b) is [P]-class-invariant:
            // P knows b ≡ P knows P knows b covers it semantically (fact 10)
            // but we also check invariance directly below via fact 2.
            {
                let classes = eval.iso().classes(p);
                let sat = eval.sat_set(&kb);
                // classes are checked in index order up to the first mixed one
                let mixed = classes.first_mixed(&sat);
                report.facts.push(FactResult {
                    name: format!("K1/K2: x[P]y ⇒ (P knows b at x ≡ at y)  [P={p}]"),
                    checks: mixed.map_or(classes.class_count(), |class| class + 1),
                    counterexample: mixed
                        .map(|class| format!("K{p} not class-invariant on class {class}")),
                });
            }

            // Fact 4: (P knows b) ⇒ b.
            report.facts.push(implies_sets(
                eval,
                &format!("K4: knowledge implies truth [P={p}]"),
                &kb,
                b,
            ));

            // Fact 5: (P knows b) ∨ ¬(P knows b) — totality.
            report.facts.push(equal_sets(
                eval,
                &format!("K5: excluded middle on knows [P={p}]"),
                &kb.clone().or(kb.clone().not()),
                &Formula::True,
            ));

            // Fact 8: P knows ¬b ⇒ ¬P knows b.
            report.facts.push(implies_sets(
                eval,
                &format!("K8: knows-not implies not-knows [P={p}]"),
                &Formula::knows(p, b.clone().not()),
                &kb.clone().not(),
            ));

            // Fact 10: P knows P knows b ≡ P knows b (positive introspection).
            report.facts.push(equal_sets(
                eval,
                &format!("K10: positive introspection [P={p}]"),
                &Formula::knows(p, kb.clone()),
                &kb,
            ));

            // Fact 11 / Lemma 2: P knows ¬P knows b ≡ ¬P knows b
            // (negative introspection).
            report.facts.push(equal_sets(
                eval,
                &format!("K11/Lemma 2: negative introspection [P={p}]"),
                &Formula::knows(p, kb.clone().not()),
                &kb.clone().not(),
            ));

            // Fact 3: (P knows b) ⇒ (P∪Q knows b), for all Q.
            for &q in sets {
                report.facts.push(implies_sets(
                    eval,
                    &format!("K3: monotone in the process set [P={p}, Q={q}]"),
                    &kb,
                    &Formula::knows(p.union(q), b.clone()),
                ));
            }

            // Facts 6, 7, 9 over pairs of predicates.
            for b2 in predicates {
                let kb2 = Formula::knows(p, b2.clone());
                // Fact 6: (P knows b) ∧ (P knows b') ≡ P knows (b ∧ b').
                report.facts.push(equal_sets(
                    eval,
                    &format!("K6: conjunction distributes [P={p}]"),
                    &kb.clone().and(kb2.clone()),
                    &Formula::knows(p, b.clone().and(b2.clone())),
                ));
                // Fact 7: (P knows b) ∨ (P knows b') ⇒ P knows (b ∨ b').
                report.facts.push(implies_sets(
                    eval,
                    &format!("K7: disjunction half-distributes [P={p}]"),
                    &kb.clone().or(kb2.clone()),
                    &Formula::knows(p, b.clone().or(b2.clone())),
                ));
                // Fact 9: (P knows b) ∧ (b ⇒ b' valid) ⇒ P knows b'.
                let b_implies_b2 = {
                    let sa = eval.sat_set(b);
                    let sb = eval.sat_set(b2);
                    sa.is_subset(&sb)
                };
                if b_implies_b2 {
                    report.facts.push(implies_sets(
                        eval,
                        &format!("K9: consequence closure [P={p}]"),
                        &kb,
                        &kb2,
                    ));
                }
            }
        }

        // Fact 12: P knows c for constant c (checked for True and False
        // restricted to nonempty/<empty> sat accordingly).
        report.facts.push(equal_sets(
            eval,
            &format!("K12: constants are known [P={p}]"),
            &Formula::knows(p, Formula::True),
            &Formula::True,
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::{enumerate, EnumerationLimits, LocalView, ProtoAction, Protocol};
    use crate::formula::Interpretation;
    use crate::universe::Universe;
    use hpl_model::{ActionId, ProcessId};

    /// Two processes exchanging one message each way, with an internal
    /// coin flip on p0 first — a small but epistemically rich system.
    struct Coin;

    impl Protocol for Coin {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            if p.index() == 0 && view.is_empty() {
                vec![
                    ProtoAction::Internal {
                        action: ActionId::new(0),
                    },
                    ProtoAction::Internal {
                        action: ActionId::new(1),
                    },
                ]
            } else if p.index() == 0 && view.len() == 1 {
                vec![ProtoAction::Send {
                    to: ProcessId::new(1),
                    payload: 0,
                }]
            } else {
                vec![]
            }
        }
    }

    fn coin_universe() -> (Universe, Interpretation) {
        let pu = enumerate(&Coin, EnumerationLimits::depth(4)).unwrap();
        let mut interp = Interpretation::new();
        interp.register("heads", |c| {
            c.iter()
                .any(|e| matches!(e.kind(), hpl_model::EventKind::Internal { action } if action.tag() == 0))
        });
        interp.register("sent", |c| c.sends() > 0);
        (pu.universe().clone(), interp)
    }

    #[test]
    fn all_knowledge_facts_hold() {
        let (u, interp) = coin_universe();
        let mut ev = Evaluator::new(&u, &interp);
        let predicates = vec![
            Formula::atom_raw(0),
            Formula::atom_raw(1),
            Formula::atom_raw(0).not(),
        ];
        let sets = vec![
            ProcessSet::singleton(ProcessId::new(0)),
            ProcessSet::singleton(ProcessId::new(1)),
            ProcessSet::full(2),
        ];
        let report = check_knowledge_facts(&mut ev, &predicates, &sets);
        assert!(report.passed(), "\n{}", report.render());
        assert!(report.total_checks() > 100);
        assert!(report.render().contains("PASS"));
    }

    #[test]
    fn report_detects_deliberate_violation() {
        // Sanity: feed a broken "knows" claim through implies_sets to
        // confirm counterexamples are caught (b does NOT imply K b).
        let (u, interp) = coin_universe();
        let mut ev = Evaluator::new(&u, &interp);
        let b = Formula::atom_raw(0);
        let q = ProcessSet::singleton(ProcessId::new(1));
        let bogus = implies_sets(
            &mut ev,
            "bogus: truth implies knowledge",
            &b,
            &Formula::knows(q, b.clone()),
        );
        assert!(!bogus.passed());
        let report = AxiomReport { facts: vec![bogus] };
        assert!(!report.passed());
        assert!(report.render().contains("FAIL"));
        assert!(report.render().contains("counterexample"));
    }
}
