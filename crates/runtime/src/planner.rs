//! The query planner: constant folding, common-subformula
//! deduplication, and quotient-vs-full selection per subtree.
//!
//! A [`QueryPlan`] holds the constant-folded root and, as a diagnostic
//! view, the **distinct** subformulas of that root (children before
//! parents). [`execute`] evaluates the root with one
//! [`Evaluator::try_sat_set`] call: the evaluator's memo computes each
//! distinct subformula once no matter how often it occurs, and an
//! attached [`SatCache`](hpl_core::SatCache) answers a repeated query
//! with one lookup. On quotient snapshots each step also carries its
//! soundness verdict ([`classify_subformulas`]), so the plan records in
//! advance which subtrees stay on the quotient fast path and which will
//! take the policy fallback (orbit expansion under
//! [`QuotientPolicy::Expand`](hpl_core::QuotientPolicy::Expand), typed
//! rejection under
//! [`QuotientPolicy::Reject`](hpl_core::QuotientPolicy::Reject)).
//!
//! Every folding rule is a semantic identity of the paper's operators
//! over finite universes — notably `K_P(false) = false` because every
//! `[P]`-class contains its own base computation, and
//! `Sure_P(const) = true` because `sure` is `K(b) ∨ K(¬b)` (§4.2).
//! Plans therefore evaluate pointwise-equal to naive recursion on the
//! unfolded formula (certified by the `planner_soundness` suite).

use hpl_core::soundness::classify_subformulas;
use hpl_core::{CompSet, CoreError, Evaluator, Formula, Interpretation, Invariance};
use hpl_model::Permutation;

/// How one plan step evaluates on the snapshot it was planned for.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SubtreeMode {
    /// Plain (non-quotient) snapshot: direct evaluation, no contract.
    Direct,
    /// Sound on the quotient fast path (the checker classified the
    /// subtree [`Invariance::Invariant`] or
    /// [`Invariance::ExactAtRepresentatives`]).
    Quotient,
    /// Out of the quotient contract: this subtree takes the policy
    /// fallback — exact orbit expansion under `Expand`, a typed
    /// rejection under `Reject`.
    Fallback,
}

/// One distinct subformula of a plan and the evaluation mode the
/// planner selected for it.
#[derive(Clone, Debug)]
pub struct PlanStep {
    /// The subformula this step computes the satisfaction set of.
    pub formula: Formula,
    /// The selected evaluation mode.
    pub mode: SubtreeMode,
}

/// Summary counters of what planning did, reported per query in
/// [`QueryResponse::plan`](crate::QueryResponse::plan), printed by
/// `repro serve` and summed into the benchmark's `planner.*` metrics.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PlanStats {
    /// Nodes in the formula as submitted.
    pub nodes: usize,
    /// Nodes removed by constant folding.
    pub folded: usize,
    /// Distinct subformulas (the number of plan steps).
    pub unique: usize,
    /// Duplicate occurrences eliminated by common-subformula dedup
    /// (post-fold nodes minus distinct subformulas).
    pub deduped: usize,
    /// Steps staying on the quotient fast path.
    pub quotient_steps: usize,
    /// Steps that will take the quotient-policy fallback.
    pub fallback_steps: usize,
}

/// A planned query: the folded root, its distinct subformulas, and the
/// planning counters.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    root: Formula,
    steps: Vec<PlanStep>,
    stats: PlanStats,
}

impl QueryPlan {
    /// The constant-folded root formula. Two submitted formulas that
    /// fold to the same root are the same query — the admission layer
    /// keys in-flight coalescing on this.
    #[must_use]
    pub fn root(&self) -> &Formula {
        &self.root
    }

    /// The distinct subformulas with their evaluation modes (children
    /// before parents, root last) — the work [`execute`] does on a cold
    /// evaluator.
    #[must_use]
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Planning counters.
    #[must_use]
    pub fn stats(&self) -> PlanStats {
        self.stats
    }
}

/// Plans `f` for a snapshot: folds constants, lists the distinct
/// subformulas, and — when `generators`
/// describe the snapshot's symmetry group — selects quotient-vs-full
/// per subtree with the soundness classifier. Pass `None` for plain
/// (non-quotient) snapshots.
#[must_use]
pub fn plan(f: &Formula, interp: &Interpretation, generators: Option<&[Permutation]>) -> QueryPlan {
    let submitted = node_count(f);
    let root = fold(f);
    let kept = node_count(&root);
    let classified = classify_subformulas(&root, interp, generators.unwrap_or(&[]));
    let steps: Vec<PlanStep> = classified
        .into_iter()
        .map(|(formula, verdict)| PlanStep {
            formula,
            mode: match (generators, verdict) {
                (None, _) => SubtreeMode::Direct,
                (Some(_), Invariance::OutOfContract(_)) => SubtreeMode::Fallback,
                (Some(_), _) => SubtreeMode::Quotient,
            },
        })
        .collect();
    let stats = PlanStats {
        nodes: submitted,
        folded: submitted - kept,
        unique: steps.len(),
        deduped: kept - steps.len(),
        quotient_steps: steps
            .iter()
            .filter(|s| s.mode == SubtreeMode::Quotient)
            .count(),
        fallback_steps: steps
            .iter()
            .filter(|s| s.mode == SubtreeMode::Fallback)
            .count(),
    };
    // fold the per-plan counters into the global recorder — the one
    // aggregated reporting path; `PlanStats` stays the per-query view
    if hpl_telemetry::enabled() {
        hpl_telemetry::counter_add("plan.nodes", stats.nodes as u64);
        hpl_telemetry::counter_add("plan.folded", stats.folded as u64);
        hpl_telemetry::counter_add("plan.deduped", stats.deduped as u64);
        hpl_telemetry::counter_add("plan.quotient_steps", stats.quotient_steps as u64);
        hpl_telemetry::counter_add("plan.fallback_steps", stats.fallback_steps as u64);
    }
    QueryPlan { root, steps, stats }
}

/// Executes a plan against an evaluator: one
/// [`try_sat_set`](Evaluator::try_sat_set) on the folded root, whose
/// recursion computes each distinct subformula once through the
/// evaluator's memo.
///
/// # Errors
///
/// Propagates [`CoreError::QuotientUnsound`] under
/// [`QuotientPolicy::Reject`](hpl_core::QuotientPolicy::Reject) when
/// the plan has a fallback step; infallible for every other
/// configuration.
pub fn execute(plan: &QueryPlan, eval: &mut Evaluator<'_>) -> Result<CompSet, CoreError> {
    eval.try_sat_set(plan.root())
}

/// Total node count of a formula (duplicates included).
fn node_count(f: &Formula) -> usize {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => 1,
        Formula::Not(g)
        | Formula::Knows(_, g)
        | Formula::Sure(_, g)
        | Formula::Everyone(g)
        | Formula::Common(g) => 1 + node_count(g),
        Formula::And(gs) | Formula::Or(gs) => 1 + gs.iter().map(node_count).sum::<usize>(),
        Formula::Implies(a, b) | Formula::Iff(a, b) => 1 + node_count(a) + node_count(b),
    }
}

/// Constant-folds a formula. Every rule is a semantic identity over
/// finite universes (see the module docs); the result never contains
/// `true`/`false` except as the whole formula.
#[must_use]
pub fn fold(f: &Formula) -> Formula {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => f.clone(),
        Formula::Not(g) => match fold(g) {
            Formula::True => Formula::False,
            Formula::False => Formula::True,
            // double negation
            Formula::Not(h) => *h,
            h => Formula::Not(Box::new(h)),
        },
        Formula::And(gs) => {
            let mut kept = Vec::new();
            for g in gs {
                match fold(g) {
                    Formula::True => {}
                    Formula::False => return Formula::False,
                    h => kept.push(h),
                }
            }
            match kept.len() {
                0 => Formula::True,
                1 => kept.pop().expect("len checked"),
                _ => Formula::And(kept),
            }
        }
        Formula::Or(gs) => {
            let mut kept = Vec::new();
            for g in gs {
                match fold(g) {
                    Formula::False => {}
                    Formula::True => return Formula::True,
                    h => kept.push(h),
                }
            }
            match kept.len() {
                0 => Formula::False,
                1 => kept.pop().expect("len checked"),
                _ => Formula::Or(kept),
            }
        }
        Formula::Implies(a, b) => match (fold(a), fold(b)) {
            (Formula::False, _) | (_, Formula::True) => Formula::True,
            (Formula::True, h) => h,
            (h, Formula::False) => fold(&Formula::Not(Box::new(h))),
            (ha, hb) => Formula::Implies(Box::new(ha), Box::new(hb)),
        },
        Formula::Iff(a, b) => match (fold(a), fold(b)) {
            (Formula::True, h) | (h, Formula::True) => h,
            (Formula::False, h) | (h, Formula::False) => fold(&Formula::Not(Box::new(h))),
            (ha, hb) => Formula::Iff(Box::new(ha), Box::new(hb)),
        },
        // K_P(true) = true; K_P(false) = false — every [P]-class
        // contains its own base computation, so the quantifier is
        // never vacuous.
        Formula::Knows(p, g) => match fold(g) {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            h => Formula::Knows(*p, Box::new(h)),
        },
        // Sure_P(b) = K_P(b) ∨ K_P(¬b): true for either constant.
        Formula::Sure(p, g) => match fold(g) {
            Formula::True | Formula::False => Formula::True,
            h => Formula::Sure(*p, Box::new(h)),
        },
        Formula::Everyone(g) => match fold(g) {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            h => Formula::Everyone(Box::new(h)),
        },
        Formula::Common(g) => match fold(g) {
            Formula::True => Formula::True,
            Formula::False => Formula::False,
            h => Formula::Common(Box::new(h)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::ProcessSet;

    fn atoms() -> (Interpretation, Formula, Formula) {
        let mut interp = Interpretation::new();
        let a = Formula::atom(interp.register("a", |c| c.sends() > 0));
        let b = Formula::atom(interp.register("b", |c| c.receives() > 0));
        (interp, a, b)
    }

    #[test]
    fn folding_collapses_constants() {
        let (_, a, b) = atoms();
        let p = ProcessSet::from_indices([0]);
        assert_eq!(fold(&Formula::True.and(a.clone())), a);
        assert_eq!(fold(&Formula::False.and(a.clone())), Formula::False);
        assert_eq!(fold(&Formula::False.or(b.clone())), b);
        assert_eq!(fold(&a.clone().not().not()), a);
        assert_eq!(
            fold(&Formula::knows(p, Formula::False)),
            Formula::False,
            "K_P(false) is false: classes are never empty"
        );
        assert_eq!(fold(&Formula::sure(p, Formula::False)), Formula::True);
        assert_eq!(fold(&Formula::common(Formula::True)), Formula::True);
        assert_eq!(fold(&Formula::False.implies(a.clone())), Formula::True);
        assert_eq!(fold(&a.clone().implies(Formula::False)), a.clone().not());
        assert_eq!(fold(&a.clone().iff(Formula::False)), a.clone().not());
        // nested: K_P(a & true) folds inside the operator
        let nested = Formula::knows(p, Formula::True.and(a.clone()));
        assert_eq!(fold(&nested), Formula::knows(p, a));
    }

    #[test]
    fn schedule_is_bottom_up_and_deduplicated() {
        let (interp, a, b) = atoms();
        let shared = a.clone().and(b.clone());
        // (a & b) | !(a & b): the conjunction appears twice, scheduled once
        let f = shared.clone().or(shared.clone().not());
        let plan = plan(&f, &interp, None);
        assert_eq!(plan.stats().deduped, 3, "a, b and (a & b) each recur once");
        let steps: Vec<&Formula> = plan.steps().iter().map(|s| &s.formula).collect();
        let pos = |g: &Formula| steps.iter().position(|s| *s == g).expect("scheduled");
        assert!(pos(&a) < pos(&shared));
        assert!(pos(&b) < pos(&shared));
        assert_eq!(steps.last(), Some(&plan.root()), "root is last");
        assert!(plan.steps().iter().all(|s| s.mode == SubtreeMode::Direct));
    }

    #[test]
    fn stats_count_folded_nodes() {
        let (interp, a, _) = atoms();
        let f = Formula::True.and(a.clone()).and(Formula::True);
        let p = plan(&f, &interp, None);
        assert_eq!(p.root(), &a);
        assert_eq!(p.stats().nodes, 5);
        assert_eq!(p.stats().folded, 4);
        assert_eq!(p.stats().unique, 1);
    }
}
