//! Integration tests: the paper's headline claims, end to end.
//!
//! `every_claim_holds_at_the_small_preset` runs every row of the claims
//! table that the `repro` report prints, so the suite checks each claim
//! of Chandy & Misra (PODC 1985) that the report reproduces. The other
//! tests check single claims through the public API of the workspace
//! crates at other sizes.

use hpl_bench::claims::{Scale, CLAIMS};
use hpl_core::{Evaluator, Formula, Interpretation};
use hpl_model::ProcessSet;
use hpl_protocols::{failure, token_bus, tracking, two_generals};

#[test]
fn every_claim_holds_at_the_small_preset() {
    let refuted: Vec<String> = CLAIMS
        .iter()
        .filter_map(|claim| {
            let r = (claim.check)(Scale::Small).err()?;
            Some(format!("{} ({}): {r}", claim.name, claim.reference))
        })
        .collect();
    assert!(refuted.is_empty(), "refuted rows:\n{}", refuted.join("\n"));
}

#[test]
fn token_bus_nested_knowledge_claim() {
    let report = token_bus::verify_paper_claim(6).expect("within budget");
    assert!(
        report.verified(),
        "§4.1: r must know the flanking ignorance whenever it holds the token ({report:?})"
    );
}

#[test]
fn failure_detection_impossible_asynchronously() {
    let report = failure::verify_impossibility(2, 5).expect("within budget");
    assert!(
        report.verified(),
        "§5: the observer must stay unsure ({report:?})"
    );
}

#[test]
fn tracking_requires_unsureness_at_change() {
    let report = tracking::verify_unsure_at_change(2, 5).expect("within budget");
    assert!(
        report.verified(),
        "§5: owner must know tracker is unsure ({report:?})"
    );
    assert_eq!(report.tracker_sure_count, 0);
}

#[test]
fn common_knowledge_is_constant_for_the_generals() {
    let pu = two_generals::universe(2, 5).expect("within budget");
    let mut interp = Interpretation::new();
    let attack = two_generals::attack_atom(&mut interp);
    let mut eval = Evaluator::new(pu.universe(), &interp);
    assert!(two_generals::common_knowledge_impossible(
        &mut eval, &attack
    ));
    // while plain and nested knowledge ARE attainable
    let k1 = two_generals::nested(1, &attack);
    let sat = eval.sat_set(&k1);
    assert!(!sat.is_empty(), "g1 does learn of the attack");
}

#[test]
fn knowledge_axioms_hold_on_the_generals_universe() {
    let pu = two_generals::universe(2, 5).expect("within budget");
    let mut interp = Interpretation::new();
    let attack = two_generals::attack_atom(&mut interp);
    let mut eval = Evaluator::new(pu.universe(), &interp);
    let sets = vec![
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1]),
        ProcessSet::full(2),
    ];
    let predicates = vec![attack.clone(), attack.not()];
    let report = hpl_core::axioms::check_knowledge_facts(&mut eval, &predicates, &sets);
    assert!(report.passed(), "\n{}", report.render());
}

#[test]
fn local_predicate_facts_hold_on_the_toggler() {
    let pu = hpl_core::enumerate(
        &tracking::Toggler { max_toggles: 2 },
        hpl_core::EnumerationLimits::depth(5),
    )
    .expect("within budget");
    let mut interp = Interpretation::new();
    let bit = Formula::atom(interp.register("bit", tracking::bit));
    let mut eval = Evaluator::new(pu.universe(), &interp);
    let sets = vec![
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1]),
        ProcessSet::full(2),
    ];
    let report = hpl_core::local::check_local_facts(&mut eval, &[bit, Formula::True], &sets);
    assert!(report.passed(), "\n{}", report.render());
}

#[test]
fn predicates_respect_the_d_congruence() {
    // every atom used by the protocol layers must satisfy the paper's
    // well-formedness condition x [D] y ⇒ b(x) = b(y)
    let pu = token_bus::universe(3, 5).expect("within budget");
    let mut interp = Interpretation::new();
    let _ = token_bus::token_atoms(&mut interp, 3);
    assert!(interp.validate(pu.universe()).is_empty());

    let pu2 = two_generals::universe(2, 5).expect("within budget");
    let mut interp2 = Interpretation::new();
    let _ = two_generals::attack_atom(&mut interp2);
    assert!(interp2.validate(pu2.universe()).is_empty());
}
