//! Integration property tests: the paper's theorems over random
//! computations and enumerated protocols, across crate boundaries.

use hpl_bench::random_computation;
use hpl_core::{decompose, fuse_theorem2, Decomposition, Evaluator, Formula, Interpretation};
use hpl_model::{ComputationBuilder, MessageId, ProcessId, ProcessSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1 with longer chains and 4 processes than the unit tests.
    #[test]
    fn theorem1_dichotomy_wide(
        seed in 0u64..500,
        steps in 4usize..24,
        cut_frac in 0usize..4,
        nsets in 1usize..5,
    ) {
        let z = random_computation(4, steps, seed);
        let cut = (z.len() * cut_frac) / 4;
        let x = z.prefix(cut);
        let sets: Vec<ProcessSet> = (0..nsets)
            .map(|i| ProcessSet::from_indices([(seed as usize + i) % 4]))
            .collect();
        let chain_exists = hpl_model::has_chain(&z, cut, &sets);
        match decompose(&x, &z, &sets).unwrap() {
            Decomposition::Path(p) => prop_assert!(p.verify(&x, &z, &sets)),
            Decomposition::Chain(w) => {
                prop_assert!(w.verify(&z, cut, &sets));
                prop_assert!(chain_exists);
            }
        }
        if !chain_exists {
            prop_assert!(decompose(&x, &z, &sets).unwrap().is_path());
        }
    }

    /// Theorem 2's fused computation always embeds back: fusing with the
    /// full set or the empty set reproduces y or z exactly.
    #[test]
    fn fusion_degenerate_identities(seed in 0u64..200, steps in 0usize..12) {
        let x = random_computation(3, 4, seed);
        let y = extend(&x, steps, seed.wrapping_add(1), 1_000);
        let z = extend(&x, steps, seed.wrapping_add(2), 2_000);
        let d = ProcessSet::full(3);
        // P = D keeps all of y (chain ⟨∅ …⟩ cannot exist)
        let w = fuse_theorem2(&x, &y, &z, d).unwrap();
        prop_assert!(y.agrees_on(&w, d));
        // P = ∅ keeps all of z
        let w2 = fuse_theorem2(&x, &y, &z, ProcessSet::EMPTY).unwrap();
        prop_assert!(z.agrees_on(&w2, d));
    }

    /// Knowledge implies truth (axiom K4) on universes built from random
    /// computation prefixes.
    #[test]
    fn knowledge_implies_truth_on_random_universes(seed in 0u64..100, steps in 1usize..14) {
        let z = random_computation(3, steps, seed);
        let mut universe = hpl_core::Universe::new(3);
        for pfx in z.prefixes() {
            universe.insert(pfx).unwrap();
        }
        let mut interp = Interpretation::new();
        let busy = interp.register("busy", |c| c.sends() >= 2);
        let mut eval = Evaluator::new(&universe, &interp);
        for pi in 0..3 {
            let k = Formula::knows(
                ProcessSet::from_indices([pi]),
                Formula::atom(busy),
            );
            let ks = eval.sat_set(&k);
            let bs = eval.sat_set(&Formula::atom(busy));
            prop_assert!(ks.is_subset(&bs), "K ⊆ ⟦b⟧ must hold");
        }
    }
}

fn extend(
    x: &hpl_model::Computation,
    steps: usize,
    seed: u64,
    id_base: usize,
) -> hpl_model::Computation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ComputationBuilder::with_id_offsets(x.system_size(), id_base, id_base);
    let n = x.system_size();
    let mut in_flight: Vec<(ProcessId, MessageId)> = Vec::new();
    for _ in 0..steps {
        match rng.random_range(0..3) {
            0 => {
                let from = ProcessId::new(rng.random_range(0..n));
                let to = ProcessId::new(rng.random_range(0..n));
                let m = b.send(from, to).unwrap();
                in_flight.push((to, m));
            }
            1 if !in_flight.is_empty() => {
                let k = rng.random_range(0..in_flight.len());
                let (to, m) = in_flight.remove(k);
                b.receive(to, m).unwrap();
            }
            _ => {
                b.internal(ProcessId::new(rng.random_range(0..n))).unwrap();
            }
        }
    }
    x.extended(b.finish().events().iter().copied()).unwrap()
}

/// Theorem 5 checked against an enumerated protocol from the protocols
/// crate (cross-crate: enumeration + evaluator + chain detection).
#[test]
fn theorem5_on_the_token_bus() {
    let pu = hpl_protocols::token_bus::universe(3, 6).expect("within budget");
    let mut interp = Interpretation::new();
    let left = Formula::atom(interp.register("token-left-p0", |c| {
        c.iter().any(|e| e.is_on(ProcessId::new(0)) && e.is_send())
    }));
    let mut eval = Evaluator::new(pu.universe(), &interp);
    for target in [1usize, 2] {
        let sets = vec![ProcessSet::from_indices([target])];
        let report = hpl_core::transfer::check_theorem5_gain(&mut eval, &sets, &left);
        assert!(report.passed(), "{:?}", report.violations);
        assert!(report.antecedent_hits > 0, "p{target} does gain knowledge");
    }
}
