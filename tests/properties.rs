//! Property suites over random `ComputationBuilder` traces: Theorem 1's
//! dichotomy is exhaustive and exclusive, and Lemma-1 fusion outputs
//! round-trip through full computation re-validation.

use hpl_bench::random_computation;
use hpl_core::{decompose, fuse_lemma1, Decomposition};
use hpl_model::{Computation, ComputationBuilder, MessageId, ProcessId, ProcessSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Extends `x` with `steps` random events confined to processes in
/// `allowed` (sends and receives stay within the set), so the extension
/// never touches the complementary side.
fn extend_within(
    x: &Computation,
    allowed: ProcessSet,
    steps: usize,
    seed: u64,
    id_base: usize,
) -> Computation {
    let members: Vec<usize> = allowed.iter().map(|p| p.index()).collect();
    if members.is_empty() {
        return x.clone();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = x.system_size();
    let mut b = ComputationBuilder::with_id_offsets(n, id_base, id_base);
    let mut in_flight: Vec<(ProcessId, MessageId)> = Vec::new();
    for _ in 0..steps {
        match rng.random_range(0..3) {
            0 => {
                let from = ProcessId::new(members[rng.random_range(0..members.len())]);
                let to = ProcessId::new(members[rng.random_range(0..members.len())]);
                let m = b.send(from, to).unwrap();
                in_flight.push((to, m));
            }
            1 if !in_flight.is_empty() => {
                let k = rng.random_range(0..in_flight.len());
                let (to, m) = in_flight.remove(k);
                b.receive(to, m).unwrap();
            }
            _ => {
                let p = ProcessId::new(members[rng.random_range(0..members.len())]);
                b.internal(p).unwrap();
            }
        }
    }
    x.extended(b.finish().events().iter().copied())
        .expect("within-set extension of a valid computation is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 1: `decompose` always returns exactly one witness — an iso
    /// path when no chain exists, a chain witness only when a chain
    /// exists — and whichever it returns verifies against the inputs.
    #[test]
    fn theorem1_returns_exactly_one_verified_witness(
        seed in 0u64..400,
        steps in 0usize..20,
        cut_num in 0usize..5,
        nsets in 1usize..4,
        set_seed in 0u64..60,
    ) {
        let n = 3;
        let z = random_computation(n, steps, seed);
        let cut = (z.len() * cut_num) / 5;
        let x = z.prefix(cut);
        let mut rng = StdRng::seed_from_u64(set_seed);
        let sets: Vec<ProcessSet> = (0..nsets)
            .map(|_| ProcessSet::from_bits(u128::from(rng.random_range(1u8..8))))
            .collect();

        let chain_exists = hpl_model::has_chain(&z, cut, &sets);
        // "never neither": decompose is total on prefixes
        let witness = decompose(&x, &z, &sets).unwrap();
        match witness {
            Decomposition::Path(p) => {
                prop_assert!(p.verify(&x, &z, &sets), "iso path must verify");
            }
            Decomposition::Chain(w) => {
                prop_assert!(w.verify(&z, cut, &sets), "chain witness must verify");
                prop_assert!(chain_exists, "a chain witness implies a chain exists");
            }
        }
        // "never both": when no chain exists, the answer must be a path —
        // a chain witness here would be a false positive
        if !chain_exists {
            prop_assert!(decompose(&x, &z, &sets).unwrap().is_path());
        }
    }

    /// Theorem 1 is reflexive at the degenerate cut: `x = z` always
    /// yields an isomorphism path (the empty suffix carries no chain).
    #[test]
    fn theorem1_trivial_cut_is_always_a_path(
        seed in 0u64..150,
        steps in 0usize..16,
        nsets in 1usize..4,
    ) {
        let z = random_computation(3, steps, seed);
        let sets: Vec<ProcessSet> = (0..nsets)
            .map(|i| ProcessSet::from_indices([i % 3]))
            .collect();
        let witness = decompose(&z, &z, &sets).unwrap();
        prop_assert!(witness.is_path(), "empty suffix cannot contain a chain");
    }

    /// Lemma-1 fusion round-trips: the fused result is itself a valid
    /// system computation (re-validating its event list reproduces it
    /// exactly), extends `x`, and agrees with each input on its side.
    #[test]
    fn fusion_lemma1_roundtrips_as_computation(
        seed in 0u64..200,
        steps_y in 0usize..10,
        steps_z in 0usize..10,
        pbits in 0u8..8,
    ) {
        let n = 3;
        let x = random_computation(n, 6, seed);
        let d = ProcessSet::full(n);
        let p = ProcessSet::from_bits(u128::from(pbits & 0b111));
        let q = p.complement(d);
        // y extends x on Q only, z extends x on P only — Lemma 1's
        // hypotheses x [P] y and x [Q] z hold by construction.
        let y = extend_within(&x, q, steps_y, seed.wrapping_add(1), 1_000);
        let z = extend_within(&x, p, steps_z, seed.wrapping_add(2), 2_000);

        let w = fuse_lemma1(&x, &y, &z, p, q).unwrap();

        // round-trip: w's event list re-validates into the same computation
        let revalidated =
            Computation::from_events(w.system_size(), w.events().to_vec()).unwrap();
        prop_assert_eq!(&revalidated, &w);

        prop_assert!(x.is_prefix_of(&w), "fusion must extend the common prefix");
        prop_assert!(y.agrees_on(&w, q), "w must carry y's Q-side");
        prop_assert!(z.agrees_on(&w, p), "w must carry z's P-side");
        // and nothing else: the fused length is exactly both suffixes over x
        let expect = y.len() + z.len() - x.len();
        prop_assert_eq!(w.len(), expect);
    }

    /// Fusion round-trips survive a second fusion: fusing `w` with itself
    /// over `x` is still valid and reproduces `w` (idempotence on the
    /// degenerate square).
    #[test]
    fn fusion_lemma1_degenerate_self_fusion(
        seed in 0u64..120,
        steps in 0usize..8,
    ) {
        let n = 2;
        let x = random_computation(n, 4, seed);
        let d = ProcessSet::full(n);
        let p = ProcessSet::from_indices([0]);
        let q = p.complement(d);
        let y = extend_within(&x, q, steps, seed.wrapping_add(9), 3_000);
        // z = x: the P-side adds nothing, so fusion must reproduce y.
        let w = fuse_lemma1(&x, &y, &x, p, q).unwrap();
        prop_assert_eq!(&w, &y);
    }
}
