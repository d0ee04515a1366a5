//! Correctness suite for the symmetry-quotient subsystem.
//!
//! Certifies the two contracts the quotient rests on:
//!
//! 1. **Canonical forms are permutation-invariant fixpoints** — for any
//!    computation `x` and declared group `G`, every relabeling `π·x`
//!    has the same canonical key, and that key is the minimum over the
//!    group of the structural signatures (proptests below).
//! 2. **Formula equivalence** — every formula in the corpus evaluates
//!    identically on the quotient universe (orbit-aware
//!    [`Evaluator::with_symmetry`]) and on the full universe, across
//!    seeds × shard counts {1, 2, 8}, and the orbit multiplicities
//!    expand quotient satisfaction counts to exact full-universe counts.
//!
//! The corpus follows the soundness contract **enforced** by
//! [`Evaluator::with_symmetry`]: atoms declared invariant under the
//! group (and interleaving-invariant per the paper); nested `knows`
//! only over group-stabilized process sets; `Everyone`/`Common` nested
//! freely; arbitrary `knows` only outermost. Since PR 5 the contract is
//! checked, not documented: the grid additionally certifies that the
//! soundness checker admits the whole corpus under
//! [`QuotientPolicy::Reject`], and the adversarial suite at the bottom
//! certifies the other direction — every formula where quotient and
//! full evaluation diverge is classified out of contract, rejected by
//! `Reject` and corrected by `Expand`.

use hpl_bench::random_computation;
use hpl_core::symmetry::struct_signature;
use hpl_core::{
    canonical_key, check_closure, enumerate_sharded, CompId, CompSet, CoreError, EnumerationLimits,
    Evaluator, Formula, Interpretation, Invariance, LocalStep, LocalView, OrbitIndex, ProtoAction,
    Protocol, QuotientPolicy, ShardConfig, ShardedEnumeration, VarianceCause,
};
use hpl_model::{ActionId, Computation, MessageId, ProcessId, ProcessSet, SymmetryGroup};
use hpl_protocols::gossip::PushGossip;
use hpl_protocols::token_bus::{BroadcastBus, TokenBus};
use hpl_protocols::two_generals::TwoGenerals;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn pid(i: usize) -> ProcessId {
    ProcessId::new(i)
}

// ---------------------------------------------------------------------
// Symmetric protocols driving the equivalence grid
// ---------------------------------------------------------------------

/// `n` interchangeable processes, up to `k` internal steps each — the
/// minimal protocol invariant under the full symmetric group.
struct SymClocks {
    n: usize,
    k: usize,
}

impl Protocol for SymClocks {
    fn system_size(&self) -> usize {
        self.n
    }

    fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        if view.len() < self.k {
            vec![ProtoAction::Internal {
                action: ActionId::new(view.len() as u32),
            }]
        } else {
            vec![]
        }
    }

    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::Full { n: self.n }
    }
}

/// A seeded pseudo-random protocol that is invariant under ring
/// rotations by construction: the enabled steps hash the local view
/// with communication peers encoded as **relative offsets**
/// `(peer − me) mod n`, and sends target relative offsets — so
/// relabeling every process through a rotation maps the protocol onto
/// itself while the seed still drives irregular branching.
struct SeededRing {
    n: usize,
    k: usize,
    seed: u64,
}

impl SeededRing {
    fn mix(&self, p: ProcessId, view: &LocalView) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        for s in view.steps() {
            let tag = match *s {
                LocalStep::Sent { to, payload } => {
                    let off = (to.index() + self.n - p.index()) % self.n;
                    (1u64 << 32) | ((off as u64) << 16) | u64::from(payload)
                }
                LocalStep::Received { from, payload } => {
                    let off = (from.index() + self.n - p.index()) % self.n;
                    (2u64 << 32) | ((off as u64) << 16) | u64::from(payload)
                }
                LocalStep::Did { action } => (3u64 << 32) | u64::from(action.tag()),
            };
            h = (h ^ tag).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

impl Protocol for SeededRing {
    fn system_size(&self) -> usize {
        self.n
    }

    fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        if view.len() >= self.k {
            return vec![];
        }
        let h = self.mix(p, view);
        let mut out = Vec::new();
        if h & 1 != 0 {
            let off = 1 + ((h >> 8) as usize) % (self.n - 1);
            out.push(ProtoAction::Send {
                to: pid((p.index() + off) % self.n),
                payload: ((h >> 16) & 3) as u32,
            });
        }
        if h & 2 != 0 {
            out.push(ProtoAction::Internal {
                action: ActionId::new(((h >> 24) & 7) as u32),
            });
        }
        out
    }

    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::Rotations { n: self.n }
    }
}

// ---------------------------------------------------------------------
// The formula corpus
// ---------------------------------------------------------------------

/// Atoms invariant under any process relabeling and under interleaving
/// (they read only multiset/count structure of the computation) —
/// registered as such, so the soundness checker admits nesting them.
fn invariant_atoms(n: usize, interp: &mut Interpretation) -> Vec<Formula> {
    let a = interp.register_invariant("nonempty", |c| !c.is_empty());
    let b = interp.register_invariant("busy", |c| c.len() >= 3);
    let s = interp.register_invariant("any-send", |c| c.sends() >= 1);
    let w = interp.register_invariant("some-proc-two-events", move |c| {
        (0..n).any(|i| c.iter().filter(|e| e.is_on(pid(i))).count() >= 2)
    });
    [a, b, s, w].into_iter().map(Formula::atom).collect()
}

/// The corpus sound for nesting over the quotient: boolean combinations
/// of invariant atoms, `Everyone`/`Common` towers, and `knows` towers
/// over the group-stabilized sets.
fn invariant_corpus(atoms: &[Formula], stabilized: &[ProcessSet]) -> Vec<Formula> {
    let (a, b, s, w) = (&atoms[0], &atoms[1], &atoms[2], &atoms[3]);
    let mut fs = vec![
        a.clone(),
        b.clone(),
        s.clone(),
        w.clone(),
        a.clone().not(),
        a.clone().and(s.clone()),
        b.clone().or(w.clone()),
        s.clone().iff(w.clone()),
        Formula::everyone(a.clone()),
        Formula::everyone(Formula::everyone(s.clone())),
        Formula::common(a.clone()),
        Formula::common(b.clone().not()),
    ];
    for &p in stabilized {
        fs.push(Formula::knows(p, a.clone()));
        fs.push(Formula::knows(p, s.clone().and(w.clone())));
        fs.push(Formula::knows(p, Formula::everyone(s.clone())));
        fs.push(Formula::everyone(Formula::knows(p, a.clone())));
        fs.push(Formula::sure(p, w.clone()));
    }
    fs
}

/// Outermost-only formulas: `knows` over every singleton, stabilized or
/// not — exact at representatives but with orbit-dependent satisfaction
/// sets, so they are compared pointwise, never by expanded counts.
fn outermost_corpus(n: usize, atoms: &[Formula]) -> Vec<Formula> {
    (0..n)
        .flat_map(|i| {
            let p = ProcessSet::singleton(pid(i));
            [
                Formula::knows(p, atoms[2].clone()),
                Formula::knows(p, Formula::everyone(atoms[0].clone())),
            ]
        })
        .collect()
}

// ---------------------------------------------------------------------
// The equivalence driver
// ---------------------------------------------------------------------

/// Enumerates `p` both ways and certifies, for shards {1, 2, 8} ×
/// streaming batch sizes {buffered, 7, default}: byte-determinism of
/// the quotient, pointwise formula agreement at every representative,
/// and exact multiplicity expansion for the invariant corpus.
fn assert_quotient_matches_full<P: Protocol + Sync>(
    p: &P,
    depth: usize,
    stabilized: &[ProcessSet],
    label: &str,
) {
    let limits = EnumerationLimits {
        max_events: depth,
        max_computations: 1_000_000,
    };
    let n = p.system_size();
    let full = enumerate_sharded(p, limits, &ShardConfig::with_shards(2))
        .expect("within budget")
        .universe;
    let mut interp = Interpretation::new();
    let atoms = invariant_atoms(n, &mut interp);
    let corpus = invariant_corpus(&atoms, stabilized);
    let outer = outermost_corpus(n, &atoms);
    let mut eval_full = Evaluator::new(full.universe(), &interp);

    let mut reference: Option<(Vec<Vec<u64>>, Vec<u64>)> = None;
    // one batch size per shard count so the grid also spans the
    // streaming-merge axis: fully buffered, tiny streamed batches, and
    // the default
    for (shards, batch) in [
        (1usize, usize::MAX),
        (2, 7),
        (8, hpl_core::DEFAULT_BATCH_NODES),
    ] {
        let tag = format!("{label} @ {shards} shard(s), batch {batch}");
        let cfg = ShardConfig::with_shards(shards)
            .quotient()
            .batch_nodes(batch);
        let q = enumerate_sharded(p, limits, &cfg).expect("within budget");
        let orbits = q.orbits.as_ref().expect("quotient mode attaches orbits");
        let qu = q.universe.universe();
        assert_eq!(
            orbits.full_size() as usize,
            q.stats.explored,
            "{tag}: multiplicities must cover the explored tree"
        );

        // byte-determinism across shard counts: same representatives in
        // the same order, same multiplicities
        let ids: Vec<Vec<u64>> = qu
            .iter()
            .map(|(_, c)| c.iter().map(|e| e.id().index() as u64).collect())
            .collect();
        let mults: Vec<u64> = qu.ids().map(|i| orbits.multiplicity(i)).collect();
        match &reference {
            None => reference = Some((ids, mults)),
            Some((rids, rmults)) => {
                assert_eq!(&ids, rids, "{tag}: representative drift");
                assert_eq!(&mults, rmults, "{tag}: multiplicity drift");
            }
        }

        // every representative is a member of the full universe under
        // the same event-id bindings
        let map: Vec<CompId> = qu
            .iter()
            .map(|(_, c)| {
                full.universe()
                    .id_of(c)
                    .expect("representative must be a full-universe member")
            })
            .collect();

        let mut eval_q = Evaluator::with_symmetry(qu, &interp, orbits);
        // the in-contract corpus must never be rejected: the checker
        // classifies every formula sound, and a Reject-policy evaluator
        // answers all of them with the same verdicts
        let mut eval_reject =
            Evaluator::with_symmetry_policy(qu, &interp, orbits, QuotientPolicy::Reject);
        for f in corpus.iter().chain(&outer) {
            let sq = eval_q.sat_set(f);
            let sf = eval_full.sat_set(f);
            for (rid, fid) in map.iter().enumerate() {
                assert_eq!(
                    sq.contains(rid),
                    sf.contains(fid.index()),
                    "{tag}: {f:?} disagrees at representative {rid}"
                );
            }
            assert!(
                eval_q.check_symmetry(f).is_sound(),
                "{tag}: checker must admit the in-contract formula {f:?}"
            );
            let rejected = eval_reject
                .try_sat_set(f)
                .unwrap_or_else(|e| panic!("{tag}: Reject refused in-contract {f:?}: {e}"));
            assert_eq!(rejected, sq, "{tag}: policies disagree on {f:?}");
        }
        for f in &corpus {
            assert!(
                eval_q.check_symmetry(f).is_invariant(),
                "{tag}: the nesting corpus must be fully invariant ({f:?})"
            );
            let sq = eval_q.sat_set(f);
            let sf = eval_full.sat_set(f);
            assert_eq!(
                orbits
                    .expanded_count(&sq)
                    .expect("corpus counts stay far below u64"),
                sf.count() as u64,
                "{tag}: expanded satisfaction count of {f:?}"
            );
        }
    }
}

fn full_set(n: usize) -> ProcessSet {
    ProcessSet::full(n)
}

/// Stabilized sets of the subgroup fixing `p0`: the fixed singleton,
/// its complement, and everything.
fn fixing_stabilized(n: usize) -> Vec<ProcessSet> {
    vec![
        ProcessSet::singleton(pid(0)),
        ProcessSet::singleton(pid(0)).complement(full_set(n)),
        full_set(n),
    ]
}

#[test]
fn sym_clocks_quotient_matches_full() {
    assert_quotient_matches_full(
        &SymClocks { n: 3, k: 2 },
        6,
        &[full_set(3)],
        "sym_clocks(3,2)",
    );
}

#[test]
fn seeded_ring_quotient_matches_full_across_seeds() {
    for seed in [11u64, 5417, 990_001] {
        assert_quotient_matches_full(
            &SeededRing { n: 3, k: 3, seed },
            5,
            &[full_set(3)],
            &format!("seeded_ring(seed={seed})"),
        );
    }
}

#[test]
fn broadcast_bus_quotient_matches_full() {
    assert_quotient_matches_full(
        &BroadcastBus::with_chatter(3, 1),
        6,
        &fixing_stabilized(3),
        "broadcast_bus(3,c1)",
    );
}

#[test]
fn push_gossip_quotient_matches_full() {
    assert_quotient_matches_full(
        &PushGossip { n: 3 },
        4,
        &fixing_stabilized(3),
        "push_gossip(3)",
    );
}

#[test]
fn trivial_group_protocols_quotient_matches_full() {
    // under the trivial group the quotient is exactly the [D]-dedupe and
    // every process set is stabilized, so the corpus may use them all
    let all_sets: Vec<ProcessSet> = (0..2)
        .map(|i| ProcessSet::singleton(pid(i)))
        .chain([full_set(2)])
        .collect();
    assert_quotient_matches_full(
        &TwoGenerals::with_deliberation(2, 2),
        5,
        &all_sets,
        "two_generals(2,d2)",
    );
    let bus_sets: Vec<ProcessSet> = (0..3)
        .map(|i| ProcessSet::singleton(pid(i)))
        .chain([full_set(3)])
        .collect();
    assert_quotient_matches_full(
        &TokenBus::with_chatter(3, 2),
        6,
        &bus_sets,
        "token_bus(3,c2)",
    );
}

#[test]
fn declared_groups_are_really_automorphism_groups() {
    let limits = EnumerationLimits {
        max_events: 5,
        max_computations: 1_000_000,
    };
    let clocks = SymClocks { n: 3, k: 2 };
    let pu = hpl_core::enumerate(&clocks, limits).unwrap();
    assert!(check_closure(&pu, &clocks.symmetry().elements_for(3)).is_ok());
    for seed in [11u64, 5417, 990_001] {
        let ring = SeededRing { n: 4, k: 3, seed };
        let pu = hpl_core::enumerate(&ring, limits).unwrap();
        assert!(
            check_closure(&pu, &ring.symmetry().elements_for(4)).is_ok(),
            "seed {seed}: rotations must be automorphisms of the seeded ring"
        );
    }
}

// ---------------------------------------------------------------------
// The soundness hole, demonstrated and closed
// ---------------------------------------------------------------------

/// The minimal witness of the latent bug the soundness checker closes:
/// two interchangeable clocks, nested `knows` over the (non-stabilized)
/// singletons. The unchecked quotient fast path returns a silently
/// wrong verdict; the checker pinpoints it, `Reject` turns it into a
/// typed error, and `Expand` (the default) corrects it.
#[test]
fn trust_divergence_is_classified_rejected_and_corrected() {
    let p = SymClocks { n: 2, k: 1 };
    let limits = EnumerationLimits {
        max_events: 2,
        max_computations: 1_000,
    };
    let full = enumerate_sharded(&p, limits, &ShardConfig::with_shards(2))
        .expect("within budget")
        .universe;
    let q = enumerate_sharded(&p, limits, &ShardConfig::with_shards(2).quotient())
        .expect("within budget");
    let orbits = q.orbits.as_ref().expect("quotient attaches orbits");
    let qu = q.universe.universe();

    let mut interp = Interpretation::new();
    let nonempty = Formula::atom(interp.register_invariant("nonempty", |c| !c.is_empty()));
    let inner = Formula::knows(ProcessSet::singleton(pid(0)), nonempty.clone());
    let f = Formula::knows(ProcessSet::singleton(pid(1)), inner.clone());

    let mut eval_full = Evaluator::new(full.universe(), &interp);
    let sf = eval_full.sat_set(&f);
    let map: Vec<CompId> = qu
        .iter()
        .map(|(_, c)| {
            full.universe()
                .id_of(c)
                .expect("representative is a member")
        })
        .collect();

    // the unchecked quotient fast path (K{p0}, then K{p1}, each over
    // the stored verdicts) silently diverges on this formula …
    let index = OrbitIndex::new(qu, orbits);
    let mut st = Evaluator::with_symmetry(qu, &interp, orbits).sat_set(&nonempty);
    for p in [pid(0), pid(1)] {
        let classes = index.classes(ProcessSet::singleton(p));
        let mut knows = CompSet::new(qu.len());
        for class in (0..classes.class_count()).filter(|&k| classes.orbit_set(k).is_subset(&st)) {
            knows.union_with(&classes.member_set(class));
        }
        st = knows;
    }
    let diverged = map
        .iter()
        .enumerate()
        .any(|(rid, fid)| st.contains(rid) != sf.contains(fid.index()));
    assert!(
        diverged,
        "the latent bug must be reproducible on the unchecked fast path, or this witness is vacuous"
    );

    // … the checker classifies it out of contract, naming the inner
    // knowledge operator and a generator moving its process set …
    let mut expand = Evaluator::with_symmetry(qu, &interp, orbits);
    assert_eq!(expand.quotient_policy(), Some(QuotientPolicy::Expand));
    match expand.check_symmetry(&f) {
        Invariance::OutOfContract(v) => {
            assert_eq!(v.operator, f);
            assert_eq!(v.subformula, inner);
            match &v.cause {
                VarianceCause::MovedSet { set, generator } => {
                    assert_eq!(*set, ProcessSet::singleton(pid(0)));
                    assert!(!generator.stabilizes(*set));
                }
                other => panic!("wrong cause: {other:?}"),
            }
            assert!(v.describe(&interp).contains("nonempty"));
        }
        other => panic!("expected OutOfContract, got {other:?}"),
    }

    // … Reject refuses it with the same typed diagnosis …
    let mut reject = Evaluator::with_symmetry_policy(qu, &interp, orbits, QuotientPolicy::Reject);
    match reject.try_sat_set(&f) {
        Err(CoreError::QuotientUnsound(v)) => {
            assert!(matches!(v.cause, VarianceCause::MovedSet { .. }));
        }
        other => panic!("expected QuotientUnsound, got {other:?}"),
    }

    // … and Expand, the new default, matches the full universe exactly.
    let se = expand.sat_set(&f);
    for (rid, fid) in map.iter().enumerate() {
        assert_eq!(
            se.contains(rid),
            sf.contains(fid.index()),
            "Expand must agree with the full universe at representative {rid}"
        );
    }
}

// ---------------------------------------------------------------------
// Adversarial soundness suite: random formulas, many of them breaking
// the contract on purpose
// ---------------------------------------------------------------------

use std::sync::OnceLock;

struct AdversarialSetup {
    full: ShardedEnumeration,
    quotient: ShardedEnumeration,
}

fn enumerate_both<P: Protocol + Sync>(p: &P, depth: usize) -> AdversarialSetup {
    let limits = EnumerationLimits {
        max_events: depth,
        max_computations: 1_000_000,
    };
    AdversarialSetup {
        full: enumerate_sharded(p, limits, &ShardConfig::with_shards(2)).expect("within budget"),
        quotient: enumerate_sharded(p, limits, &ShardConfig::with_shards(2).quotient())
            .expect("within budget"),
    }
}

/// The token star under `fixing(3, 0)`: relabelings of `p1`/`p2`.
fn star_setup() -> &'static AdversarialSetup {
    static S: OnceLock<AdversarialSetup> = OnceLock::new();
    S.get_or_init(|| enumerate_both(&BroadcastBus::with_chatter(3, 1), 4))
}

/// Fully interchangeable clocks under `S_3`.
fn clocks_setup() -> &'static AdversarialSetup {
    static S: OnceLock<AdversarialSetup> = OnceLock::new();
    S.get_or_init(|| enumerate_both(&SymClocks { n: 3, k: 2 }, 4))
}

/// Honest declarations: two genuinely invariant atoms, two genuinely
/// relabeling-dependent ones (they name `p1`/`p2`, which both groups
/// move).
fn adversarial_interp() -> (Interpretation, Vec<Formula>) {
    let mut interp = Interpretation::new();
    let atoms = vec![
        Formula::atom(interp.register_invariant("nonempty", |c| !c.is_empty())),
        Formula::atom(interp.register_invariant("any-send", |c| c.sends() >= 1)),
        Formula::atom(interp.register("p1-acted", |c| c.iter().any(|e| e.is_on(pid(1))))),
        Formula::atom(interp.register("p2-quiet", |c| c.iter().all(|e| !e.is_on(pid(2))))),
    ];
    (interp, atoms)
}

/// A random formula mixing invariant and dependent atoms, booleans and
/// knowledge operators over arbitrary process sets — by construction
/// most draws violate the quotient contract one way or another.
fn random_formula(rng: &mut StdRng, atoms: &[Formula], n: usize, depth: usize) -> Formula {
    if depth == 0 {
        return atoms[rng.random_range(0..atoms.len())].clone();
    }
    let any_set = |rng: &mut StdRng| {
        let bits = rng.random_range(1..(1u32 << n));
        ProcessSet::from_indices((0..n).filter(|i| bits >> i & 1 == 1))
    };
    match rng.random_range(0..9) {
        0 => random_formula(rng, atoms, n, depth - 1).not(),
        1 => random_formula(rng, atoms, n, depth - 1).and(random_formula(rng, atoms, n, depth - 1)),
        2 => random_formula(rng, atoms, n, depth - 1).or(random_formula(rng, atoms, n, depth - 1)),
        3 => random_formula(rng, atoms, n, depth - 1).implies(random_formula(
            rng,
            atoms,
            n,
            depth - 1,
        )),
        4 => {
            let p = any_set(rng);
            Formula::knows(p, random_formula(rng, atoms, n, depth - 1))
        }
        5 => {
            let p = any_set(rng);
            Formula::sure(p, random_formula(rng, atoms, n, depth - 1))
        }
        6 => Formula::everyone(random_formula(rng, atoms, n, depth - 1)),
        7 => random_formula(rng, atoms, n, depth - 1).iff(random_formula(rng, atoms, n, depth - 1)),
        _ => Formula::common(random_formula(rng, atoms, n, depth - 1)),
    }
}

/// One adversarial case: certifies, for a random formula,
///
/// 1. `Expand` always matches the full universe pointwise at the
///    representatives,
/// 2. `Reject` admits exactly the formulas the checker calls sound
///    (and answers them identically), and
/// 3. invariant formulas expand their satisfaction counts exactly.
///
/// On a sound formula `Reject` runs exactly the unchecked quotient fast
/// path, so (1) and (2) together say every divergence of that path from
/// the full universe is classified out of contract.
fn adversarial_case(setup: &AdversarialSetup, n: usize, seed: u64) {
    let (interp, atoms) = adversarial_interp();
    let mut rng = StdRng::seed_from_u64(seed);
    let f = random_formula(&mut rng, &atoms, n, 1 + (seed % 3) as usize);

    let full_u = setup.full.universe.universe();
    let orbits = setup.quotient.orbits.as_ref().expect("quotient");
    let qu = setup.quotient.universe.universe();
    let map: Vec<CompId> = qu
        .iter()
        .map(|(_, c)| full_u.id_of(c).expect("representative is a member"))
        .collect();

    let mut eval_full = Evaluator::new(full_u, &interp);
    let sf = eval_full.sat_set(&f);

    // (1) the Expand fallback restores full-universe semantics
    let mut expand = Evaluator::with_symmetry(qu, &interp, orbits);
    let cls = expand.check_symmetry(&f);
    let se = expand.sat_set(&f);
    for (rid, fid) in map.iter().enumerate() {
        assert_eq!(
            se.contains(rid),
            sf.contains(fid.index()),
            "seed {seed}: Expand diverges from full for {f:?} at representative {rid}"
        );
    }

    // (2) Reject admits exactly the sound formulas
    let mut reject = Evaluator::with_symmetry_policy(qu, &interp, orbits, QuotientPolicy::Reject);
    match (cls.is_sound(), reject.try_sat_set(&f)) {
        (true, Ok(sr)) => assert_eq!(sr, se, "seed {seed}: policies disagree on sound {f:?}"),
        (true, Err(e)) => panic!("seed {seed}: in-contract formula {f:?} rejected: {e}"),
        (false, Ok(_)) => panic!("seed {seed}: out-of-contract formula {f:?} admitted"),
        (false, Err(CoreError::QuotientUnsound(_))) => {}
        (false, Err(e)) => panic!("seed {seed}: unexpected error {e}"),
    }

    // (3) invariant verdicts expand their counts exactly
    if cls.is_invariant() {
        assert_eq!(
            orbits.expanded_count(&se).expect("small universes"),
            sf.count() as u64,
            "seed {seed}: expanded count of invariant {f:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ground truth vs checker on the token star (`fixing(3, 0)`).
    #[test]
    fn adversarial_soundness_on_the_star(seed in 0u64..1_000_000) {
        adversarial_case(star_setup(), 3, seed);
    }

    /// Ground truth vs checker on fully symmetric clocks (`S_3`).
    #[test]
    fn adversarial_soundness_on_symmetric_clocks(seed in 0u64..1_000_000) {
        adversarial_case(clocks_setup(), 3, seed);
    }
}

// ---------------------------------------------------------------------
// Canonical-form proptests
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonical keys are fixpoints of the group action: every
    /// relabeling of `x` canonicalizes to the same key, and that key is
    /// the minimum of the structural signatures over the group.
    #[test]
    fn canonical_key_is_permutation_invariant_fixpoint(
        seed in 0u64..10_000,
        n in 2usize..5,
        steps in 0usize..8,
        which in 0usize..3,
    ) {
        let x = random_computation(n, steps, seed);
        let group = match which {
            0 => SymmetryGroup::Full { n },
            1 => SymmetryGroup::Rotations { n },
            _ => SymmetryGroup::fixing(n, 0),
        };
        let els = group.elements_for(n);
        let key = canonical_key(&x, &els, &mut |_| 0);
        for pi in &els {
            let relabeled = x.permuted(pi);
            prop_assert_eq!(
                canonical_key(&relabeled, &els, &mut |_| 0),
                key.clone(),
                "relabeling through {} must not move the orbit key", pi
            );
            // minimality: the key never exceeds any element's signature
            let sig = struct_signature(&x, pi, ProcessSet::full(n));
            prop_assert!(key <= sig);
        }
    }

    /// Interleavings canonicalize identically even under the trivial
    /// group (the orbit relation contains `[D]`-isomorphism).
    #[test]
    fn canonical_key_collapses_interleavings(seed in 0u64..10_000, n in 2usize..4) {
        let x = random_computation(n, 6, seed);
        let els = SymmetryGroup::Trivial.elements_for(n);
        let key = canonical_key(&x, &els, &mut |_| 0);
        // any valid reordering of the same events is [D]-isomorphic;
        // reversing the roles of two independent internal suffix events
        // is the simplest one — build it via per-process projections:
        // the canonical key depends only on projections, so shuffling
        // cross-process order must not change it. Compare against the
        // key computed from a projection-preserving re-enumeration.
        let mut by_process: Vec<Vec<hpl_model::Event>> = vec![Vec::new(); n];
        for e in x.iter() {
            by_process[e.process().index()].push(e);
        }
        // round-robin interleaving of the projections, receives only
        // after their sends: retry round-robin until every receive's
        // send has been placed (valid because projections are FIFO).
        let mut placed: Vec<hpl_model::Event> = Vec::new();
        let mut cursors = vec![0usize; n];
        let mut sent: std::collections::HashSet<MessageId> = std::collections::HashSet::new();
        while placed.len() < x.len() {
            let mut progressed = false;
            for i in 0..n {
                if cursors[i] >= by_process[i].len() {
                    continue;
                }
                let e = by_process[i][cursors[i]];
                let ready = match e.kind() {
                    hpl_model::EventKind::Receive { message, .. } => sent.contains(&message),
                    _ => true,
                };
                if ready {
                    if let hpl_model::EventKind::Send { message, .. } = e.kind() {
                        sent.insert(message);
                    }
                    placed.push(e);
                    cursors[i] += 1;
                    progressed = true;
                }
            }
            prop_assert!(progressed, "round-robin must make progress on a valid computation");
        }
        let y = Computation::from_events(n, placed).expect("projection-preserving reorder");
        prop_assert_eq!(canonical_key(&y, &els, &mut |_| 0), key);
    }
}
