//! A warm query is one lookup: asking the same text again is answered
//! with the satisfaction set the cache already holds — the same
//! allocation, not a copy — with the same plan counters and exactly one
//! cache hit, on a plain snapshot, a trivial-group quotient and an
//! `Expand` quotient whose group moves a set. A hit also keeps its
//! generation in the cache's window, as the cache documents, and the
//! plan counters a query keeps agree with the step list the planner
//! builds only on request.

use hpl_core::isomorphism::MAX_CACHED_GENERATIONS;
use hpl_core::{
    enumerate_sharded, CompSet, EnumerationLimits, Formula, Interpretation, QuotientPolicy,
    SatCache, ShardConfig,
};
use hpl_model::{ProcessSet, SymmetryGroup};
use hpl_protocols::token_bus::{token_atoms, BroadcastBus, TokenBus};
use hpl_runtime::{plan, QueryService, SubtreeMode};
use std::sync::Arc;

/// A service with a plain token bus (`bus`), the same bus as a
/// trivial-group quotient (`bus_quotient`), and a quotient broadcast
/// star under `Expand` (`star`, group `fixing(3, 0)`, which moves
/// `{p1}` and `{p2}`).
fn service() -> QueryService {
    let service = QueryService::start(1);
    let mut interp = Interpretation::new();
    token_atoms(&mut interp, 3);
    let interp = Arc::new(interp);
    let bus = enumerate_sharded(
        &TokenBus::with_chatter(3, 1),
        EnumerationLimits::depth(5),
        &ShardConfig::with_shards(1),
    )
    .expect("within budget");
    service.register(
        "bus",
        Arc::new(bus.universe.into_universe()),
        Arc::clone(&interp),
    );
    for (name, quotient) in [
        (
            "bus_quotient",
            enumerate_sharded(
                &TokenBus::with_chatter(3, 1),
                EnumerationLimits::depth(5),
                &ShardConfig::with_shards(1).quotient(),
            ),
        ),
        (
            "star",
            enumerate_sharded(
                &BroadcastBus::with_chatter(3, 1),
                EnumerationLimits::depth(4),
                &ShardConfig::with_shards(1).quotient(),
            ),
        ),
    ] {
        let quotient = quotient.expect("within budget");
        service.register_quotient(
            name,
            Arc::new(quotient.universe.into_universe()),
            Arc::clone(&interp),
            Arc::new(quotient.orbits.expect("quotient mode attaches orbits")),
            QuotientPolicy::Expand,
        );
    }
    service
}

#[test]
fn a_repeated_query_shares_the_cached_set() {
    let service = service();
    // `E K{p1} token-at-p0` nests knowledge over {p1}, which the star's
    // group moves: that subtree takes the Expand fallback there
    let text = "K{p1} (token-at-p0 | !token-at-p2) & E K{p1} token-at-p0";
    for scenario in ["bus", "bus_quotient", "star"] {
        let session = service.session(scenario).expect("registered");
        let first = session.query(text).expect("answered");
        let before = session.snapshot().sat_cache_stats();
        let again = session.query(text).expect("answered");
        let after = session.snapshot().sat_cache_stats();
        assert!(
            Arc::ptr_eq(&first.sat, &again.sat),
            "{scenario}: a hit hands out the cached set itself"
        );
        assert_eq!(again.plan, first.plan, "{scenario}");
        assert_eq!(again.count, first.count, "{scenario}");
        assert_eq!(again.formula, first.formula, "{scenario}");
        assert_eq!(after.hits, before.hits + 1, "{scenario}: one lookup, a hit");
        assert_eq!(
            after.misses, before.misses,
            "{scenario}: nothing recomputed"
        );
        match scenario {
            "star" => assert!(first.plan.fallback_steps > 0, "{:?}", first.plan),
            _ => assert_eq!(first.plan.fallback_steps, 0, "{scenario}"),
        }
    }
}

#[test]
fn a_hit_keeps_its_generation_in_the_window() {
    let cache = SatCache::shared();
    let f = Formula::True;
    let window = MAX_CACHED_GENERATIONS as u64;
    for generation in 1..=window {
        cache.publish(generation, &f, &CompSet::full(64));
    }
    assert!(cache.lookup(1, &f).is_some());
    // a new generation evicts the least recently *served* one: 2, not
    // the first published
    cache.publish(window + 1, &f, &CompSet::full(64));
    assert!(cache.lookup(1, &f).is_some(), "the served generation stays");
    assert!(cache.lookup(2, &f).is_none(), "generation 2 is evicted");
    assert_eq!(cache.stats().entries, MAX_CACHED_GENERATIONS);
    assert_eq!(cache.stats().evictions, 1);
}

/// A random formula over `atoms`: knowledge over singletons and pairs,
/// the booleans, `E` and `C`, and constants for folding.
fn random_formula(depth: usize, atoms: &[Formula], seed: &mut u64) -> Formula {
    let mut next = || {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    };
    if depth == 0 {
        return match next() % 5 {
            0 => Formula::True,
            1 => Formula::False,
            k => atoms[(k as usize) % atoms.len()].clone(),
        };
    }
    let sets = [[0, 0], [1, 1], [2, 2], [0, 1], [1, 2]];
    let set = ProcessSet::from_indices(sets[(next() % 5) as usize]);
    let sub = |seed: &mut u64| random_formula(depth - 1, atoms, seed);
    match next() % 8 {
        0 => sub(seed).not(),
        1 => sub(seed).and(sub(seed)),
        2 => sub(seed).or(sub(seed)),
        3 => sub(seed).implies(sub(seed)),
        4 => Formula::knows(set, sub(seed)),
        5 => Formula::sure(set, sub(seed)),
        6 => Formula::everyone(sub(seed)),
        _ => Formula::common(sub(seed)),
    }
}

/// The counters `plan` takes from its borrowed walk equal those of the
/// step list built on request, over a group that moves sets (so both
/// quotient and fallback steps occur) and over a plain snapshot.
#[test]
fn plan_stats_match_the_step_list() {
    let mut interp = Interpretation::new();
    let mut atoms = token_atoms(&mut interp, 3);
    atoms.push(Formula::atom(
        interp.register_invariant("long", |c| c.len() > 2),
    ));
    let gens = SymmetryGroup::fixing(3, 0).generators_for(3);
    let (mut quotient, mut fallback) = (0, 0);
    for s0 in 1u64..300 {
        let mut seed = s0.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let f = random_formula(4, &atoms, &mut seed);
        for generators in [Some(gens.as_slice()), None] {
            let p = plan(&f, &interp, generators);
            let steps = p.steps();
            let count = |m: SubtreeMode| steps.iter().filter(|s| s.mode == m).count();
            let stats = p.stats();
            assert_eq!(stats.unique, steps.len(), "{f:?}");
            assert_eq!(stats.deduped, stats.nodes - stats.folded - steps.len());
            assert_eq!(stats.quotient_steps, count(SubtreeMode::Quotient));
            assert_eq!(stats.fallback_steps, count(SubtreeMode::Fallback));
            if generators.is_none() {
                assert_eq!(count(SubtreeMode::Direct), steps.len());
            }
            quotient += stats.quotient_steps;
            fallback += stats.fallback_steps;
        }
    }
    assert!(quotient > 0 && fallback > 0, "{quotient} {fallback}");
}
