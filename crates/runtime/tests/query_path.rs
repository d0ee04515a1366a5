//! What one served query costs and how deep it may nest: a repeated
//! query is answered by a single satisfaction-set cache lookup, and a
//! formula nesting past `MAX_FORMULA_DEPTH` fails with a typed error
//! while the service keeps answering.

use hpl_core::parser::MAX_FORMULA_DEPTH;
use hpl_core::{
    enumerate_sharded, EnumerationLimits, Formula, Interpretation, QuotientPolicy, ShardConfig,
};
use hpl_model::ProcessSet;
use hpl_protocols::token_bus::{token_atoms, BroadcastBus, TokenBus};
use hpl_runtime::{QueryError, QueryService};
use std::sync::Arc;

/// A service with a plain token bus (`bus`) and a quotient broadcast
/// star under `Expand` (`star`, group `fixing(3, 0)`).
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
    let star = enumerate_sharded(
        &BroadcastBus::with_chatter(3, 1),
        EnumerationLimits::depth(4),
        &ShardConfig::with_shards(1).quotient(),
    )
    .expect("within budget");
    service.register_quotient(
        "star",
        Arc::new(star.universe.into_universe()),
        interp,
        Arc::new(star.orbits.expect("quotient mode attaches orbits")),
        QuotientPolicy::Expand,
    );
    service
}

#[test]
fn a_repeated_query_is_one_cache_lookup() {
    let service = service();
    for scenario in ["bus", "star"] {
        let session = service.session(scenario).expect("registered");
        let text = "K{p1} (token-at-p0 | !token-at-p2) & E token-at-p0";
        let first = session.query(text).expect("answered");
        assert!(first.plan.unique >= 3, "{scenario}: {:?}", first.plan);
        let before = session.snapshot().sat_cache_stats();
        let again = session.query(text).expect("answered");
        let after = session.snapshot().sat_cache_stats();
        assert_eq!(again.sat, first.sat, "{scenario}");
        assert_eq!(after.hits, before.hits + 1, "{scenario}: one lookup, a hit");
        assert_eq!(
            after.misses, before.misses,
            "{scenario}: nothing recomputed"
        );
    }
}

#[test]
fn nesting_past_the_limit_is_a_typed_error_and_the_service_keeps_answering() {
    let service = service();
    let session = service.session("star").expect("registered");
    let chain = |k: usize| format!("{}token-at-p0", "K{p1} ".repeat(k));

    // nested K{p1} over a moved singleton is out of the quotient
    // contract: the service answers it on the orbit-expanded frame,
    // and K{p1} K{p1} b is K{p1} b
    let once = session.query(&chain(1)).expect("answered");
    let at_limit = session.query(&chain(MAX_FORMULA_DEPTH)).expect("answered");
    assert!(at_limit.plan.fallback_steps > 0, "{:?}", at_limit.plan);
    assert_eq!(at_limit.sat, once.sat);

    for text in [
        chain(MAX_FORMULA_DEPTH + 1),
        format!("{}token-at-p0", "!".repeat(20_000)),
        "(".repeat(200_000),
    ] {
        assert!(
            matches!(session.query(&text), Err(QueryError::Parse(_))),
            "{} bytes of nesting must fail to parse",
            text.len()
        );
    }
    let p1 = ProcessSet::from_indices([1]);
    let mut deep = Formula::True;
    for _ in 0..=MAX_FORMULA_DEPTH {
        deep = Formula::knows(p1, deep);
    }
    assert_eq!(
        session.query_formula(&deep).err(),
        Some(QueryError::TooDeep)
    );

    let again = session.query(&chain(1)).expect("still answering");
    assert_eq!(again.sat, once.sat);
}
