//! Growth under the query service: register a scenario at a shallow
//! horizon, grow its universe with `extend_sharded`, hot-swap the
//! snapshot by registering the grown universe under the same name, and
//! certify that
//!
//! * answers from the swapped service are **byte-identical** to a
//!   fresh service registered directly on the grown universe,
//! * the swapped-in snapshot starts with empty caches of its own,
//! * sessions opened before the swap notice via `is_current` and keep
//!   answering against their pinned snapshot, and
//! * the old snapshot (and the caches it owns) is freed once its last
//!   session drops.

use hpl_core::{
    enumerate_sharded, extend_sharded, EnumerationLimits, Formula, Interpretation, QuotientPolicy,
    ShardConfig, Universe,
};
use hpl_model::ProcessSet;
use hpl_protocols::token_bus::{self, TokenBus};
use hpl_runtime::QueryService;
use std::sync::Arc;

const SHALLOW: usize = 6;
const DEEP: usize = 8;

/// Shallow + grown universes of the 3-process token bus and the shared
/// interpretation.
struct Grown {
    old_universe: Arc<Universe>,
    new_universe: Arc<Universe>,
    interp: Arc<Interpretation>,
    atoms: Vec<Formula>,
}

fn grow_token_bus(shards: usize) -> Grown {
    let protocol = TokenBus::with_chatter(3, 1);
    let cfg = ShardConfig::with_shards(shards).checkpoint();
    let shallow = enumerate_sharded(&protocol, EnumerationLimits::depth(SHALLOW), &cfg)
        .expect("shallow enumeration");
    let frontier = shallow.frontier.as_ref().expect("checkpoint requested");
    let grown = extend_sharded(&protocol, frontier, EnumerationLimits::depth(DEEP), &cfg)
        .expect("extension");
    let mut interp = Interpretation::new();
    let atoms = token_bus::token_atoms(&mut interp, 3);
    Grown {
        old_universe: Arc::new(shallow.universe.into_universe()),
        new_universe: Arc::new(grown.universe.into_universe()),
        interp: Arc::new(interp),
        atoms,
    }
}

/// Propositional formulas followed by epistemic ones, whose verdicts
/// the grown universe can change anywhere.
fn corpus(atoms: &[Formula]) -> Vec<Formula> {
    let t0 = atoms[0].clone();
    let t1 = atoms[1].clone();
    let p0 = ProcessSet::from_indices([0]);
    let p1 = ProcessSet::from_indices([1]);
    vec![
        t0.clone(),
        t0.clone().and(t1.clone()),
        t0.clone().or(t1.clone().not()),
        t1.clone().implies(t0.clone()),
        Formula::knows(p0, t0.clone()),
        Formula::knows(p1, t1.clone()),
        Formula::sure(p1, t0.clone()),
        Formula::everyone(t0.clone()),
        Formula::common(t0),
    ]
}

#[test]
fn hot_swap_matches_fresh_service_and_frees_the_old_snapshot() {
    let g = grow_token_bus(2);
    let queries = corpus(&g.atoms);

    let service = QueryService::start(2);
    let old_gen = service.register("bus", Arc::clone(&g.old_universe), Arc::clone(&g.interp));
    let stale_session = service.session("bus").expect("registered");
    assert!(stale_session.is_current());

    // warm the shallow snapshot's caches
    for f in &queries {
        stale_session.query_formula(f).expect("warm query");
    }

    // hot-swap to the grown universe: a new snapshot with empty caches
    let new_gen = service.register("bus", Arc::clone(&g.new_universe), Arc::clone(&g.interp));
    assert_eq!(new_gen, g.new_universe.generation());
    assert_ne!(new_gen, old_gen);
    let snap = service.snapshot("bus").expect("registered");
    assert_eq!(snap.structure_stats().structures, 0);
    assert_eq!(snap.sat_cache_stats().entries, 0);

    // the pre-swap session keeps its pinned snapshot, and knows it
    assert!(!stale_session.is_current());
    assert_eq!(stale_session.generation(), old_gen);
    let old_resp = stale_session
        .query_formula(&queries[0])
        .expect("stale sessions keep answering");
    assert_eq!(old_resp.generation, old_gen);
    assert_eq!(old_resp.universe_len, g.old_universe.len());

    // a fresh session serves the grown universe...
    let session = service.session("bus").expect("still registered");
    assert!(session.is_current());
    assert_eq!(session.generation(), new_gen);

    // every answer matches a cold service registered on the grown
    // universe directly
    let fresh = QueryService::start(2);
    fresh.register("bus", Arc::clone(&g.new_universe), Arc::clone(&g.interp));
    let fresh_session = fresh.session("bus").expect("registered");
    for f in &queries {
        let warm = session.query_formula(f).expect("warm service");
        let cold = fresh_session.query_formula(f).expect("fresh service");
        assert_eq!(warm.count, cold.count, "count for {}", f.display_raw());
        assert_eq!(
            warm.sat.words(),
            cold.sat.words(),
            "satisfaction set for {}",
            f.display_raw()
        );
        assert_eq!(warm.generation, new_gen);
        assert_eq!(warm.universe_len, g.new_universe.len());
    }

    // the stale session was the old snapshot's last holder: dropping it
    // frees the snapshot and the caches it owns
    let old_snapshot = Arc::downgrade(stale_session.snapshot());
    assert!(old_snapshot.upgrade().is_some());
    drop(stale_session);
    assert!(
        old_snapshot.upgrade().is_none(),
        "a replaced snapshot outlives its last session"
    );
}

#[test]
fn quotient_hot_swap_matches_fresh_service() {
    let protocol = TokenBus::with_chatter(3, 1);
    let cfg = ShardConfig::with_shards(2).quotient().checkpoint();
    let shallow = enumerate_sharded(&protocol, EnumerationLimits::depth(SHALLOW), &cfg)
        .expect("shallow quotient enumeration");
    let frontier = shallow.frontier.as_ref().expect("checkpoint requested");
    let grown = extend_sharded(&protocol, frontier, EnumerationLimits::depth(DEEP), &cfg)
        .expect("quotient extension");
    let new_orbits = Arc::new(grown.orbits.expect("quotient orbits"));
    let old_orbits = Arc::new(shallow.orbits.expect("quotient orbits"));
    let old_universe = Arc::new(shallow.universe.into_universe());
    let new_universe = Arc::new(grown.universe.into_universe());
    let mut interp = Interpretation::new();
    let atoms = token_bus::token_atoms(&mut interp, 3);
    let interp = Arc::new(interp);
    // sound-on-the-quotient corpus: propositional + invariant-atom
    // knowledge (t0 is the invariant atom)
    let t0 = atoms[0].clone();
    let queries = vec![
        t0.clone(),
        t0.clone().not().or(t0.clone()),
        Formula::knows(ProcessSet::from_indices([0]), t0.clone()),
        Formula::common(t0),
    ];

    let service = QueryService::start(2);
    service.register_quotient(
        "bus",
        Arc::clone(&old_universe),
        Arc::clone(&interp),
        old_orbits,
        QuotientPolicy::Expand,
    );
    let session = service.session("bus").expect("registered");
    for f in &queries {
        session.query_formula(f).expect("warm query");
    }

    let new_gen = service.register_quotient(
        "bus",
        Arc::clone(&new_universe),
        Arc::clone(&interp),
        Arc::clone(&new_orbits),
        QuotientPolicy::Expand,
    );
    assert!(!session.is_current());
    let snap = service.snapshot("bus").expect("registered");
    assert_eq!(snap.structure_stats().structures, 0);
    assert_eq!(snap.sat_cache_stats().entries, 0);

    let fresh = QueryService::start(2);
    fresh.register_quotient(
        "bus",
        Arc::clone(&new_universe),
        Arc::clone(&interp),
        new_orbits,
        QuotientPolicy::Expand,
    );
    let warm_session = service.session("bus").expect("swapped");
    let fresh_session = fresh.session("bus").expect("registered");
    assert_eq!(warm_session.generation(), new_gen);
    for f in &queries {
        let warm = warm_session.query_formula(f).expect("warm service");
        let cold = fresh_session.query_formula(f).expect("fresh service");
        assert_eq!(
            warm.sat.words(),
            cold.sat.words(),
            "satisfaction set for {}",
            f.display_raw()
        );
    }

    let old_snapshot = Arc::downgrade(session.snapshot());
    drop(session);
    assert!(
        old_snapshot.upgrade().is_none(),
        "a replaced snapshot outlives its last session"
    );
}
