//! Size-aware eviction of the cross-query satisfaction cache
//! (`SatCache`): the resident-bytes estimate is capped at a fixed
//! capacity, publishing past it sheds least-recently-**served**
//! entries, and a hot entry survives arbitrary churn as long as it
//! keeps being served.
//! Closes the ROADMAP "cache eviction" follow-on to the query service.

use hpl_core::{
    enumerate, CompSet, EnumerationLimits, Formula, Interpretation, SatCache, Universe,
};
use hpl_protocols::token_bus::{self, TokenBus};
use hpl_runtime::QueryService;
use std::sync::Arc;

/// A family of structurally distinct formulas to use as cache keys —
/// no interpretation needed, the cache keys on the `Formula` verbatim.
fn probe(i: usize) -> Formula {
    let mut f = Formula::True;
    for _ in 0..=i {
        f = f.not();
    }
    f
}

/// Measures what one 64-bit-wide entry costs in the resident-bytes
/// estimate, so capacities can be phrased in entries without
/// hardcoding the overhead constant.
fn one_entry_cost() -> usize {
    let cache = SatCache::shared();
    cache.publish(1, &probe(0), &CompSet::full(64));
    cache.stats().resident_bytes
}

#[test]
fn publishing_past_capacity_evicts_down_to_the_cap() {
    let cost = one_entry_cost();
    let cache = SatCache::shared_with_capacity(4 * cost);
    for i in 0..20 {
        cache.publish(1, &probe(i), &CompSet::full(64));
    }
    let stats = cache.stats();
    assert!(
        stats.entries <= 4,
        "4-entry capacity must bound occupancy, got {} entries",
        stats.entries
    );
    assert!(
        stats.resident_bytes <= stats.capacity_bytes,
        "estimate {} must fit the cap {}",
        stats.resident_bytes,
        stats.capacity_bytes
    );
    assert_eq!(stats.evictions, 16, "20 published, 4 resident");
    // the most recently published entry is never the eviction victim
    assert!(cache.lookup(1, &probe(19)).is_some());
    assert!(
        cache.lookup(1, &probe(0)).is_none(),
        "coldest entry evicted"
    );
}

#[test]
fn served_entries_survive_churn() {
    let cost = one_entry_cost();
    let cache = SatCache::shared_with_capacity(3 * cost);
    let hot = probe(0);
    cache.publish(1, &hot, &CompSet::full(64));
    for i in 1..30 {
        // serving the hot entry between publishes refreshes its stamp
        assert!(cache.lookup(1, &hot).is_some(), "hot entry lost at {i}");
        cache.publish(1, &probe(i), &CompSet::full(64));
    }
    assert!(cache.lookup(1, &hot).is_some());
    assert!(cache.stats().entries <= 3);
}

#[test]
fn a_single_oversized_entry_is_still_cached() {
    // capacity below one entry: the cache degrades to most-recent-only
    // instead of thrashing to empty
    let cache = SatCache::shared_with_capacity(1);
    cache.publish(1, &probe(0), &CompSet::full(64));
    assert!(cache.lookup(1, &probe(0)).is_some());
    cache.publish(1, &probe(1), &CompSet::full(64));
    assert!(cache.lookup(1, &probe(1)).is_some());
    assert!(cache.lookup(1, &probe(0)).is_none());
    assert_eq!(cache.stats().entries, 1);
}

/// Structurally distinct service-level queries: nested implication
/// chains over the token atoms (no constants, so the planner's folding
/// leaves each chain a distinct plan root).
fn query_corpus(atoms: &[Formula], n: usize) -> Vec<Formula> {
    let mut out = Vec::with_capacity(n);
    let mut f = atoms[0].clone();
    for i in 0..n {
        f = atoms[i % atoms.len()].clone().implies(f);
        out.push(f.clone());
    }
    out
}

fn snapshot_parts() -> (Arc<Universe>, Arc<Interpretation>) {
    let pu = enumerate(&TokenBus::new(3), EnumerationLimits::depth(6)).expect("within budget");
    let mut interp = Interpretation::new();
    token_bus::token_atoms(&mut interp, 3);
    (Arc::new(pu.into_universe()), Arc::new(interp))
}

#[test]
fn bounded_service_cache_stays_bounded_and_keeps_answering() {
    let (universe, interp) = snapshot_parts();
    let mut interp_atoms = Interpretation::new();
    let atoms = token_bus::token_atoms(&mut interp_atoms, 3);
    let corpus = query_corpus(&atoms, 30);

    // calibrate: an unbounded scenario tells us what the corpus costs
    let service = QueryService::start(2);
    service.register("unbounded", Arc::clone(&universe), Arc::clone(&interp));
    let session = service.session("unbounded").expect("registered");
    for f in &corpus {
        session.query_formula(f).expect("evaluates");
    }
    let free = service
        .snapshot("unbounded")
        .expect("registered")
        .sat_cache_stats();
    assert!(
        free.entries >= corpus.len(),
        "corpus must produce distinct cache keys, got {} entries",
        free.entries
    );
    assert_eq!(free.evictions, 0, "default capacity fits this corpus");
    let per_entry = free.resident_bytes / free.entries;

    // now a scenario whose cache holds roughly 5 of the 30 entries
    service.set_sat_cache_capacity(5 * per_entry);
    service.register("bounded", Arc::clone(&universe), Arc::clone(&interp));
    let bounded = service.session("bounded").expect("registered");
    let reference: Vec<usize> = corpus
        .iter()
        .map(|f| bounded.query_formula(f).expect("evaluates").count)
        .collect();
    let stats = service
        .snapshot("bounded")
        .expect("registered")
        .sat_cache_stats();
    assert!(
        stats.entries < corpus.len() / 2,
        "the bound must have evicted most of the corpus, got {} entries",
        stats.entries
    );
    assert!(stats.evictions > 0);
    assert!(stats.resident_bytes <= stats.capacity_bytes);

    // evicted entries re-evaluate to the same answers
    let again: Vec<usize> = corpus
        .iter()
        .map(|f| bounded.query_formula(f).expect("evaluates").count)
        .collect();
    assert_eq!(reference, again);

    // the eviction counters are on the metrics surface
    let text = bounded.metrics_snapshot();
    assert!(text.contains("hpl_sat_cache_evictions"));
    assert!(text.contains("hpl_sat_cache_capacity_bytes"));
}
