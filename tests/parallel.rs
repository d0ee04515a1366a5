//! Cross-thread determinism suite for the sharded enumeration engine.
//!
//! For every protocol shipped with the workspace (and a family of seeded
//! random protocols), enumeration with 1, 2 and 8 shards must produce a
//! universe **byte-identical** to the sequential reference path: same
//! computations in the same `CompId` order after the deterministic
//! merge, same event-id bindings, same payload table.

use hpl_core::{
    canonical_key, enumerate, enumerate_sharded, extend_sharded, EnumerationLimits, LocalStep,
    LocalView, ProtoAction, Protocol, ProtocolUniverse, ShardConfig,
};
use hpl_model::{ActionId, Computation, Permutation, ProcessId};
use hpl_protocols::failure::CrashableWorker;
use hpl_protocols::gossip::PushGossip;
use hpl_protocols::token_bus::{BroadcastBus, TokenBus};
use hpl_protocols::tracking::Toggler;
use hpl_protocols::two_generals::TwoGenerals;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Byte-identity: sizes, per-id computations, event bindings, payloads.
fn assert_identical(sharded: &ProtocolUniverse, sequential: &ProtocolUniverse, label: &str) {
    assert_eq!(
        sharded.universe().len(),
        sequential.universe().len(),
        "{label}: universe size"
    );
    for (id, c) in sequential.universe().iter() {
        assert_eq!(sharded.universe().get(id), c, "{label}: computation {id}");
        for e in c.iter() {
            assert_eq!(
                sharded.universe().event(e.id()),
                sequential.universe().event(e.id()),
                "{label}: binding of {:?}",
                e.id()
            );
        }
    }
    assert_eq!(
        sharded.payload_table(),
        sequential.payload_table(),
        "{label}: payload table"
    );
}

fn check_protocol<P: Protocol + Sync>(p: &P, depth: usize, label: &str) {
    let limits = EnumerationLimits {
        max_events: depth,
        max_computations: 1_000_000,
    };
    let seq = enumerate(p, limits).expect("within budget");
    assert!(seq.universe().is_prefix_closed(), "{label}: prefix closure");
    for shards in [1usize, 2, 8] {
        let out =
            enumerate_sharded(p, limits, &ShardConfig::with_shards(shards)).expect("within budget");
        assert_identical(&out.universe, &seq, &format!("{label} @ {shards} shard(s)"));
        assert_eq!(
            out.stats.unique,
            seq.universe().len(),
            "{label}: stats.unique"
        );
    }
}

#[test]
fn token_bus_is_shard_deterministic() {
    check_protocol(&TokenBus::new(3), 6, "token_bus(3)");
    check_protocol(&TokenBus::new(4), 5, "token_bus(4)");
}

#[test]
fn two_generals_is_shard_deterministic() {
    check_protocol(&TwoGenerals::new(3), 6, "two_generals");
    check_protocol(
        &TwoGenerals::with_deliberation(2, 2),
        5,
        "two_generals+deliberation",
    );
}

#[test]
fn crashable_worker_is_shard_deterministic() {
    check_protocol(&CrashableWorker { max_reports: 2 }, 5, "crashable_worker");
}

#[test]
fn push_gossip_is_shard_deterministic() {
    check_protocol(&PushGossip { n: 3 }, 4, "push_gossip(3)");
}

#[test]
fn toggler_is_shard_deterministic() {
    check_protocol(&Toggler { max_toggles: 2 }, 5, "toggler");
}

/// A pure pseudo-random protocol: the enabled steps are a deterministic
/// mix of the seed and the local view, exercising irregular branching
/// (0–3 actions per node, sends to varying peers, payload variety) that
/// the hand-written protocols never produce.
struct SeededChaos {
    n: usize,
    seed: u64,
}

impl SeededChaos {
    fn mix(&self, p: ProcessId, view: &LocalView) -> u64 {
        let mut h = self.seed ^ 0x9e37_79b9_7f4a_7c15;
        h = h
            .wrapping_mul(0x100_0000_01b3)
            .wrapping_add(p.index() as u64);
        for s in view.steps() {
            let tag = match *s {
                LocalStep::Sent { to, payload } => {
                    (1u64 << 32) | ((to.index() as u64) << 16) | u64::from(payload)
                }
                LocalStep::Received { from, payload } => {
                    (2u64 << 32) | ((from.index() as u64) << 16) | u64::from(payload)
                }
                LocalStep::Did { action } => (3u64 << 32) | u64::from(action.tag()),
            };
            h = (h ^ tag).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

impl Protocol for SeededChaos {
    fn system_size(&self) -> usize {
        self.n
    }

    fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        if view.len() >= 4 {
            return vec![];
        }
        let h = self.mix(p, view);
        let mut out = Vec::new();
        if h & 1 != 0 {
            out.push(ProtoAction::Send {
                to: ProcessId::new(((h >> 8) as usize) % self.n),
                payload: ((h >> 16) & 0xf) as u32,
            });
        }
        if h & 2 != 0 {
            out.push(ProtoAction::Internal {
                action: ActionId::new(((h >> 24) & 0xff) as u32),
            });
        }
        out
    }

    fn accepts(&self, p: ProcessId, view: &LocalView, from: ProcessId, payload: u32) -> bool {
        // an irregular but pure gate
        (self.mix(p, view) ^ (from.index() as u64) ^ u64::from(payload)) & 4 != 0
    }
}

#[test]
fn seeded_random_protocols_are_shard_deterministic() {
    for seed in [11u64, 5417, 990_001] {
        check_protocol(
            &SeededChaos { n: 3, seed },
            6,
            &format!("chaos(seed={seed})"),
        );
    }
}

// "Dedupe" below is the [D]-collapse: keep one computation per class of
// `x [D] y`. Under the trivial group, `ShardConfig::quotient()` performs
// it, keying each node on its processes' last event ids.

/// The first member (in `CompId` order) and the size of every
/// `canonical_key` class of an exact universe, in first-member order.
fn key_classes<'u>(
    exact: &'u ProtocolUniverse,
    elements: &[Permutation],
) -> Vec<(&'u Computation, u64)> {
    let mut class_of_key: HashMap<Vec<u64>, usize> = HashMap::new();
    let mut classes: Vec<(&Computation, u64)> = Vec::new();
    for (_, c) in exact.universe().iter() {
        let key = canonical_key(c, elements, &mut |m| exact.payload_of(m).unwrap_or(0));
        match class_of_key.entry(key) {
            Entry::Occupied(e) => classes[*e.get()].1 += 1,
            Entry::Vacant(e) => {
                e.insert(classes.len());
                classes.push((c, 1));
            }
        }
    }
    classes
}

#[test]
fn dedupe_and_trivial_quotient_partition_identically() {
    // The merge keys each node on its processes' last event ids (its
    // [D]-class) and canonicalizes only a class's first node; the
    // reference keys every member of the exact universe on symmetry.rs
    // structural signatures. The two must never drift: the quotient keeps
    // exactly the first member (in `CompId` order) of each class the
    // canonical key induces on the exact universe, with the class size
    // as its multiplicity — certified on the irregular payload-rich chaos
    // protocols under the trivial group and on the symmetric protocols
    // under their declared groups, from scratch and grown from a
    // checkpoint two levels shallower.
    let chaos: Vec<SeededChaos> = [7u64, 23, 4242]
        .into_iter()
        .map(|seed| SeededChaos { n: 3, seed })
        .collect();
    let (star, wide_star, gossip) = (
        BroadcastBus::with_chatter(4, 1),
        BroadcastBus::new(5),
        PushGossip { n: 4 },
    );
    let mut cases: Vec<(String, &(dyn Protocol + Sync), usize)> = Vec::new();
    for p in &chaos {
        cases.push((format!("chaos(seed={})", p.seed), p, 6));
    }
    cases.push(("star(4, chatter 1)".into(), &star, 7));
    cases.push(("star(5)".into(), &wide_star, 9));
    cases.push(("gossip(4)".into(), &gossip, 5));
    for (name, p, depth) in cases {
        let limits = EnumerationLimits {
            max_events: depth,
            max_computations: 1_000_000,
        };
        let elements = p.symmetry().elements_for(p.system_size());
        let identity = [Permutation::identity(p.system_size())];
        let exact = enumerate(p, limits).expect("within budget");
        let classes = key_classes(&exact, &elements);
        // the [D]-classes: a canonical key is computed once per class the
        // merge decides — every class but the root's, which every build
        // adopts, and for an extension only the classes below its
        // checkpoint
        let d_classes = key_classes(&exact, &identity);
        let shallow = depth - 2;
        let deep_d_classes = d_classes
            .iter()
            .filter(|(first, _)| first.len() > shallow)
            .count();
        let declared = elements.len() > 1;
        for shards in [1usize, 2] {
            let cfg = ShardConfig::with_shards(shards).quotient();
            let checkpoint = enumerate_sharded(
                p,
                EnumerationLimits {
                    max_events: shallow,
                    ..limits
                },
                &cfg.checkpoint(),
            )
            .expect("within budget")
            .frontier
            .expect("checkpoint requested");
            let scratch = enumerate_sharded(p, limits, &cfg).expect("within budget");
            let grown = extend_sharded(p, &checkpoint, limits, &cfg).expect("within budget");
            for (how, out, keys) in [
                ("scratch", scratch, d_classes.len() - 1),
                ("grown", grown, deep_d_classes),
            ] {
                let label = format!("{name} quotient, {how} @ {shards} shards");
                let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
                assert_eq!(orbits.group_order(), elements.len(), "{label}");
                assert_eq!(out.stats.explored, exact.universe().len(), "{label}");
                assert_eq!(
                    out.stats.canonical_keys,
                    if declared { keys } else { 0 },
                    "{label}: canonical keys"
                );
                assert_eq!(out.universe.universe().len(), classes.len(), "{label}");
                for ((id, c), &(first, size)) in out.universe.universe().iter().zip(&classes) {
                    assert_eq!(c, first, "{label}: representative {id}");
                    assert_eq!(
                        orbits.multiplicity(id),
                        size,
                        "{label}: multiplicity of {id}"
                    );
                }
                assert_eq!(
                    out.universe.payload_table(),
                    exact.payload_table(),
                    "{label}: payload table"
                );
            }
        }
    }
}

#[test]
fn dedupe_is_shard_deterministic_too() {
    // with the trivial-group quotient on, the collapsed universe and its
    // multiplicities must still be independent of the shard count (the
    // merge is what defines the order)
    for seed in [7u64, 23, 4242] {
        let p = SeededChaos { n: 3, seed };
        let limits = EnumerationLimits {
            max_events: 6,
            max_computations: 1_000_000,
        };
        let reference = enumerate_sharded(&p, limits, &ShardConfig::with_shards(1).quotient())
            .expect("within budget");
        let ref_orbits = reference.orbits.as_ref().expect("quotient attaches orbits");
        for shards in [2usize, 8] {
            let label = format!("trivial quotient chaos(seed={seed}) @ {shards} shards");
            let out = enumerate_sharded(&p, limits, &ShardConfig::with_shards(shards).quotient())
                .expect("within budget");
            assert_identical(&out.universe, &reference.universe, &label);
            assert_eq!(out.stats.explored, reference.stats.explored, "{label}");
            assert_eq!(out.stats.unique, reference.stats.unique, "{label}");
            let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
            for (id, _) in reference.universe.universe().iter() {
                assert_eq!(
                    orbits.multiplicity(id),
                    ref_orbits.multiplicity(id),
                    "{label}: multiplicity of {id}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Streaming merge vs buffered merge (PR 4)
// ---------------------------------------------------------------------

/// The buffered reference configuration: one batch per task (the batch
/// cap far exceeds any subtree here), i.e. exactly the pre-streaming
/// engine's buffering behaviour.
fn buffered_cfg(shards: usize) -> ShardConfig {
    ShardConfig::with_shards(shards).batch_nodes(usize::MAX)
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

    /// The streaming merge is byte-identical to the buffered merge (and
    /// to the sequential reference) for every shard count × batch size,
    /// across seeded irregular protocols — computations, `CompId` order,
    /// event bindings and payload tables all agree.
    #[test]
    fn streaming_merge_matches_buffered_merge(
        seed in 0u64..1_000_000,
        n in 2usize..4,
        batch in 1usize..64,
    ) {
        let p = SeededChaos { n, seed };
        let limits = EnumerationLimits {
            max_events: 5,
            max_computations: 1_000_000,
        };
        let seq = enumerate(&p, limits).expect("within budget");
        for shards in [1usize, 2, 8] {
            let buffered = enumerate_sharded(&p, limits, &buffered_cfg(shards))
                .expect("within budget");
            let streamed = enumerate_sharded(
                &p,
                limits,
                &ShardConfig::with_shards(shards).batch_nodes(batch),
            )
            .expect("within budget");
            assert_identical(
                &streamed.universe,
                &buffered.universe,
                &format!("streamed vs buffered chaos(seed={seed}, n={n}) @ {shards} shards, batch={batch}"),
            );
            assert_identical(
                &streamed.universe,
                &seq,
                &format!("streamed vs sequential chaos(seed={seed}, n={n}) @ {shards} shards, batch={batch}"),
            );
            assert_eq!(streamed.stats.explored, buffered.stats.explored);
            assert_eq!(streamed.stats.unique, buffered.stats.unique);
            // streaming in smaller batches may only raise the batch
            // count, never change what is merged
            assert!(streamed.stats.batches >= buffered.stats.batches);
        }
    }
}

#[test]
fn streaming_merge_matches_buffered_for_shipped_protocols() {
    // the fixed-seed corollary of the proptest over the real protocols:
    // streaming with a tiny batch size changes nothing but the batch count
    let limits = EnumerationLimits {
        max_events: 5,
        max_computations: 1_000_000,
    };
    for shards in [1usize, 2, 8] {
        let buffered = enumerate_sharded(&TokenBus::new(3), limits, &buffered_cfg(shards)).unwrap();
        let streamed = enumerate_sharded(
            &TokenBus::new(3),
            limits,
            &ShardConfig::with_shards(shards).batch_nodes(3),
        )
        .unwrap();
        assert_identical(
            &streamed.universe,
            &buffered.universe,
            &format!("token_bus streamed vs buffered @ {shards} shards"),
        );
    }
}

#[test]
fn streaming_quotient_preserves_orbit_multiplicities() {
    // multiplicities are accumulated in splice order: batch size and
    // shard count must not perturb them
    let limits = EnumerationLimits {
        max_events: 6,
        max_computations: 1_000_000,
    };
    let reference =
        enumerate_sharded(&PushGossip { n: 3 }, limits, &buffered_cfg(1).quotient()).unwrap();
    let ref_orbits = reference.orbits.expect("quotient attaches orbits");
    for shards in [2usize, 8] {
        for batch in [1usize, 17] {
            let out = enumerate_sharded(
                &PushGossip { n: 3 },
                limits,
                &ShardConfig::with_shards(shards)
                    .quotient()
                    .batch_nodes(batch),
            )
            .unwrap();
            let orbits = out.orbits.expect("quotient attaches orbits");
            assert_identical(
                &out.universe,
                &reference.universe,
                &format!("quotient gossip @ {shards} shards, batch={batch}"),
            );
            assert_eq!(orbits.full_size(), ref_orbits.full_size());
            for id in out.universe.universe().ids() {
                assert_eq!(
                    orbits.multiplicity(id),
                    ref_orbits.multiplicity(id),
                    "multiplicity of {id} @ {shards} shards, batch={batch}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// ClassCache generation keys across the renumbering merge (PR 4)
// ---------------------------------------------------------------------

/// Regression test: the streaming merge's trusted insertions defer the
/// universe's generation bump to one commit at `finish()`, and that
/// committed generation must behave exactly like any other state key —
/// distinct across enumerations (even byte-identical ones), stable for
/// the lifetime of the result, and shared by clones — so a shared
/// [`ClassCache`] can never serve one enumeration's `[P]`-partitions to
/// another.
#[test]
fn class_cache_generation_keys_survive_renumbering() {
    use hpl_core::{ClassCache, Evaluator, Formula, Interpretation};
    use hpl_model::ProcessSet;

    let limits = EnumerationLimits {
        max_events: 5,
        max_computations: 1_000_000,
    };
    let cfg = ShardConfig::with_shards(2).batch_nodes(4);
    let a = enumerate_sharded(&TokenBus::new(3), limits, &cfg).unwrap();
    let b = enumerate_sharded(&TokenBus::new(3), limits, &cfg).unwrap();

    // byte-identical universes, distinct state keys
    assert_identical(&a.universe, &b.universe, "repeat enumeration");
    let (ua, ub) = (a.universe.universe(), b.universe.universe());
    assert_ne!(
        ua.generation(),
        ub.generation(),
        "each enumeration must commit a fresh generation"
    );
    // the key is stable: observing it twice gives the same value
    assert_eq!(ua.generation(), ua.generation());
    // clones share content and therefore the key
    assert_eq!(ua.clone().generation(), ua.generation());

    // a shared cache serves both universes correct partitions (both
    // generations fit the retention window; neither aliases the other)
    let cache = ClassCache::shared();
    let mut interp = Interpretation::new();
    let moved = interp.register("moved", |c| c.sends() > 0);
    let f = Formula::knows(
        ProcessSet::singleton(hpl_model::ProcessId::new(1)),
        Formula::atom(moved),
    );
    let sat_a = Evaluator::with_class_cache(ua, &interp, cache.clone()).sat_set(&f);
    let sat_b = Evaluator::with_class_cache(ub, &interp, cache.clone()).sat_set(&f);
    assert_eq!(sat_a, sat_b, "identical universes, identical verdicts");
    assert!(
        cache.len() >= 2,
        "distinct generations must occupy distinct cache slots"
    );
    // and a warm re-query of the first universe still answers correctly
    let sat_a2 = Evaluator::with_class_cache(ua, &interp, cache).sat_set(&f);
    assert_eq!(sat_a, sat_a2);
}
