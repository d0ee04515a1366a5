//! Differential growth-testing harness for incremental enumeration.
//!
//! `extend_sharded` grows a checkpointed universe in place; this suite
//! certifies, over randomized protocols × shard counts {1, 2, 8} ×
//! merge modes {full, quotient} × batch sizes × multi-step
//! growth schedules (e.g. 4 → 6 → 9), that at **every** horizon of a
//! schedule the grown universe is byte-identical to from-scratch
//! enumeration at that horizon: same computations in the same `CompId`
//! order, same event-id bindings, same payload table. Orbit
//! multiplicities (quotient mode) and `ClassCache` partitions grown
//! incrementally through the recorded `GrowthMap` ride along: both
//! must equal their cold-rebuilt counterparts.

use hpl_core::{
    enumerate_sharded, extend_sharded, ClassCache, EnumerationLimits, IsoIndex, LocalStep,
    LocalView, ProtoAction, Protocol, ProtocolUniverse, ShardConfig, ShardedEnumeration,
};
use hpl_model::{ActionId, ProcessId, ProcessSet};
use proptest::prelude::*;
use std::sync::Arc;

/// A pure pseudo-random protocol with a per-process step cap: enabled
/// actions are a deterministic mix of the seed and the local view, so
/// every seed is a different protocol exercising irregular branching,
/// sends with varied payloads, receive gating, and internal actions.
struct ChaosGrow {
    n: usize,
    seed: u64,
    max_len: usize,
}

impl ChaosGrow {
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

impl Protocol for ChaosGrow {
    fn system_size(&self) -> usize {
        self.n
    }

    fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        if view.len() >= self.max_len {
            return vec![];
        }
        let h = self.mix(p, view);
        let mut out = Vec::new();
        if h & 1 != 0 {
            out.push(ProtoAction::Send {
                to: ProcessId::new(((h >> 8) as usize) % self.n),
                payload: ((h >> 16) & 0x7) as u32,
            });
        }
        if h & 2 != 0 {
            out.push(ProtoAction::Internal {
                action: ActionId::new(((h >> 24) & 0xf) as u32),
            });
        }
        out
    }

    fn accepts(&self, p: ProcessId, view: &LocalView, from: ProcessId, payload: u32) -> bool {
        (self.mix(p, view) ^ (from.index() as u64) ^ u64::from(payload)) & 4 != 0
    }
}

/// Byte-identity of two protocol universes: sizes, per-id
/// computations, event-id bindings, payload tables.
fn assert_identical(grown: &ProtocolUniverse, scratch: &ProtocolUniverse, label: &str) {
    assert_eq!(
        grown.universe().len(),
        scratch.universe().len(),
        "{label}: universe size"
    );
    for (id, c) in scratch.universe().iter() {
        assert_eq!(grown.universe().get(id), c, "{label}: computation {id}");
        for e in c.iter() {
            assert_eq!(
                grown.universe().event(e.id()),
                scratch.universe().event(e.id()),
                "{label}: binding of {:?}",
                e.id()
            );
        }
    }
    assert_eq!(
        grown.payload_table(),
        scratch.payload_table(),
        "{label}: payload table"
    );
}

/// Orbit structure identity: representative count and per-representative
/// multiplicity (quotient mode only; both sides must agree on presence).
fn assert_same_orbits(grown: &ShardedEnumeration, scratch: &ShardedEnumeration, label: &str) {
    match (&grown.orbits, &scratch.orbits) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.orbit_count(), b.orbit_count(), "{label}: orbit count");
            for (id, _) in scratch.universe.universe().iter() {
                assert_eq!(
                    a.multiplicity(id),
                    b.multiplicity(id),
                    "{label}: multiplicity of {id}"
                );
            }
            assert_eq!(a.full_size(), b.full_size(), "{label}: full size");
        }
        (a, b) => panic!(
            "{label}: orbit presence diverged (grown: {}, scratch: {})",
            a.is_some(),
            b.is_some()
        ),
    }
}

/// Partition identity: the `ClassCache`-grown partition of the deeper
/// universe must equal a cold rebuild, for every queried process set.
fn assert_same_partitions(
    warm: &Arc<ClassCache>,
    grown: &ShardedEnumeration,
    sets: &[ProcessSet],
    label: &str,
) {
    let inc = IsoIndex::with_cache(grown.universe.universe(), Arc::clone(warm));
    let cold = IsoIndex::new(grown.universe.universe());
    for &p in sets {
        let a = inc.classes(p);
        let b = cold.classes(p);
        assert_eq!(a.class_count(), b.class_count(), "{label}: classes of {p}");
        for (id, _) in grown.universe.universe().iter() {
            assert_eq!(
                a.class_of(id),
                b.class_of(id),
                "{label}: class of {id} under {p}"
            );
        }
        for cl in 0..a.class_count() {
            assert_eq!(
                a.member_set(cl),
                b.member_set(cl),
                "{label}: member set {cl} under {p}"
            );
        }
    }
}

fn config_for(mode: usize, shards: usize, batch: usize) -> ShardConfig {
    let base = ShardConfig::with_shards(shards)
        .batch_nodes(batch)
        .checkpoint();
    match mode {
        0 => base,
        _ => base.quotient(),
    }
}

fn mode_name(mode: usize) -> &'static str {
    match mode {
        0 => "full",
        _ => "quotient",
    }
}

/// Growth schedules: strictly increasing horizons; the harness grows
/// along each prefix and certifies every intermediate horizon.
const SCHEDULES: &[&[usize]] = &[&[4, 6, 9], &[3, 5, 7, 9], &[2, 9], &[5, 6, 7]];

fn limits(depth: usize) -> EnumerationLimits {
    EnumerationLimits {
        max_events: depth,
        max_computations: 1_000_000,
    }
}

/// The differential check for one (protocol, shards, mode, batch,
/// schedule) cell. Returns universes sizes seen, for the vacuity guard.
fn check_growth_schedule(
    protocol: &ChaosGrow,
    shards: usize,
    mode: usize,
    batch: usize,
    schedule: &[usize],
) -> usize {
    let cfg = config_for(mode, shards, batch);
    let label = |d: usize| {
        format!(
            "seed {} @ {} shard(s), {} mode, batch {batch}, horizon {d}",
            protocol.seed,
            shards,
            mode_name(mode)
        )
    };
    let sets = [
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1, 2]),
        ProcessSet::full(protocol.n),
    ];

    let mut cur = enumerate_sharded(protocol, limits(schedule[0]), &cfg).expect("seed horizon");
    let mut grown_total = cur.universe.universe().len();
    for &d in &schedule[1..] {
        let frontier = cur.frontier.take().expect("checkpoint requested");
        let next = extend_sharded(protocol, &frontier, limits(d), &cfg).expect("extension");
        let scratch = enumerate_sharded(protocol, limits(d), &cfg).expect("scratch");
        assert_identical(&next.universe, &scratch.universe, &label(d));
        assert_same_orbits(&next, &scratch, &label(d));

        let growth = next.growth.as_ref().expect("extension yields growth map");
        assert_eq!(
            growth.len(),
            cur.universe.universe().len(),
            "{}: growth map covers the source universe",
            label(d)
        );

        // ClassCache differential: warm on the shallow universe, learn
        // the growth edge, and the grown partitions must be
        // byte-identical to cold rebuilds on the deeper universe
        let cache = ClassCache::shared();
        let warm = IsoIndex::with_cache(cur.universe.universe(), Arc::clone(&cache));
        for &p in &sets {
            let _ = warm.classes(p);
        }
        cache.note_growth(growth);
        assert_same_partitions(&cache, &next, &sets, &label(d));

        grown_total += next.universe.universe().len();
        cur = next;
    }
    grown_total
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole certificate: grown universes are byte-identical to
    /// from-scratch enumeration at every horizon, for every shard
    /// count × merge mode × schedule, on randomized protocols.
    #[test]
    fn grown_universes_are_byte_identical_to_scratch(
        seed in 0u64..1_000_000,
        shards_ix in 0usize..3,
        mode in 0usize..2,
        schedule_ix in 0usize..SCHEDULES.len(),
    ) {
        let shards = [1, 2, 8][shards_ix];
        let protocol = ChaosGrow { n: 3, seed, max_len: 3 };
        check_growth_schedule(&protocol, shards, mode, 64, SCHEDULES[schedule_ix]);
    }

    /// Tiny batches force mid-subtree flushes and parked-batch reorder
    /// traffic on the extension path too.
    #[test]
    fn growth_is_batch_size_invariant(
        seed in 1_000_000u64..2_000_000,
        batch in 1usize..16,
        mode in 0usize..2,
    ) {
        let protocol = ChaosGrow { n: 3, seed, max_len: 3 };
        check_growth_schedule(&protocol, 2, mode, batch, &[4, 6, 9]);
    }
}

/// The harness must not pass vacuously: over a handful of fixed seeds,
/// growth steps must actually add computations beyond the replayed
/// frontier at least somewhere.
#[test]
fn growth_harness_is_not_vacuous() {
    let mut total_new = 0usize;
    for seed in [7u64, 1031, 88_417] {
        let protocol = ChaosGrow {
            n: 3,
            seed,
            max_len: 3,
        };
        let cfg = config_for(0, 2, 64);
        let shallow = enumerate_sharded(&protocol, limits(3), &cfg).expect("shallow");
        let frontier = shallow.frontier.as_ref().expect("checkpoint");
        let next = extend_sharded(&protocol, frontier, limits(9), &cfg).expect("extension");
        assert!(
            next.stats.resumed > 0,
            "seed {seed}: extension should replay the frontier"
        );
        total_new += next
            .universe
            .universe()
            .len()
            .saturating_sub(shallow.universe.universe().len());
    }
    assert!(
        total_new > 0,
        "no growth schedule added computations — the differential harness is vacuous"
    );
}
