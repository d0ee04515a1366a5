//! Integration suite for the fault-model universe pipeline: seeded
//! lossy/partitioned simulations → canonicalized traces → deduplicated,
//! prefix-closed universes — byte-deterministic across shard counts —
//! plus the empirical Two Generals witness as a directed assertion.

use hpl_core::{
    build_fault_universe, Evaluator, FaultModel, FaultUniverse, Formula, Interpretation,
};
use hpl_model::ProcessId;
use hpl_protocols::two_generals::{
    attack_atom, fault_witness, nested, sim_fault_universe, GeneralNode,
};
use hpl_sim::{ChannelConfig, DelayModel, NetworkConfig, PartitionSchedule, SimTime};

/// Serializes everything observable about a fault universe, for
/// byte-identity comparisons.
fn fingerprint(fu: &FaultUniverse) -> String {
    let mut out = String::new();
    for (id, c) in fu.universe.iter() {
        out.push_str(&format!("#{} {}\n", id.index(), c.render()));
    }
    out.push_str(&format!("runs {:?}\nstats {:?}\n", fu.run_ids, fu.stats));
    out
}

fn lossy_partitioned_model(runs: usize, drop: f64) -> FaultModel {
    let net = NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 12 },
        drop_probability: drop,
        fifo: false,
    })
    .with_partition(PartitionSchedule::split(
        [0],
        [1],
        SimTime::from_ticks(15),
        Some(SimTime::from_ticks(30)),
    ));
    FaultModel::new(net).runs(runs).seeded(29)
}

#[test]
fn fault_universe_is_byte_identical_across_shard_counts() {
    let model = lossy_partitioned_model(16, 0.25);
    let reference = fingerprint(&sim_fault_universe(3, &model, 1).unwrap());
    for shards in [2, 8] {
        let alt = fingerprint(&sim_fault_universe(3, &model, shards).unwrap());
        assert_eq!(
            reference, alt,
            "{shards}-shard construction diverged from the sequential reference"
        );
    }
}

#[test]
fn fault_universe_replays_identically() {
    let model = lossy_partitioned_model(10, 0.4);
    let a = fingerprint(&sim_fault_universe(2, &model, 4).unwrap());
    let b = fingerprint(&sim_fault_universe(2, &model, 4).unwrap());
    assert_eq!(
        a, b,
        "same (seed, fault config) must rebuild byte-identically"
    );
}

#[test]
fn universes_are_deduplicated_and_prefix_closed() {
    let model = lossy_partitioned_model(20, 0.3);
    let fu = sim_fault_universe(3, &model, 4).unwrap();
    assert!(fu.universe.is_prefix_closed());
    assert_eq!(fu.run_ids.len(), 20);
    assert!(fu.stats.distinct_traces <= 20);
    assert!(
        fu.stats.distinct_traces < 20,
        "20 lossy runs of a 6-message exchange collide somewhere"
    );
    // every run id points at a real computation in the universe
    for &id in &fu.run_ids {
        let _ = fu.universe.get(id);
    }
    // conservation carries through the aggregation
    assert_eq!(fu.stats.sent, fu.stats.delivered + fu.stats.dropped);
    assert!(fu.stats.partition_dropped > 0, "the window must bite");
}

/// The Two Generals impossibility as a directed integration test over
/// the whole sweep: at every drop rate — zero included — and across a
/// partition that cuts the generals apart and heals, common knowledge of
/// `attack-planned` is unattained in the sampled universe, while plain
/// knowledge climbs wherever messengers survive.
#[test]
fn two_generals_witness_over_the_drop_sweep() {
    let base = FaultModel::new(NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 10 },
        drop_probability: 0.0,
        fifo: false,
    }))
    .runs(24)
    .seeded(17);

    // cut mid-exchange, heal late: outside the coupled drop chain below,
    // so its delivered count is not ordered against the drop points
    let healed = FaultModel {
        network: base
            .network
            .clone()
            .with_partition(PartitionSchedule::split(
                [0],
                [1],
                SimTime::from_ticks(6),
                Some(SimTime::from_ticks(60)),
            )),
        ..base.clone()
    };
    let w = fault_witness(3, &healed, 4).unwrap();
    assert!(
        !w.ck_attained,
        "common knowledge attained across the partition"
    );
    assert!(
        w.knows_attained,
        "plain knowledge dead across the partition"
    );
    assert!(w.dropped > 0, "the partition must cut something");
    assert!(
        w.max_knowledge_level >= 1,
        "messages after the heal still teach g1 something"
    );

    let mut prev_delivered = usize::MAX;
    for model in base.crash_drop_grid(&[0.0, 0.1, 0.25, 0.5], &[]) {
        let w = fault_witness(3, &model, 4).unwrap();
        assert!(
            !w.ck_attained,
            "common knowledge attained at drop {}",
            w.drop_probability
        );
        assert!(
            w.knows_attained,
            "plain knowledge dead at drop {}",
            w.drop_probability
        );
        if w.drop_probability > 0.0 {
            assert!(w.dropped > 0);
            assert!(
                w.max_knowledge_level >= 1,
                "survivors still teach g1 something"
            );
        }
        // paired seeds make the delivered count monotone along the sweep
        assert!(
            w.delivered <= prev_delivered,
            "coupled sweep must not deliver more at a higher drop rate"
        );
        prev_delivered = w.delivered;
    }
}

/// The same witness, evaluated by hand against the raw universe — the
/// nested ladder must agree with `fault_witness`'s summary fields.
#[test]
fn witness_fields_match_direct_evaluation() {
    let model = lossy_partitioned_model(12, 0.2);
    let fu = sim_fault_universe(2, &model, 2).unwrap();
    let w = fault_witness(2, &model, 2).unwrap();
    let mut interp = Interpretation::new();
    let attack = attack_atom(&mut interp);
    let mut eval = Evaluator::new(&fu.universe, &interp);
    assert_eq!(
        w.ck_attained,
        !eval.sat_set(&Formula::common(attack.clone())).is_empty()
    );
    for k in 1..=w.max_knowledge_level {
        assert!(
            !eval.sat_set(&nested(k, &attack)).is_empty(),
            "level {k} claimed attained but unsatisfied"
        );
    }
    assert!(eval
        .sat_set(&nested(w.max_knowledge_level + 1, &attack))
        .is_empty());
    assert_eq!(w.universe_size, fu.universe.len());
}

/// Crash × drop grid points build universes too (the other tentpole
/// axis): a crashed acker caps the exchange, and the trace records the
/// crash as an internal event every knowledge query can see.
#[test]
fn crash_grid_points_are_enumerable() {
    let base = FaultModel::new(NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Constant(3),
        drop_probability: 0.0,
        fifo: false,
    }))
    .runs(4)
    .seeded(7);
    let grid = base.crash_drop_grid(
        &[0.0, 0.5],
        &[
            Vec::new(),
            vec![(ProcessId::new(1), SimTime::from_ticks(2))],
        ],
    );
    assert_eq!(grid.len(), 4);
    for model in &grid {
        let fu = build_fault_universe(2, model, 2, |_| Box::new(GeneralNode::new(2))).unwrap();
        assert!(!fu.universe.is_empty());
        if !model.crashes.is_empty() {
            // g1 crashes at t2, before the first delivery at t3: nothing
            // is ever received in any run
            assert_eq!(
                fu.stats.delivered, 0,
                "a g1 crashed before first delivery cannot receive"
            );
        }
    }
}
