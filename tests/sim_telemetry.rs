//! The simulator's `sim.*` counters on the global recorder add up the
//! exact per-run `SimStats`, across runs and across the threads of a
//! sharded fault universe, through counter handles resolved before the
//! recorder was reset. Alone in its own test binary because it reads the
//! process-global recorder, which a concurrent test would also feed.

use hpl_core::FaultModel;
use hpl_protocols::two_generals::sim_fault_universe;
use hpl_sim::{ChannelConfig, DelayModel, NetworkConfig};

#[test]
fn sim_counters_sum_the_runs_stats() {
    let model = FaultModel::new(NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 10 },
        drop_probability: 0.25,
        fifo: false,
    }))
    .runs(200)
    .seeded(7);

    hpl_telemetry::set_enabled(true);
    // resolves the simulator's handles; `reset` must zero their cells in
    // place, or later runs would count into cells the recorder dropped
    sim_fault_universe(3, &model, 2).expect("within budget");
    hpl_telemetry::reset();
    let first = sim_fault_universe(3, &model, 2).expect("within budget");
    let second = sim_fault_universe(3, &model, 2).expect("within budget");
    let counters = hpl_telemetry::snapshot().counters;
    hpl_telemetry::set_enabled(false);

    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let (a, b) = (first.stats, second.stats);
    assert!(a.dropped > 0, "the lossy model drops messages");
    assert_eq!(counter("sim.sent"), (a.sent + b.sent) as u64);
    assert_eq!(counter("sim.delivered"), (a.delivered + b.delivered) as u64);
    assert_eq!(counter("sim.dropped"), (a.dropped + b.dropped) as u64);
}
