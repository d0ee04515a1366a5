//! The `build` workload: every op builds one universe with the sharded
//! engine, the quotient canonicalizer or the fault-universe builder.

use crate::catalogue::{Expected, Spec, FAULT_RUNS};
use crate::trace::Probe;
use hpl_bench::InterleavingStress;
use hpl_core::{
    enumerate_sharded, extend_sharded, CoreError, EnumerationLimits, EnumerationStats, FaultModel,
    FaultStats, Frontier, ShardConfig,
};
use hpl_protocols::token_bus::{BroadcastBus, TokenBus};
use hpl_protocols::two_generals;
use hpl_sim::{ChannelConfig, DelayModel, NetworkConfig};

/// Rounds of the Two Generals exchange in the fault spec.
const GENERAL_ROUNDS: usize = 3;

/// What the build ops share: the horizon-11 star checkpoint that
/// [`Spec::StarExtend`] resumes, and the seeded fault model.
#[derive(Debug)]
pub struct BuildSetup {
    frontier: Frontier,
    faults: FaultModel,
}

/// Every program call the build workload makes before its first op.
pub fn setup(seed: u64, shards: usize) -> Result<BuildSetup, CoreError> {
    let checkpoint = enumerate_sharded(
        &BroadcastBus::new(5),
        EnumerationLimits::depth(11),
        &ShardConfig::with_shards(shards).quotient().checkpoint(),
    )?;
    let frontier = checkpoint
        .frontier
        .expect("checkpoint mode attaches a frontier");
    let faults = FaultModel::new(NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 10 },
        drop_probability: 0.25,
        fifo: false,
    }))
    .runs(FAULT_RUNS)
    .seeded(seed);
    Ok(BuildSetup { frontier, faults })
}

/// One op's outcome, reduced to what its check and the per-layer
/// metrics read.
#[derive(Clone, Copy, Debug)]
pub struct Built {
    pub spec: Spec,
    pub counts: Expected,
    /// Engine counters; `None` for [`Spec::Faults`].
    pub stats: Option<EnumerationStats>,
    /// For [`Spec::Faults`]: Two Generals' common knowledge is never
    /// attained while plain knowledge is attained somewhere.
    pub witness_holds: bool,
    /// For [`Spec::Faults`]: distinct full-run traces sampled.
    pub distinct_traces: usize,
}

impl Built {
    /// Does the op reproduce the catalogue's recorded counts?
    pub fn correct(&self) -> bool {
        self.counts == self.spec.expected() && self.witness_holds
    }
}

/// Runs one build op at `shards` shards, inside a span named for the
/// engine mode it exercises.
pub fn run(
    setup: &BuildSetup,
    spec: Spec,
    shards: usize,
    probe: &mut impl Probe,
    op: usize,
) -> Result<Built, CoreError> {
    if spec == Spec::Faults {
        let s = probe.enter("two_generals.fault_witness", op);
        let w = two_generals::fault_witness(GENERAL_ROUNDS, &setup.faults, shards);
        probe.exit(s);
        let w = w?;
        return Ok(Built {
            spec,
            counts: Expected {
                explored: w.runs,
                unique: w.universe_size,
                resumed: 0,
                group_order: 1,
            },
            stats: None,
            witness_holds: !w.ck_attained && w.knows_attained,
            distinct_traces: w.distinct_traces,
        });
    }
    let exact = ShardConfig::with_shards(shards);
    let quotient = exact.quotient();
    let span = match spec {
        Spec::StressExact => "parallel.exact",
        Spec::StarExtend => "parallel.extend",
        _ => "parallel.quotient",
    };
    let s = probe.enter_cpu(span, op);
    let out = match spec {
        Spec::StressExact => enumerate_sharded(
            &InterleavingStress { n: 3, k: 4 },
            EnumerationLimits::depth(12),
            &exact,
        ),
        Spec::BusQuotient => enumerate_sharded(
            &TokenBus::with_chatter(3, 2),
            EnumerationLimits::depth(10),
            &quotient,
        ),
        Spec::StarQuotient => enumerate_sharded(
            &BroadcastBus::with_chatter(4, 1),
            EnumerationLimits::depth(8),
            &quotient,
        ),
        Spec::StarExtend => extend_sharded(
            &BroadcastBus::new(5),
            &setup.frontier,
            EnumerationLimits::depth(12),
            &quotient,
        ),
        Spec::Faults => unreachable!("fault ops return above"),
    };
    probe.exit(s);
    let stats = out?.stats;
    Ok(Built {
        spec,
        counts: Expected {
            explored: stats.explored,
            unique: stats.unique,
            resumed: stats.resumed,
            group_order: stats.group_order,
        },
        stats: Some(stats),
        witness_holds: true,
        distinct_traces: 0,
    })
}

/// `sim_fault_universe` alone — the fault builder without the witness
/// evaluation — timed for the fault layer's per-layer metrics.
pub fn fault_universe(
    setup: &BuildSetup,
    shards: usize,
    probe: &mut impl Probe,
    op: usize,
) -> Result<FaultStats, CoreError> {
    let s = probe.enter("fault_universe.build", op);
    let fu = two_generals::sim_fault_universe(GENERAL_ROUNDS, &setup.faults, shards);
    probe.exit(s);
    Ok(fu?.stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::SPECS;
    use crate::host::nproc;
    use crate::trace::Off;

    /// The recorded counts are what a from-scratch run produces, at one
    /// shard and at the default shard count.
    #[test]
    fn catalogue_counts_match_from_scratch_runs() {
        let _alone = crate::host::AFFINITY
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let setup = setup(1, nproc()).expect("the checkpoint builds");
        for shards in [1, nproc()] {
            for spec in SPECS {
                let built = run(&setup, spec, shards, &mut Off, 0).expect("within budget");
                assert_eq!(built.counts, spec.expected(), "{} at {shards}", spec.name());
                assert!(built.correct(), "{} at {shards}", spec.name());
            }
        }
    }
}
