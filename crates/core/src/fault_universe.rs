//! Fault-model universes: bridging lossy-network simulation into the
//! epistemic calculus.
//!
//! The paper's Two Generals corollary is a statement about *faulty*
//! channels, yet enumerated universes assume reliable delivery. This
//! module closes the gap: a [`FaultModel`] describes a fault regime
//! (loss rates, partition schedules, crash schedules), and
//! [`build_fault_universe`] runs `N` seeded simulations under it,
//! canonicalizes the recorded [`Computation`] traces so that identical
//! local histories share event ids across runs, and inserts them into a
//! [`Universe`] — where [`Evaluator`](crate::Evaluator) can then ask
//! knowledge questions ("is `attack-planned` ever common knowledge at
//! drop rate 0.25?") against empirically sampled fault behaviour.
//!
//! The construction is **byte-deterministic** for a given
//! `(base_seed, fault config, runs)` triple, *independent of the shard
//! count*: runs are simulated in parallel across shards, but each run
//! is a pure function of its own derived seed, and traces are interned
//! and inserted sequentially in run-index order.

use crate::error::CoreError;
use crate::universe::{CompId, Universe};
use hpl_model::{ActionId, Computation, Event, EventId, EventKind, MessageId, ProcessId};
use hpl_sim::{NetworkConfig, Node, SimTime, Simulation};
use std::collections::HashMap;

/// A fault regime to sample system computations under: the network
/// configuration (loss, delays, partitions) plus a crash schedule, the
/// number of seeded runs, and the simulation horizon.
#[derive(Clone, Debug)]
pub struct FaultModel {
    /// Link configuration — delays, per-link drop probabilities and
    /// timed [`hpl_sim::PartitionSchedule`]s.
    pub network: NetworkConfig,
    /// Processes to crash, and when.
    pub crashes: Vec<(ProcessId, SimTime)>,
    /// Number of seeded simulation runs to sample.
    pub runs: usize,
    /// Seed of run `i` is `base_seed + i` (wrapping).
    pub base_seed: u64,
    /// Virtual-time horizon each run is driven to.
    pub horizon: SimTime,
    /// When `true` (the default), the universe is closed under prefixes
    /// after insertion, as the paper's semantics expects.
    pub prefix_close: bool,
}

impl Default for FaultModel {
    fn default() -> Self {
        FaultModel {
            network: NetworkConfig::default(),
            crashes: Vec::new(),
            runs: 16,
            base_seed: 0,
            horizon: SimTime::MAX,
            prefix_close: true,
        }
    }
}

impl FaultModel {
    /// A fault model over the given network with defaults elsewhere.
    #[must_use]
    pub fn new(network: NetworkConfig) -> Self {
        FaultModel {
            network,
            ..FaultModel::default()
        }
    }

    /// Sets the number of seeded runs.
    #[must_use]
    pub fn runs(mut self, runs: usize) -> Self {
        self.runs = runs;
        self
    }

    /// Sets the base seed (run `i` uses `base_seed + i`).
    #[must_use]
    pub fn seeded(mut self, base_seed: u64) -> Self {
        self.base_seed = base_seed;
        self
    }

    /// Sets the per-run virtual-time horizon.
    #[must_use]
    pub fn until(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Schedules a crash of `p` at `at` in every run.
    #[must_use]
    pub fn with_crash(mut self, p: ProcessId, at: SimTime) -> Self {
        self.crashes.push((p, at));
        self
    }

    /// Disables or enables prefix closure of the resulting universe.
    #[must_use]
    pub fn prefix_closed(mut self, close: bool) -> Self {
        self.prefix_close = close;
        self
    }

    /// The crash × drop grid: one variant of this model per
    /// `(drop rate, crash schedule)` combination, with the drop rate
    /// applied to the network's default channel. Grid axes the fault
    /// sweep in `repro` iterates over.
    #[must_use]
    pub fn crash_drop_grid(
        &self,
        drop_rates: &[f64],
        crash_schedules: &[Vec<(ProcessId, SimTime)>],
    ) -> Vec<FaultModel> {
        let mut grid = Vec::with_capacity(drop_rates.len() * crash_schedules.len().max(1));
        let schedules: &[Vec<(ProcessId, SimTime)>] = if crash_schedules.is_empty() {
            &[Vec::new()]
        } else {
            crash_schedules
        };
        for &drop in drop_rates {
            for crashes in schedules {
                let mut m = self.clone();
                m.network.default.drop_probability = drop;
                for o in &mut m.network.overrides {
                    o.1.drop_probability = drop;
                }
                m.crashes = crashes.clone();
                grid.push(m);
            }
        }
        grid
    }

    /// Validates the model against a system of `n` processes: the
    /// network configuration must pass the sim-layer checks and every
    /// scheduled crash must name a process in range. This is the exact
    /// predicate [`build_fault_universe`] gates on, exposed so the
    /// static contract audit can cross-check it against the sim-layer
    /// ground truth.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidFaultModel`] describing the first problem.
    pub fn validate(&self, n: usize) -> Result<(), CoreError> {
        if let Err(e) = self.network.validate() {
            return Err(CoreError::InvalidFaultModel {
                reason: e.to_string(),
            });
        }
        for (p, _) in &self.crashes {
            if p.index() >= n {
                return Err(CoreError::InvalidFaultModel {
                    reason: format!("crash schedule names process {p} but the system has {n}"),
                });
            }
        }
        Ok(())
    }
}

/// Aggregate statistics of a fault-universe construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Seeded runs simulated.
    pub runs: usize,
    /// Distinct full-run traces after dedup (≤ `runs`).
    pub distinct_traces: usize,
    /// Computations added by prefix closure.
    pub prefix_added: usize,
    /// Messages sent, summed over runs.
    pub sent: usize,
    /// Messages delivered, summed over runs.
    pub delivered: usize,
    /// Messages dropped (loss + crash + partition), summed over runs.
    pub dropped: usize,
    /// The subset of `dropped` lost to partition windows, summed.
    pub partition_dropped: usize,
}

/// A universe sampled from seeded fault-model simulations, plus the
/// id of each run's full trace and aggregate run statistics.
#[derive(Clone, Debug)]
pub struct FaultUniverse {
    /// The resulting (optionally prefix-closed) universe.
    pub universe: Universe,
    /// `run_ids[i]` is the computation id of run `i`'s full trace;
    /// duplicate runs map to the same id.
    pub run_ids: Vec<CompId>,
    /// Aggregate statistics over all runs.
    pub stats: FaultStats,
}

/// Canonical event-identity key: two events in different runs are *the
/// same event* (share an [`EventId`]) iff they occupy the same
/// structural position. Sends are keyed by (sender, receiver, ordinal
/// of that directed link's sends); receives by the key of the message
/// they consume; internal events by (process, action, ordinal). This
/// makes identical local histories share ids across runs — exactly
/// the identification the paper's `[P]`-isomorphism needs to relate
/// computations drawn from different runs — while the per-trace
/// ordinals keep every key unique within one run.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum EventKey {
    Send {
        from: ProcessId,
        to: ProcessId,
        nth: usize,
    },
    Receive {
        to: ProcessId,
        msg: (ProcessId, ProcessId, usize),
    },
    Internal {
        p: ProcessId,
        action: ActionId,
        nth: usize,
    },
}

/// Allocates shared event/message ids for canonical keys, in
/// first-encounter order — deterministic because traces are interned
/// sequentially in run-index order.
#[derive(Default)]
struct TraceInterner {
    ids: HashMap<EventKey, (EventId, Option<MessageId>)>,
    next_event: usize,
    next_message: usize,
}

impl TraceInterner {
    fn intern(&mut self, key: EventKey) -> (EventId, Option<MessageId>) {
        if let Some(&hit) = self.ids.get(&key) {
            return hit;
        }
        let eid = EventId::new(self.next_event);
        self.next_event += 1;
        let mid = if matches!(key, EventKey::Send { .. }) {
            let m = MessageId::new(self.next_message);
            self.next_message += 1;
            Some(m)
        } else {
            None
        };
        self.ids.insert(key, (eid, mid));
        (eid, mid)
    }

    /// Rewrites a raw simulator trace onto the shared id space.
    fn canonicalize(&mut self, raw: &Computation) -> Result<Computation, CoreError> {
        let mut send_ordinal: HashMap<(ProcessId, ProcessId), usize> = HashMap::new();
        let mut internal_ordinal: HashMap<(ProcessId, ActionId), usize> = HashMap::new();
        let mut message_key: HashMap<MessageId, (ProcessId, ProcessId, usize)> = HashMap::new();
        let mut events = Vec::with_capacity(raw.len());
        for e in raw.iter() {
            match e.kind() {
                EventKind::Send { to, message } => {
                    let nth = send_ordinal.entry((e.process(), to)).or_insert(0);
                    let key = EventKey::Send {
                        from: e.process(),
                        to,
                        nth: *nth,
                    };
                    message_key.insert(message, (e.process(), to, *nth));
                    *nth += 1;
                    let (eid, mid) = self.intern(key);
                    events.push(Event::new(
                        eid,
                        e.process(),
                        EventKind::Send {
                            to,
                            message: mid.expect("sends intern a message id"),
                        },
                    ));
                }
                EventKind::Receive { from, message } => {
                    let msg =
                        *message_key
                            .get(&message)
                            .ok_or_else(|| CoreError::InvalidFaultModel {
                                reason: format!("trace receives {message} before its send"),
                            })?;
                    let key = EventKey::Receive {
                        to: e.process(),
                        msg,
                    };
                    let (eid, _) = self.intern(key);
                    let send_key = EventKey::Send {
                        from: msg.0,
                        to: msg.1,
                        nth: msg.2,
                    };
                    let (_, mid) = *self.ids.get(&send_key).expect("send interned above");
                    events.push(Event::new(
                        eid,
                        e.process(),
                        EventKind::Receive {
                            from,
                            message: mid.expect("send entries carry message ids"),
                        },
                    ));
                }
                EventKind::Internal { action } => {
                    let nth = internal_ordinal.entry((e.process(), action)).or_insert(0);
                    let key = EventKey::Internal {
                        p: e.process(),
                        action,
                        nth: *nth,
                    };
                    *nth += 1;
                    let (eid, _) = self.intern(key);
                    events.push(Event::new(eid, e.process(), EventKind::Internal { action }));
                }
            }
        }
        Ok(Computation::from_events(raw.system_size(), events)?)
    }
}

/// Per-run raw output shipped from the simulation shards to the
/// sequential interning stage.
struct RawRun {
    trace: Computation,
    sent: usize,
    delivered: usize,
    dropped: usize,
    partition_dropped: usize,
}

fn simulate_run<F>(n: usize, model: &FaultModel, run: usize, make_node: &F) -> RawRun
where
    F: Fn(ProcessId) -> Box<dyn Node> + Sync,
{
    let mut sim = Simulation::builder(n)
        .seed(model.base_seed.wrapping_add(run as u64))
        .network(model.network.clone())
        .build(|p| make_node(p));
    for &(p, at) in &model.crashes {
        sim.schedule_crash(p, at);
    }
    sim.run_until(model.horizon);
    let s = sim.stats();
    RawRun {
        sent: s.sent,
        delivered: s.delivered,
        dropped: s.dropped,
        partition_dropped: s.partition_dropped,
        trace: sim.trace(),
    }
}

/// Builds a [`Universe`] by running `model.runs` seeded simulations of
/// an `n`-process system under the fault model, canonicalizing each
/// trace onto a shared event space, and inserting them with dedup (and
/// prefix closure when configured).
///
/// `shards` is the parallelism: runs are simulated concurrently in
/// contiguous chunks across that many threads, then interned and
/// inserted **sequentially in run-index order** — so the result is
/// byte-identical for any `shards ≥ 1`.
///
/// # Errors
///
/// [`CoreError::InvalidFaultModel`] if the network configuration is
/// rejected (see [`NetworkConfig::validate`]) or the crash schedule
/// names a process outside `0..n`; universe insertion errors are
/// forwarded.
pub fn build_fault_universe<F>(
    n: usize,
    model: &FaultModel,
    shards: usize,
    make_node: F,
) -> Result<FaultUniverse, CoreError>
where
    F: Fn(ProcessId) -> Box<dyn Node> + Sync,
{
    model.validate(n)?;
    let shards = shards.max(1);
    let runs = model.runs;
    let mut raw: Vec<Option<RawRun>> = Vec::with_capacity(runs);
    raw.resize_with(runs, || None);
    if shards == 1 || runs <= 1 {
        for (run, slot) in raw.iter_mut().enumerate() {
            *slot = Some(simulate_run(n, model, run, &make_node));
        }
    } else {
        let chunk = runs.div_ceil(shards);
        std::thread::scope(|scope| {
            for slots in raw
                .chunks_mut(chunk)
                .enumerate()
                .map(|(s, c)| (s * chunk, c))
            {
                let (offset, slots) = slots;
                let make_node = &make_node;
                scope.spawn(move || {
                    for (i, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(simulate_run(n, model, offset + i, make_node));
                    }
                });
            }
        });
    }

    let mut universe = Universe::new(n);
    let mut interner = TraceInterner::default();
    let mut run_ids = Vec::with_capacity(runs);
    let mut stats = FaultStats {
        runs,
        ..FaultStats::default()
    };
    for slot in raw {
        let r = slot.expect("every run simulated");
        stats.sent += r.sent;
        stats.delivered += r.delivered;
        stats.dropped += r.dropped;
        stats.partition_dropped += r.partition_dropped;
        let canonical = interner.canonicalize(&r.trace)?;
        run_ids.push(universe.insert(canonical)?);
    }
    stats.distinct_traces = universe.len();
    if model.prefix_close {
        stats.prefix_added = universe.close_under_prefixes();
    }
    Ok(FaultUniverse {
        universe,
        run_ids,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_sim::{ChannelConfig, Context, DelayModel, PartitionSchedule, Payload};

    /// p0 floods p1; p1 echoes once per message — enough structure that
    /// loss changes the trace shape.
    struct Flood;
    impl Node for Flood {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if ctx.me().index() == 0 {
                for _ in 0..5 {
                    ctx.send(ProcessId::new(1), Payload::tag(1));
                }
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, msg: Payload) {
            if msg.tag == 1 {
                ctx.send(from, Payload::tag(2));
            }
        }
    }

    fn lossy_model(runs: usize) -> FaultModel {
        FaultModel::new(NetworkConfig::uniform(ChannelConfig {
            delay: DelayModel::Uniform { lo: 1, hi: 20 },
            drop_probability: 0.3,
            fifo: false,
        }))
        .runs(runs)
        .seeded(11)
    }

    fn render(u: &FaultUniverse) -> String {
        let mut out = String::new();
        for (id, c) in u.universe.iter() {
            out.push_str(&format!("#{} {}\n", id.index(), c.render()));
        }
        out.push_str(&format!("{:?}\n{:?}", u.run_ids, u.stats));
        out
    }

    #[test]
    fn byte_identical_across_shard_counts() {
        let model = lossy_model(12);
        let base = render(&build_fault_universe(2, &model, 1, |_| Box::new(Flood)).unwrap());
        for shards in [2, 3, 8] {
            let alt =
                render(&build_fault_universe(2, &model, shards, |_| Box::new(Flood)).unwrap());
            assert_eq!(
                base, alt,
                "{shards} shards must match 1 shard byte-for-byte"
            );
        }
    }

    #[test]
    fn dedupes_and_prefix_closes() {
        // a lossless constant-delay network makes every run identical
        let model = FaultModel::new(NetworkConfig::default()).runs(6).seeded(3);
        let fu = build_fault_universe(2, &model, 2, |_| Box::new(Flood)).unwrap();
        assert_eq!(fu.stats.distinct_traces, 1, "identical runs must dedupe");
        assert_eq!(fu.run_ids.len(), 6);
        assert!(fu.run_ids.iter().all(|&id| id == fu.run_ids[0]));
        assert!(fu.universe.is_prefix_closed());
        assert!(fu.stats.prefix_added > 0);
        // conservation aggregates survive the pipeline
        assert_eq!(fu.stats.sent, fu.stats.delivered + fu.stats.dropped);
    }

    #[test]
    fn shared_event_space_across_runs() {
        let model = lossy_model(10);
        let fu = build_fault_universe(2, &model, 2, |_| Box::new(Flood)).unwrap();
        assert!(fu.stats.distinct_traces > 1, "loss must diversify traces");
        // the first send p0→p1 is *the same event* in every full trace
        let firsts: Vec<EventId> = fu
            .run_ids
            .iter()
            .map(|&id| {
                fu.universe
                    .get(id)
                    .iter()
                    .find(|e| e.is_send())
                    .expect("every run sends")
                    .id()
            })
            .collect();
        assert!(firsts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn crashes_and_partitions_shape_the_universe() {
        let net = NetworkConfig::uniform(ChannelConfig {
            delay: DelayModel::Constant(2),
            ..Default::default()
        })
        .with_partition(PartitionSchedule::split(
            [0],
            [1],
            SimTime::from_ticks(3),
            None,
        ));
        let model = FaultModel::new(net)
            .runs(2)
            .with_crash(ProcessId::new(1), SimTime::from_ticks(1));
        let fu = build_fault_universe(2, &model, 1, |_| Box::new(Flood)).unwrap();
        assert!(fu.stats.dropped > 0);
        // the crash shows up as an internal event in the trace
        let crash = ActionId::new(0x7fff_ffff);
        assert!(fu
            .universe
            .get(fu.run_ids[0])
            .iter()
            .any(|e| matches!(e.kind(), EventKind::Internal { action } if action == crash)));
    }

    #[test]
    fn grid_covers_crash_times_drop() {
        let base = FaultModel::default();
        let grid = base.crash_drop_grid(
            &[0.0, 0.5],
            &[
                Vec::new(),
                vec![(ProcessId::new(0), SimTime::from_ticks(5))],
            ],
        );
        assert_eq!(grid.len(), 4);
        assert!(grid
            .iter()
            .any(|m| m.network.default.drop_probability == 0.5 && !m.crashes.is_empty()));
        // empty crash axis still yields the drop axis
        assert_eq!(base.crash_drop_grid(&[0.1], &[]).len(), 1);
    }

    /// One valid and one invalid configuration per validation clause:
    /// the network's own rules, then the crash schedule's range.
    #[test]
    fn validate_checks_every_clause() {
        let drop = |p: f64| {
            let mut model = FaultModel::default();
            model.network.default.drop_probability = p;
            model
        };
        let crash =
            |p: usize| FaultModel::default().with_crash(ProcessId::new(p), SimTime::from_ticks(5));
        for (label, model, ok) in [
            ("default", FaultModel::default(), true),
            ("lossy-quarter", drop(0.25), true),
            ("crash-in-range", crash(1), true),
            ("drop-above-one", drop(1.5), false),
            ("drop-negative", drop(-0.1), false),
            ("crash-out-of-range", crash(9), false),
        ] {
            assert_eq!(model.validate(3).is_ok(), ok, "{label}");
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let mut model = FaultModel::default();
        model.network.default.drop_probability = 7.0;
        let err = build_fault_universe(2, &model, 1, |_| Box::new(Flood)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidFaultModel { .. }));
        let model = FaultModel::default().with_crash(ProcessId::new(9), SimTime::ZERO);
        let err = build_fault_universe(2, &model, 1, |_| Box::new(Flood)).unwrap_err();
        assert!(matches!(err, CoreError::InvalidFaultModel { .. }));
    }
}
