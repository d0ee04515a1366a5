//! Failure detection (§5).
//!
//! The paper: "Traditional techniques for process failure detection based
//! on time-outs assume certain execution speeds for processes and maximum
//! delays for message transfer. It is generally accepted that detection
//! of failure is impossible without using time-outs, a fact that we prove
//! formally. We use the fact that failure of a process is local to the
//! process and the process does not send messages after its failure;
//! hence other processes remain unsure at all points about a process
//! failure."
//!
//! Two sides:
//!
//! * **Asynchronous impossibility** — [`CrashableWorker`] is an
//!   enumerable protocol where `p0` may silently crash.
//!   [`verify_impossibility`] model-checks that the observer is `unsure`
//!   about the crash at *every* reachable computation.
//! * **Timed possibility** — [`Heartbeater`] / [`Monitor`] run on the
//!   simulator; with bounded delays and a timeout exceeding
//!   `interval + delay bound`, detection is exact. [`sweep_timeouts`]
//!   produces the latency/false-positive trade-off table printed by
//!   `repro failure`.

use hpl_core::{
    enumerate, CoreError, EnumerationLimits, Evaluator, Formula, Interpretation, LocalView,
    ProtoAction, Protocol,
};
use hpl_model::{ActionId, Computation, ProcessId, ProcessSet};
use hpl_sim::{Context, NetworkConfig, Node, Payload, SimTime, Simulation, TimerId};

/// Internal action tag marking the silent crash in the async model.
pub const CRASH_MARK: u32 = 99;
/// Payload tag of heartbeat messages.
pub const HEARTBEAT: u32 = 5;
/// Internal action recorded by the monitor when it suspects the peer.
pub const SUSPECT: ActionId = ActionId::new(77);

// ---------------------------------------------------------------------
// Asynchronous impossibility
// ---------------------------------------------------------------------

/// `p0` works (internal steps), may silently crash at any point, and may
/// send progress reports to the observer `p1` **while alive**. Crashing
/// is an internal event; afterwards `p0` does nothing — exactly the
/// paper's failure model.
#[derive(Clone, Copy, Debug)]
pub struct CrashableWorker {
    /// Maximum progress reports the worker may send.
    pub max_reports: usize,
}

impl Protocol for CrashableWorker {
    fn system_size(&self) -> usize {
        2
    }

    fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        if p.index() != 0 {
            return vec![]; // the observer only listens
        }
        if has_crashed_view(view) {
            return vec![]; // silent forever after
        }
        let sent = view.count_matching(|s| matches!(s, hpl_core::LocalStep::Sent { .. }));
        let mut out = vec![ProtoAction::Internal {
            action: ActionId::new(CRASH_MARK),
        }];
        if sent < self.max_reports {
            out.push(ProtoAction::Send {
                to: ProcessId::new(1),
                payload: 1,
            });
        }
        out
    }

    /// Worker and observer play different roles (only `p0` may crash, only
    /// `p1` listens), so only the trivial group is sound.
    fn symmetry(&self) -> hpl_model::SymmetryGroup {
        hpl_model::SymmetryGroup::Trivial
    }
}

fn has_crashed_view(view: &LocalView) -> bool {
    view.count_matching(
        |s| matches!(s, hpl_core::LocalStep::Did { action } if action.tag() == CRASH_MARK),
    ) > 0
}

/// Has `p0` crashed in this computation? (Local to `p0`.)
#[must_use]
pub fn crashed(x: &Computation) -> bool {
    x.iter().any(|e| {
        e.is_on(ProcessId::new(0))
            && matches!(e.kind(), hpl_model::EventKind::Internal { action } if action.tag() == CRASH_MARK)
    })
}

/// Result of the impossibility check.
#[derive(Clone, Debug)]
pub struct ImpossibilityReport {
    /// Universe size.
    pub universe_size: usize,
    /// Computations in which the worker *has* crashed.
    pub crashed_count: usize,
    /// Computations at which the observer is sure about the crash
    /// predicate — the theorem says this must be **zero**.
    pub observer_sure_count: usize,
}

impl ImpossibilityReport {
    /// The impossibility holds iff the observer is never sure.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.observer_sure_count == 0 && self.crashed_count > 0
    }
}

/// Model-checks the impossibility: the observer is `unsure` about
/// `crashed(p0)` at every reachable computation.
///
/// # Errors
///
/// Propagates enumeration budget errors.
pub fn verify_impossibility(
    max_reports: usize,
    depth: usize,
) -> Result<ImpossibilityReport, CoreError> {
    let pu = enumerate(
        &CrashableWorker { max_reports },
        EnumerationLimits::depth(depth),
    )?;
    let mut interp = Interpretation::new();
    let atom = Formula::atom(interp.register_invariant("p0-crashed", crashed));
    let observer = ProcessSet::singleton(ProcessId::new(1));

    let mut eval = Evaluator::new(pu.universe(), &interp);
    let sure = Formula::sure(observer, atom.clone());
    let sure_sat = eval.sat_set(&sure);

    let crashed_count = pu.find(crashed).len();
    Ok(ImpossibilityReport {
        universe_size: pu.universe().len(),
        crashed_count,
        observer_sure_count: sure_sat.count(),
    })
}

// ---------------------------------------------------------------------
// Timed detection on the simulator
// ---------------------------------------------------------------------

/// Sends a heartbeat to the monitor every `interval` ticks, forever.
#[derive(Debug)]
pub struct Heartbeater {
    /// Heartbeat period in ticks.
    pub interval: u64,
    /// The monitor's process id.
    pub monitor: ProcessId,
}

impl Node for Heartbeater {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.send(self.monitor, Payload::tag(HEARTBEAT));
        ctx.set_timer(self.interval, 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _id: TimerId, _tag: u32) {
        ctx.send(self.monitor, Payload::tag(HEARTBEAT));
        ctx.set_timer(self.interval, 0);
    }
}

/// Declares the peer failed when no heartbeat arrives for `timeout`
/// ticks; records a [`SUSPECT`] internal event at that moment.
#[derive(Debug)]
pub struct Monitor {
    /// Quiet period after which the peer is suspected.
    pub timeout: u64,
    /// Time of first suspicion, if any.
    pub suspected_at: Option<SimTime>,
    epoch: u64,
}

impl Monitor {
    /// Creates a monitor with the given timeout.
    #[must_use]
    pub fn new(timeout: u64) -> Self {
        Monitor {
            timeout,
            suspected_at: None,
            epoch: 0,
        }
    }
}

impl Node for Monitor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        ctx.set_timer(self.timeout, self.epoch as u32);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, msg: Payload) {
        if msg.tag == HEARTBEAT && self.suspected_at.is_none() {
            // new epoch: outstanding timers from older epochs are ignored
            self.epoch += 1;
            ctx.set_timer(self.timeout, self.epoch as u32);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _id: TimerId, tag: u32) {
        if u64::from(tag) == self.epoch && self.suspected_at.is_none() {
            self.suspected_at = Some(ctx.now());
            ctx.internal(SUSPECT);
        }
    }
}

/// One row of the timeout sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepRow {
    /// The monitor's timeout.
    pub timeout: u64,
    /// Did the monitor suspect before the actual crash (false positive)?
    pub false_positive: bool,
    /// Ticks from crash to suspicion (detection latency), if detected
    /// after the crash.
    pub detection_latency: Option<u64>,
}

/// Runs the heartbeat pair with a crash at `crash_at`, one row per
/// timeout value. `interval` is the heartbeat period.
pub fn sweep_timeouts(
    timeouts: &[u64],
    interval: u64,
    crash_at: u64,
    network: &NetworkConfig,
    seed: u64,
    horizon: u64,
) -> Vec<SweepRow> {
    timeouts
        .iter()
        .map(|&timeout| {
            let mut sim = Simulation::builder(2)
                .seed(seed)
                .network(network.clone())
                .build(|p| -> Box<dyn Node> {
                    if p.index() == 0 {
                        Box::new(Heartbeater {
                            interval,
                            monitor: ProcessId::new(1),
                        })
                    } else {
                        Box::new(Monitor::new(timeout))
                    }
                });
            sim.schedule_crash(ProcessId::new(0), SimTime::from_ticks(crash_at));
            sim.run_until(SimTime::from_ticks(horizon));
            let monitor = sim
                .node_as::<Monitor>(ProcessId::new(1))
                .expect("node 1 is the monitor");

            match monitor.suspected_at {
                Some(t) if t.ticks() < crash_at => SweepRow {
                    timeout,
                    false_positive: true,
                    detection_latency: None,
                },
                Some(t) => SweepRow {
                    timeout,
                    false_positive: false,
                    detection_latency: Some(t.ticks() - crash_at),
                },
                None => SweepRow {
                    timeout,
                    false_positive: false,
                    detection_latency: None,
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_sim::{ChannelConfig, DelayModel};

    #[test]
    fn impossibility_holds_async() {
        let report = verify_impossibility(2, 5).unwrap();
        assert!(
            report.verified(),
            "observer was sure {} times over {} computations",
            report.observer_sure_count,
            report.universe_size
        );
        assert!(report.crashed_count > 0, "crashes must actually occur");
    }

    #[test]
    fn crashed_is_local_to_worker() {
        let pu = enumerate(
            &CrashableWorker { max_reports: 1 },
            EnumerationLimits::depth(4),
        )
        .unwrap();
        let mut interp = Interpretation::new();
        let atom = Formula::atom(interp.register_invariant("p0-crashed", crashed));
        let mut eval = Evaluator::new(pu.universe(), &interp);
        let worker = ProcessSet::singleton(ProcessId::new(0));
        assert!(eval.holds_everywhere(&Formula::sure(worker, atom)));
    }

    fn bounded_net(hi: u64) -> NetworkConfig {
        NetworkConfig::uniform(ChannelConfig {
            delay: DelayModel::Uniform { lo: 1, hi },
            drop_probability: 0.0,
            fifo: false,
        })
    }

    #[test]
    fn generous_timeout_detects_without_false_positives() {
        let rows = sweep_timeouts(&[500], 50, 2_000, &bounded_net(40), 7, 10_000);
        assert_eq!(rows.len(), 1);
        assert!(!rows[0].false_positive);
        let latency = rows[0].detection_latency.expect("must detect");
        // latency is at most timeout + last-heartbeat slack
        assert!(latency <= 500 + 50 + 40, "latency {latency}");
    }

    #[test]
    fn tight_timeout_causes_false_positives() {
        // timeout smaller than the delay bound + interval ⇒ suspicion
        // while the worker is alive.
        let rows = sweep_timeouts(&[30], 50, 100_000, &bounded_net(40), 7, 200_000);
        assert!(rows[0].false_positive, "timeout 30 must misfire");
    }

    #[test]
    fn latency_decreases_with_timeout() {
        let rows = sweep_timeouts(&[2000, 1000, 400], 50, 5_000, &bounded_net(20), 11, 50_000);
        let latencies: Vec<u64> = rows
            .iter()
            .map(|r| r.detection_latency.expect("all detect"))
            .collect();
        assert!(
            latencies[0] >= latencies[1] && latencies[1] >= latencies[2],
            "latencies {latencies:?} should decrease with the timeout"
        );
        assert!(rows.iter().all(|r| !r.false_positive));
    }

    #[test]
    fn suspect_event_lands_in_trace() {
        let mut sim = Simulation::builder(2)
            .seed(1)
            .network(bounded_net(5))
            .build(|p| -> Box<dyn Node> {
                if p.index() == 0 {
                    Box::new(Heartbeater {
                        interval: 20,
                        monitor: ProcessId::new(1),
                    })
                } else {
                    Box::new(Monitor::new(100))
                }
            });
        sim.schedule_crash(ProcessId::new(0), SimTime::from_ticks(200));
        sim.run_until(SimTime::from_ticks(1_000));
        let trace = sim.trace();
        assert!(trace.iter().any(|e| matches!(
            e.kind(),
            hpl_model::EventKind::Internal { action } if action == SUSPECT
        )));
    }
}
