//! Shared fixtures for the criterion benches, the `repro` binary and the
//! `perfbench` benchmark.
//!
//! Centralizes the workload generators so that every bench and the
//! reproduction report measure the same artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use hpl_core::{enumerate, EnumerationLimits, LocalView, ProtoAction, Protocol, ProtocolUniverse};
use hpl_model::{ActionId, Computation, ComputationBuilder, MessageId, ProcessId};
use hpl_protocols::token_bus::TokenBus;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The process's peak resident set size in kilobytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the proc filesystem is
/// unavailable (non-Linux hosts). `perfbench` reports it as
/// `peak_rss_mb`, so memory-bound regressions are visible across runs.
#[must_use]
pub fn peak_rss_kb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse::<f64>().ok()
}

/// A reproducible random computation over `n` processes with `steps`
/// events (mixed sends/receives/internal).
#[must_use]
pub fn random_computation(n: usize, steps: usize, seed: u64) -> Computation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ComputationBuilder::new(n);
    let mut in_flight: Vec<(ProcessId, MessageId)> = Vec::new();
    for _ in 0..steps {
        match rng.random_range(0..3) {
            0 => {
                let from = ProcessId::new(rng.random_range(0..n));
                let to = ProcessId::new(rng.random_range(0..n));
                let m = b.send(from, to).expect("valid send");
                in_flight.push((to, m));
            }
            1 if !in_flight.is_empty() => {
                let k = rng.random_range(0..in_flight.len());
                let (to, m) = in_flight.remove(k);
                b.receive(to, m).expect("valid receive");
            }
            _ => {
                b.internal(ProcessId::new(rng.random_range(0..n)))
                    .expect("valid internal");
            }
        }
    }
    b.finish()
}

/// The enumerated token-bus universe used across benches.
///
/// # Panics
///
/// Panics if enumeration exceeds its budget (it does not for the depths
/// used here).
#[must_use]
pub fn token_bus_universe(n: usize, depth: usize) -> ProtocolUniverse {
    enumerate(&TokenBus::new(n), EnumerationLimits::depth(depth)).expect("within budget")
}

/// A symmetric interleaving-stress protocol: `n` processes each take up
/// to `k` independent internal steps, so the universe is dominated by
/// permutations of the same partial order. This is the worst case for
/// plain enumeration and the best case for canonical-form dedupe, which
/// collapses it from exponential to polynomial.
#[derive(Clone, Copy, Debug)]
pub struct InterleavingStress {
    /// Number of processes.
    pub n: usize,
    /// Internal steps per process.
    pub k: usize,
}

impl Protocol for InterleavingStress {
    fn system_size(&self) -> usize {
        self.n
    }

    fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        if view.len() < self.k {
            vec![ProtoAction::Internal {
                action: ActionId::new(view.len() as u32),
            }]
        } else {
            vec![]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_computation_is_reproducible() {
        let a = random_computation(4, 50, 7);
        let b = random_computation(4, 50, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 50);
        let c = random_computation(4, 50, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn token_bus_universe_is_prefix_closed() {
        let pu = token_bus_universe(3, 4);
        assert!(pu.universe().is_prefix_closed());
        assert!(pu.universe().len() > 1);
    }
}
