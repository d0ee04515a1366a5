//! # how-processes-learn
//!
//! An executable reproduction of K. Mani Chandy & Jayadev Misra,
//! **"How Processes Learn"** (PODC 1985): isomorphism between system
//! computations, process chains, fusion, and knowledge in asynchronous
//! message-passing systems — plus the simulators, protocols and
//! benchmarks that regenerate every figure and application of the paper.
//!
//! This crate is an umbrella: it re-exports the workspace members.
//!
//! | crate | contents |
//! |---|---|
//! | [`model`] (`hpl-model`) | events, computations, causality, process chains, cuts, trace text |
//! | [`core`] (`hpl-core`) | isomorphism, Theorem 1–6 machinery, knowledge evaluator, protocol enumeration |
//! | [`sim`] (`hpl-sim`) | deterministic discrete-event simulator with trace capture |
//! | [`protocols`] (`hpl-protocols`) | token bus, two generals, failure detection, tracking, termination detection, token ring, snapshots, gossip, election |
//! | [`runtime`] (`hpl-runtime`) | OS-thread runtime recording live executions |
//!
//! (`hpl-bench`, not re-exported here, holds the `repro`
//! paper-reproduction binary and the workload fixtures `perfbench` shares.)
//!
//! Start with the [`prelude`], the `quickstart` example, or DESIGN.md;
//! `docs/CONCORDANCE.md` maps every §2–§5 notion of the paper to its
//! module, key types and certifying tests.
//!
//! # Example
//!
//! Every prelude item is importable and the core pipeline runs end to
//! end — build a computation, check a chain, decompose per Theorem 1:
//!
//! ```
//! use how_processes_learn::prelude::{
//!     decompose, enumerate, find_chain, fuse_lemma1, fuse_theorem2, has_chain, CausalClosure,
//!     Computation, ComputationBuilder, Context, Decomposition, EnumerationLimits, Evaluator,
//!     Event, EventKind, Formula, Interpretation, IsoIndex, IsomorphismDiagram, LocalView, Node,
//!     Payload, ProcessId, ProcessSet, ProtoAction, Protocol, ScenarioPool, SimTime, Simulation,
//!     Universe,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (p, q) = (ProcessId::new(0), ProcessId::new(1));
//! let mut b = ComputationBuilder::new(2);
//! let m = b.send(p, q)?;
//! b.receive(q, m)?;
//! let z = b.finish();
//!
//! let sets = [ProcessSet::singleton(p), ProcessSet::singleton(q)];
//! assert!(has_chain(&z, 0, &sets));
//! match decompose(&z.prefix(0), &z, &sets)? {
//!     Decomposition::Chain(w) => assert!(w.verify(&z, 0, &sets)),
//!     Decomposition::Path(_) => unreachable!("the send→receive chain exists"),
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use hpl_core as core;
pub use hpl_model as model;
pub use hpl_protocols as protocols;
pub use hpl_runtime as runtime;
pub use hpl_sim as sim;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use hpl_core::{
        decompose, enumerate, enumerate_sharded, fuse_lemma1, fuse_theorem2, CompSet,
        Decomposition, EnumerationLimits, EnumerationStats, Evaluator, Formula, Interpretation,
        IsoIndex, IsomorphismDiagram, LocalView, ProtoAction, Protocol, ShardConfig,
        ShardedEnumeration, Universe,
    };
    pub use hpl_model::{
        find_chain, has_chain, CausalClosure, Computation, ComputationBuilder, Event, EventKind,
        ProcessId, ProcessSet, ScenarioPool,
    };
    pub use hpl_sim::{Context, Node, Payload, SimTime, Simulation};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let p = ProcessId::new(0);
        let mut b = ComputationBuilder::new(1);
        b.internal(p).unwrap();
        let z = b.finish();
        assert_eq!(z.len(), 1);
        assert!(has_chain(&z, 0, &[ProcessSet::singleton(p)]));
    }
}
