//! # hpl-core — the "How Processes Learn" calculus
//!
//! Executable semantics for Chandy & Misra, *How Processes Learn* (PODC
//! 1985): isomorphism between system computations, process-chain theorems,
//! fusion of computations, and knowledge predicates.
//!
//! The paper's central definitions, as implemented here:
//!
//! * **Isomorphism** — `x [P] y` iff every process in `P` has the same
//!   local computation in `x` and `y`; see [`IsoIndex`]. Composed relations
//!   `x [P₁ … Pₙ] z` are relational compositions, evaluated by BFS over
//!   equivalence classes within a finite [`Universe`].
//! * **Theorem 1** (Fundamental Theorem of Process Chains) — for `x ≤ z`,
//!   either `x [P₁ … Pₙ] z` or `(x, z)` contains the process chain
//!   `⟨P₁ … Pₙ⟩`. [`chain_theorem::decompose`] is *constructive*: it
//!   returns the isomorphism path (actual intermediate computations) or
//!   the chain witness (actual events).
//! * **Fusion** (Lemma 1 / Theorem 2) — [`fusion::fuse_lemma1`] and
//!   [`fusion::fuse_theorem2`] glue computations together and return the
//!   fused computation, or a precise chain obstruction.
//! * **Knowledge** — `(P knows b) at x ≜ ∀y: x [P] y ⇒ b at y`, over a
//!   finite universe; see [`Formula`], [`Evaluator`]. Common knowledge is
//!   the greatest fixpoint, evaluated via connected components of
//!   `⋃ₚ [p]`.
//! * **Knowledge transfer** (Theorems 4–6, Lemma 4) — gain and loss of
//!   nested knowledge require process chains; see [`transfer`].
//!
//! ## Finite-universe semantics
//!
//! The paper quantifies over *all* computations of a system. This crate
//! evaluates over a finite [`Universe`]: either every system computation
//! of a [`Protocol`] up to a depth bound ([`enumerate::enumerate`], or
//! the byte-identical parallel engine [`enumerate_sharded`]), or an
//! explicitly constructed scenario pool. All results are therefore
//! relative to the supplied universe; enumerated universes are exact for
//! bounded-length prefixes of protocol behaviour.
//!
//! A definition-by-definition map from the paper's §2–§5 to modules,
//! key types and certifying tests lives in `docs/CONCORDANCE.md` at the
//! repository root.
//!
//! # Example
//!
//! ```
//! use hpl_core::{Evaluator, Formula, Interpretation, Universe};
//! use hpl_model::{ProcessId, ProcessSet, ScenarioPool};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let (p, q) = (ProcessId::new(0), ProcessId::new(1));
//! let mut pool = ScenarioPool::new(2);
//! let (s, m) = pool.send(p, q);
//! let r = pool.receive(q, p, m);
//!
//! // universe: nothing happened / p sent / q received
//! let mut universe = Universe::new(2);
//! let x0 = universe.insert(pool.compose([])?)?;
//! let x1 = universe.insert(pool.compose([s])?)?;
//! let x2 = universe.insert(pool.compose([s, r])?)?;
//!
//! let mut interp = Interpretation::new();
//! let sent = interp.register("sent", move |c| c.sends() > 0);
//!
//! let mut eval = Evaluator::new(&universe, &interp);
//! let q_knows_sent = Formula::knows(ProcessSet::singleton(q), Formula::atom(sent));
//! assert!(!eval.holds_at(&q_knows_sent, x1)); // q cannot yet distinguish x0/x1
//! assert!(eval.holds_at(&q_knows_sent, x2));  // after receiving, q knows
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod axioms;
pub mod belief;
pub mod bitset;
pub mod chain_theorem;
pub mod diagram;
pub mod enumerate;
pub mod error;
pub mod eval;
pub mod extension;
pub mod fault_universe;
pub mod formula;
pub mod fusion;
pub mod isomorphism;
pub mod local;
pub mod parallel;
pub mod parser;
pub mod soundness;
pub mod symmetry;
pub mod transfer;
pub mod universe;
pub mod views;

pub use bitset::CompSet;
pub use chain_theorem::{decompose, Decomposition, IsoPath};
pub use diagram::IsomorphismDiagram;
pub use enumerate::{
    enumerate, EnumerationLimits, LocalStep, LocalView, ProtoAction, Protocol, ProtocolUniverse,
};
pub use error::CoreError;
pub use eval::{
    Evaluator, MemoStats, QuotientPolicy, SatCache, SatCacheStats, DEFAULT_SAT_CACHE_CAPACITY,
};
pub use fault_universe::{build_fault_universe, FaultModel, FaultStats, FaultUniverse};
pub use formula::{AtomId, Formula, Interpretation};
pub use fusion::{fuse_lemma1, fuse_theorem2, FusionError};
pub use isomorphism::{ClassCache, ClassCacheStats, IsoIndex};
pub use parallel::{
    enumerate_sharded, extend_sharded, EnumerationStats, Frontier, ShardConfig, ShardedEnumeration,
    DEFAULT_BATCH_NODES, DEFAULT_MAX_BUFFERED_BATCHES,
};
pub use parser::parse;
pub use soundness::{
    classify_invariance, classify_subformulas, Invariance, SoundnessViolation, VarianceCause,
};
pub use symmetry::{canonical_key, check_closure, OrbitClasses, OrbitIndex, Orbits};
pub use universe::{CompId, GrowthMap, Universe};
pub use views::{BoundedMemory, EventCounts, FullHistory, ViewAbstraction, ViewIndex};
