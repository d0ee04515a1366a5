//! Client sessions against a [`QueryService`](crate::QueryService).
//!
//! A [`Session`] pins one scenario snapshot and accepts formula
//! **text**: each query is parsed against the snapshot's
//! interpretation ([`hpl_core::parser`]), planned
//! ([`crate::planner`]), admitted through the coalescing layer
//! ([`crate::batching`]), and evaluated on the calling thread.
//! The response carries the satisfaction set plus everything a client
//! wants to know about how the query was served.

use crate::planner::PlanStats;
use crate::service::{QueryError, Snapshot};
use hpl_core::parser::MAX_FORMULA_DEPTH;
use hpl_core::{parse, CompSet, Formula};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A client handle against one registered scenario. Cheap to create
/// (two `Arc` clones); make one per client thread.
#[derive(Debug)]
pub struct Session {
    snapshot: Arc<Snapshot>,
    /// The service's stop flag, raised when it drops.
    stopped: Arc<AtomicBool>,
}

/// A served query: the satisfaction set of the folded root formula
/// over the snapshot, plus plan and serving diagnostics.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The scenario the session is bound to.
    pub scenario: String,
    /// The universe generation the result is valid for.
    pub generation: u64,
    /// The constant-folded root formula that was evaluated.
    pub formula: Formula,
    /// The satisfaction set (bit-set over the snapshot's universe).
    pub sat: Arc<CompSet>,
    /// Number of satisfying computations (`sat.count()`).
    pub count: usize,
    /// Universe size, for "k of n" reporting.
    pub universe_len: usize,
    /// `true` if this request coalesced behind an identical in-flight
    /// one instead of evaluating.
    pub coalesced: bool,
    /// What the planner did (folding / dedup / quotient selection).
    pub plan: PlanStats,
    /// End-to-end latency as observed by the client: from the call of
    /// [`Session::query`] (parsing included) or
    /// [`Session::query_formula`] to the response.
    pub elapsed: Duration,
}

impl Session {
    pub(crate) fn new(snapshot: Arc<Snapshot>, stopped: Arc<AtomicBool>) -> Self {
        Session { snapshot, stopped }
    }

    /// The scenario this session is bound to.
    #[must_use]
    pub fn scenario(&self) -> &str {
        self.snapshot.name()
    }

    /// The universe generation this session's results are keyed by.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.snapshot.generation()
    }

    /// The snapshot this session queries.
    #[must_use]
    pub fn snapshot(&self) -> &Arc<Snapshot> {
        &self.snapshot
    }

    /// Whether this session's snapshot is still the one registered
    /// under its scenario name. Once a later
    /// [`crate::QueryService::register`] (or `register_quotient`)
    /// replaces it under that name, for instance with a grown universe,
    /// this turns `false`: the session keeps answering against its
    /// pinned (old) snapshot, and the client reopens via
    /// [`crate::QueryService::session`] when it wants the new one.
    #[must_use]
    pub fn is_current(&self) -> bool {
        self.snapshot.is_current()
    }

    /// Parses and serves a formula, e.g. `"K{p0} token-at-p0"`.
    ///
    /// The query is parsed, planned and evaluated on the calling
    /// thread. A formula nested to [`MAX_FORMULA_DEPTH`] needs no more
    /// stack than the 2 MiB a thread spawned by `std` gets by default.
    /// The parser already refuses deeper text, so unlike
    /// [`Session::query_formula`] this does not walk the formula again.
    ///
    /// # Errors
    ///
    /// [`QueryError::Parse`] on bad syntax or unknown atoms;
    /// otherwise as [`Session::query_formula`].
    pub fn query(&self, text: &str) -> Result<QueryResponse, QueryError> {
        let _query = hpl_telemetry::span("query");
        // analyze:allow(wall-clock) query-latency telemetry; never affects results
        let start = Instant::now();
        let f = {
            let _parse = hpl_telemetry::span("query.parse");
            parse(text, &self.snapshot.interp).map_err(|e| QueryError::Parse(e.to_string()))?
        };
        self.serve(&f, start)
    }

    /// Serves an already-constructed formula.
    ///
    /// # Errors
    ///
    /// [`QueryError::TooDeep`] when `f` nests more than
    /// [`MAX_FORMULA_DEPTH`] operators on some path (checked before
    /// planning, without recursion);
    /// [`QueryError::Unsound`] when a `Reject`-policy quotient snapshot
    /// refuses an out-of-contract formula;
    /// [`QueryError::ServiceStopped`] after the service dropped.
    pub fn query_formula(&self, f: &Formula) -> Result<QueryResponse, QueryError> {
        let _query = hpl_telemetry::span("query");
        // analyze:allow(wall-clock) query-latency telemetry; never affects results
        let start = Instant::now();
        if nests_too_deep(f) {
            return Err(QueryError::TooDeep);
        }
        self.serve(f, start)
    }

    /// Plans, admits and evaluates `f`, nested at most
    /// [`MAX_FORMULA_DEPTH`] deep, inside the caller's `query` span, for
    /// a request the client made at `start`.
    fn serve(&self, f: &Formula, start: Instant) -> Result<QueryResponse, QueryError> {
        hpl_telemetry::counter_add("query.requests", 1);
        let plan = {
            let _plan = hpl_telemetry::span("query.plan");
            self.snapshot.plan(f)
        };
        let _eval = hpl_telemetry::span("query.eval");
        if self.stopped.load(Ordering::Relaxed) {
            return Err(QueryError::ServiceStopped);
        }
        let (outcome, coalesced) = self
            .snapshot
            .admission
            .serve(plan.root(), || self.snapshot.evaluate(&plan));
        drop(_eval);
        let _respond = hpl_telemetry::span("query.respond");
        if coalesced {
            hpl_telemetry::counter_add("query.coalesced", 1);
        }
        let sat = outcome?;
        Ok(QueryResponse {
            scenario: self.snapshot.name().to_owned(),
            generation: self.snapshot.generation,
            plan: plan.stats(),
            formula: plan.into_root(),
            count: sat.count(),
            universe_len: self.snapshot.universe.len(),
            sat,
            coalesced,
            elapsed: start.elapsed(),
        })
    }

    /// A Prometheus-style text exposition of the service's live
    /// counters for this session's scenario: satisfaction-set cache
    /// hits, misses, occupancy and resident-bytes estimate, the bytes
    /// the snapshot's evaluation structures keep and how many were
    /// built, admission coalescing, and universe shape — followed by
    /// everything the
    /// global telemetry recorder has collected (empty while telemetry
    /// is disabled). This is what the `stats` command of `repro serve`
    /// prints.
    #[must_use]
    pub fn metrics_snapshot(&self) -> String {
        use std::fmt::Write as _;
        let scenario = self.snapshot.name();
        let stats = self.snapshot.sat_cache_stats();
        let structures = self.snapshot.structure_stats();
        let mut out = String::new();
        let mut gauge = |name: &str, v: u64| {
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name}{{scenario=\"{scenario}\"}} {v}");
        };
        gauge("hpl_sat_cache_hits", stats.hits);
        gauge("hpl_sat_cache_misses", stats.misses);
        gauge("hpl_sat_cache_entries", stats.entries as u64);
        gauge("hpl_sat_cache_resident_bytes", stats.resident_bytes as u64);
        gauge("hpl_sat_cache_evictions", stats.evictions);
        gauge("hpl_sat_cache_capacity_bytes", stats.capacity_bytes as u64);
        gauge("hpl_eval_structure_bytes", structures.resident_bytes as u64);
        gauge("hpl_eval_structure_builds", structures.builds);
        gauge("hpl_admission_coalesced", self.snapshot.coalesced());
        gauge("hpl_admission_led", self.snapshot.led());
        gauge("hpl_universe_len", self.snapshot.universe.len() as u64);
        gauge("hpl_generation", self.snapshot.generation);
        out.push_str(&hpl_telemetry::snapshot().prometheus_text());
        out
    }
}

/// Whether some root-to-leaf path of `f` holds more than
/// [`MAX_FORMULA_DEPTH`] operators — an explicit-stack walk, so a
/// formula of any depth is measured without touching the call stack.
fn nests_too_deep(f: &Formula) -> bool {
    let mut stack = vec![(f, 0)];
    while let Some((g, depth)) = stack.pop() {
        if depth > MAX_FORMULA_DEPTH {
            return true;
        }
        match g {
            Formula::True | Formula::False | Formula::Atom(_) => {}
            Formula::Not(h)
            | Formula::Knows(_, h)
            | Formula::Sure(_, h)
            | Formula::Everyone(h)
            | Formula::Common(h) => stack.push((h, depth + 1)),
            Formula::And(hs) | Formula::Or(hs) => stack.extend(hs.iter().map(|h| (h, depth + 1))),
            Formula::Implies(a, b) | Formula::Iff(a, b) => {
                stack.push((a, depth + 1));
                stack.push((b, depth + 1));
            }
        }
    }
    false
}
