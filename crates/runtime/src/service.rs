//! The persistent knowledge-query service.
//!
//! A [`QueryService`] is the long-lived server shape of the calculus:
//! it owns immutable, generation-keyed universe **snapshots** (one per
//! registered scenario), against which parsed, planned epistemic
//! queries evaluate on the threads that ask them. Per snapshot it
//! shares
//!
//! * a [`ClassCache`] — the structures knowledge evaluation reads and
//!   no query changes: `[P]`-partitions and components, and on a
//!   quotient snapshot the orbit partitions and the orbit-expanded
//!   universe with its partitions and dependent atoms. Each is built
//!   on the first query that needs it, once, and every later query on
//!   any thread reads it,
//! * a [`SatCache`] — final satisfaction sets keyed
//!   `(generation, formula)`, so repeated queries cost a lookup, and
//! * an [`Admission`] table — identical requests *in flight* coalesce
//!   behind one evaluation (see [`crate::batching`]).
//!
//! Clients talk to the service through [`Session`]s
//! ([`QueryService::session`]): formula text in, satisfaction sets and
//! plan/caching diagnostics out. Concurrent results are byte-identical
//! to a sequential [`Evaluator`] over the same snapshot — the
//! `concurrent_determinism` suite certifies this across protocols,
//! quotient policies and thread counts.

use crate::batching::Admission;
use crate::planner::{self, QueryPlan};
use crate::session::Session;
use hpl_core::isomorphism::ClassCache;
use hpl_core::parser::MAX_FORMULA_DEPTH;
use hpl_core::{
    ClassCacheStats, CompSet, CoreError, Evaluator, Formula, Interpretation, Orbits,
    QuotientPolicy, SatCache, SatCacheStats, Universe, DEFAULT_SAT_CACHE_CAPACITY,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// What a query ultimately resolves to: the satisfaction set of the
/// folded root formula, or a typed failure. `Arc`-wrapped so one
/// leader's result broadcasts to coalesced followers without copying
/// the bitset.
pub type Outcome = Result<Arc<CompSet>, QueryError>;

/// A typed query failure. `Clone`, so admission can broadcast failures
/// to followers exactly like successes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QueryError {
    /// The formula text did not parse against the scenario's
    /// interpretation.
    Parse(String),
    /// The formula nests operators deeper than
    /// [`MAX_FORMULA_DEPTH`].
    TooDeep,
    /// No scenario registered under this name.
    UnknownScenario(String),
    /// The quotient snapshot rejected the query as out of the symmetry
    /// contract ([`QuotientPolicy::Reject`]).
    Unsound(String),
    /// The service has been dropped.
    ServiceStopped,
    /// An unexpected evaluation failure.
    Internal(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(m) => write!(f, "parse error: {m}"),
            QueryError::TooDeep => {
                write!(f, "formula nests deeper than {MAX_FORMULA_DEPTH} operators")
            }
            QueryError::UnknownScenario(s) => write!(f, "unknown scenario: {s}"),
            QueryError::Unsound(m) => write!(f, "query rejected: {m}"),
            QueryError::ServiceStopped => write!(f, "query service stopped"),
            QueryError::Internal(m) => write!(f, "internal evaluation error: {m}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<CoreError> for QueryError {
    fn from(e: CoreError) -> Self {
        match e {
            CoreError::QuotientUnsound(_) => QueryError::Unsound(e.to_string()),
            other => QueryError::Internal(other.to_string()),
        }
    }
}

/// An immutable, generation-keyed view of one registered scenario:
/// the universe, its interpretation, optional quotient structure, and
/// the caches every evaluation against it shares.
#[derive(Debug)]
pub struct Snapshot {
    pub(crate) name: String,
    pub(crate) universe: Arc<Universe>,
    pub(crate) interp: Arc<Interpretation>,
    pub(crate) orbits: Option<Arc<Orbits>>,
    pub(crate) policy: QuotientPolicy,
    /// The universe generation pinned at registration — the cache key
    /// prefix for every satisfaction set computed on this snapshot.
    pub(crate) generation: u64,
    pub(crate) classes: Arc<ClassCache>,
    pub(crate) sats: Arc<SatCache>,
    pub(crate) admission: Admission<Outcome>,
    /// Raised when a later registration replaces this snapshot under
    /// its name. Sessions holding the snapshot keep working against it
    /// (results stay internally consistent); [`Session::is_current`]
    /// lets them notice and reopen.
    stale: AtomicBool,
}

impl Snapshot {
    /// The scenario name this snapshot was registered under.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The universe generation pinned at registration.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The snapshot's universe.
    #[must_use]
    pub fn universe(&self) -> &Arc<Universe> {
        &self.universe
    }

    /// The snapshot's interpretation.
    #[must_use]
    pub fn interpretation(&self) -> &Arc<Interpretation> {
        &self.interp
    }

    /// The quotient policy (meaningful only for quotient snapshots).
    #[must_use]
    pub fn policy(&self) -> QuotientPolicy {
        self.policy
    }

    /// Whether this snapshot is still the one registered under its
    /// name, i.e. no later [`QueryService::register`] or
    /// [`QueryService::register_quotient`] has replaced it.
    #[must_use]
    pub fn is_current(&self) -> bool {
        !self.stale.load(Ordering::Relaxed)
    }

    /// Hit/miss counters of the cross-query satisfaction-set cache.
    #[must_use]
    pub fn sat_cache_stats(&self) -> SatCacheStats {
        self.sats.stats()
    }

    /// What the snapshot's [`ClassCache`] holds and has built: the
    /// query-independent structures of this snapshot's universe. The
    /// cache belongs to this snapshot alone, so a snapshot registered
    /// in its place starts with none.
    #[must_use]
    pub fn structure_stats(&self) -> ClassCacheStats {
        self.classes.stats()
    }

    /// Requests that joined an in-flight identical request instead of
    /// evaluating.
    #[must_use]
    pub fn coalesced(&self) -> u64 {
        self.admission.coalesced()
    }

    /// Requests that led an evaluation.
    #[must_use]
    pub fn led(&self) -> u64 {
        self.admission.led()
    }

    /// Plans a formula for this snapshot (see [`crate::planner`]).
    #[must_use]
    pub fn plan(&self, f: &Formula) -> QueryPlan<'_> {
        planner::plan(
            f,
            &self.interp,
            self.orbits.as_deref().map(Orbits::generators),
        )
    }

    /// Evaluates a plan's root on a fresh evaluator wired to this
    /// snapshot's shared caches, on the calling thread: what every
    /// [`Session::query_formula`] runs. A cache hit returns the
    /// [`SatCache`] entry's own `Arc`; a miss reads, or builds once, the
    /// structures in the snapshot's [`ClassCache`]. Both caches belong
    /// to this snapshot alone, so their sharing contract (one
    /// interpretation, orbit structure and policy) holds by construction.
    pub(crate) fn evaluate(&self, plan: &QueryPlan) -> Outcome {
        let mut eval = match &self.orbits {
            Some(o) => {
                Evaluator::with_symmetry_policy(&self.universe, &self.interp, o, self.policy)
                    .with_structures(Arc::clone(&self.classes))
            }
            None => {
                Evaluator::with_class_cache(&self.universe, &self.interp, Arc::clone(&self.classes))
            }
        }
        .with_sat_cache(Arc::clone(&self.sats));
        eval.try_sat_shared(plan.root()).map_err(QueryError::from)
    }
}

/// The persistent knowledge-query service: registered snapshots, each
/// queried on the threads that ask. Dropping the service stops it:
/// sessions still holding a snapshot then get
/// [`QueryError::ServiceStopped`], while a query already evaluating
/// finishes against its snapshot.
///
/// # Example
///
/// ```
/// use hpl_core::{Interpretation, Universe};
/// use hpl_model::ScenarioPool;
/// use hpl_runtime::QueryService;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = ScenarioPool::new(2);
/// let mut u = Universe::new(2);
/// u.insert(pool.compose([])?)?;
/// let mut interp = Interpretation::new();
/// interp.register("quiet", |c| c.is_empty());
///
/// let service = QueryService::start(2);
/// service.register("demo", Arc::new(u), Arc::new(interp));
/// let session = service.session("demo")?;
/// let resp = session.query("K{p0} quiet")?;
/// assert_eq!(resp.count, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct QueryService {
    snapshots: Mutex<HashMap<String, Arc<Snapshot>>>,
    /// Raised by `Drop`; every session holds a clone.
    stopped: Arc<AtomicBool>,
    sat_cache_capacity: AtomicUsize,
}

impl QueryService {
    /// Starts a service with no scenarios registered.
    ///
    /// `_workers` is unused: each query evaluates on the thread that
    /// asks it, so there are as many concurrent evaluations as client
    /// threads.
    #[must_use]
    pub fn start(_workers: usize) -> Self {
        QueryService {
            snapshots: Mutex::new(HashMap::new()),
            stopped: Arc::new(AtomicBool::new(false)),
            sat_cache_capacity: AtomicUsize::new(DEFAULT_SAT_CACHE_CAPACITY),
        }
    }

    /// Sets the [`SatCache`] resident-bytes capacity used by
    /// scenarios registered **from now on** (default
    /// [`DEFAULT_SAT_CACHE_CAPACITY`]). Already-registered snapshots
    /// keep the capacity they were created with — re-register to apply
    /// a new one.
    pub fn set_sat_cache_capacity(&self, bytes: usize) {
        self.sat_cache_capacity.store(bytes, Ordering::Relaxed);
    }

    /// Registers a plain scenario snapshot, or replaces the one
    /// registered under `name`. Returns the pinned universe generation —
    /// the cache key for every satisfaction set computed on it.
    ///
    /// This is also how a grown universe (one
    /// [`extend_sharded`](hpl_core::extend_sharded) took a horizon
    /// deeper) enters the service: it is a new model, so it gets a new
    /// snapshot with its own empty caches. Sessions opened before the
    /// swap stay pinned to the old snapshot and keep answering against
    /// it, with [`Session::is_current`](crate::Session::is_current) now
    /// `false`; a client reopens with [`QueryService::session`] to see
    /// the new universe. The old snapshot's caches are freed when its
    /// last session drops.
    pub fn register(
        &self,
        name: &str,
        universe: Arc<Universe>,
        interp: Arc<Interpretation>,
    ) -> u64 {
        self.install(name, universe, interp, None, QuotientPolicy::default())
    }

    /// Registers (or replaces) a **symmetry-quotient** scenario
    /// snapshot: knowledge queries quantify over whole orbits, and the
    /// planner selects quotient-vs-full per subtree with the soundness
    /// classifier under the given policy. Replacing follows
    /// [`QueryService::register`].
    pub fn register_quotient(
        &self,
        name: &str,
        universe: Arc<Universe>,
        interp: Arc<Interpretation>,
        orbits: Arc<Orbits>,
        policy: QuotientPolicy,
    ) -> u64 {
        self.install(name, universe, interp, Some(orbits), policy)
    }

    fn install(
        &self,
        name: &str,
        universe: Arc<Universe>,
        interp: Arc<Interpretation>,
        orbits: Option<Arc<Orbits>>,
        policy: QuotientPolicy,
    ) -> u64 {
        let generation = universe.generation();
        let snapshot = Arc::new(Snapshot {
            name: name.to_owned(),
            universe,
            interp,
            orbits,
            policy,
            generation,
            classes: ClassCache::shared(),
            sats: SatCache::shared_with_capacity(self.sat_cache_capacity.load(Ordering::Relaxed)),
            admission: Admission::new(),
            stale: AtomicBool::new(false),
        });
        if let Some(replaced) = self.snapshots.lock().insert(name.to_owned(), snapshot) {
            replaced.stale.store(true, Ordering::Relaxed);
        }
        generation
    }

    /// Opens a session against a registered scenario. Sessions are
    /// independent: create one per client thread.
    ///
    /// # Errors
    ///
    /// [`QueryError::UnknownScenario`] if nothing is registered under
    /// `scenario`.
    pub fn session(&self, scenario: &str) -> Result<Session, QueryError> {
        let snapshot = self
            .snapshots
            .lock()
            .get(scenario)
            .cloned()
            .ok_or_else(|| QueryError::UnknownScenario(scenario.to_owned()))?;
        Ok(Session::new(snapshot, Arc::clone(&self.stopped)))
    }

    /// The snapshot registered under `scenario`, if any (diagnostics,
    /// such as the universe size `repro serve` prints).
    #[must_use]
    pub fn snapshot(&self, scenario: &str) -> Option<Arc<Snapshot>> {
        self.snapshots.lock().get(scenario).cloned()
    }

    /// Names of all registered scenarios, sorted.
    #[must_use]
    pub fn scenarios(&self) -> Vec<String> {
        let mut names: Vec<String> = self.snapshots.lock().keys().cloned().collect();
        names.sort();
        names
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        // the flag publishes no other data
        self.stopped.store(true, Ordering::Relaxed);
    }
}
