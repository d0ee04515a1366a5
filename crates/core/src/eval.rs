//! The model checker: formula satisfaction over a finite universe.
//!
//! [`Evaluator`] computes, for each formula, the *satisfaction set* — the
//! bit-set of universe computations at which the formula holds — with
//! memoization. Knowledge is evaluated per the paper's definition:
//! `(P knows b) at x` iff `b` holds at every member of `x`'s
//! `[P]`-equivalence class; common knowledge via connected components of
//! `⋃ₚ [p]` (the greatest-fixpoint characterization).
//!
//! The definition is written once, as one recursion over a private
//! `Frame`: the plain universe, the stored representatives of a
//! symmetry quotient, and the orbit-expanded virtual universe behind
//! [`QuotientPolicy::Expand`] differ only in member count, atom
//! valuation and `[P]`-classes.

use crate::bitset::CompSet;
use crate::error::CoreError;
use crate::formula::{AtomId, Formula, Interpretation};
use crate::isomorphism::{ClassCache, IsoIndex, MAX_CACHED_GENERATIONS};
use crate::soundness::{classify_invariance, Invariance};
use crate::symmetry::{ExpandedUniverse, OrbitIndex, Orbits};
use crate::universe::{CompId, Universe};
use hpl_model::{Computation, ProcessId, ProcessSet};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Evaluates formulas over a universe under an interpretation.
///
/// Holds the isomorphism-class cache and a formula→satisfaction-set memo;
/// reuse one evaluator for many queries on the same universe — or share
/// the partition cache across evaluators with
/// [`Evaluator::with_class_cache`]. Over a symmetry-quotient universe,
/// construct with [`Evaluator::with_symmetry`] so knowledge queries
/// quantify over whole orbits.
///
/// # Example
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Evaluator<'u> {
    universe: &'u Universe,
    interp: &'u Interpretation,
    iso: IsoIndex<'u>,
    sym: Option<OrbitIndex<'u>>,
    policy: QuotientPolicy,
    memo: HashMap<Formula, CompSet>,
    // classification depends only on the (fixed) interpretation and
    // group, never on universe contents, so it is never invalidated —
    // without it every first evaluation of a subformula re-traverses
    // its whole subtree
    classifications: std::cell::RefCell<HashMap<Formula, Invariance>>,
    components: Option<Components>,
    expansion: Option<ExpansionState>,
    /// Cross-evaluator satisfaction-set cache, with the universe
    /// generation pinned at attach time ([`Evaluator::with_sat_cache`]).
    shared: Option<(u64, Arc<SatCache>)>,
}

/// What an orbit-aware evaluator does with a formula the
/// symmetry-soundness checker ([`classify_invariance`]) classifies
/// [`Invariance::OutOfContract`] — i.e. a formula whose quotient verdict
/// would silently diverge from the full universe.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum QuotientPolicy {
    /// Refuse the query with a typed
    /// [`CoreError::QuotientUnsound`] naming the offending subformula
    /// and the violating generator (or atom). Use
    /// [`Evaluator::try_sat_set`]; the infallible entry points panic.
    Reject,
    /// Transparently evaluate the out-of-contract subtree on
    /// orbit-expanded classes (exact full-universe semantics), keeping
    /// the quotient fast path for every invariant subtree. The default:
    /// always correct, pays the `O(|G|)` expansion only where the
    /// contract is actually violated.
    #[default]
    Expand,
}

/// Lazily-built state of the [`QuotientPolicy::Expand`] fallback: the
/// orbit-expanded virtual universe plus its own formula memo (virtual
/// satisfaction sets, disjoint from the representative-level memo) and
/// its common-knowledge components.
#[derive(Debug)]
struct ExpansionState {
    xu: ExpandedUniverse,
    xmemo: HashMap<Formula, CompSet>,
    components: Option<Components>,
}

/// The cached common-knowledge reachability structure: per-computation
/// component labels plus each component's member set (for word-parallel
/// satisfaction checks).
#[derive(Debug)]
struct Components {
    labels: Vec<u32>,
    sets: Vec<CompSet>,
}

impl Components {
    /// The connected components of `⋃ₚ [p]` over a frame's members —
    /// the reachability relation underlying common knowledge. Every
    /// singleton class joins the members of its test set; each member
    /// is labeled with its root, and each component's member set is
    /// materialized once, so `Common` evaluations are pure word-level
    /// set algebra.
    fn build<F: Frame>(frame: &F) -> Self {
        let n = frame.len();
        let mut dsu = Dsu::new(n);
        for pi in 0..frame.system_size() {
            frame.classes(ProcessSet::singleton(ProcessId::new(pi)), |test, _| {
                dsu.chain(test.iter());
            });
        }
        let labels: Vec<u32> = (0..n).map(|i| dsu.find(i) as u32).collect();
        // each root's component index; roots are members, so a Vec
        let mut set_of = vec![usize::MAX; n];
        let mut sets: Vec<CompSet> = Vec::new();
        for (i, &label) in labels.iter().enumerate() {
            let k = &mut set_of[label as usize];
            if *k == usize::MAX {
                *k = sets.len();
                sets.push(CompSet::new(n));
            }
            sets[*k].insert(i);
        }
        Components { labels, sets }
    }
}

/// A snapshot of the evaluator's memoized state, for diagnostics and
/// cache-reset regression tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemoStats {
    /// Number of formulas with a memoized satisfaction set.
    pub formulas: usize,
    /// Whether the common-knowledge component structure is cached.
    pub components_cached: bool,
}

/// A thread-safe **cross-query satisfaction-set cache**, keyed by
/// `(universe generation, formula)`.
///
/// This is the mutable half of the evaluator split: an [`Evaluator`]
/// stays a cheap per-thread view (its private memo lives and dies with
/// it), while the results worth keeping — final satisfaction sets over
/// an immutable snapshot — land here, behind a mutex, where any number
/// of evaluators on any number of threads can reuse them. Attach with
/// [`Evaluator::with_sat_cache`]; the attach pins the universe's current
/// [`generation`](Universe::generation), so entries can never leak
/// across snapshot states even if the underlying universe later grows.
///
/// # Sharing contract
///
/// A satisfaction set is a function of the universe state **and** the
/// interpretation, orbit structure, and quotient policy the evaluator
/// ran under. Share one `SatCache` only among evaluators configured
/// identically over the same snapshot (the query service enforces this
/// by holding one cache per registered scenario). Generations are
/// process-unique, so caches of *different* universes may share a
/// `SatCache` without collision — but distinct interpretations over the
/// same universe must not.
///
/// # Bounds
///
/// Two independent limits keep the cache finite:
///
/// * entries for up to [`MAX_CACHED_GENERATIONS`] distinct generations
///   are retained (least-recently-served eviction), mirroring
///   [`ClassCache`];
/// * the resident-bytes estimate is capped at a fixed
///   [`capacity`](SatCache::capacity_bytes) (default
///   [`DEFAULT_SAT_CACHE_CAPACITY`]): publishing past it evicts
///   least-recently-**served** entries — across all generations — until
///   the estimate fits again, always keeping at least the entry just
///   published. [`SatCache::carry_forward`] republishes through the
///   same path, so a growth step can shed cold source-generation
///   entries rather than overflow.
#[derive(Debug)]
pub struct SatCache {
    inner: Mutex<SatCacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Default for SatCache {
    fn default() -> Self {
        SatCache {
            inner: Mutex::default(),
            capacity: DEFAULT_SAT_CACHE_CAPACITY,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

#[derive(Debug, Default)]
struct SatCacheInner {
    /// Generations currently cached, most recently served last.
    recent: Vec<u64>,
    map: HashMap<(u64, Formula), SatEntry>,
    /// Monotone LRU clock: bumped on every hit and publish, stamped
    /// into the touched entry.
    clock: u64,
    /// Running resident-bytes estimate, kept in step with `map` (sum
    /// of [`entry_cost`] over all entries).
    resident: usize,
}

/// One cached satisfaction set plus its last-served LRU stamp.
#[derive(Debug)]
struct SatEntry {
    sat: CompSet,
    served: u64,
}

/// Estimated resident bytes of one cache entry: bitset words plus
/// [`SAT_ENTRY_OVERHEAD_BYTES`].
fn entry_cost(sat: &CompSet) -> usize {
    sat.words().len() * 8 + SAT_ENTRY_OVERHEAD_BYTES
}

/// Hit/miss/occupancy counters of a [`SatCache`], for the query
/// service's metrics snapshot, the benchmark's `sat_cache.*` metrics and
/// tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SatCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Satisfaction sets currently cached.
    pub entries: usize,
    /// Estimated resident size of the cached sets in bytes (bitset
    /// words plus a fixed per-entry overhead for the key and map slot).
    /// Bounded by [`capacity_bytes`](SatCacheStats::capacity_bytes)
    /// whenever more than one entry is cached.
    pub resident_bytes: usize,
    /// Entries evicted so far — by the generation window or by the
    /// size cap.
    pub evictions: u64,
    /// The resident-bytes cap this cache evicts against.
    pub capacity_bytes: usize,
}

impl SatCacheStats {
    /// Hit rate over all lookups so far, `0.0` when there were none.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            #[allow(clippy::cast_precision_loss)]
            {
                self.hits as f64 / total as f64
            }
        }
    }
}

/// Estimated bytes a [`SatCache`] entry occupies beyond its bitset
/// words: the `(generation, formula)` key, hash-map slot, and `CompSet`
/// header. A deliberate round figure — the point is trend, not
/// accounting.
const SAT_ENTRY_OVERHEAD_BYTES: usize = 96;

/// Default [`SatCache`] resident-bytes capacity: 64 MiB, past which
/// publishing evicts least-recently-served entries.
pub const DEFAULT_SAT_CACHE_CAPACITY: usize = 64 * 1024 * 1024;

impl SatCache {
    /// Creates an empty cache behind an [`Arc`], ready to be shared,
    /// with the default capacity ([`DEFAULT_SAT_CACHE_CAPACITY`]).
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(SatCache::default())
    }

    /// Creates an empty shared cache that evicts past a resident-bytes
    /// estimate of `capacity`. A capacity smaller than one entry still
    /// caches exactly the most recently published entry.
    #[must_use]
    pub fn shared_with_capacity(capacity: usize) -> Arc<Self> {
        Arc::new(SatCache {
            capacity,
            ..SatCache::default()
        })
    }

    /// The resident-bytes cap this cache evicts against.
    #[must_use]
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Looks up the satisfaction set of `f` over generation `generation`,
    /// counting the outcome in [`SatCacheStats`]. A hit refreshes the
    /// entry's LRU stamp.
    #[must_use]
    pub fn lookup(&self, generation: u64, f: &Formula) -> Option<CompSet> {
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let hit = inner.map.get_mut(&(generation, f.clone())).map(|e| {
            e.served = clock;
            e.sat.clone()
        });
        drop(inner);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hpl_telemetry::counter_add("eval.sat_cache_hit", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            hpl_telemetry::counter_add("eval.sat_cache_miss", 1);
        }
        hit
    }

    /// Publishes the satisfaction set of `f` over generation
    /// `generation`. Serving a generation beyond the
    /// [`MAX_CACHED_GENERATIONS`] window evicts the least recently
    /// served one's entries; pushing the resident-bytes estimate past
    /// the capacity evicts least-recently-served entries (any
    /// generation) until it fits, keeping at least the entry just
    /// published.
    pub fn publish(&self, generation: u64, f: &Formula, sat: &CompSet) {
        let mut inner = self.inner.lock();
        match inner.recent.iter().position(|&g| g == generation) {
            Some(i) => {
                let g = inner.recent.remove(i);
                inner.recent.push(g);
            }
            None => {
                inner.recent.push(generation);
                if inner.recent.len() > MAX_CACHED_GENERATIONS {
                    let evicted = inner.recent.remove(0);
                    let before = inner.map.len();
                    let mut freed = 0;
                    inner.map.retain(|&(g, _), e| {
                        let keep = g != evicted;
                        if !keep {
                            freed += entry_cost(&e.sat);
                        }
                        keep
                    });
                    inner.resident -= freed;
                    self.evictions
                        .fetch_add((before - inner.map.len()) as u64, Ordering::Relaxed);
                }
            }
        }
        inner.clock += 1;
        let clock = inner.clock;
        match inner.map.entry((generation, f.clone())) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // racing workers publish the same set; just refresh
                e.get_mut().served = clock;
                return;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(SatEntry {
                    sat: sat.clone(),
                    served: clock,
                });
                inner.resident += entry_cost(sat);
            }
        }
        // size cap: shed cold entries, never the one just published
        // (it carries the freshest stamp, so it is scanned last)
        while inner.resident > self.capacity && inner.map.len() > 1 {
            let coldest = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.served)
                .map(|(k, _)| k.clone());
            let Some(k) = coldest else { break };
            if let Some(e) = inner.map.remove(&k) {
                inner.resident -= entry_cost(&e.sat);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                hpl_telemetry::counter_add("eval.sat_cache_evict", 1);
            }
        }
    }

    /// Carries cached satisfaction sets across a universe growth step:
    /// for every entry keyed by generation `from`, `transfer` may
    /// produce the corresponding set over the grown universe, which is
    /// then published under generation `to`. Returns how many entries
    /// were carried.
    ///
    /// `transfer` returns `None` for entries that cannot be carried
    /// (e.g. epistemic formulas, whose verdicts a grown universe can
    /// change anywhere — see [`Formula::is_propositional`]); those are
    /// simply not republished and will be recomputed on first miss.
    /// The `from` entries themselves are left in place, subject to the
    /// normal generation-window eviction.
    pub fn carry_forward(
        &self,
        from: u64,
        to: u64,
        transfer: impl Fn(&Formula, &CompSet) -> Option<CompSet>,
    ) -> usize {
        // snapshot the source entries outside the publish path —
        // publish() takes the same lock
        let sources: Vec<(Formula, CompSet)> = {
            let inner = self.inner.lock();
            inner
                .map
                .iter()
                .filter(|((g, _), _)| *g == from)
                .map(|((_, f), e)| (f.clone(), e.sat.clone()))
                .collect()
        };
        let mut carried = 0;
        for (f, old) in sources {
            if let Some(new) = transfer(&f, &old) {
                self.publish(to, &f, &new);
                carried += 1;
            }
        }
        carried
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> SatCacheStats {
        let (entries, resident_bytes) = {
            let inner = self.inner.lock();
            (inner.map.len(), inner.resident)
        };
        SatCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            resident_bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity_bytes: self.capacity,
        }
    }
}

/// Evaluates a **propositional** formula at a single computation —
/// no universe required, because without epistemic operators truth is
/// local to the computation. Returns `None` if the formula contains
/// `knows` / `sure` / `everyone` / `common`
/// (see [`Formula::is_propositional`]).
///
/// This is the per-member decision procedure behind
/// [`SatCache::carry_forward`]: verdicts for computations that survive
/// a growth step are remapped, and only the newly enumerated
/// computations are decided here.
#[must_use]
pub fn eval_propositional(f: &Formula, interp: &Interpretation, c: &Computation) -> Option<bool> {
    Some(match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Atom(id) => interp.eval(*id, c),
        Formula::Not(g) => !eval_propositional(g, interp, c)?,
        Formula::And(gs) => {
            for g in gs {
                if !eval_propositional(g, interp, c)? {
                    return Some(false);
                }
            }
            true
        }
        Formula::Or(gs) => {
            for g in gs {
                if eval_propositional(g, interp, c)? {
                    return Some(true);
                }
            }
            false
        }
        Formula::Implies(a, b) => {
            !eval_propositional(a, interp, c)? || eval_propositional(b, interp, c)?
        }
        Formula::Iff(a, b) => {
            eval_propositional(a, interp, c)? == eval_propositional(b, interp, c)?
        }
        Formula::Knows(..) | Formula::Sure(..) | Formula::Everyone(_) | Formula::Common(_) => {
            return None
        }
    })
}

impl<'u> Evaluator<'u> {
    /// Creates an evaluator for a universe and interpretation.
    #[must_use]
    pub fn new(universe: &'u Universe, interp: &'u Interpretation) -> Self {
        Evaluator::with_class_cache(universe, interp, ClassCache::shared())
    }

    /// Creates an evaluator whose `[P]`-partitions come from a shared
    /// [`ClassCache`] — fresh evaluators over the same universe then skip
    /// the partition rebuild entirely (the cache self-invalidates when
    /// the universe's [`generation`](Universe::generation) changes).
    #[must_use]
    pub fn with_class_cache(
        universe: &'u Universe,
        interp: &'u Interpretation,
        cache: Arc<ClassCache>,
    ) -> Self {
        Evaluator {
            universe,
            interp,
            iso: IsoIndex::with_cache(universe, cache),
            sym: None,
            policy: QuotientPolicy::default(),
            memo: HashMap::new(),
            classifications: std::cell::RefCell::new(HashMap::new()),
            components: None,
            expansion: None,
            shared: None,
        }
    }

    /// Creates an **orbit-aware** evaluator over a symmetry-quotient
    /// universe (the output of
    /// [`enumerate_sharded`](crate::enumerate_sharded) in quotient mode):
    /// knowledge and common-knowledge queries quantify over the full
    /// orbits of the stored representatives.
    ///
    /// # Soundness — an enforced guarantee
    ///
    /// Every query is first classified by the symmetry-soundness checker
    /// ([`classify_invariance`]): atoms through their declared
    /// invariance ([`Interpretation::register_invariant`]), each
    /// `P knows _` / `P sure _` through a stabilizer test on `P`
    /// (`π(P) = P` for every group generator), `Everyone`/`Common`
    /// closed under any group. The constructor defaults to
    /// [`QuotientPolicy::Expand`], so **no query is ever silently
    /// mis-evaluated**:
    ///
    /// * [`Invariance::Invariant`] formulas evaluate on the quotient
    ///   fast path; verdicts match the full universe at every
    ///   representative, and satisfaction counts expand exactly through
    ///   [`Orbits::expanded_count`].
    /// * [`Invariance::ExactAtRepresentatives`] formulas (an outermost
    ///   knowledge operator over a non-stabilized set) also evaluate on
    ///   the fast path; verdicts are pointwise exact at the stored
    ///   representatives, but their counts must not be expanded.
    /// * [`Invariance::OutOfContract`] formulas — a *nested* knowledge
    ///   operator over a non-stabilized set, or knowledge over a
    ///   relabeling-dependent atom — are handled per the policy:
    ///   [`QuotientPolicy::Expand`] (default) evaluates just the
    ///   out-of-contract subtree on orbit-expanded classes with exact
    ///   full-universe semantics, and [`QuotientPolicy::Reject`]
    ///   returns [`CoreError::QuotientUnsound`] naming the offending
    ///   subformula and the violating generator.
    ///
    /// The restriction exists because a *nested* verdict stored at a
    /// representative `s` stands in for its relabelings `π·s`, and
    /// `π·s ⊨ P knows b` is `s ⊨ π⁻¹(P) knows b` — the same stored
    /// verdict only when `π⁻¹(P) = P`. The quotient-vs-full equivalence
    /// grid and the adversarial soundness proptest in
    /// `tests/symmetry_quotient.rs` certify the guarantee.
    ///
    /// The checker trusts two declarations, each with an executable
    /// certificate: the group really is an automorphism group
    /// ([`check_closure`](crate::check_closure)), and atoms declared
    /// invariant really are ([`Interpretation::validate_symmetry`]).
    ///
    /// # Example
    ///
    /// Two interchangeable processes, one internal step each: the
    /// quotient stores 3 representatives for the 5 computations (the
    /// one-step relabelings share an orbit, as do the two-step
    /// interleavings), yet knowledge verdicts and expanded counts match
    /// the full universe.
    ///
    /// ```
    /// use hpl_core::{enumerate_sharded, EnumerationLimits, ShardConfig};
    /// use hpl_core::{Evaluator, Formula, Interpretation};
    /// use hpl_core::{LocalView, ProtoAction, Protocol};
    /// use hpl_model::{ActionId, ProcessId, ProcessSet, SymmetryGroup};
    ///
    /// struct Twins;
    /// impl Protocol for Twins {
    ///     fn system_size(&self) -> usize { 2 }
    ///     fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
    ///         if view.is_empty() {
    ///             vec![ProtoAction::Internal { action: ActionId::new(1) }]
    ///         } else { vec![] }
    ///     }
    ///     fn symmetry(&self) -> SymmetryGroup { SymmetryGroup::Full { n: 2 } }
    /// }
    ///
    /// let out = enumerate_sharded(
    ///     &Twins,
    ///     EnumerationLimits::depth(2),
    ///     &ShardConfig::with_shards(2).quotient(),
    /// )?;
    /// let orbits = out.orbits.as_ref().expect("quotient mode attaches orbits");
    ///
    /// let mut interp = Interpretation::new();
    /// // invariant atom: unchanged by relabeling or interleaving
    /// let both = interp.register_invariant("both-stepped", |c| c.len() == 2);
    /// let mut ev = Evaluator::with_symmetry(out.universe.universe(), &interp, orbits);
    ///
    /// // the full set is stabilized by every group element
    /// let knows = Formula::knows(ProcessSet::full(2), Formula::atom(both));
    /// assert!(ev.check_symmetry(&knows).is_invariant());
    /// let sat = ev.sat_set(&knows);
    /// // one stored representative satisfies it, standing for the two
    /// // complete interleavings of the full universe
    /// assert_eq!(sat.count(), 1);
    /// assert_eq!(orbits.expanded_count(&sat)?, 2);
    /// // 5 full-universe computations stand behind 3 representatives
    /// assert_eq!(orbits.full_size(), 5);
    /// assert_eq!(ev.universe().len(), 3);
    /// # Ok::<(), hpl_core::CoreError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `orbits` does not describe exactly `universe`'s members.
    #[must_use]
    pub fn with_symmetry(
        universe: &'u Universe,
        interp: &'u Interpretation,
        orbits: &'u Orbits,
    ) -> Self {
        Evaluator::with_symmetry_policy(universe, interp, orbits, QuotientPolicy::default())
    }

    /// [`Evaluator::with_symmetry`] with an explicit
    /// [`QuotientPolicy`] — use [`QuotientPolicy::Reject`] to turn
    /// out-of-contract queries into typed errors
    /// ([`Evaluator::try_sat_set`]).
    ///
    /// # Panics
    ///
    /// Panics if `orbits` does not describe exactly `universe`'s members.
    #[must_use]
    pub fn with_symmetry_policy(
        universe: &'u Universe,
        interp: &'u Interpretation,
        orbits: &'u Orbits,
        policy: QuotientPolicy,
    ) -> Self {
        Evaluator {
            sym: Some(OrbitIndex::new(universe, orbits)),
            policy,
            ..Evaluator::new(universe, interp)
        }
    }

    /// Attaches a cross-evaluator [`SatCache`], pinning the universe's
    /// current [`generation`](Universe::generation): satisfaction sets
    /// this evaluator computes are published under that generation, and
    /// lookups hit whatever identically-configured evaluators published
    /// before. See the [`SatCache`] sharing contract — the cache must
    /// only be shared among evaluators with the same interpretation,
    /// orbit structure, and quotient policy over this snapshot.
    #[must_use]
    pub fn with_sat_cache(mut self, cache: Arc<SatCache>) -> Self {
        self.shared = Some((self.universe.generation(), cache));
        self
    }

    /// The attached cross-evaluator cache, if any.
    #[must_use]
    pub fn sat_cache(&self) -> Option<&Arc<SatCache>> {
        self.shared.as_ref().map(|(_, c)| c)
    }

    /// The universe being evaluated over.
    #[must_use]
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// The interpretation supplying atoms.
    #[must_use]
    pub fn interpretation(&self) -> &'u Interpretation {
        self.interp
    }

    /// The underlying isomorphism index (shared class cache).
    #[must_use]
    pub fn iso(&self) -> &IsoIndex<'u> {
        &self.iso
    }

    /// The orbit structure, when this evaluator is orbit-aware
    /// ([`Evaluator::with_symmetry`]). Use it to expand quotient counts
    /// back to full-universe cardinalities.
    #[must_use]
    pub fn orbits(&self) -> Option<&'u Orbits> {
        self.sym.as_ref().map(OrbitIndex::orbits)
    }

    /// The quotient policy, when this evaluator is orbit-aware (`None`
    /// for plain evaluators, which need no contract).
    #[must_use]
    pub fn quotient_policy(&self) -> Option<QuotientPolicy> {
        self.sym.as_ref().map(|_| self.policy)
    }

    /// Runs the symmetry-soundness checker on `f` against this
    /// evaluator's group — its generating set
    /// ([`Orbits::generators`]), so stabilizer tests cost `O(|gens|)`
    /// per knowledge operator, not `O(|G|)`. Plain (non-quotient)
    /// evaluators classify everything [`Invariance::Invariant`] —
    /// there is no orbit to be variant along.
    #[must_use]
    pub fn check_symmetry(&self, f: &Formula) -> Invariance {
        let Some(orbit) = &self.sym else {
            return Invariance::Invariant;
        };
        if let Some(c) = self.classifications.borrow().get(f) {
            return c.clone();
        }
        let c = classify_invariance(f, self.interp, orbit.orbits().generators());
        self.classifications
            .borrow_mut()
            .insert(f.clone(), c.clone());
        c
    }

    /// The satisfaction set of `f`: all computations at which `f` holds.
    ///
    /// # Panics
    ///
    /// Under [`QuotientPolicy::Reject`], panics if the soundness checker
    /// classifies `f` out of contract — use [`Evaluator::try_sat_set`]
    /// for the typed error.
    pub fn sat_set(&mut self, f: &Formula) -> CompSet {
        self.try_sat_set(f)
            .unwrap_or_else(|e| panic!("quotient evaluator rejected the query: {e}"))
    }

    /// The satisfaction set of `f`, surfacing the
    /// [`QuotientPolicy::Reject`] outcome as a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::QuotientUnsound`] when this evaluator is
    /// orbit-aware with [`QuotientPolicy::Reject`] and the checker
    /// classifies `f` [`Invariance::OutOfContract`]. Infallible for
    /// every other configuration.
    pub fn try_sat_set(&mut self, f: &Formula) -> Result<CompSet, CoreError> {
        if let Some(s) = self.memo.get(f) {
            hpl_telemetry::counter_add("eval.memo_hit", 1);
            return Ok(s.clone());
        }
        hpl_telemetry::counter_add("eval.memo_miss", 1);
        let _eval = hpl_telemetry::span("eval.sat_set");
        if let Some((generation, cache)) = &self.shared {
            if let Some(s) = cache.lookup(*generation, f) {
                self.memo.insert(f.clone(), s.clone());
                return Ok(s);
            }
        }
        // plain universes and in-contract quotient formulas evaluate on
        // the evaluator's own universe; the policy decides the rest
        let s = match self.check_symmetry(f) {
            Invariance::OutOfContract(v) => match self.policy {
                QuotientPolicy::Reject => return Err(CoreError::QuotientUnsound(v)),
                QuotientPolicy::Expand => {
                    hpl_telemetry::counter_add("eval.expand_fallback", 1);
                    self.expand_sat(f)?
                }
            },
            _ => satisfy(self, f)?,
        };
        self.memo.insert(f.clone(), s.clone());
        self.publish(f, &s);
        Ok(s)
    }

    /// Publishes a freshly computed satisfaction set to the attached
    /// [`SatCache`] (no-op without one). Rejections are never cached:
    /// re-deriving the classification is cheap and already memoized.
    fn publish(&self, f: &Formula, s: &CompSet) {
        if let Some((generation, cache)) = &self.shared {
            cache.publish(*generation, f, s);
        }
    }

    /// Does `f` hold at computation `x`? (The paper's `f at x`.)
    pub fn holds_at(&mut self, f: &Formula, x: CompId) -> bool {
        self.sat_set(f).contains(x.index())
    }

    /// Does `f` hold at every computation of the universe?
    pub fn holds_everywhere(&mut self, f: &Formula) -> bool {
        self.sat_set(f).count() == self.universe.len()
    }

    /// Is the valuation of `f` constant across the universe (everywhere
    /// true or everywhere false)? Used for the paper's "common knowledge
    /// is a constant" corollaries.
    pub fn is_constant(&mut self, f: &Formula) -> bool {
        let s = self.sat_set(f);
        s.is_empty() || s.count() == self.universe.len()
    }

    /// The [`QuotientPolicy::Expand`] fallback: evaluates an
    /// out-of-contract formula over the orbit-expanded virtual universe
    /// (exact full-universe semantics) and projects the verdict back to
    /// the stored representatives.
    fn expand_sat(&mut self, f: &Formula) -> Result<CompSet, CoreError> {
        let orbits = self
            .orbits()
            .expect("expansion requires an orbit-aware evaluator");
        // detach the expansion state so the recursion may re-enter
        // `try_sat_set` (for invariant subtrees) without aliasing it
        let mut st = self.expansion.take().unwrap_or_else(|| ExpansionState {
            xu: ExpandedUniverse::new(orbits),
            xmemo: HashMap::new(),
            components: None,
        });
        let v = Expanded {
            ev: self,
            st: &mut st,
            orbits,
        }
        .sat(f);
        let rep = v.map(|v| st.xu.project(&v));
        self.expansion = Some(st);
        rep
    }

    /// Public view of the common-knowledge components (for diagnostics and
    /// the reproduction report): the component label of each computation.
    pub fn common_knowledge_components(&mut self) -> Vec<u32> {
        common_components(self).labels.clone()
    }

    /// Clears **all** memoized state: the formula→satisfaction-set memo
    /// *and* the cached common-knowledge component structure (e.g.
    /// between parameter sweeps that reuse the evaluator with logically
    /// fresh atoms).
    pub fn clear_memo(&mut self) {
        self.memo.clear();
        self.components = None;
        if let Some(st) = &mut self.expansion {
            // the virtual universe is determined by the orbits and may
            // stay; its formula memo and components are logically part
            // of the memo cleared above
            st.xmemo.clear();
            st.components = None;
        }
    }

    /// Current memoization state, for diagnostics and tests.
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            formulas: self.memo.len(),
            components_cached: self.components.is_some(),
        }
    }
}

/// The universe a satisfaction-set recursion ranges over. The three
/// frames — a plain universe, the representatives of a symmetry
/// quotient (both the [`Evaluator`] itself) and the orbit-expanded
/// virtual universe ([`Expanded`]) — differ only in what this trait
/// supplies; [`satisfy`] writes the paper's semantics once for all.
trait Frame {
    /// Number of members: satisfaction sets range over `0..len()`.
    fn len(&self) -> usize;
    /// Number of processes, for `Everyone` and `Common`.
    fn system_size(&self) -> usize;
    /// The satisfaction set of a subformula, through the frame's memo.
    fn sat(&mut self, f: &Formula) -> Result<CompSet, CoreError>;
    /// The members at which an atom holds.
    fn atom(&self, id: AtomId) -> CompSet;
    /// Calls `visit(test, members)` once per `[P]`-class: `P knows b`
    /// holds at `members` iff `b` holds throughout `test`.
    fn classes(&self, p: ProcessSet, visit: impl FnMut(&CompSet, &CompSet));
    /// The frame's cached common-knowledge components.
    fn components(&mut self) -> &mut Option<Components>;
}

/// The satisfaction set of `f` over `frame`: booleans are word-parallel
/// set algebra, `P knows b` keeps the `[P]`-classes whose test set
/// satisfies `b`, and `C b` keeps the components of `⋃ₚ [p]` that
/// satisfy `b` throughout.
fn satisfy<F: Frame>(frame: &mut F, f: &Formula) -> Result<CompSet, CoreError> {
    let n = frame.len();
    Ok(match f {
        Formula::True => CompSet::full(n),
        Formula::False => CompSet::new(n),
        Formula::Atom(id) => frame.atom(*id),
        Formula::Not(g) => {
            let mut s = frame.sat(g)?;
            s.complement();
            s
        }
        Formula::And(gs) => {
            let mut s = CompSet::full(n);
            for g in gs {
                s.intersect_with(&frame.sat(g)?);
            }
            s
        }
        Formula::Or(gs) => {
            let mut s = CompSet::new(n);
            for g in gs {
                s.union_with(&frame.sat(g)?);
            }
            s
        }
        Formula::Implies(a, b) => {
            // ¬a ∨ b
            let mut s = frame.sat(a)?;
            s.complement();
            s.union_with(&frame.sat(b)?);
            s
        }
        Formula::Iff(a, b) => {
            // a ⇔ b is the complement of a ⊕ b
            let mut s = frame.sat(a)?;
            s.xor_with(&frame.sat(b)?);
            s.complement();
            s
        }
        Formula::Knows(p, g) => {
            let sg = frame.sat(g)?;
            knows(frame, *p, |test| test.is_subset(&sg))
        }
        Formula::Sure(p, g) => {
            // (P knows g) ∨ (P knows ¬g): g is constant on the test set
            let sg = frame.sat(g)?;
            knows(frame, *p, |test| {
                test.is_subset(&sg) || !test.intersects(&sg)
            })
        }
        Formula::Everyone(g) => {
            let sg = frame.sat(g)?;
            let mut s = CompSet::full(n);
            for pi in 0..frame.system_size() {
                let p = ProcessSet::singleton(ProcessId::new(pi));
                s.intersect_with(&knows(frame, p, |test| test.is_subset(&sg)));
            }
            s
        }
        Formula::Common(g) => {
            // a component satisfies iff all its members do
            let sg = frame.sat(g)?;
            let mut s = CompSet::new(n);
            for set in &common_components(frame).sets {
                if set.is_subset(&sg) {
                    s.union_with(set);
                }
            }
            s
        }
    })
}

/// The members of every `[P]`-class whose test set passes `holds`.
fn knows<F: Frame>(frame: &F, p: ProcessSet, holds: impl Fn(&CompSet) -> bool) -> CompSet {
    let mut s = CompSet::new(frame.len());
    frame.classes(p, |test, members| {
        if holds(test) {
            s.union_with(members);
        }
    });
    s
}

/// The frame's common-knowledge components, built on first use.
fn common_components<F: Frame>(frame: &mut F) -> &Components {
    if frame.components().is_none() {
        let built = Components::build(frame);
        *frame.components() = Some(built);
    }
    frame.components().as_ref().expect("just built")
}

/// The evaluator's own universe. Plain, each class of the [`IsoIndex`]
/// is its own test set; over a symmetry quotient (in-contract formulas
/// only), a class's test set is every representative whose orbit meets
/// it ([`OrbitClasses::orbit_set`](crate::OrbitClasses::orbit_set)).
impl Frame for Evaluator<'_> {
    fn len(&self) -> usize {
        self.universe.len()
    }

    fn system_size(&self) -> usize {
        self.universe.system_size()
    }

    fn sat(&mut self, f: &Formula) -> Result<CompSet, CoreError> {
        self.try_sat_set(f)
    }

    fn atom(&self, id: AtomId) -> CompSet {
        let mut s = CompSet::new(self.universe.len());
        for (i, c) in self.universe.iter() {
            if self.interp.eval(id, c) {
                s.insert(i.index());
            }
        }
        s
    }

    fn classes(&self, p: ProcessSet, mut visit: impl FnMut(&CompSet, &CompSet)) {
        if let Some(orbit) = &self.sym {
            let classes = orbit.classes(p);
            for class in 0..classes.class_count() {
                visit(classes.orbit_set(class), classes.member_set(class));
            }
        } else {
            let classes = self.iso.classes(p);
            for class in 0..classes.class_count() {
                visit(classes.member_set(class), classes.member_set(class));
            }
        }
    }

    fn components(&mut self) -> &mut Option<Components> {
        &mut self.components
    }
}

/// The orbit-expanded virtual universe: one member per distinct
/// relabeling `π·r`, with the full universe's `[P]`-classes. Its memo
/// holds virtual sets; an invariant subtree instead takes the quotient
/// fast path and lifts the representatives' verdict.
struct Expanded<'a, 'u> {
    ev: &'a mut Evaluator<'u>,
    st: &'a mut ExpansionState,
    orbits: &'u Orbits,
}

impl Frame for Expanded<'_, '_> {
    fn len(&self) -> usize {
        self.st.xu.len()
    }

    fn system_size(&self) -> usize {
        self.ev.universe.system_size()
    }

    fn sat(&mut self, f: &Formula) -> Result<CompSet, CoreError> {
        if let Some(s) = self.st.xmemo.get(f) {
            return Ok(s.clone());
        }
        let s = if self.ev.check_symmetry(f).is_invariant() {
            let rep = self.ev.try_sat_set(f)?;
            self.st.xu.lift(&rep)
        } else {
            satisfy(self, f)?
        };
        self.st.xmemo.insert(f.clone(), s.clone());
        Ok(s)
    }

    fn atom(&self, id: AtomId) -> CompSet {
        // a relabeling-dependent atom: materialize each virtual member
        // π·r and ask the closure directly
        let mut s = CompSet::new(self.st.xu.len());
        for vid in 0..self.st.xu.len() {
            let (rid, ei) = self.st.xu.member(vid);
            let c = self.ev.universe.get(CompId::from_index(rid));
            let holds = if ei == 0 {
                self.ev.interp.eval(id, c)
            } else {
                self.ev
                    .interp
                    .eval(id, &c.permuted(&self.orbits.elements()[ei]))
            };
            if holds {
                s.insert(vid);
            }
        }
        s
    }

    fn classes(&self, p: ProcessSet, mut visit: impl FnMut(&CompSet, &CompSet)) {
        for set in self.st.xu.member_sets(self.orbits, p).iter() {
            visit(set, set);
        }
    }

    fn components(&mut self) -> &mut Option<Components> {
        &mut self.st.components
    }
}

/// Minimal union-find with path halving.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Puts every member of `class` into one component, hanging each
    /// member's root directly under the first member's root.
    fn chain(&mut self, class: impl IntoIterator<Item = usize>) {
        let mut root: Option<usize> = None;
        for i in class {
            let ri = self.find(i);
            match root {
                Some(r) if r != ri => self.parent[ri] = r,
                Some(_) => {}
                None => root = Some(ri),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::ScenarioPool;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn ps(i: usize) -> ProcessSet {
        ProcessSet::singleton(pid(i))
    }

    /// Universe over {send, receive}: {null, s, sr} — the message example
    /// from the crate docs.
    fn msg_universe() -> (Universe, Vec<CompId>) {
        let mut pool = ScenarioPool::new(2);
        let (s, m) = pool.send(pid(0), pid(1));
        let r = pool.receive(pid(1), pid(0), m);
        let mut u = Universe::new(2);
        let ids = vec![
            u.insert(pool.compose([]).unwrap()).unwrap(),
            u.insert(pool.compose([s]).unwrap()).unwrap(),
            u.insert(pool.compose([s, r]).unwrap()).unwrap(),
        ];
        (u, ids)
    }

    #[test]
    fn boolean_connectives() {
        let (u, ids) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);

        let a = Formula::atom(sent);
        assert!(!ev.holds_at(&a, ids[0]));
        assert!(ev.holds_at(&a, ids[1]));
        assert!(ev.holds_at(&a.clone().not(), ids[0]));
        assert!(ev.holds_at(&Formula::True, ids[0]));
        assert!(!ev.holds_at(&Formula::False, ids[0]));
        assert!(ev.holds_at(&a.clone().and(Formula::True), ids[1]));
        assert!(ev.holds_at(&a.clone().or(Formula::False), ids[1]));
        assert!(ev.holds_at(&Formula::False.implies(a.clone()), ids[0]));
        assert!(ev.holds_at(&a.clone().iff(a.clone()), ids[0]));
        assert!(ev.holds_everywhere(&Formula::True));
        assert!(ev.is_constant(&Formula::True));
        assert!(!ev.is_constant(&a));
    }

    #[test]
    fn knowledge_via_receive() {
        let (u, ids) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);

        let b = Formula::atom(sent);
        // p (the sender) knows immediately:
        let p_knows = Formula::knows(ps(0), b.clone());
        assert!(!ev.holds_at(&p_knows, ids[0]));
        assert!(ev.holds_at(&p_knows, ids[1]));
        // q cannot distinguish null from s until it receives:
        let q_knows = Formula::knows(ps(1), b.clone());
        assert!(!ev.holds_at(&q_knows, ids[0]));
        assert!(!ev.holds_at(&q_knows, ids[1]));
        assert!(ev.holds_at(&q_knows, ids[2]));
        // knowledge axiom: K implies truth
        let mut kb = ev.sat_set(&q_knows);
        let sb = ev.sat_set(&b);
        kb.difference_with(&sb);
        assert!(kb.is_empty());
    }

    #[test]
    fn group_knowledge_is_joint_view() {
        let (u, ids) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        // {p,q} jointly know as soon as p knows (their combined view
        // distinguishes s from null).
        let pq_knows = Formula::knows(ProcessSet::full(2), Formula::atom(sent));
        assert!(ev.holds_at(&pq_knows, ids[1]));
        assert!(!ev.holds_at(&pq_knows, ids[0]));
    }

    #[test]
    fn sure_and_unsure() {
        let (u, ids) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        let b = Formula::atom(sent);
        // p always knows whether it sent: sure everywhere.
        assert!(ev.holds_everywhere(&Formula::sure(ps(0), b.clone())));
        // q is unsure at null and at s, sure at sr.
        let q_sure = Formula::sure(ps(1), b.clone());
        assert!(!ev.holds_at(&q_sure, ids[0]));
        assert!(!ev.holds_at(&q_sure, ids[1]));
        assert!(ev.holds_at(&q_sure, ids[2]));
        let q_unsure = Formula::unsure(ps(1), b);
        assert!(ev.holds_at(&q_unsure, ids[0]));
        assert!(!ev.holds_at(&q_unsure, ids[2]));
    }

    #[test]
    fn everyone_and_common() {
        let (u, ids) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        let b = Formula::atom(sent);

        let e = Formula::everyone(b.clone());
        assert!(!ev.holds_at(&e, ids[1])); // q doesn't know yet
        assert!(ev.holds_at(&e, ids[2])); // both know at sr

        // common knowledge of `sent` can never hold: null is reachable
        // from every computation via [q] then [p] steps.
        let c = Formula::common(b.clone());
        for &x in &ids {
            assert!(!ev.holds_at(&c, x));
        }
        // CK of a constant-true predicate holds everywhere.
        assert!(ev.holds_everywhere(&Formula::common(Formula::True)));
        // and CK valuations are constant on this connected universe:
        assert!(ev.is_constant(&c));
        let comps = ev.common_knowledge_components();
        assert!(comps.iter().all(|&l| l == comps[0]));
    }

    #[test]
    fn knows_depends_on_universe_scope() {
        // With only {null, s} in the universe (no receive), q never knows.
        let mut pool = ScenarioPool::new(2);
        let (s, _m) = pool.send(pid(0), pid(1));
        let mut u = Universe::new(2);
        let c0 = u.insert(pool.compose([]).unwrap()).unwrap();
        let c1 = u.insert(pool.compose([s]).unwrap()).unwrap();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        let q_knows = Formula::knows(ps(1), Formula::atom(sent));
        assert!(!ev.holds_at(&q_knows, c0));
        assert!(!ev.holds_at(&q_knows, c1));
    }

    #[test]
    fn everyone_is_conjunction_of_singleton_knows() {
        let (u, _) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        let b = Formula::atom(sent);
        let e = Formula::everyone(b.clone());
        let conj = Formula::And((0..2).map(|i| Formula::knows(ps(i), b.clone())).collect());
        assert_eq!(ev.sat_set(&e), ev.sat_set(&conj));
    }

    #[test]
    fn sure_is_symmetric_in_negation() {
        let (u, _) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        let b = Formula::atom(sent);
        let s1 = ev.sat_set(&Formula::sure(ps(1), b.clone()));
        let s2 = ev.sat_set(&Formula::sure(ps(1), b.not()));
        assert_eq!(s1, s2, "P sure b ≡ P sure ¬b");
    }

    /// Growing the universe can only destroy knowledge: if `P knows b`
    /// over a superset universe, it also holds over any subset containing
    /// the same computation (the class can only shrink).
    #[test]
    fn knowledge_monotone_under_universe_restriction() {
        use hpl_model::ScenarioPool;
        let mut pool = ScenarioPool::new(2);
        let (s, m) = pool.send(pid(0), pid(1));
        let r = pool.receive(pid(1), pid(0), m);
        let a = pool.internal(pid(0));

        let sequences: Vec<Vec<hpl_model::EventId>> = vec![
            vec![],
            vec![s],
            vec![a],
            vec![s, r],
            vec![a, s],
            vec![s, a],
            vec![s, r, a],
            vec![s, a, r],
            vec![a, s, r],
        ];
        // big universe
        let mut big = Universe::new(2);
        for seq in &sequences {
            big.insert(pool.compose(seq.iter().copied()).unwrap())
                .unwrap();
        }
        // small universe: drop some members (keep a few)
        let mut small = Universe::new(2);
        for seq in sequences.iter().step_by(2) {
            small
                .insert(pool.compose(seq.iter().copied()).unwrap())
                .unwrap();
        }
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev_big = Evaluator::new(&big, &interp);
        let mut ev_small = Evaluator::new(&small, &interp);
        for pi in 0..2 {
            let f = Formula::knows(ps(pi), Formula::atom(sent));
            let sat_big = ev_big.sat_set(&f);
            let sat_small = ev_small.sat_set(&f);
            for (id_small, c) in small.iter() {
                if let Some(id_big) = big.id_of(c) {
                    if sat_big.contains(id_big.index()) {
                        assert!(
                            sat_small.contains(id_small.index()),
                            "knowledge in the larger universe must persist in the smaller"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn memo_is_reused_and_clearable() {
        let (u, _) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        let f = Formula::knows(ps(1), Formula::atom(sent));
        let s1 = ev.sat_set(&f);
        let s2 = ev.sat_set(&f);
        assert_eq!(s1, s2);
        ev.clear_memo();
        let s3 = ev.sat_set(&f);
        assert_eq!(s1, s3);
    }

    /// Regression test: `clear_memo` must reset *every* memoized
    /// structure — the sat-set cache and the cached common-knowledge
    /// components. (It used to leave the component labels in place.)
    #[test]
    fn clear_memo_fully_resets_memoized_state() {
        let (u, _) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        assert_eq!(
            ev.memo_stats(),
            MemoStats {
                formulas: 0,
                components_cached: false
            }
        );

        let ck = Formula::common(Formula::atom(sent));
        let before = ev.sat_set(&ck);
        let stats = ev.memo_stats();
        assert!(stats.formulas > 0, "sat sets must be memoized");
        assert!(
            stats.components_cached,
            "Common must populate the component cache"
        );

        ev.clear_memo();
        assert_eq!(
            ev.memo_stats(),
            MemoStats {
                formulas: 0,
                components_cached: false
            },
            "clear_memo must drop the sat-set memo AND the component cache"
        );

        // recomputation from the cold cache agrees
        assert_eq!(ev.sat_set(&ck), before);
        assert!(ev.memo_stats().components_cached);
    }

    #[test]
    fn iff_matches_per_element_semantics() {
        let (u, _) = msg_universe();
        let mut interp = Interpretation::new();
        let sent = interp.register("sent", |c| c.sends() > 0);
        let recv = interp.register("recv", |c| c.receives() > 0);
        let mut ev = Evaluator::new(&u, &interp);
        let f = Formula::atom(sent).iff(Formula::atom(recv));
        let s = ev.sat_set(&f);
        let sa = ev.sat_set(&Formula::atom(sent));
        let sb = ev.sat_set(&Formula::atom(recv));
        for i in 0..u.len() {
            assert_eq!(s.contains(i), sa.contains(i) == sb.contains(i));
        }
    }
}
