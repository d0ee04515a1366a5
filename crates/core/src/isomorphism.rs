//! Isomorphism between system computations (paper §3).
//!
//! `x [p] y` iff `x|p = y|p`; `x [P] y` iff `x [p] y` for all `p ∈ P`;
//! and the composed relation is relational composition:
//! `[P₀ … Pₙ] = [P₀] ∘ … ∘ [Pₙ]`.
//!
//! [`IsoIndex`] materializes, per process set `P`, the partition of a
//! [`Universe`] into `[P]`-equivalence classes as one class label per
//! member (cached), from which composed relations are evaluated one
//! label pass per step.
//!
//! Knowledge needs no more than the labels. `(P knows b) at x` asks one
//! question of `x`'s class — does `b` hold throughout it? — so one pass
//! over the members flags each class that meets `b` and each that
//! misses it, and a second pass reads every member's verdict off its
//! class's flags. That label kernel answers `K`, `Sure`, `E` and `C` on
//! every frame the evaluator ranges over; on a symmetry quotient a
//! member's relabelings also flag the classes they land in
//! ([`OrbitClasses`](crate::OrbitClasses)).
//!
//! The module also provides executable checkers for the paper's ten
//! algebraic properties of isomorphism relations ([`properties`]).

use crate::bitset::CompSet;
use crate::formula::AtomId;
use crate::universe::{CompId, Universe};
use hpl_model::ProcessSet;
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The `[P]`-partition of a universe: one class label per computation,
/// classes numbered in order of their first member. No class stores
/// its members; [`Classes::member_set`] collects them on request with
/// one pass over the labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Classes {
    class_of: Vec<u32>,
    count: usize,
}

impl Classes {
    /// Labels members `0..n` by the key `key_of` appends for each:
    /// members with equal keys share a class. Returns the key table
    /// too, for callers that look further keys up in it.
    pub(crate) fn by_key(
        n: usize,
        mut key_of: impl FnMut(usize, &mut Vec<u64>),
    ) -> (Self, HashMap<Vec<u64>, u32>) {
        let mut table: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut class_of = Vec::with_capacity(n);
        // one key buffer for every member; a key is copied only when it
        // opens a class
        let mut key = Vec::new();
        for i in 0..n {
            key.clear();
            key_of(i, &mut key);
            let next = table.len() as u32;
            let class = match table.get(&key) {
                Some(&class) => class,
                None => {
                    table.insert(key.clone(), next);
                    next
                }
            };
            class_of.push(class);
        }
        let count = table.len();
        (Classes { class_of, count }, table)
    }

    /// Wraps labels already numbered `0..count`.
    pub(crate) fn from_labels(class_of: Vec<u32>, count: usize) -> Self {
        Classes { class_of, count }
    }

    /// The class index of a computation.
    #[must_use]
    pub fn class_of(&self, c: CompId) -> usize {
        self.class_of[c.index()] as usize
    }

    /// Number of equivalence classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.count
    }

    /// Member set of a class, collected by one pass over the labels.
    #[must_use]
    pub fn member_set(&self, class: usize) -> CompSet {
        CompSet::from_fn(self.class_of.len(), |i| self.class_of[i] as usize == class)
    }

    /// Tests whether two computations are in the same class.
    #[must_use]
    pub fn same_class(&self, x: CompId, y: CompId) -> bool {
        self.class_of[x.index()] == self.class_of[y.index()]
    }

    /// The first class (by index) that `sat` splits: some of its
    /// members are in `sat` and some are not. `None` when `sat` is a
    /// union of classes.
    #[must_use]
    pub fn first_mixed(&self, sat: &CompSet) -> Option<usize> {
        class_flags(self, sat)
            .iter()
            .position(|&flags| flags == MEETS | MISSES)
    }
}

/// What a knowledge operator asks of each class's test set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Test {
    /// `b` holds throughout: `P knows b`, and `C b` over components.
    Knows,
    /// `b` is constant: `P sure b`.
    Sure,
    /// `b` holds somewhere: one step of a composed relation.
    Meets,
}

impl Test {
    /// Whether a class passes, indexed by its [`class_flags`].
    fn passes(self) -> [bool; 4] {
        match self {
            Test::Knows => [true, true, false, false],
            Test::Sure => [true, true, true, false],
            Test::Meets => [false, true, false, true],
        }
    }
}

/// A partition the label kernel reads: each member's class, and the
/// classes whose test set holds each member. On a plain frame a class
/// tests exactly its members; on a symmetry quotient a representative
/// also tests every class one of its relabelings lands in.
pub(crate) trait Labels {
    /// The class of every member, in member order.
    fn labels(&self) -> &[u32];
    /// Number of classes.
    fn class_count(&self) -> usize;
    /// The classes whose test set holds `member`.
    fn tests_of(&self, member: usize) -> &[u32];
}

impl Labels for Classes {
    fn labels(&self) -> &[u32] {
        &self.class_of
    }

    fn class_count(&self) -> usize {
        self.count
    }

    fn tests_of(&self, member: usize) -> &[u32] {
        std::slice::from_ref(&self.class_of[member])
    }
}

/// [`class_flags`] bit: some test member is in the set.
const MEETS: u8 = 1;
/// [`class_flags`] bit: some test member is outside the set.
const MISSES: u8 = 2;

/// The kernel's first pass: per class, whether its test set meets
/// `sat` and whether it misses it.
fn class_flags<L: Labels>(part: &L, sat: &CompSet) -> Vec<u8> {
    let mut flags = vec![0u8; part.class_count()];
    for member in 0..part.labels().len() {
        let bit = if sat.contains(member) { MEETS } else { MISSES };
        for &class in part.tests_of(member) {
            flags[class as usize] |= bit;
        }
    }
    flags
}

/// The label kernel: the members whose class's test set passes `test`
/// against `sat`. One pass flags the classes, a second reads each
/// member's verdict off its class.
pub(crate) fn verdicts<L: Labels>(part: &L, sat: &CompSet, test: Test) -> CompSet {
    let flags = class_flags(part, sat);
    let passes = test.passes();
    let labels = part.labels();
    CompSet::from_fn(labels.len(), |member| {
        passes[usize::from(flags[labels[member] as usize])]
    })
}

/// Cached isomorphism-class index over a universe.
///
/// # Example
///
/// ```
/// use hpl_core::{IsoIndex, Universe};
/// use hpl_model::{ProcessId, ProcessSet, ScenarioPool};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let (p, q) = (ProcessId::new(0), ProcessId::new(1));
/// let mut pool = ScenarioPool::new(2);
/// let a = pool.internal(p);
/// let b = pool.internal(q);
///
/// let mut u = Universe::new(2);
/// let x = u.insert(pool.compose([a])?)?;
/// let y = u.insert(pool.compose([a, b])?)?;
///
/// let iso = IsoIndex::new(&u);
/// assert!(iso.isomorphic(x, y, ProcessSet::singleton(p)));   // x [p] y
/// assert!(!iso.isomorphic(x, y, ProcessSet::singleton(q)));  // ¬ x [q] y
/// // composed: x [p][q] y via x itself? x [p] x [q] ... BFS finds it iff
/// // some intermediate agrees with x on p and with y on q — here x [p] y
/// // already, and y [q] y, so the path x →p y →q y works:
/// assert!(iso.related(x, y, &[ProcessSet::singleton(p), ProcessSet::singleton(q)]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct IsoIndex<'u> {
    universe: &'u Universe,
    cache: Arc<ClassCache>,
}

/// A shareable cache of the structures knowledge evaluation reads,
/// keyed by the universe *generation* they were built from
/// ([`Universe::generation`]): `[P]`-partitions and common-knowledge
/// components, and for an orbit-aware [`Evaluator`](crate::Evaluator)
/// also its orbit partitions and the orbit-expanded universe with its
/// partitions and relabeling-dependent atoms. Each is built on first
/// request, once however many threads ask for it, and then shared by
/// `Arc`. Partitions and components are labels (a `u32` per member,
/// plus an orbit partition's landing lists), so one costs `O(|U|)`
/// whatever its class count.
///
/// Partitions and plain components depend only on the universe's
/// membership, so one cache can back any number of [`IsoIndex`]es /
/// [`Evaluator`](crate::Evaluator)s over the same universe — a fresh
/// evaluator per query round stops paying the partition-rebuild cost.
/// What an orbit-aware evaluator adds also depends on its orbits and,
/// for the dependent atoms, its interpretation: attach a cache to one
/// ([`Evaluator::with_structures`](crate::Evaluator::with_structures))
/// only under the [`SatCache`](crate::SatCache) sharing contract (the
/// query service holds one cache per snapshot).
///
/// The cache retains structures for the most recent
/// [`MAX_CACHED_GENERATIONS`] universe states it has served, so it may
/// be shared across a handful of live universes without thrashing;
/// touching a generation beyond that window evicts the least recently
/// served one. A universe grown one horizon deeper is a new state, with
/// structures of its own.
///
/// # Example
///
/// ```
/// use hpl_core::isomorphism::ClassCache;
/// use hpl_core::{Evaluator, Formula, Interpretation, Universe};
/// use hpl_model::{ProcessId, ProcessSet, ScenarioPool};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut pool = ScenarioPool::new(2);
/// let a = pool.internal(ProcessId::new(0));
/// let mut u = Universe::new(2);
/// u.insert(pool.compose([])?)?;
/// u.insert(pool.compose([a])?)?;
///
/// let mut interp = Interpretation::new();
/// let sent = interp.register("any", |c| !c.is_empty());
/// let cache = ClassCache::shared();
/// let f = Formula::knows(ProcessSet::singleton(ProcessId::new(0)), Formula::atom(sent));
/// // both evaluators reuse the same partitions:
/// let s1 = Evaluator::with_class_cache(&u, &interp, cache.clone()).sat_set(&f);
/// let s2 = Evaluator::with_class_cache(&u, &interp, cache.clone()).sat_set(&f);
/// assert_eq!(s1, s2);
/// assert_eq!(cache.len(), 1);
/// assert_eq!(cache.stats().builds, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ClassCache {
    inner: Mutex<CacheInner>,
    builds: AtomicU64,
}

/// How many distinct universe states a [`ClassCache`] retains partitions
/// for before evicting the least recently served one.
pub const MAX_CACHED_GENERATIONS: usize = 4;

/// What a [`ClassCache`] entry holds for its generation; partitions
/// are keyed by `ProcessSet::bits`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub(crate) enum Structure {
    /// The `[P]`-partition of the universe ([`Classes`]).
    Partition(u128),
    /// The common-knowledge components of the universe.
    Components,
    /// The orbit-aware `[P]`-partition of a quotient universe
    /// ([`OrbitClasses`](crate::OrbitClasses)).
    OrbitPartition(u128),
    /// The common-knowledge components of the representatives.
    OrbitComponents,
    /// The orbit-expanded virtual universe.
    Expanded,
    /// The `[P]`-partition of the expanded universe's members.
    ExpandedPartition(u128),
    /// The common-knowledge components of the expanded members.
    ExpandedComponents,
    /// A relabeling-dependent atom's set over the expanded members.
    ExpandedAtom(AtomId),
}

/// A structure a [`ClassCache`] keeps.
pub(crate) trait Resident: Any + Send + Sync {
    /// Bytes the structure holds, headers included.
    fn resident_bytes(&self) -> usize;
}

impl Resident for Classes {
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(self.class_of.as_slice())
    }
}

impl Resident for CompSet {
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + std::mem::size_of_val(self.words())
    }
}

/// A built structure and its size.
#[derive(Debug)]
struct Built {
    value: Arc<dyn Any + Send + Sync>,
    bytes: usize,
}

/// One cache entry: built at most once, by whichever thread asks first,
/// while every other asker of the same entry waits for it.
type Slot = Arc<OnceLock<Built>>;

#[derive(Debug, Default)]
struct CacheInner {
    /// Generations currently cached, most recently served last.
    recent: Vec<u64>,
    map: HashMap<(u64, Structure), Slot>,
}

impl CacheInner {
    /// Moves `generation` to the back of the window, opening it if it
    /// is new and evicting the least recently served generation's
    /// entries when the window overflows.
    fn serve(&mut self, generation: u64) {
        if let Some(i) = self.recent.iter().position(|&g| g == generation) {
            let g = self.recent.remove(i);
            self.recent.push(g);
            return;
        }
        self.recent.push(generation);
        if self.recent.len() > MAX_CACHED_GENERATIONS {
            let evicted = self.recent.remove(0);
            self.map.retain(|&(g, _), _| g != evicted);
        }
    }
}

/// Occupancy and build counters of a [`ClassCache`], for the query
/// service's metrics snapshot and tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ClassCacheStats {
    /// Structures currently retained, over every cached generation.
    pub structures: usize,
    /// Bytes the retained structures hold.
    pub resident_bytes: usize,
    /// Structures built so far. Each is built once per generation that
    /// asks for it while the generation stays in the window.
    pub builds: u64,
}

impl ClassCache {
    /// Creates an empty cache behind an [`Arc`], ready to be shared.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(ClassCache::default())
    }

    /// Number of cached `[P]`-partitions of the universe (for
    /// diagnostics and tests); the other structures are counted by
    /// [`ClassCache::stats`].
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .map
            .iter()
            .filter(|((_, s), slot)| matches!(s, Structure::Partition(_)) && slot.get().is_some())
            .count()
    }

    /// Returns `true` if no partition is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained structures, the bytes they hold and how many were
    /// built.
    #[must_use]
    pub fn stats(&self) -> ClassCacheStats {
        let (structures, resident_bytes) = {
            let inner = self.inner.lock();
            inner
                .map
                .values()
                .filter_map(|slot| slot.get())
                .fold((0, 0), |(n, bytes), b| (n + 1, bytes + b.bytes))
        };
        ClassCacheStats {
            structures,
            resident_bytes,
            builds: self.builds.load(Ordering::Relaxed),
        }
    }

    /// The universe generations this cache currently retains partitions
    /// for, least recently served first (diagnostics and tests: the
    /// length is bounded by [`MAX_CACHED_GENERATIONS`] however many
    /// generations it has served).
    #[must_use]
    pub fn cached_generations(&self) -> Vec<u64> {
        self.inner.lock().recent.clone()
    }

    /// Fetches the `key` structure of `generation`, building it with
    /// `build` on a miss. Serving a generation beyond the window evicts
    /// the least recently served one's entries. The cache's lock is not
    /// held while `build` runs, so `build` may fetch other entries; a
    /// concurrent request for the same entry waits for this build.
    pub(crate) fn get_or_build<T: Resident>(
        &self,
        generation: u64,
        key: Structure,
        build: impl FnOnce() -> T,
    ) -> Arc<T> {
        let slot = {
            let mut inner = self.inner.lock();
            inner.serve(generation);
            Arc::clone(inner.map.entry((generation, key)).or_default())
        };
        let built = slot.get_or_init(|| {
            let value = build();
            self.builds.fetch_add(1, Ordering::Relaxed);
            Built {
                bytes: value.resident_bytes(),
                value: Arc::new(value),
            }
        });
        Arc::clone(&built.value)
            .downcast()
            .unwrap_or_else(|_| panic!("{key:?} holds one structure type"))
    }
}

impl<'u> IsoIndex<'u> {
    /// Creates an index over the universe with a private partition cache.
    /// Class partitions are computed lazily per process set and cached.
    #[must_use]
    pub fn new(universe: &'u Universe) -> Self {
        IsoIndex::with_cache(universe, ClassCache::shared())
    }

    /// Creates an index backed by a shared [`ClassCache`], so several
    /// indexes (or evaluators) over the same universe reuse one set of
    /// partitions.
    #[must_use]
    pub fn with_cache(universe: &'u Universe, cache: Arc<ClassCache>) -> Self {
        IsoIndex { universe, cache }
    }

    /// The universe this index serves.
    #[must_use]
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// The cache this index reads and fills.
    pub(crate) fn cache(&self) -> &Arc<ClassCache> {
        &self.cache
    }

    /// The `[P]`-partition (cached).
    #[must_use]
    pub fn classes(&self, p: ProcessSet) -> Arc<Classes> {
        let generation = self.universe.generation();
        let mut built = false;
        let classes = self
            .cache
            .get_or_build(generation, Structure::Partition(p.bits()), || {
                built = true;
                hpl_telemetry::counter_add("eval.class_cache_miss", 1);
                self.build_classes(p)
            });
        if !built {
            hpl_telemetry::counter_add("eval.class_cache_hit", 1);
        }
        classes
    }

    fn build_classes(&self, p: ProcessSet) -> Classes {
        Classes::by_key(self.universe.len(), |i, key| {
            let c = self.universe.get(CompId::from_index(i));
            projection_signature_into(key, c.events(), p.iter());
        })
        .0
    }

    /// Tests `x [P] y`.
    #[must_use]
    pub fn isomorphic(&self, x: CompId, y: CompId, p: ProcessSet) -> bool {
        self.classes(p).same_class(x, y)
    }

    /// The `[P]`-class of `x` as a bit-set.
    #[must_use]
    pub fn class_set(&self, x: CompId, p: ProcessSet) -> CompSet {
        let classes = self.classes(p);
        classes.member_set(classes.class_of(x))
    }

    /// The set of computations reachable from `x` through the composed
    /// relation `[sets[0] … sets[n-1]]`, one label pass per step: the
    /// next frontier is every member of a class the frontier meets. For
    /// an empty slice the result is `{x}` (the identity relation).
    #[must_use]
    pub fn reachable(&self, x: CompId, sets: &[ProcessSet]) -> CompSet {
        let mut frontier = self.universe.empty_set();
        frontier.insert(x.index());
        for &p in sets {
            frontier = verdicts(&*self.classes(p), &frontier, Test::Meets);
        }
        frontier
    }

    /// Tests the composed relation `x [sets[0] … sets[n-1]] z`.
    #[must_use]
    pub fn related(&self, x: CompId, z: CompId, sets: &[ProcessSet]) -> bool {
        self.reachable(x, sets).contains(z.index())
    }

    /// The relation `[sets…]` as a set of pairs, for relation-equality
    /// checks (O(|U|²); intended for the property checkers and tests).
    #[must_use]
    pub fn relation_pairs(&self, sets: &[ProcessSet]) -> Vec<(CompId, CompId)> {
        let mut out = Vec::new();
        for x in self.universe.ids() {
            let reach = self.reachable(x, sets);
            for zi in reach.iter() {
                out.push((x, CompId::from_index(zi)));
            }
        }
        out
    }

    /// Tests extensional equality of two composed relations over this
    /// universe: `[a…] = [b…]`.
    #[must_use]
    pub fn relations_equal(&self, a: &[ProcessSet], b: &[ProcessSet]) -> bool {
        self.universe
            .ids()
            .all(|x| self.reachable(x, a) == self.reachable(x, b))
    }

    /// Tests relation containment `[a…] ⊆ [b…]` over this universe.
    #[must_use]
    pub fn relation_subset(&self, a: &[ProcessSet], b: &[ProcessSet]) -> bool {
        self.universe
            .ids()
            .all(|x| self.reachable(x, a).is_subset(&self.reachable(x, b)))
    }
}

/// Appends the `[P]`-projection signature of an event sequence to `key`:
/// per process in `procs`, a `u64::MAX` separator followed by the
/// projected event-id sequence. Two computations share a signature iff
/// they are `[P]`-isomorphic; this definition backs [`IsoIndex::classes`]
/// partitioning. The quotient merge does not use it: it keys a node's
/// `[D]`-class on its processes' last event ids alone, which fix the
/// same projections (see [`crate::symmetry`]).
pub(crate) fn projection_signature_into(
    key: &mut Vec<u64>,
    events: &[hpl_model::Event],
    procs: impl Iterator<Item = hpl_model::ProcessId>,
) {
    for proc in procs {
        key.push(u64::MAX); // separator
        key.extend(
            events
                .iter()
                .filter(|e| e.is_on(proc))
                .map(|e| e.id().index() as u64),
        );
    }
}

/// Executable checkers for the paper's ten algebraic properties of
/// isomorphism relations (§3, properties 1–10).
///
/// Each checker verifies a property *extensionally* on the index's
/// universe and returns `Ok(())` or a description of the first violation.
/// Properties 8 (reverse direction) and 9 rely on the paper's model
/// assumption that every process has an event in some computation; the
/// checkers verify that assumption holds before using it.
pub mod properties {
    use super::IsoIndex;
    use hpl_model::{ProcessId, ProcessSet};

    /// Property 1: `[P]` is an equivalence relation (checked pairwise:
    /// reflexive, symmetric, transitive).
    pub fn equivalence(iso: &IsoIndex<'_>, p: ProcessSet) -> Result<(), String> {
        let u = iso.universe();
        for x in u.ids() {
            if !iso.isomorphic(x, x, p) {
                return Err(format!("not reflexive at {x}"));
            }
            for y in u.ids() {
                if iso.isomorphic(x, y, p) != iso.isomorphic(y, x, p) {
                    return Err(format!("not symmetric at ({x},{y})"));
                }
                for z in u.ids() {
                    if iso.isomorphic(x, y, p)
                        && iso.isomorphic(y, z, p)
                        && !iso.isomorphic(x, z, p)
                    {
                        return Err(format!("not transitive at ({x},{y},{z})"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Property 2 (substitution): `[β] = [δ]` implies
    /// `[α β γ] = [α δ γ]`.
    pub fn substitution(
        iso: &IsoIndex<'_>,
        alpha: &[ProcessSet],
        beta: &[ProcessSet],
        delta: &[ProcessSet],
        gamma: &[ProcessSet],
    ) -> Result<(), String> {
        if !iso.relations_equal(beta, delta) {
            return Ok(()); // hypothesis fails; vacuous
        }
        let mut abc: Vec<ProcessSet> = alpha.to_vec();
        abc.extend_from_slice(beta);
        abc.extend_from_slice(gamma);
        let mut adc: Vec<ProcessSet> = alpha.to_vec();
        adc.extend_from_slice(delta);
        adc.extend_from_slice(gamma);
        if iso.relations_equal(&abc, &adc) {
            Ok(())
        } else {
            Err("substitution failed".to_owned())
        }
    }

    /// Property 3 (idempotence): `[P P] = [P]`.
    pub fn idempotence(iso: &IsoIndex<'_>, p: ProcessSet) -> Result<(), String> {
        if iso.relations_equal(&[p, p], &[p]) {
            Ok(())
        } else {
            Err(format!("[{p} {p}] ≠ [{p}]"))
        }
    }

    /// Property 4 (reflexivity of compositions): `x [P₁ … Pₙ] x`.
    pub fn reflexivity(iso: &IsoIndex<'_>, sets: &[ProcessSet]) -> Result<(), String> {
        for x in iso.universe().ids() {
            if !iso.related(x, x, sets) {
                return Err(format!("x not related to itself at {x}"));
            }
        }
        Ok(())
    }

    /// Property 5 (inversion): `x [P₁ … Pₙ] y = y [Pₙ … P₁] x`.
    pub fn inversion(iso: &IsoIndex<'_>, sets: &[ProcessSet]) -> Result<(), String> {
        let mut rev: Vec<ProcessSet> = sets.to_vec();
        rev.reverse();
        let u = iso.universe();
        for x in u.ids() {
            for y in u.ids() {
                if iso.related(x, y, sets) != iso.related(y, x, &rev) {
                    return Err(format!("inversion fails at ({x},{y})"));
                }
            }
        }
        Ok(())
    }

    /// Property 6 (concatenation): `x [α β] z ⟺ ∃y: x [α] y ∧ y [β] z`.
    pub fn concatenation(
        iso: &IsoIndex<'_>,
        alpha: &[ProcessSet],
        beta: &[ProcessSet],
    ) -> Result<(), String> {
        let mut seq: Vec<ProcessSet> = alpha.to_vec();
        seq.extend_from_slice(beta);
        let u = iso.universe();
        for x in u.ids() {
            let via_seq = iso.reachable(x, &seq);
            // explicit midpoint quantifier
            let mid = iso.reachable(x, alpha);
            let mut via_mid = u.empty_set();
            for y in mid.iter() {
                via_mid.union_with(&iso.reachable(super::CompId::from_index(y), beta));
            }
            if via_seq != via_mid {
                return Err(format!("concatenation fails from {x}"));
            }
        }
        Ok(())
    }

    /// Property 7: `[P ∪ Q] = [P] ∩ [Q]` (as relations).
    pub fn union_is_intersection(
        iso: &IsoIndex<'_>,
        p: ProcessSet,
        q: ProcessSet,
    ) -> Result<(), String> {
        let u = iso.universe();
        for x in u.ids() {
            for y in u.ids() {
                let lhs = iso.isomorphic(x, y, p.union(q));
                let rhs = iso.isomorphic(x, y, p) && iso.isomorphic(x, y, q);
                if lhs != rhs {
                    return Err(format!("[P∪Q] ≠ [P]∩[Q] at ({x},{y})"));
                }
            }
        }
        Ok(())
    }

    /// Property 8: `Q ⊇ P ⟺ [Q] ⊆ [P]`. The reverse direction needs the
    /// model assumption that every process has an event in some
    /// computation; it is checked only when that holds in the universe.
    pub fn subset_antitone(iso: &IsoIndex<'_>, p: ProcessSet, q: ProcessSet) -> Result<(), String> {
        if q.is_superset(p) && !iso.relation_subset(&[q], &[p]) {
            return Err(format!("Q ⊇ P but [Q] ⊄ [P] for P={p}, Q={q}"));
        }
        if every_process_acts(iso) && iso.relation_subset(&[q], &[p]) && !q.is_superset(p) {
            return Err(format!("[Q] ⊆ [P] but Q ⊉ P for P={p}, Q={q}"));
        }
        Ok(())
    }

    /// Property 9: `P = Q ⟺ [P] = [Q]` (reverse direction under the same
    /// model assumption as property 8).
    pub fn extensionality(iso: &IsoIndex<'_>, p: ProcessSet, q: ProcessSet) -> Result<(), String> {
        if p == q && !iso.relations_equal(&[p], &[q]) {
            return Err("equal sets, different relations".to_owned());
        }
        if every_process_acts(iso) && iso.relations_equal(&[p], &[q]) && p != q {
            return Err(format!("[{p}] = [{q}] but sets differ"));
        }
        Ok(())
    }

    /// Property 10: `Q ⊇ P` implies `[Q P] = [P] = [P Q]` (composing
    /// with the finer relation `[Q] ⊆ [P]` is absorbed by `[P]`).
    pub fn absorption(iso: &IsoIndex<'_>, p: ProcessSet, q: ProcessSet) -> Result<(), String> {
        if !q.is_superset(p) {
            return Ok(());
        }
        if !iso.relations_equal(&[q, p], &[p]) {
            return Err(format!("[Q P] ≠ [P] for P={p}, Q={q}"));
        }
        if !iso.relations_equal(&[p, q], &[p]) {
            return Err(format!("[P Q] ≠ [P] for P={p}, Q={q}"));
        }
        Ok(())
    }

    /// The paper's model assumption: every process has an event in some
    /// computation of the system ("we rule out processes which have no
    /// event in any computation").
    #[must_use]
    pub fn every_process_acts(iso: &IsoIndex<'_>) -> bool {
        let u = iso.universe();
        (0..u.system_size()).all(|pi| {
            let p = ProcessId::new(pi);
            u.iter().any(|(_, c)| c.iter().any(|e| e.is_on(p)))
        })
    }

    /// Runs all ten properties over every pair drawn from `sets` (and a
    /// fixed small family of composition shapes), collecting violations.
    pub fn check_all(iso: &IsoIndex<'_>, sets: &[ProcessSet]) -> Vec<String> {
        let mut violations = Vec::new();
        let mut push = |r: Result<(), String>, name: &str| {
            if let Err(e) = r {
                violations.push(format!("{name}: {e}"));
            }
        };
        for &p in sets {
            push(equivalence(iso, p), "P1 equivalence");
            push(idempotence(iso, p), "P3 idempotence");
            for &q in sets {
                push(union_is_intersection(iso, p, q), "P7 union");
                push(subset_antitone(iso, p, q), "P8 subset");
                push(extensionality(iso, p, q), "P9 extensionality");
                push(absorption(iso, p, q), "P10 absorption");
                push(reflexivity(iso, &[p, q]), "P4 reflexivity");
                push(inversion(iso, &[p, q]), "P5 inversion");
                push(concatenation(iso, &[p], &[q]), "P6 concatenation");
                push(
                    substitution(iso, &[p], &[q, q], &[q], &[p]),
                    "P2 substitution",
                );
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::{ProcessId, ScenarioPool};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn ps(i: usize) -> ProcessSet {
        ProcessSet::singleton(pid(i))
    }

    /// Universe with two independent internal events on p0, p1 and all
    /// interleavings/prefixes.
    fn two_indep() -> (Universe, Vec<CompId>) {
        let mut pool = ScenarioPool::new(2);
        let a = pool.internal(pid(0));
        let b = pool.internal(pid(1));
        let mut u = Universe::new(2);
        let ids = vec![
            u.insert(pool.compose([]).unwrap()).unwrap(),
            u.insert(pool.compose([a]).unwrap()).unwrap(),
            u.insert(pool.compose([b]).unwrap()).unwrap(),
            u.insert(pool.compose([a, b]).unwrap()).unwrap(),
            u.insert(pool.compose([b, a]).unwrap()).unwrap(),
        ];
        (u, ids)
    }

    #[test]
    fn classes_partition() {
        let (u, ids) = two_indep();
        let iso = IsoIndex::new(&u);
        let classes = iso.classes(ps(0));
        // [p0] classes: {null, b} (p0 empty) and {a, ab, ba} (p0 did a)
        assert_eq!(classes.class_count(), 2);
        assert!(classes.same_class(ids[0], ids[2]));
        assert!(classes.same_class(ids[1], ids[3]));
        assert!(classes.same_class(ids[3], ids[4]));
        assert!(!classes.same_class(ids[0], ids[1]));
    }

    #[test]
    fn empty_set_relates_everything() {
        let (u, ids) = two_indep();
        let iso = IsoIndex::new(&u);
        for &x in &ids {
            for &y in &ids {
                assert!(iso.isomorphic(x, y, ProcessSet::EMPTY));
            }
        }
    }

    #[test]
    fn full_set_is_permutation() {
        let (u, ids) = two_indep();
        let iso = IsoIndex::new(&u);
        let d = ProcessSet::full(2);
        assert!(iso.isomorphic(ids[3], ids[4], d));
        assert!(u.get(ids[3]).is_permutation_of(u.get(ids[4])));
        assert!(!iso.isomorphic(ids[0], ids[3], d));
    }

    #[test]
    fn composed_relation_bfs() {
        let (u, ids) = two_indep();
        let iso = IsoIndex::new(&u);
        // null [p0] b? null and b agree on p0 → yes directly.
        assert!(iso.related(ids[0], ids[2], &[ps(0)]));
        // null [p0 p1] ab: null [p0] b, b [p1] ab? b|p1 = [b] = ab|p1 ✓
        assert!(iso.related(ids[0], ids[3], &[ps(0), ps(1)]));
        // null [p0] ab fails (ab has a p0 event)
        assert!(!iso.related(ids[0], ids[3], &[ps(0)]));
        // reachable with empty sequence is identity
        let r = iso.reachable(ids[3], &[]);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![ids[3].index()]);
    }

    #[test]
    fn relation_algebra_helpers() {
        let (u, _) = two_indep();
        let iso = IsoIndex::new(&u);
        // idempotence [P P] = [P]
        assert!(iso.relations_equal(&[ps(0), ps(0)], &[ps(0)]));
        // subset: [{p0,p1}] ⊆ [p0]
        assert!(iso.relation_subset(&[ProcessSet::full(2)], &[ps(0)]));
        assert!(!iso.relation_subset(&[ps(0)], &[ProcessSet::full(2)]));
        let pairs = iso.relation_pairs(&[ps(0)]);
        // classes of sizes 2 and 3 → 4 + 9 = 13 pairs
        assert_eq!(pairs.len(), 13);
    }

    #[test]
    fn all_ten_properties_hold() {
        let (u, _) = two_indep();
        let iso = IsoIndex::new(&u);
        let sets = [ProcessSet::EMPTY, ps(0), ps(1), ProcessSet::full(2)];
        let violations = properties::check_all(&iso, &sets);
        assert!(violations.is_empty(), "{violations:?}");
        assert!(properties::every_process_acts(&iso));
    }

    #[test]
    fn property8_reverse_needs_model_assumption() {
        // A universe where p1 never acts: [p0] = [{p0,p1}] extensionally,
        // so the reverse of P8/P9 must be suppressed.
        let mut pool = ScenarioPool::new(2);
        let a = pool.internal(pid(0));
        let mut u = Universe::new(2);
        u.insert(pool.compose([]).unwrap()).unwrap();
        u.insert(pool.compose([a]).unwrap()).unwrap();
        let iso = IsoIndex::new(&u);
        assert!(!properties::every_process_acts(&iso));
        // with the assumption properly gated, no spurious violation:
        assert!(properties::extensionality(&iso, ps(0), ProcessSet::full(2)).is_ok());
        assert!(properties::subset_antitone(&iso, ps(0), ProcessSet::full(2)).is_ok());
    }

    #[test]
    fn shared_cache_reuses_and_invalidates() {
        let (u, _) = two_indep();
        let cache = ClassCache::shared();
        {
            let iso = IsoIndex::with_cache(&u, Arc::clone(&cache));
            let a = iso.classes(ps(0));
            assert_eq!(cache.len(), 1);
            // a second index over the same universe hits the cache: the
            // returned Arc is the same allocation
            let iso2 = IsoIndex::with_cache(&u, Arc::clone(&cache));
            let b = iso2.classes(ps(0));
            assert!(Arc::ptr_eq(&a, &b), "partition must be shared, not rebuilt");
        }
        // growing the universe changes its generation: the grown state
        // gets a fresh partition …
        let mut u2 = u.clone();
        // (fresh ids to avoid clashing with two_indep's event space)
        let mut b = hpl_model::ComputationBuilder::with_id_offsets(2, 100, 50);
        b.internal(pid(0)).unwrap();
        u2.insert(b.finish()).unwrap();
        assert_ne!(u.generation(), u2.generation());
        let iso3 = IsoIndex::with_cache(&u2, Arc::clone(&cache));
        let cl = iso3.classes(ps(0));
        assert_eq!(cl.class_of.len(), u2.len(), "rebuilt for the new state");
        // … while the old state's partition stays warm (both generations
        // fit in the retention window), so alternating between two live
        // universes does not thrash
        assert_eq!(cache.len(), 2, "both generations retained");
        let old = IsoIndex::with_cache(&u, Arc::clone(&cache)).classes(ps(0));
        assert_eq!(old.class_of.len(), u.len(), "old state still served");
        assert_eq!(cache.len(), 2, "no rebuild on alternation");
        // a clone (content-identical, same generation) keeps sharing
        let u3 = u2.clone();
        assert_eq!(u2.generation(), u3.generation());
        let iso4 = IsoIndex::with_cache(&u3, Arc::clone(&cache));
        assert!(Arc::ptr_eq(&cl, &iso4.classes(ps(0))));
        // serving more than MAX_CACHED_GENERATIONS distinct states evicts
        // the least recently served one's entries
        let mut grown = u2.clone();
        for i in 0..MAX_CACHED_GENERATIONS {
            let mut b = hpl_model::ComputationBuilder::with_id_offsets(2, 200 + i, 80 + i);
            b.internal(pid(1)).unwrap();
            grown.insert(b.finish()).unwrap();
            let _ = IsoIndex::with_cache(&grown, Arc::clone(&cache)).classes(ps(0));
        }
        assert!(
            cache.len() <= MAX_CACHED_GENERATIONS,
            "evictions bound the cache ({} entries)",
            cache.len()
        );
    }

    /// Two clocks, up to three internal steps each — the growth fixture.
    struct GrowClocks;
    impl crate::enumerate::Protocol for GrowClocks {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(
            &self,
            _p: ProcessId,
            view: &crate::enumerate::LocalView,
        ) -> Vec<crate::enumerate::ProtoAction> {
            if view.len() < 3 {
                vec![crate::enumerate::ProtoAction::Internal {
                    action: hpl_model::ActionId::new(view.len() as u32),
                }]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn repeated_growth_keeps_retention_bounded() {
        use crate::enumerate::EnumerationLimits;
        use crate::parallel::{enumerate_sharded, extend_sharded, ShardConfig};

        // a long growth sweep: every step serves a partition of the
        // grown universe; retained generations (and their partitions)
        // must stay within the window instead of creeping with sweep
        // length
        let cfg = ShardConfig::with_shards(1).checkpoint();
        let cache = ClassCache::shared();
        let mut cur = enumerate_sharded(&GrowClocks, EnumerationLimits::depth(2), &cfg).unwrap();
        let _ = IsoIndex::with_cache(cur.universe.universe(), Arc::clone(&cache)).classes(ps(0));
        for d in 3..=8 {
            let next = extend_sharded(
                &GrowClocks,
                cur.frontier.as_ref().unwrap(),
                EnumerationLimits::depth(d),
                &cfg,
            )
            .unwrap();
            let _ =
                IsoIndex::with_cache(next.universe.universe(), Arc::clone(&cache)).classes(ps(0));
            assert!(
                cache.cached_generations().len() <= MAX_CACHED_GENERATIONS,
                "depth {d}: retained generations crept to {:?}",
                cache.cached_generations()
            );
            assert!(
                cache.len() <= MAX_CACHED_GENERATIONS,
                "depth {d}: {} partitions retained",
                cache.len()
            );
            cur = next;
        }
    }

    #[test]
    fn class_sets_cover_universe() {
        let (u, _) = two_indep();
        let iso = IsoIndex::new(&u);
        for p in [ps(0), ps(1), ProcessSet::full(2), ProcessSet::EMPTY] {
            let classes = iso.classes(p);
            let mut seen = u.empty_set();
            for cl in 0..classes.class_count() {
                let members = classes.member_set(cl);
                assert!(!members.is_empty(), "class {cl} has a member");
                assert!(!members.intersects(&seen), "disjoint");
                seen.union_with(&members);
            }
            assert_eq!(seen.count(), u.len(), "classes cover the universe");
        }
    }

    #[test]
    fn label_kernel_matches_the_definition() {
        let (u, _) = two_indep();
        let iso = IsoIndex::new(&u);
        // every subset of the five members as `b`
        for bits in 0u32..32 {
            let sat = CompSet::from_fn(u.len(), |i| bits >> i & 1 == 1);
            for p in [ps(0), ps(1), ProcessSet::full(2), ProcessSet::EMPTY] {
                let classes = iso.classes(p);
                let knows = verdicts(&*classes, &sat, Test::Knows);
                let sure = verdicts(&*classes, &sat, Test::Sure);
                let meets = verdicts(&*classes, &sat, Test::Meets);
                for x in u.ids() {
                    let class = iso.class_set(x, p);
                    let i = x.index();
                    assert_eq!(knows.contains(i), class.is_subset(&sat), "K at {x}");
                    let mut outside = class.clone();
                    outside.difference_with(&sat);
                    assert_eq!(
                        sure.contains(i),
                        class.is_subset(&sat) || outside == class,
                        "Sure at {x}"
                    );
                    assert_eq!(meets.contains(i), class.intersects(&sat), "meets at {x}");
                }
                let mixed = (0..classes.class_count()).find(|&k| {
                    let members = classes.member_set(k);
                    members.intersects(&sat) && !members.is_subset(&sat)
                });
                assert_eq!(classes.first_mixed(&sat), mixed);
            }
        }
    }

    #[test]
    fn structures_are_built_once_and_counted() {
        let (u, _) = two_indep();
        let cache = ClassCache::shared();
        let iso = IsoIndex::with_cache(&u, Arc::clone(&cache));
        let a = iso.classes(ps(0));
        let b = iso.classes(ps(0));
        assert!(Arc::ptr_eq(&a, &b));
        let _ = iso.classes(ps(1));
        let stats = cache.stats();
        assert_eq!(stats.builds, 2);
        assert_eq!(stats.structures, 2);
        assert_eq!(
            stats.resident_bytes,
            a.resident_bytes() + iso.classes(ps(1)).resident_bytes()
        );
        // concurrent askers of one new entry share one build
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    IsoIndex::with_cache(&u, Arc::clone(&cache)).classes(ProcessSet::full(2))
                });
            }
        });
        assert_eq!(cache.stats().builds, 3);
        assert_eq!(cache.len(), 3);
    }
}
