//! Isomorphism between system computations (paper §3).
//!
//! `x [p] y` iff `x|p = y|p`; `x [P] y` iff `x [p] y` for all `p ∈ P`;
//! and the composed relation is relational composition:
//! `[P₀ … Pₙ] = [P₀] ∘ … ∘ [Pₙ]`.
//!
//! [`IsoIndex`] materializes, per process set `P`, the partition of a
//! [`Universe`] into `[P]`-equivalence classes (cached), from which
//! composed relations are evaluated by breadth-first closure over classes.
//!
//! The module also provides executable checkers for the paper's ten
//! algebraic properties of isomorphism relations ([`properties`]).

use crate::bitset::CompSet;
use crate::universe::{CompId, GrowthMap, Universe};
use hpl_model::ProcessSet;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel for "not yet assigned" in the grow pass's tag arrays.
const UNASSIGNED: u32 = u32::MAX;

/// The `[P]`-partition of a universe: each computation's class, and each
/// class's members.
#[derive(Clone, Debug)]
pub struct Classes {
    class_of: Vec<u32>,
    members: Vec<Vec<u32>>,
    member_sets: Vec<CompSet>,
}

impl Classes {
    /// The class index of a computation.
    #[must_use]
    pub fn class_of(&self, c: CompId) -> usize {
        self.class_of[c.index()] as usize
    }

    /// Number of equivalence classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.members.len()
    }

    /// Member ids of a class.
    #[must_use]
    pub fn members(&self, class: usize) -> &[u32] {
        &self.members[class]
    }

    /// Member set of a class, as a bit-set over the universe.
    #[must_use]
    pub fn member_set(&self, class: usize) -> &CompSet {
        &self.member_sets[class]
    }

    /// Tests whether two computations are in the same class.
    #[must_use]
    pub fn same_class(&self, x: CompId, y: CompId) -> bool {
        self.class_of[x.index()] == self.class_of[y.index()]
    }
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

/// A shareable `[P]`-partition cache, keyed by the universe *generation*
/// it was built from ([`Universe::generation`]). Partitions depend only
/// on the universe's membership, so one cache can back any number of
/// [`IsoIndex`]es / [`Evaluator`](crate::Evaluator)s over the same
/// universe — a fresh evaluator per query round stops paying the
/// partition-rebuild cost. The cache retains partitions for the most
/// recent [`MAX_CACHED_GENERATIONS`] universe states it has served, so
/// it may be shared across a handful of live universes (or a universe
/// that grows) without thrashing; touching a generation beyond that
/// window evicts the least recently served one.
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
/// let s2 = Evaluator::with_class_cache(&u, &interp, cache).sat_set(&f);
/// assert_eq!(s1, s2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct ClassCache {
    inner: Mutex<CacheInner>,
}

/// How many distinct universe states a [`ClassCache`] retains partitions
/// for before evicting the least recently served one.
pub const MAX_CACHED_GENERATIONS: usize = 4;

#[derive(Debug, Default)]
struct CacheInner {
    /// Generations currently cached, most recently served last.
    recent: Vec<u64>,
    map: HashMap<(u64, u128), Arc<Classes>>,
    /// Growth edges between cached universe states
    /// ([`ClassCache::note_growth`]): a partition miss for `to` rebuilds
    /// incrementally from `from`'s cached partition instead of cold.
    links: Vec<GrowthLink>,
}

/// One recorded growth edge (see [`ClassCache::note_growth`]).
#[derive(Debug)]
struct GrowthLink {
    from: u64,
    to: u64,
    /// Old member index → new member index, strictly increasing.
    map: Arc<Vec<u32>>,
}

impl ClassCache {
    /// Creates an empty cache behind an [`Arc`], ready to be shared.
    #[must_use]
    pub fn shared() -> Arc<Self> {
        Arc::new(ClassCache::default())
    }

    /// Number of cached partitions (for diagnostics and tests).
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Returns `true` if no partition is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The universe generations this cache currently retains partitions
    /// for, least recently served first (diagnostics and tests: the
    /// length is bounded by [`MAX_CACHED_GENERATIONS`] even across a
    /// long growth sweep).
    #[must_use]
    pub fn cached_generations(&self) -> Vec<u64> {
        self.inner.lock().recent.clone()
    }

    /// Records that the universe grew in place: `growth` (from
    /// [`extend_sharded`](crate::extend_sharded)) maps every member of
    /// the source state into the grown one. The next partition request
    /// for the grown generation then **diffs the suffix** against the
    /// source's cached partition — old members inherit their class
    /// through the map (one signature per surviving class instead of one
    /// per member) — rather than rebuilding from scratch. Links are
    /// bounded like partitions: at most [`MAX_CACHED_GENERATIONS`] are
    /// retained, and links touching an evicted generation die with it.
    pub fn note_growth(&self, growth: &GrowthMap) {
        let mut inner = self.inner.lock();
        let link = GrowthLink {
            from: growth.from_generation(),
            to: growth.to_generation(),
            map: Arc::new(growth.raw().to_vec()),
        };
        inner.links.retain(|l| l.to != link.to);
        inner.links.push(link);
        if inner.links.len() > MAX_CACHED_GENERATIONS {
            inner.links.remove(0);
        }
    }

    /// Fetches the `[P]`-partition for `universe`, building it with
    /// `build` on a miss. Partitions of up to [`MAX_CACHED_GENERATIONS`]
    /// universe states are kept; serving a generation beyond the window
    /// evicts the least recently served one's entries.
    fn get_or_build(
        &self,
        universe: &Universe,
        p: ProcessSet,
        build: impl FnOnce() -> Classes,
        grow: impl FnOnce(&Classes, &[u32]) -> Classes,
    ) -> Arc<Classes> {
        let generation = universe.generation();
        let mut inner = self.inner.lock();
        match inner.recent.iter().position(|&g| g == generation) {
            Some(i) => {
                // keep the LRU order current
                let g = inner.recent.remove(i);
                inner.recent.push(g);
            }
            None => {
                inner.recent.push(generation);
                if inner.recent.len() > MAX_CACHED_GENERATIONS {
                    let evicted = inner.recent.remove(0);
                    inner.map.retain(|&(g, _), _| g != evicted);
                    inner.links.retain(|l| l.from != evicted && l.to != evicted);
                }
            }
        }
        if let Some(c) = inner.map.get(&(generation, p.bits())) {
            hpl_telemetry::counter_add("eval.class_cache_hit", 1);
            return Arc::clone(c);
        }
        // a recorded growth edge into this generation whose source
        // partition is still cached → incremental rebuild
        let source = inner
            .links
            .iter()
            .find(|l| l.to == generation)
            .and_then(|l| {
                inner
                    .map
                    .get(&(l.from, p.bits()))
                    .map(|c| (Arc::clone(c), Arc::clone(&l.map)))
            });
        let classes = Arc::new(match source {
            Some((old, map)) => {
                hpl_telemetry::counter_add("eval.class_cache_grow", 1);
                grow(&old, &map)
            }
            None => {
                hpl_telemetry::counter_add("eval.class_cache_miss", 1);
                build()
            }
        });
        inner
            .map
            .insert((generation, p.bits()), Arc::clone(&classes));
        classes
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

    /// The `[P]`-partition (cached; rebuilt incrementally when the cache
    /// holds the source partition of a recorded growth edge — see
    /// [`ClassCache::note_growth`]).
    #[must_use]
    pub fn classes(&self, p: ProcessSet) -> Arc<Classes> {
        self.cache.get_or_build(
            self.universe,
            p,
            || self.build_classes(p),
            |old, map| self.grow_classes(p, old, map),
        )
    }

    fn build_classes(&self, p: ProcessSet) -> Classes {
        let n = self.universe.len();
        let mut key_to_class: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut class_of = vec![0u32; n];
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut member_sets: Vec<CompSet> = Vec::new();

        // one pass: reuse the signature buffer across computations and
        // only allocate a key when a new class is discovered; member
        // lists and bit-sets are filled as we go.
        let mut key: Vec<u64> = Vec::new();
        for (id, c) in self.universe.iter() {
            key.clear();
            projection_signature_into(&mut key, c.events(), p.iter());
            let class = match key_to_class.get(&key) {
                Some(&class) => class,
                None => {
                    let class = members.len() as u32;
                    key_to_class.insert(key.clone(), class);
                    members.push(Vec::new());
                    member_sets.push(CompSet::new(n));
                    class
                }
            };
            class_of[id.index()] = class;
            members[class as usize].push(id.index() as u32);
            member_sets[class as usize].insert(id.index());
        }

        Classes {
            class_of,
            members,
            member_sets,
        }
    }

    /// Rebuilds the `[P]`-partition after an in-place growth, diffing the
    /// new generation against the source partition `old` instead of
    /// re-keying every member: growth renumbers event ids *injectively*,
    /// so two old members share a projection signature in the grown
    /// space iff they did in the source space — each surviving class
    /// therefore needs exactly **one** signature computation (its first
    /// surviving member, to anchor the class among the new members),
    /// and every later surviving member inherits its class through the
    /// growth map with no signature at all. New (non-image) members are
    /// keyed normally; one may be `[P]`-isomorphic to an old class and
    /// even precede that class's first surviving member, which the
    /// shared key table resolves to the same class index a cold build
    /// would pick. The output is byte-equal to [`IsoIndex::build_classes`]
    /// (certified in `tests/incremental.rs`).
    fn grow_classes(&self, p: ProcessSet, old: &Classes, map: &[u32]) -> Classes {
        let n = self.universe.len();
        // which new ids are images of old members, and of which
        let mut image_of = vec![UNASSIGNED; n];
        for (old_idx, &new_idx) in map.iter().enumerate() {
            image_of[new_idx as usize] = u32::try_from(old_idx).expect("members fit u32");
        }
        let mut key_to_class: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut old_to_new_class = vec![UNASSIGNED; old.class_count()];
        let mut class_of = vec![0u32; n];
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut member_sets: Vec<CompSet> = Vec::new();
        let mut key: Vec<u64> = Vec::new();
        for (id, c) in self.universe.iter() {
            let idx = id.index();
            let inherited = (image_of[idx] != UNASSIGNED)
                .then(|| old.class_of[image_of[idx] as usize] as usize)
                .filter(|&ocl| old_to_new_class[ocl] != UNASSIGNED)
                .map(|ocl| old_to_new_class[ocl]);
            let class = match inherited {
                Some(class) => class,
                None => {
                    key.clear();
                    projection_signature_into(&mut key, c.events(), p.iter());
                    let class = match key_to_class.get(&key) {
                        Some(&class) => class,
                        None => {
                            let class = members.len() as u32;
                            key_to_class.insert(key.clone(), class);
                            members.push(Vec::new());
                            member_sets.push(CompSet::new(n));
                            class
                        }
                    };
                    if image_of[idx] != UNASSIGNED {
                        old_to_new_class[old.class_of[image_of[idx] as usize] as usize] = class;
                    }
                    class
                }
            };
            class_of[idx] = class;
            members[class as usize].push(idx as u32);
            member_sets[class as usize].insert(idx);
        }
        Classes {
            class_of,
            members,
            member_sets,
        }
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
        classes.member_set(classes.class_of(x)).clone()
    }

    /// The set of computations reachable from `x` through the composed
    /// relation `[sets[0] … sets[n-1]]` (BFS over classes). For an empty
    /// slice the result is `{x}` (the identity relation).
    #[must_use]
    pub fn reachable(&self, x: CompId, sets: &[ProcessSet]) -> CompSet {
        let mut frontier = self.universe.empty_set();
        frontier.insert(x.index());
        for &p in sets {
            let classes = self.classes(p);
            let mut next = self.universe.empty_set();
            for class in 0..classes.class_count() {
                let mset = classes.member_set(class);
                if mset.intersects(&frontier) {
                    next.union_with(mset);
                }
            }
            frontier = next;
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
/// they are `[P]`-isomorphic — this single definition backs both
/// [`IsoIndex::classes`] partitioning and the merge's trivial-group
/// quotient, which must agree on what "isomorphic" means.
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
    fn grown_partition_matches_cold_build() {
        use crate::enumerate::EnumerationLimits;
        use crate::parallel::{enumerate_sharded, extend_sharded, ShardConfig};

        let cfg = ShardConfig::with_shards(1).checkpoint();
        let shallow = enumerate_sharded(&GrowClocks, EnumerationLimits::depth(3), &cfg).unwrap();
        let grown = extend_sharded(
            &GrowClocks,
            shallow.frontier.as_ref().unwrap(),
            EnumerationLimits::depth(5),
            &cfg,
        )
        .unwrap();

        let cache = ClassCache::shared();
        // warm the source partitions, then record the growth edge
        let src = IsoIndex::with_cache(shallow.universe.universe(), Arc::clone(&cache));
        for p in [ps(0), ps(1), ProcessSet::full(2)] {
            let _ = src.classes(p);
        }
        cache.note_growth(grown.growth.as_ref().unwrap());

        let inc = IsoIndex::with_cache(grown.universe.universe(), Arc::clone(&cache));
        let cold = IsoIndex::new(grown.universe.universe());
        // EMPTY was never warmed at the source: its request falls back to
        // a cold build; the warmed sets take the incremental path. All
        // must be byte-equal to a cold build.
        for p in [ps(0), ps(1), ProcessSet::full(2), ProcessSet::EMPTY] {
            let a = inc.classes(p);
            let b = cold.classes(p);
            assert_eq!(a.class_of, b.class_of, "class_of for {p}");
            assert_eq!(a.members, b.members, "members for {p}");
            for cl in 0..a.class_count() {
                assert_eq!(a.member_set(cl), b.member_set(cl), "set {cl} for {p}");
            }
        }
    }

    #[test]
    fn repeated_growth_keeps_retention_bounded() {
        use crate::enumerate::EnumerationLimits;
        use crate::parallel::{enumerate_sharded, extend_sharded, ShardConfig};

        // a long growth sweep: every step records its edge and serves a
        // partition; retained generations (and their partitions) must
        // stay within the window instead of creeping with sweep length
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
            cache.note_growth(next.growth.as_ref().unwrap());
            let grown_classes =
                IsoIndex::with_cache(next.universe.universe(), Arc::clone(&cache)).classes(ps(0));
            let cold = IsoIndex::new(next.universe.universe()).classes(ps(0));
            assert_eq!(grown_classes.class_of, cold.class_of, "depth {d}");
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
                assert!(!classes.member_set(cl).intersects(&seen), "disjoint");
                seen.union_with(classes.member_set(cl));
            }
            assert_eq!(seen.count(), u.len(), "classes cover the universe");
        }
    }
}
