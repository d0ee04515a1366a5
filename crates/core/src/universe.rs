//! Finite universes of system computations.
//!
//! The paper's definitions quantify over all computations of one (generic)
//! distributed system. A [`Universe`] is the finite stand-in: a deduplicated,
//! consistency-checked collection of computations over a shared event
//! space. Knowledge and composed-isomorphism queries are evaluated
//! *relative to* a universe; enumerated protocol universes
//! ([`crate::enumerate::enumerate`]) contain every system computation up to a depth
//! bound and are additionally prefix closed.

use crate::bitset::CompSet;
use crate::error::CoreError;
use hpl_model::{Computation, Event, EventId, ProcessId};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global source of universe generations: every mutation of any universe
/// draws a fresh value, so `(generation)` uniquely identifies a universe
/// *state* across the process (clones share the generation of the state
/// they copied — their contents are identical, so sharing derived caches
/// is sound).
static GENERATIONS: AtomicU64 = AtomicU64::new(0);

fn next_generation() -> u64 {
    GENERATIONS.fetch_add(1, Ordering::Relaxed)
}

/// Index of a computation within a [`Universe`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CompId(u32);

impl CompId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    fn new(i: usize) -> Self {
        assert!(i <= u32::MAX as usize, "universe too large");
        CompId(i as u32)
    }

    /// Crate-internal reconstruction from a raw index (indices come from
    /// `CompSet` iteration, which only yields valid universe indices).
    pub(crate) fn from_index(i: usize) -> Self {
        CompId::new(i)
    }
}

impl fmt::Display for CompId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The id correspondence produced by growing a universe in place
/// ([`extend_sharded`](crate::extend_sharded)): for every member of the
/// source state (generation `from_generation`), the [`CompId`] it holds
/// in the grown state (generation `to_generation`). New computations
/// splice *between* surviving members in pre-order, so the map is
/// strictly increasing but not the identity; membership order of the old
/// members is preserved.
#[derive(Clone, Debug)]
pub struct GrowthMap {
    from_generation: u64,
    to_generation: u64,
    /// `map[old.index()]` = raw index of the member in the grown state.
    map: Vec<u32>,
}

impl GrowthMap {
    pub(crate) fn new(from_generation: u64, to_generation: u64, map: Vec<u32>) -> Self {
        debug_assert!(
            map.windows(2).all(|w| w[0] < w[1]),
            "growth maps preserve member order"
        );
        GrowthMap {
            from_generation,
            to_generation,
            map,
        }
    }

    /// The generation of the universe state the frontier was captured
    /// from.
    #[must_use]
    pub fn from_generation(&self) -> u64 {
        self.from_generation
    }

    /// The generation of the grown universe state.
    #[must_use]
    pub fn to_generation(&self) -> u64 {
        self.to_generation
    }

    /// Number of members of the source state (all of which survive).
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the source state had no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The id an old member holds in the grown universe.
    ///
    /// # Panics
    ///
    /// Panics if `old` is not a member of the source state.
    #[must_use]
    pub fn new_id_of(&self, old: CompId) -> CompId {
        CompId(self.map[old.index()])
    }

    /// All `(old id, new id)` pairs, in old-member order.
    pub fn iter(&self) -> impl Iterator<Item = (CompId, CompId)> + '_ {
        self.map
            .iter()
            .enumerate()
            .map(|(old, &new)| (CompId::new(old), CompId(new)))
    }
}

/// A finite, deduplicated set of computations over a shared event space.
///
/// Insertion enforces the paper's "all events are distinguished"
/// convention: the same [`EventId`] must denote the same event (process
/// and kind) in every member computation.
///
/// # Example
///
/// ```
/// use hpl_core::Universe;
/// use hpl_model::{ProcessId, ScenarioPool};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p = ProcessId::new(0);
/// let mut pool = ScenarioPool::new(1);
/// let a = pool.internal(p);
///
/// let mut u = Universe::new(1);
/// let c0 = u.insert(pool.compose([])?)?;
/// let c1 = u.insert(pool.compose([a])?)?;
/// assert_eq!(u.len(), 2);
/// assert!(u.get(c0).is_prefix_of(u.get(c1)));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Universe {
    system_size: usize,
    computations: Vec<Computation>,
    by_ids: HashMap<Vec<EventId>, CompId>,
    event_registry: HashMap<EventId, Event>,
    generation: u64,
}

impl Universe {
    /// Creates an empty universe for a system of `system_size` processes.
    #[must_use]
    pub fn new(system_size: usize) -> Self {
        Universe {
            system_size,
            computations: Vec::new(),
            by_ids: HashMap::new(),
            event_registry: HashMap::new(),
            generation: next_generation(),
        }
    }

    /// The generation of this universe's current state: changes on every
    /// mutation, and is unique across universes except for clones of the
    /// same (content-identical) state. Caches derived purely from the
    /// membership — e.g. the shared `[P]`-partition cache
    /// ([`crate::isomorphism::ClassCache`]) — key on it.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Builds a universe from an iterator of computations.
    ///
    /// # Errors
    ///
    /// Returns an error on system-size mismatch or event inconsistency.
    pub fn from_computations<I: IntoIterator<Item = Computation>>(
        system_size: usize,
        computations: I,
    ) -> Result<Self, CoreError> {
        let mut u = Universe::new(system_size);
        for c in computations {
            u.insert(c)?;
        }
        Ok(u)
    }

    /// Number of processes of the (single, generic) system.
    #[must_use]
    pub fn system_size(&self) -> usize {
        self.system_size
    }

    /// Number of member computations.
    #[must_use]
    pub fn len(&self) -> usize {
        self.computations.len()
    }

    /// Returns `true` if the universe has no computations.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.computations.is_empty()
    }

    /// Inserts a computation, returning its id. Duplicate insertions (same
    /// event sequence) return the existing id.
    ///
    /// # Errors
    ///
    /// Returns an error if the computation's system size differs from the
    /// universe's, or if any event id is already bound to a different
    /// event.
    pub fn insert(&mut self, c: Computation) -> Result<CompId, CoreError> {
        if c.system_size() != self.system_size {
            return Err(CoreError::SystemSizeMismatch {
                expected: self.system_size,
                found: c.system_size(),
            });
        }
        // Consistency first: the same id must always denote the same event,
        // even for computations that would dedup to an existing member.
        for e in c.iter() {
            if let Some(known) = self.event_registry.get(&e.id()) {
                if *known != e {
                    return Err(CoreError::InconsistentEvent { event: e.id() });
                }
            }
        }
        let key: Vec<EventId> = c.iter().map(|e| e.id()).collect();
        if let Some(&id) = self.by_ids.get(&key) {
            return Ok(id);
        }
        for e in c.iter() {
            self.event_registry.entry(e.id()).or_insert(e);
        }
        let id = CompId::new(self.computations.len());
        self.by_ids.insert(key, id);
        self.computations.push(c);
        self.generation = next_generation();
        Ok(id)
    }

    /// Crate-internal fast-path insertion for enumeration engines: the
    /// caller guarantees the computation has the right system size, is
    /// consistent with the shared event space, and is **not** already a
    /// member. Skips the per-event consistency scan and the duplicate
    /// probe; the event registry is populated separately via
    /// [`Universe::register_events`].
    ///
    /// Unlike [`Universe::insert`], this does **not** draw a fresh
    /// generation per call (a streaming merge performs one trusted
    /// insert per kept node; the universe is private to the engine until
    /// it finishes). The engine must call
    /// [`Universe::commit_generation`] once before exposing the result.
    pub(crate) fn insert_trusted(&mut self, c: Computation) -> CompId {
        debug_assert_eq!(c.system_size(), self.system_size, "system size mismatch");
        let key: Vec<EventId> = c.iter().map(|e| e.id()).collect();
        debug_assert!(
            !self.by_ids.contains_key(&key),
            "insert_trusted given a duplicate computation"
        );
        let id = CompId::new(self.computations.len());
        self.by_ids.insert(key, id);
        self.computations.push(c);
        id
    }

    /// Crate-internal: grows the member and id tables toward a forecast
    /// final count (monotone; a no-op once capacity suffices). Streaming
    /// enumeration engines call this with the live explored counter so
    /// the id table stops rehashing long before the merge catches up.
    pub(crate) fn reserve_to(&mut self, target: usize) {
        if let Some(add) = target.checked_sub(self.computations.len()) {
            self.computations.reserve(add);
            self.by_ids.reserve(add);
        }
    }

    /// Crate-internal: draws one fresh generation for the batch of
    /// trusted mutations performed since construction — the deferred
    /// counterpart of the per-call bump in [`Universe::insert`], so
    /// generation-keyed caches ([`crate::isomorphism::ClassCache`]) see
    /// exactly one state per enumeration instead of one per node.
    pub(crate) fn commit_generation(&mut self) {
        self.generation = next_generation();
    }

    /// Crate-internal bulk registration of the shared event space backing
    /// trusted insertions.
    pub(crate) fn register_events<I: IntoIterator<Item = Event>>(&mut self, events: I) {
        for e in events {
            self.event_registry.entry(e.id()).or_insert(e);
        }
    }

    /// The computation with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this universe.
    #[must_use]
    pub fn get(&self, id: CompId) -> &Computation {
        &self.computations[id.index()]
    }

    /// Looks up the id of a computation by value.
    #[must_use]
    pub fn id_of(&self, c: &Computation) -> Option<CompId> {
        let key: Vec<EventId> = c.iter().map(|e| e.id()).collect();
        self.by_ids.get(&key).copied()
    }

    /// Iterates over `(id, computation)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (CompId, &Computation)> {
        self.computations
            .iter()
            .enumerate()
            .map(|(i, c)| (CompId::new(i), c))
    }

    /// All ids, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = CompId> + use<> {
        (0..self.computations.len()).map(CompId::new)
    }

    /// An empty [`CompSet`] sized for this universe.
    #[must_use]
    pub fn empty_set(&self) -> CompSet {
        CompSet::new(self.len())
    }

    /// The full [`CompSet`] over this universe.
    #[must_use]
    pub fn full_set(&self) -> CompSet {
        CompSet::full(self.len())
    }

    /// Ensures every prefix of every member is itself a member, inserting
    /// missing prefixes (system computations are prefix closed, paper §2).
    ///
    /// Returns the number of computations added.
    pub fn close_under_prefixes(&mut self) -> usize {
        let mut added = 0;
        let mut i = 0;
        while i < self.computations.len() {
            let c = self.computations[i].clone();
            for l in 0..c.len() {
                let p = c.prefix(l);
                let key: Vec<EventId> = p.iter().map(|e| e.id()).collect();
                if !self.by_ids.contains_key(&key) {
                    let id = CompId::new(self.computations.len());
                    self.by_ids.insert(key, id);
                    self.computations.push(p);
                    added += 1;
                }
            }
            i += 1;
        }
        if added > 0 {
            self.generation = next_generation();
        }
        added
    }

    /// Returns `true` if every prefix of every member is a member.
    #[must_use]
    pub fn is_prefix_closed(&self) -> bool {
        self.computations.iter().all(|c| {
            (0..c.len()).all(|l| {
                let key: Vec<EventId> = c.iter().take(l).map(|e| e.id()).collect();
                self.by_ids.contains_key(&key)
            })
        })
    }

    /// All ordered pairs `(x, y)` with `x ≤ y` (`x` a prefix of `y`),
    /// including `x = y`.
    #[must_use]
    pub fn prefix_pairs(&self) -> Vec<(CompId, CompId)> {
        let mut out = Vec::new();
        for (i, x) in self.iter() {
            for (j, y) in self.iter() {
                if x.is_prefix_of(y) {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// The event bound to `id` in this universe's shared event space.
    #[must_use]
    pub fn event(&self, id: EventId) -> Option<Event> {
        self.event_registry.get(&id).copied()
    }

    /// The projection signature of computation `id` on process `p`,
    /// as the sequence of event ids (the datum isomorphism compares).
    #[must_use]
    pub fn projection_ids(&self, id: CompId, p: ProcessId) -> Vec<EventId> {
        self.get(id).projection_ids(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::{ComputationBuilder, ScenarioPool};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn insert_dedup_and_lookup() {
        let mut pool = ScenarioPool::new(2);
        let a = pool.internal(pid(0));
        let b = pool.internal(pid(1));
        let mut u = Universe::new(2);
        let c1 = u.insert(pool.compose([a, b]).unwrap()).unwrap();
        let c2 = u.insert(pool.compose([a, b]).unwrap()).unwrap();
        assert_eq!(c1, c2);
        assert_eq!(u.len(), 1);
        assert_eq!(u.id_of(&pool.compose([a, b]).unwrap()), Some(c1));
        assert_eq!(u.id_of(&pool.compose([b, a]).unwrap()), None);
    }

    #[test]
    fn system_size_mismatch_rejected() {
        let mut u = Universe::new(2);
        let c = Computation::empty(3);
        assert!(matches!(
            u.insert(c).unwrap_err(),
            CoreError::SystemSizeMismatch {
                expected: 2,
                found: 3
            }
        ));
    }

    #[test]
    fn inconsistent_event_rejected() {
        // Two builders both allocate event id 0 for different events.
        let mut b1 = ComputationBuilder::new(2);
        b1.internal(pid(0)).unwrap();
        let mut b2 = ComputationBuilder::new(2);
        b2.internal(pid(1)).unwrap();

        let mut u = Universe::new(2);
        u.insert(b1.finish()).unwrap();
        assert!(matches!(
            u.insert(b2.finish()).unwrap_err(),
            CoreError::InconsistentEvent { .. }
        ));
    }

    #[test]
    fn prefix_closure() {
        let mut b = ComputationBuilder::new(2);
        let m = b.send(pid(0), pid(1)).unwrap();
        b.receive(pid(1), m).unwrap();
        let z = b.finish();

        let mut u = Universe::new(2);
        u.insert(z).unwrap();
        assert!(!u.is_prefix_closed());
        let added = u.close_under_prefixes();
        assert_eq!(added, 2); // null and the 1-event prefix
        assert!(u.is_prefix_closed());
        assert_eq!(u.len(), 3);
        // idempotent
        assert_eq!(u.close_under_prefixes(), 0);
    }

    #[test]
    fn prefix_pairs_enumeration() {
        let mut b = ComputationBuilder::new(1);
        b.internal(pid(0)).unwrap();
        b.internal(pid(0)).unwrap();
        let z = b.finish();
        let mut u = Universe::new(1);
        u.insert(z).unwrap();
        u.close_under_prefixes();
        // 3 computations: null ≤ e0 ≤ e0e1 → pairs: (n,n),(n,1),(n,2),(1,1),(1,2),(2,2)
        assert_eq!(u.prefix_pairs().len(), 6);
    }

    #[test]
    fn event_registry() {
        let mut pool = ScenarioPool::new(2);
        let a = pool.internal(pid(0));
        let mut u = Universe::new(2);
        u.insert(pool.compose([a]).unwrap()).unwrap();
        assert!(u.event(a).is_some());
        assert_eq!(u.event(EventId::new(55)), None);
    }

    #[test]
    fn sets_are_sized_to_universe() {
        let mut pool = ScenarioPool::new(1);
        let a = pool.internal(pid(0));
        let mut u = Universe::new(1);
        u.insert(pool.compose([]).unwrap()).unwrap();
        u.insert(pool.compose([a]).unwrap()).unwrap();
        assert_eq!(u.empty_set().capacity(), 2);
        assert_eq!(u.full_set().count(), 2);
        assert_eq!(u.ids().count(), 2);
    }
}
