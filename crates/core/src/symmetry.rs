//! The symmetry quotient: orbit-canonical enumeration over process
//! permutations (paper §4).
//!
//! The paper's isomorphism result — `x [D] y ∧ x ≠ y ⇒ y` is a
//! permutation of `x` — means knowledge formulas cannot distinguish
//! computations that differ only by relabeling *symmetric* processes.
//! When a protocol declares its automorphism group
//! ([`Protocol::symmetry`](crate::Protocol::symmetry)), the quotient mode
//! of [`enumerate_sharded`](crate::enumerate_sharded) stores only one
//! **orbit representative** per equivalence class of the joint relation
//!
//! > `x ≈ y  iff  ∃π ∈ G:  π·x [D] y`
//!
//! (a relabeling composed with an interleaving), together with the orbit
//! **multiplicity** — how many full-universe computations the
//! representative stands for.
//!
//! # Canonical forms
//!
//! Event ids are interning artifacts (relabeled computations have no ids
//! until enumerated), so orbits are keyed on a **structural signature**:
//! per process, the sequence of protocol-visible step descriptors where a
//! receive names its send by `(sender, position of the send among the
//! sender's events)`. Within one enumerated universe — where an event's
//! identity is exactly (process, local prefix, step) — two computations
//! share a structural signature iff they share per-process event-id
//! projections, so the signature agrees with
//! [`IsoIndex`](crate::IsoIndex) partitioning. The **canonical key** of a
//! computation is the lexicographic minimum of its structural signature
//! over all group elements; [`canonical_key`] exposes it for property
//! tests. Under the trivial group an orbit is a `[D]`-class, so the merge
//! keys it on the event-id projections themselves and derives
//! descriptors only for the representatives it keeps.
//!
//! # Orbit-aware evaluation
//!
//! Over the quotient universe, `(P knows b) at x` must quantify over the
//! *full* `[P]`-class of `x`, whose members are relabelings of stored
//! representatives. [`OrbitIndex`] materializes, per process set `P`, the
//! classes of the representatives *plus* the set of representatives any
//! of whose relabelings falls into each class — exactly what
//! [`Evaluator::with_symmetry`](crate::Evaluator::with_symmetry) needs to
//! answer knowledge and common-knowledge queries on the quotient with the
//! same verdicts as the full universe (see that constructor's docs for
//! the precise soundness contract: invariant atoms, and nested `knows`
//! only over group-stabilized process sets).
//!
//! # Soundness
//!
//! The quotient is sound only when the declared group really is a group
//! of automorphisms (symmetric initial states included — a token that
//! starts at a *distinguished* process breaks every permutation that
//! moves it). [`check_closure`] verifies, on an enumerated universe, that
//! every relabeling of every member is again a member.

use crate::bitset::CompSet;
use crate::enumerate::ProtocolUniverse;
use crate::error::CoreError;
use crate::isomorphism::projection_signature_into;
use crate::universe::{CompId, Universe};
use hpl_model::{Computation, Event, EventKind, MessageId, Permutation, ProcessId, ProcessSet};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Marker for steps without a communication peer (internal events).
const NO_PEER: u16 = u16::MAX;

/// One protocol-visible step of a process, in permutation-mappable form.
///
/// `peer` is the only field a relabeling touches: the destination of a
/// send or the sender of a receive. `data` is the payload tag (send), the
/// position of the corresponding send among the sender's events
/// (receive), or the action tag (internal).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct StepSig {
    tag: u8,
    peer: u16,
    data: u64,
}

impl StepSig {
    /// Packs the step into one signature word under a relabeling.
    /// Layout: tag in bits 62–63, (mapped) peer in bits 46–61, data in
    /// bits 0–45. The separator `u64::MAX` is unreachable (tags ≤ 2).
    fn pack(self, pi: &Permutation) -> u64 {
        let peer = if self.peer == NO_PEER {
            u64::from(NO_PEER)
        } else {
            pi.image_of(self.peer as usize) as u64
        };
        (u64::from(self.tag) << 62) | (peer << 46) | self.data
    }
}

/// Per-process structural step descriptors of one computation.
type Descs = Vec<Vec<StepSig>>;

/// Computes the per-process step descriptors of an event sequence.
/// `payload_of` resolves message payload tags (the interned event space
/// distinguishes sends by payload, so signatures must too).
fn descriptors(
    system_size: usize,
    events: &[Event],
    payload_of: &mut dyn FnMut(MessageId) -> u32,
) -> Descs {
    let mut descs: Descs = vec![Vec::new(); system_size];
    let mut send_info = HashMap::new();
    descriptors_into(system_size, events, payload_of, &mut send_info, &mut descs);
    descs
}

/// [`descriptors`] writing into caller-owned scratch (`send_info` and
/// `descs` are cleared, not reallocated) — the allocation-free variant
/// for the merge hot loop.
fn descriptors_into(
    system_size: usize,
    events: &[Event],
    payload_of: &mut dyn FnMut(MessageId) -> u32,
    // message → (sender, position of the send among the sender's events)
    send_info: &mut HashMap<MessageId, (u16, u32)>,
    descs: &mut Descs,
) {
    descs.resize(system_size, Vec::new());
    for d in descs.iter_mut() {
        d.clear();
    }
    send_info.clear();
    let mut position = [0u32; 128];
    debug_assert!(system_size <= 128, "ProcessSet systems fit u128");
    for e in events {
        let p = e.process().index();
        let sig = match e.kind() {
            EventKind::Send { to, message } => {
                send_info.insert(message, (p as u16, position[p]));
                StepSig {
                    tag: 0,
                    peer: to.index() as u16,
                    data: u64::from(payload_of(message)),
                }
            }
            EventKind::Receive { message, .. } => {
                let (sender, at) = send_info[&message];
                StepSig {
                    tag: 1,
                    peer: sender,
                    data: u64::from(at),
                }
            }
            EventKind::Internal { action } => StepSig {
                tag: 2,
                peer: NO_PEER,
                data: u64::from(action.tag()),
            },
        };
        descs[p].push(sig);
        position[p] += 1;
    }
}

/// Appends the structural signature of the relabeled computation `π·x`
/// projected on `targets`: per target process `q` (ascending), a
/// separator followed by the packed steps of `x`'s process `π⁻¹(q)` with
/// peers mapped through `π`.
fn emit_signature(
    descs: &Descs,
    pi: &Permutation,
    inv: &Permutation,
    targets: ProcessSet,
    out: &mut Vec<u64>,
) {
    for q in targets.iter() {
        out.push(u64::MAX);
        for &s in &descs[inv.image_of(q.index())] {
            out.push(s.pack(pi));
        }
    }
}

/// The structural signature of the relabeled computation `π·x` projected
/// on `targets` (see the module docs). With the identity permutation this
/// keys the same partition as per-process event-id projections on any
/// enumerated universe.
#[must_use]
pub fn struct_signature(x: &Computation, pi: &Permutation, targets: ProcessSet) -> Vec<u64> {
    struct_signature_with(x, pi, targets, &mut |_| 0)
}

/// [`struct_signature`] with explicit payload resolution — required
/// whenever the protocol distinguishes sends by payload tag (resolve via
/// [`ProtocolUniverse::payload_of`]).
#[must_use]
pub fn struct_signature_with(
    x: &Computation,
    pi: &Permutation,
    targets: ProcessSet,
    payload_of: &mut dyn FnMut(MessageId) -> u32,
) -> Vec<u64> {
    let descs = descriptors(x.system_size(), x.events(), payload_of);
    let inv = pi.inverse();
    let mut out = Vec::with_capacity(x.len() + targets.len());
    emit_signature(&descs, pi, &inv, targets, &mut out);
    out
}

/// The canonical orbit key of `x` under a symmetry group: the
/// lexicographic minimum, over the group's `elements`, of the structural
/// signature of `π·x` on all processes. Two computations of a
/// `G`-symmetric enumerated universe share a canonical key iff one is a
/// relabeling of an interleaving of the other.
///
/// `payload_of` resolves message payloads (see
/// [`ProtocolUniverse::payload_of`]); pass `&mut |_| 0` for universes
/// whose protocols do not distinguish sends by payload.
///
/// # Panics
///
/// Panics if the group elements do not act on exactly `x`'s system size
/// — in particular, expand declarations with
/// [`SymmetryGroup::elements_for`](hpl_model::SymmetryGroup::elements_for)
/// (not `elements()`, whose `Trivial` arm cannot know the size).
#[must_use]
pub fn canonical_key(
    x: &Computation,
    elements: &[Permutation],
    payload_of: &mut dyn FnMut(MessageId) -> u32,
) -> Vec<u64> {
    let mut canon = Canonicalizer::new(elements.to_vec(), x.system_size());
    let descs = descriptors(x.system_size(), x.events(), payload_of);
    canon.key(&descs).to_vec()
}

/// Reusable canonical-key machinery: the expanded group, precomputed
/// inverses, and scratch buffers, so the per-computation cost inside the
/// merge loop is allocation-free.
pub(crate) struct Canonicalizer {
    elements: Vec<Permutation>,
    inverses: Vec<Permutation>,
    all: ProcessSet,
    best: Vec<u64>,
    cur: Vec<u64>,
}

impl Canonicalizer {
    pub(crate) fn new(elements: Vec<Permutation>, system_size: usize) -> Self {
        assert!(!elements.is_empty(), "groups contain the identity");
        assert!(
            elements.iter().all(|p| p.len() == system_size),
            "group elements must act on all {system_size} processes — expand \
             declarations with SymmetryGroup::elements_for, not elements()"
        );
        debug_assert!(elements[0].is_identity(), "identity sorts first");
        let inverses = elements.iter().map(Permutation::inverse).collect();
        Canonicalizer {
            elements,
            inverses,
            all: ProcessSet::full(system_size),
            best: Vec::new(),
            cur: Vec::new(),
        }
    }

    /// The canonical key of the computation described by `descs`, valid
    /// until the next call.
    fn key(&mut self, descs: &Descs) -> &[u64] {
        self.best.clear();
        emit_signature(
            descs,
            &self.elements[0],
            &self.inverses[0],
            self.all,
            &mut self.best,
        );
        for (pi, inv) in self.elements.iter().zip(&self.inverses).skip(1) {
            self.cur.clear();
            emit_signature(descs, pi, inv, self.all, &mut self.cur);
            if self.cur < self.best {
                std::mem::swap(&mut self.cur, &mut self.best);
            }
        }
        &self.best
    }
}

/// The quotient bookkeeping of the merge: orbit key → representative,
/// plus per-representative multiplicities and descriptors.
pub(crate) struct QuotientState {
    canon: Canonicalizer,
    generators: Vec<Permutation>,
    key_to_rep: HashMap<Vec<u64>, u32>,
    multiplicity: Vec<u64>,
    descs: Vec<Descs>,
    // scratch reused across observe() calls so the per-node cost of the
    // merge hot loop allocates only for kept representatives
    scratch: Descs,
    send_info: HashMap<MessageId, (u16, u32)>,
    projection: Vec<u64>,
}

/// What the merge decided about one explored computation.
pub(crate) enum OrbitDecision {
    /// First member of its orbit: keep it as the representative.
    Representative,
    /// Already represented: only the multiplicity was bumped.
    Collapsed,
}

impl QuotientState {
    /// `elements` is the expanded group (canonicalization minimizes over
    /// it); `generators` is a generating set of the same group, carried
    /// through to [`Orbits::generators`] so stabilizer tests downstream
    /// stay `O(|gens|)` instead of `O(|G|)`.
    pub(crate) fn new(
        elements: Vec<Permutation>,
        generators: Vec<Permutation>,
        system_size: usize,
    ) -> Self {
        QuotientState {
            canon: Canonicalizer::new(elements, system_size),
            generators,
            key_to_rep: HashMap::new(),
            multiplicity: Vec::new(),
            descs: Vec::new(),
            scratch: Descs::new(),
            send_info: HashMap::new(),
            projection: Vec::new(),
        }
    }

    /// Accounts one explored computation; call in deterministic merge
    /// order. `Representative` instructs the caller to insert the
    /// computation (its id must equal the number of representatives seen
    /// before it).
    ///
    /// Under the trivial group the key is the per-process event-id
    /// projection signature [`IsoIndex`](crate::IsoIndex) partitions by,
    /// so only representatives pay for descriptors; larger groups key on
    /// the canonical structural signature of every node.
    pub(crate) fn observe(
        &mut self,
        system_size: usize,
        events: &[Event],
        payload_of: &mut dyn FnMut(MessageId) -> u32,
    ) -> OrbitDecision {
        let trivial = self.canon.elements.len() == 1;
        let key = if trivial {
            self.projection.clear();
            projection_signature_into(
                &mut self.projection,
                events,
                (0..system_size).map(ProcessId::new),
            );
            &self.projection[..]
        } else {
            self.describe(system_size, events, payload_of);
            self.canon.key(&self.scratch)
        };
        if let Some(&rep) = self.key_to_rep.get(key) {
            self.multiplicity[rep as usize] += 1;
            return OrbitDecision::Collapsed;
        }
        let rep = self.multiplicity.len() as u32;
        self.key_to_rep.insert(key.to_vec(), rep);
        if trivial {
            self.describe(system_size, events, payload_of);
        }
        self.push_representative(1);
        OrbitDecision::Representative
    }

    /// Adopts a representative decided by an earlier enumeration with
    /// its final multiplicity, **without** keying it or entering it in
    /// the key table. Sound during incremental extension
    /// ([`extend_sharded`](crate::extend_sharded)) because every
    /// computation explored past the frontier is strictly longer than
    /// every adopted one, and both orbit keys (projection and canonical)
    /// of different-length computations differ — no new node can
    /// collapse onto an adopted orbit, and its multiplicity is already
    /// final. The descriptors are still computed: orbit-aware evaluation
    /// ([`OrbitIndex`](crate::OrbitIndex)) reads them for adopted and
    /// fresh representatives alike.
    ///
    /// The caller must keep the representative-id invariant: adopt in
    /// universe insertion order, so the adopted rep's id equals the
    /// number of representatives seen before it.
    pub(crate) fn adopt_representative(
        &mut self,
        system_size: usize,
        events: &[Event],
        payload_of: &mut dyn FnMut(MessageId) -> u32,
        multiplicity: u64,
    ) {
        self.describe(system_size, events, payload_of);
        self.push_representative(multiplicity);
    }

    /// Derives the descriptors of `events` into the scratch buffers.
    fn describe(
        &mut self,
        system_size: usize,
        events: &[Event],
        payload_of: &mut dyn FnMut(MessageId) -> u32,
    ) {
        descriptors_into(
            system_size,
            events,
            payload_of,
            &mut self.send_info,
            &mut self.scratch,
        );
    }

    /// Records the scratch descriptors as the next representative's
    /// (representatives are rare, so they take ownership of the buffers).
    fn push_representative(&mut self, multiplicity: u64) {
        self.multiplicity.push(multiplicity);
        self.descs.push(std::mem::take(&mut self.scratch));
    }

    pub(crate) fn into_orbits(self) -> Orbits {
        Orbits {
            elements: self.canon.elements,
            generators: self.generators,
            multiplicity: self.multiplicity,
            descs: self.descs,
        }
    }
}

/// The orbit structure attached to a quotient enumeration: the expanded
/// symmetry group and, per stored representative, the orbit multiplicity
/// (how many full-universe computations it stands for) and the structural
/// descriptors that drive orbit-aware evaluation.
#[derive(Debug)]
pub struct Orbits {
    elements: Vec<Permutation>,
    generators: Vec<Permutation>,
    multiplicity: Vec<u64>,
    descs: Vec<Descs>,
}

impl Orbits {
    /// The expanded symmetry group (identity first).
    #[must_use]
    pub fn elements(&self) -> &[Permutation] {
        &self.elements
    }

    /// A generating set of the group (empty for the trivial group) —
    /// what stabilizer questions should iterate: the stabilizer of a
    /// process set is a subgroup, so checking `π(P) = P` on the
    /// generators decides it for all [`Orbits::elements`] at
    /// `O(|gens|)` instead of `O(|G|)` cost. This is what the
    /// symmetry-soundness checker
    /// ([`classify_invariance`](crate::classify_invariance)) runs on.
    #[must_use]
    pub fn generators(&self) -> &[Permutation] {
        &self.generators
    }

    /// The order of the symmetry group.
    #[must_use]
    pub fn group_order(&self) -> usize {
        self.elements.len()
    }

    /// Number of orbits (equals the quotient universe's size).
    #[must_use]
    pub fn orbit_count(&self) -> usize {
        self.multiplicity.len()
    }

    /// The multiplicity of one representative: the number of
    /// full-universe computations its orbit contains.
    #[must_use]
    pub fn multiplicity(&self, id: CompId) -> u64 {
        self.multiplicity[id.index()]
    }

    /// The full per-representative multiplicity table, in id order —
    /// what frontier checkpoints persist so an extension can adopt old
    /// representatives with their final counts.
    pub(crate) fn multiplicities(&self) -> &[u64] {
        &self.multiplicity
    }

    /// The size of the full (un-quotiented) universe: the sum of all
    /// multiplicities. Cannot overflow for enumerated orbits — the merge
    /// increments one multiplicity per explored node, so the sum equals
    /// the explored node count (a `usize`); the saturation below is a
    /// guard for hand-built orbit structures only.
    #[must_use]
    pub fn full_size(&self) -> u64 {
        self.multiplicity
            .iter()
            .fold(0u64, |acc, &m| acc.saturating_add(m))
    }

    /// Expands a set of representatives to its full-universe cardinality
    /// — use wherever a *count* over the full universe matters (e.g.
    /// "the formula holds in N computations"). Meaningful only for
    /// formulas the soundness checker classifies
    /// [`Invariant`](crate::Invariance::Invariant): an orbit-variant
    /// satisfaction set does not hold at whole orbits, so its expansion
    /// counts computations the formula may not hold at.
    ///
    /// The summation is widened to `u128` — at `|G| = (n−1)!`-scale
    /// multiplicities over large universes the running total can exceed
    /// `u64` long before the final count does not, so per-step checked
    /// arithmetic is not enough to distinguish a transient spike from a
    /// true overflow.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::MultiplicityOverflow`] if the expanded count
    /// does not fit `u64`, instead of silently wrapping.
    pub fn expanded_count(&self, set: &CompSet) -> Result<u64, CoreError> {
        let total: u128 = set.iter().map(|i| u128::from(self.multiplicity[i])).sum();
        u64::try_from(total).map_err(|_| CoreError::MultiplicityOverflow)
    }

    /// The universe reduction factor `full_size / orbit_count`.
    #[must_use]
    pub fn reduction_factor(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let (full, kept) = (self.full_size() as f64, self.orbit_count().max(1) as f64);
        full / kept
    }
}

/// The orbit-aware `[P]`-partition of a quotient universe: the classes of
/// the stored representatives, plus — per class — the set of
/// representatives any of whose relabelings lands in the class.
#[derive(Clone, Debug)]
pub struct OrbitClasses {
    class_of: Vec<u32>,
    member_sets: Vec<CompSet>,
    orbit_sets: Vec<CompSet>,
}

impl OrbitClasses {
    /// The class index of a representative.
    #[must_use]
    pub fn class_of(&self, c: CompId) -> usize {
        self.class_of[c.index()] as usize
    }

    /// Number of classes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.member_sets.len()
    }

    /// The representatives in a class (the class as seen by the stored
    /// quotient universe).
    #[must_use]
    pub fn member_set(&self, class: usize) -> &CompSet {
        &self.member_sets[class]
    }

    /// The representatives whose orbits intersect the class's full
    /// `[P]`-class: `P knows b` holds at the class iff `b` holds at every
    /// member of this set.
    #[must_use]
    pub fn orbit_set(&self, class: usize) -> &CompSet {
        &self.orbit_sets[class]
    }
}

/// Cached orbit-aware class index over a quotient universe, the symmetry
/// analogue of [`IsoIndex`](crate::IsoIndex).
#[derive(Debug)]
pub struct OrbitIndex<'u> {
    universe: &'u Universe,
    orbits: &'u Orbits,
    cache: RefCell<HashMap<u128, Rc<OrbitClasses>>>,
}

impl<'u> OrbitIndex<'u> {
    /// Creates an index over a quotient universe and its orbit structure.
    ///
    /// # Panics
    ///
    /// Panics if the orbit structure does not describe exactly the
    /// universe's members.
    #[must_use]
    pub fn new(universe: &'u Universe, orbits: &'u Orbits) -> Self {
        assert_eq!(
            universe.len(),
            orbits.orbit_count(),
            "orbit structure must match the quotient universe"
        );
        OrbitIndex {
            universe,
            orbits,
            cache: RefCell::new(HashMap::new()),
        }
    }

    /// The universe this index serves.
    #[must_use]
    pub fn universe(&self) -> &'u Universe {
        self.universe
    }

    /// The orbit structure this index serves.
    #[must_use]
    pub fn orbits(&self) -> &'u Orbits {
        self.orbits
    }

    /// The orbit-aware `[P]`-partition (cached).
    #[must_use]
    pub fn classes(&self, p: ProcessSet) -> Rc<OrbitClasses> {
        if let Some(c) = self.cache.borrow().get(&p.bits()) {
            return Rc::clone(c);
        }
        let classes = self.build(p);
        let rc = Rc::new(classes);
        self.cache.borrow_mut().insert(p.bits(), Rc::clone(&rc));
        rc
    }

    fn build(&self, p: ProcessSet) -> OrbitClasses {
        let n = self.universe.len();
        let elements = self.orbits.elements();
        let inverses: Vec<Permutation> = elements.iter().map(Permutation::inverse).collect();

        // identity pass: partition the representatives by their own
        // projection signature, exactly like IsoIndex::classes.
        let mut key_to_class: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut class_of = vec![0u32; n];
        let mut member_sets: Vec<CompSet> = Vec::new();
        let mut key: Vec<u64> = Vec::new();
        for (id, slot) in class_of.iter_mut().enumerate() {
            key.clear();
            emit_signature(
                &self.orbits.descs[id],
                &elements[0],
                &inverses[0],
                p,
                &mut key,
            );
            let class = match key_to_class.get(&key) {
                Some(&c) => c,
                None => {
                    let c = member_sets.len() as u32;
                    key_to_class.insert(key.clone(), c);
                    member_sets.push(CompSet::new(n));
                    c
                }
            };
            *slot = class;
            member_sets[class as usize].insert(id);
        }

        // orbit pass: for every non-identity relabeling of every
        // representative, record which class the relabeling falls into.
        let mut orbit_sets = member_sets.clone();
        for (pi, inv) in elements.iter().zip(&inverses).skip(1) {
            for id in 0..n {
                key.clear();
                emit_signature(&self.orbits.descs[id], pi, inv, p, &mut key);
                if let Some(&class) = key_to_class.get(&key) {
                    orbit_sets[class as usize].insert(id);
                }
            }
        }

        OrbitClasses {
            class_of,
            member_sets,
            orbit_sets,
        }
    }
}

/// The **orbit-expanded** view of a quotient universe: one *virtual
/// member* per distinct relabeling `π·r` of every stored representative
/// `r` (one per `[D]`-class of the full universe — interleavings share
/// all per-process projections, so no formula can distinguish them).
///
/// This is the fallback arena of
/// [`QuotientPolicy::Expand`](crate::QuotientPolicy): out-of-contract
/// subtrees evaluate here with exact full-universe semantics — `[P]`
/// classes are rebuilt over the virtual members from the same structural
/// signatures that drive the quotient — while invariant subtrees keep
/// the quotient fast path and merely *lift* their representative-level
/// verdicts ([`ExpandedUniverse::lift`]).
#[derive(Debug)]
pub(crate) struct ExpandedUniverse {
    /// Per virtual member: (representative id, group-element index of a
    /// permutation realizing it).
    members: Vec<(u32, u32)>,
    /// Per representative: the virtual id of its identity relabeling.
    rep_member: Vec<u32>,
    inverses: Vec<Permutation>,
    /// Per `ProcessSet::bits`: the `[P]`-partition of the virtual
    /// members (member sets only — classes have no quotient side here).
    classes: RefCell<HashMap<u128, Rc<Vec<CompSet>>>>,
}

impl ExpandedUniverse {
    /// Materializes the virtual member list of an orbit structure.
    pub(crate) fn new(orbits: &Orbits) -> Self {
        let elements = &orbits.elements;
        // rep_member, project() and the dependent-atom materialization
        // in eval's expand_compute all read `element 0` as "the
        // identity relabeling" — pin the invariant every group
        // expansion currently satisfies by construction
        debug_assert!(
            elements[0].is_identity(),
            "group expansions list the identity first"
        );
        let n = elements[0].len();
        let all = ProcessSet::full(n);
        let inverses: Vec<Permutation> = elements.iter().map(Permutation::inverse).collect();
        let mut seen: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut members = Vec::new();
        let mut rep_member = vec![0u32; orbits.orbit_count()];
        let mut key = Vec::new();
        for (rid, descs) in orbits.descs.iter().enumerate() {
            for (ei, (pi, inv)) in elements.iter().zip(&inverses).enumerate() {
                key.clear();
                emit_signature(descs, pi, inv, all, &mut key);
                let next = members.len() as u32;
                let vid = *seen.entry(key.clone()).or_insert_with(|| {
                    members.push((rid as u32, ei as u32));
                    next
                });
                if ei == 0 {
                    // the identity signature of a representative is
                    // unique (quotient members are [D]-distinct), so
                    // this virtual member belongs to rid alone
                    rep_member[rid] = vid;
                }
            }
        }
        ExpandedUniverse {
            members,
            rep_member,
            inverses,
            classes: RefCell::new(HashMap::new()),
        }
    }

    /// Number of virtual members (distinct relabelings, i.e. the size of
    /// the full universe's `[D]`-quotient).
    pub(crate) fn len(&self) -> usize {
        self.members.len()
    }

    /// The (representative, group-element index) pair of a virtual
    /// member.
    pub(crate) fn member(&self, vid: usize) -> (usize, usize) {
        let (rid, ei) = self.members[vid];
        (rid as usize, ei as usize)
    }

    /// The full universe's `[P]`-partition over the virtual members
    /// (cached per process set).
    pub(crate) fn member_sets(&self, orbits: &Orbits, p: ProcessSet) -> Rc<Vec<CompSet>> {
        if let Some(c) = self.classes.borrow().get(&p.bits()) {
            return Rc::clone(c);
        }
        let n = self.members.len();
        let mut key_to_class: HashMap<Vec<u64>, usize> = HashMap::new();
        let mut sets: Vec<CompSet> = Vec::new();
        let mut key = Vec::new();
        for (vid, &(rid, ei)) in self.members.iter().enumerate() {
            key.clear();
            emit_signature(
                &orbits.descs[rid as usize],
                &orbits.elements[ei as usize],
                &self.inverses[ei as usize],
                p,
                &mut key,
            );
            let class = match key_to_class.get(&key) {
                Some(&c) => c,
                None => {
                    let c = sets.len();
                    key_to_class.insert(key.clone(), c);
                    sets.push(CompSet::new(n));
                    c
                }
            };
            sets[class].insert(vid);
        }
        let rc = Rc::new(sets);
        self.classes.borrow_mut().insert(p.bits(), Rc::clone(&rc));
        rc
    }

    /// Lifts a representative-level satisfaction set to the virtual
    /// members — sound exactly for orbit-invariant verdicts.
    pub(crate) fn lift(&self, rep: &CompSet) -> CompSet {
        let mut s = CompSet::new(self.members.len());
        for (vid, &(rid, _)) in self.members.iter().enumerate() {
            if rep.contains(rid as usize) {
                s.insert(vid);
            }
        }
        s
    }

    /// Projects a virtual satisfaction set back to representative level
    /// (each representative reads its identity relabeling).
    pub(crate) fn project(&self, v: &CompSet) -> CompSet {
        let mut s = CompSet::new(self.rep_member.len());
        for (rid, &vid) in self.rep_member.iter().enumerate() {
            if v.contains(vid as usize) {
                s.insert(rid);
            }
        }
        s
    }
}

/// Verifies that an enumerated universe is **closed** under a symmetry
/// group: every relabeling of every member is again a member (up to
/// interleaving). This is the executable soundness condition for
/// declaring the group on the protocol — a distinguished initial state
/// (e.g. a token at a fixed process) fails it for any permutation moving
/// the distinguished process.
///
/// # Errors
///
/// Returns a description of the first non-member relabeling found.
///
/// # Panics
///
/// Panics if an element does not act on exactly the universe's system
/// size — expand declarations with
/// [`SymmetryGroup::elements_for`](hpl_model::SymmetryGroup::elements_for).
pub fn check_closure(pu: &ProtocolUniverse, elements: &[Permutation]) -> Result<(), String> {
    let u = pu.universe();
    let n = u.system_size();
    assert!(
        elements.iter().all(|p| p.len() == n),
        "group elements must act on all {n} processes — expand declarations \
         with SymmetryGroup::elements_for, not elements()"
    );
    let all = ProcessSet::full(n);
    let mut payload = |m: MessageId| pu.payload_of(m).unwrap_or(0);
    let mut members: HashMap<Vec<u64>, CompId> = HashMap::new();
    let mut descs_of: Vec<Descs> = Vec::with_capacity(u.len());
    let identity = Permutation::identity(n);
    for (id, c) in u.iter() {
        let descs = descriptors(n, c.events(), &mut payload);
        let mut key = Vec::new();
        emit_signature(&descs, &identity, &identity, all, &mut key);
        members.insert(key, id);
        descs_of.push(descs);
    }
    for pi in elements {
        let inv = pi.inverse();
        for (id, descs) in descs_of.iter().enumerate() {
            let mut key = Vec::new();
            emit_signature(descs, pi, &inv, all, &mut key);
            if !members.contains_key(&key) {
                return Err(format!(
                    "relabeling {pi} of c{id} is not a member: the group is not \
                     an automorphism group of this universe"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_model::{ProcessId, ScenarioPool, SymmetryGroup};

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// Three symmetric processes, one internal step each; x and its
    /// relabelings plus interleavings.
    fn symmetric_pool() -> (ScenarioPool, Vec<hpl_model::EventId>) {
        let mut pool = ScenarioPool::new(3);
        let evs = (0..3).map(|i| pool.internal(pid(i))).collect();
        (pool, evs)
    }

    #[test]
    fn canonical_key_collapses_relabelings_and_interleavings() {
        let (pool, evs) = symmetric_pool();
        let group = SymmetryGroup::Full { n: 3 }.elements();
        let x = pool.compose([evs[0], evs[1]]).unwrap();
        let y = pool.compose([evs[1], evs[0]]).unwrap(); // interleaving
        let z = pool.compose([evs[1], evs[2]]).unwrap(); // relabeling
        let kx = canonical_key(&x, &group, &mut |_| 0);
        assert_eq!(kx, canonical_key(&y, &group, &mut |_| 0));
        assert_eq!(kx, canonical_key(&z, &group, &mut |_| 0));
        // a longer computation is in a different orbit
        let w = pool.compose([evs[0], evs[1], evs[2]]).unwrap();
        assert_ne!(kx, canonical_key(&w, &group, &mut |_| 0));
        // under the trivial group, relabelings stay distinct …
        let id_only = SymmetryGroup::Trivial.elements_for(3);
        assert_ne!(
            canonical_key(&x, &id_only, &mut |_| 0),
            canonical_key(&z, &id_only, &mut |_| 0)
        );
        // … but interleavings still collapse (the [D]-collapse)
        assert_eq!(
            canonical_key(&x, &id_only, &mut |_| 0),
            canonical_key(&y, &id_only, &mut |_| 0)
        );
    }

    #[test]
    fn canonical_key_is_permutation_invariant_fixpoint() {
        let mut pool = ScenarioPool::new(3);
        let (s, m) = pool.send(pid(0), pid(1));
        let r = pool.receive(pid(1), pid(0), m);
        let a = pool.internal(pid(2));
        let x = pool.compose([s, r, a]).unwrap();
        let group = SymmetryGroup::Full { n: 3 }.elements();
        let key = canonical_key(&x, &group, &mut |_| 0);
        for pi in &group {
            let relabeled = x.permuted(pi);
            assert_eq!(
                canonical_key(&relabeled, &group, &mut |_| 0),
                key,
                "canonical key must be invariant under {pi}"
            );
        }
    }

    #[test]
    fn struct_signature_matches_materialized_relabeling() {
        let mut pool = ScenarioPool::new(3);
        let (s, m) = pool.send(pid(0), pid(2));
        let r = pool.receive(pid(2), pid(0), m);
        let x = pool.compose([s, r]).unwrap();
        let rot = Permutation::rotation(3, 1);
        let all = ProcessSet::full(3);
        assert_eq!(
            struct_signature(&x, &rot, all),
            struct_signature(&x.permuted(&rot), &Permutation::identity(3), all),
            "signature of π·x must equal the identity signature of the \
             materialized relabeling"
        );
    }

    #[test]
    fn struct_signature_distinguishes_payloads() {
        // same shape, different payload tags → different signatures
        let mut pool = ScenarioPool::new(2);
        let (s1, m1) = pool.send(pid(0), pid(1));
        let (s2, m2) = pool.send(pid(0), pid(1));
        let x = pool.compose([s1]).unwrap();
        let y = pool.compose([s2]).unwrap();
        let id = Permutation::identity(2);
        let all = ProcessSet::full(2);
        let mut pay = |m: MessageId| if m == m1 { 7 } else { 9 };
        assert_ne!(
            struct_signature_with(&x, &id, all, &mut pay),
            struct_signature_with(&y, &id, all, &mut pay)
        );
        // without payload resolution they are structurally identical
        assert_eq!(
            struct_signature(&x, &id, all),
            struct_signature(&y, &id, all)
        );
        let _ = m2;
    }

    #[test]
    fn closure_check_accepts_symmetric_and_rejects_asymmetric() {
        use crate::enumerate::{enumerate, EnumerationLimits};
        use crate::enumerate::{LocalView, ProtoAction, Protocol};
        use hpl_model::ActionId;

        /// n identical processes, one internal step each.
        struct Sym;
        impl Protocol for Sym {
            fn system_size(&self) -> usize {
                3
            }
            fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
                if view.is_empty() {
                    vec![ProtoAction::Internal {
                        action: ActionId::new(1),
                    }]
                } else {
                    vec![]
                }
            }
        }
        /// only p0 acts.
        struct Asym;
        impl Protocol for Asym {
            fn system_size(&self) -> usize {
                3
            }
            fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
                if p.index() == 0 && view.is_empty() {
                    vec![ProtoAction::Internal {
                        action: ActionId::new(1),
                    }]
                } else {
                    vec![]
                }
            }
        }
        let full = SymmetryGroup::Full { n: 3 }.elements();
        let pu = enumerate(&Sym, EnumerationLimits::depth(3)).unwrap();
        assert!(check_closure(&pu, &full).is_ok());
        let pu = enumerate(&Asym, EnumerationLimits::depth(3)).unwrap();
        assert!(check_closure(&pu, &full).is_err());
        // every universe is closed under the trivial group
        assert!(check_closure(&pu, &SymmetryGroup::Trivial.elements_for(3)).is_ok());
    }

    #[test]
    fn quotient_state_tracks_multiplicities() {
        let (pool, evs) = symmetric_pool();
        let group = SymmetryGroup::Full { n: 3 };
        let mut q = QuotientState::new(group.elements(), group.generators_for(3), 3);
        let mut count_reps = 0;
        // orbit of singletons: 3 members; orbit of pairs: 6 members
        let sequences: Vec<Vec<hpl_model::EventId>> = vec![
            vec![],
            vec![evs[0]],
            vec![evs[1]],
            vec![evs[2]],
            vec![evs[0], evs[1]],
            vec![evs[1], evs[0]],
            vec![evs[0], evs[2]],
            vec![evs[2], evs[0]],
            vec![evs[1], evs[2]],
            vec![evs[2], evs[1]],
        ];
        for seq in &sequences {
            let c = pool.compose(seq.iter().copied()).unwrap();
            if matches!(
                q.observe(3, c.events(), &mut |_| 0),
                OrbitDecision::Representative
            ) {
                count_reps += 1;
            }
        }
        assert_eq!(count_reps, 3); // null, one-step, two-step
        let orbits = q.into_orbits();
        assert_eq!(orbits.orbit_count(), 3);
        assert_eq!(orbits.full_size(), 10);
        assert_eq!(orbits.group_order(), 6);
        let mult: Vec<u64> = (0..3)
            .map(|i| orbits.multiplicity(crate::universe::CompId::from_index(i)))
            .collect();
        assert_eq!(mult, vec![1, 3, 6]);
        assert!((orbits.reduction_factor() - 10.0 / 3.0).abs() < 1e-9);
        let mut set = CompSet::new(3);
        set.insert(1);
        set.insert(2);
        assert_eq!(orbits.expanded_count(&set), Ok(9));
    }

    /// Regression: multiplicity expansion must fail typed, not wrap. At
    /// `|G| = (n−1)!`-scale multiplicities the u64 running total can
    /// wrap long before anyone notices the count is nonsense.
    #[test]
    fn expanded_count_overflow_is_a_typed_error() {
        let orbits = Orbits {
            elements: vec![Permutation::identity(2)],
            generators: Vec::new(),
            multiplicity: vec![u64::MAX, u64::MAX, 2],
            descs: vec![Descs::new(), Descs::new(), Descs::new()],
        };
        let mut one = CompSet::new(3);
        one.insert(0);
        assert_eq!(orbits.expanded_count(&one), Ok(u64::MAX));
        let mut both = CompSet::new(3);
        both.insert(0);
        both.insert(2);
        assert_eq!(
            orbits.expanded_count(&both),
            Err(crate::error::CoreError::MultiplicityOverflow)
        );
        // full_size saturates rather than wrapping (documented guard for
        // hand-built structures; enumerated orbits cannot reach it)
        assert_eq!(orbits.full_size(), u64::MAX);
    }
}
