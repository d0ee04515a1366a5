//! Parallel, sharded protocol enumeration with a streaming merge.
//!
//! [`enumerate_sharded`] produces the same universe as the sequential
//! reference [`enumerate`](crate::enumerate::enumerate) — byte-identical
//! [`CompId`](crate::CompId) ordering, event ids and payload table.
//!
//! **Prefix frontier, then extend.** A universe is prefix-closed, so one
//! mechanism builds every universe: growing a [`Frontier`]. One loop
//! replays the frontier's pre-order journal through the merge and, at
//! each node of its leaf cut, splices in the subtree explored below that
//! leaf. [`extend_sharded`] grows a checkpoint the caller kept.
//! [`enumerate_sharded`] grows the empty (depth-0) frontier to a split
//! depth on the calling thread, checkpoints that prefix, and then grows
//! the prefix frontier to the horizon; the prefix's leaves are the
//! *tasks*.
//!
//! - **Partitioned-id exploration.** An explorer moves to a leaf by
//!   undoing to the common prefix of the two paths and applying the
//!   rest, then walks the subtree below it. It pushes pre-order node
//!   records into a buffer of at most [`ShardConfig::batch_nodes`]
//!   records and interns the events it discovers into its own **id
//!   partition**: dense `u32` ids, meaningful only within that
//!   partition, so exploration touches no shared state beyond the atomic
//!   budget. With several shards, the tasks go onto a shared queue (a
//!   `crossbeam` channel; the vendored stand-in's receiver is
//!   single-consumer, so it sits behind a `parking_lot` mutex) from which
//!   worker threads pull dynamically. Each task gets a fresh partition,
//!   and every full buffer ships as one **batch**. With one shard, a
//!   single explorer visits the leaves in splice order with one partition
//!   for the whole run, and each buffer is merged in place.
//! - **Streaming merge + renumbering** (the calling thread, concurrent
//!   with the workers): batches are consumed in **splice order**, the
//!   pre-order position of each task's leaf, as they arrive. Each batch's
//!   new partition-table entries are **renumbered** into the single
//!   global event space in one pass (one intern per *unique* event per
//!   partition, not per node), which reproduces the sequential engine's
//!   event-id assignment exactly. Node records then replay through a
//!   depth-truncated path stack and enter the universe via trusted fast
//!   paths.
//!
//! Peak merge memory is bounded by the batches that have *finished but
//! not yet spliced* (out-of-order completions) plus the batch being
//! consumed — not by the total node count — and the in-flight side is
//! **hard-capped** by a batch-credit scheme
//! ([`ShardConfig::max_buffered_batches`]): a worker shipping a batch
//! for any task other than the one the merge is splicing must hold a
//! credit, returned when the batch is consumed, so even the adversarial
//! schedule (one slow early task, many fast later ones) cannot grow the
//! reorder buffer past the cap; head-task batches throttle against an
//! equally-sized slot window, so a fast producer cannot pile them into
//! the result channel ahead of a slow merge either. With one shard
//! nothing is buffered at all: each batch is merged the moment it is
//! produced.
//! [`EnumerationStats`] reports the observed bound
//! (`peak_buffered_bytes`, `largest_batch_bytes`) and the active merge
//! time (`merge_wall_ms`).
//!
//! The merge optionally **quotients** the universe
//! ([`ShardConfig::quotient`], see [`crate::symmetry`]): computations
//! with the same per-process projections (`x [D] y` — interleavings of
//! one another), and their relabelings under the protocol's declared
//! symmetry group, collapse onto the first representative in canonical
//! order. Without declared symmetry this is exactly the `[D]`-collapse.
//! It changes knowledge semantics and is therefore opt-in. Because
//! batches are spliced in deterministic pre-order, orbit representatives
//! and multiplicities are byte-stable across shard counts and batch
//! sizes too.
//!
//! Determinism requires [`Protocol`] implementations to be *pure*:
//! `actions` and `accepts` must be functions of their arguments only.
//! The sequential engine already assumes this (it re-asks the protocol
//! for the same view many times); the sharded engine additionally caches
//! across tree edges and asks from several threads.
//!
//! The paper→code concordance (`docs/CONCORDANCE.md`) records which
//! paper definitions this engine accelerates and which suites certify
//! the byte-determinism contract.

use crate::enumerate::{
    EnumerationLimits, EventSpace, LocalStep, LocalView, ProtoAction, Protocol, ProtocolUniverse,
    StepKey,
};
use crate::error::CoreError;
use crate::symmetry::{OrbitDecision, Orbits, QuotientState};
use crate::universe::{GrowthMap, Universe};
use crossbeam::channel::{self, Sender};
use hpl_model::{ActionId, Computation, Event, EventId, EventKind, MessageId, ProcessId};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Sharding configuration for [`enumerate_sharded`].
///
/// # Example
///
/// ```
/// use hpl_core::ShardConfig;
/// let cfg = ShardConfig::with_shards(4).batch_nodes(1024).quotient();
/// assert_eq!(cfg.shards, 4);
/// assert_eq!(cfg.batch_nodes, 1024);
/// assert!(cfg.quotient);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Number of worker threads. `1` runs the whole pipeline on the
    /// calling thread (no threads are spawned, and each subtree is
    /// explored at its splice point and merged as it goes, so no batch is
    /// ever parked).
    pub shards: usize,
    /// Tree depth at which frontier nodes become worker tasks; `None`
    /// picks a small default. The output is independent of this knob —
    /// it only shapes scheduling granularity.
    pub split_depth: Option<usize>,
    /// Maximum node records per streamed batch. Workers flush a batch to
    /// the merge whenever this many records accumulate, so peak merge
    /// memory is bounded by the batches in flight rather than a task's
    /// whole subtree. The output is independent of this knob; smaller
    /// batches tighten the memory bound at the cost of more channel
    /// traffic. Clamped to at least 1.
    pub batch_nodes: usize,
    /// Symmetry-quotient mode: collapse `[D]`-isomorphic computations
    /// (same per-process projections) and their relabelings under the
    /// protocol's declared automorphism group ([`Protocol::symmetry`]),
    /// storing one orbit representative with its multiplicity
    /// ([`ShardedEnumeration::orbits`]); under the trivial group the
    /// orbits are the `[D]`-classes. Sound for queries whose atoms are
    /// invariant under the group and under interleaving, evaluated
    /// through [`Evaluator::with_symmetry`](crate::Evaluator::with_symmetry).
    pub quotient: bool,
    /// Hard cap on finished-but-not-yet-spliced batches the merge may
    /// park in its reorder buffer. Workers producing for a task other
    /// than the one the merge is currently splicing must hold one of
    /// these **batch credits** per in-flight batch; on the adversarial
    /// schedule — one slow early task, many fast later ones — this
    /// bounds `peak_buffered_bytes` by
    /// `max_buffered_batches × largest_batch_bytes` plus the batch being
    /// consumed, where it used to grow with the whole remaining tree.
    /// The head task's own batches never park, but they throttle
    /// against an equally-sized **head-slot window** so a fast producer
    /// cannot pile them into the result channel ahead of a slow merge
    /// either: total in-flight batches (parked + channel) stay within
    /// `2 × max_buffered_batches`. The output is independent of this
    /// knob. Clamped to at least 1.
    pub max_buffered_batches: usize,
    /// Capture a [`Frontier`] checkpoint alongside the result
    /// ([`ShardedEnumeration::frontier`]): the run's full pre-order node
    /// journal plus the interning tables, everything
    /// [`extend_sharded`] needs to resume the enumeration at a deeper
    /// horizon without re-exploring the old tree. Costs one journal
    /// record per explored node and one clone of the event and payload
    /// tables at the end; the enumerated universe itself is unaffected.
    pub checkpoint: bool,
}

/// Default [`ShardConfig::batch_nodes`]: large enough that channel and
/// timing overhead vanish, small enough that a batch of records stays a
/// few hundred kilobytes.
pub const DEFAULT_BATCH_NODES: usize = 32_768;

/// Default [`ShardConfig::max_buffered_batches`]: enough slack that
/// ordinary out-of-order completions never block a worker, while the
/// worst-case reorder buffer stays a few dozen batches (≈ tens of
/// megabytes at the default batch size) instead of the whole tree.
pub const DEFAULT_MAX_BUFFERED_BATCHES: usize = 64;

impl ShardConfig {
    /// A configuration with `shards` workers and default split depth,
    /// batch size and reorder-buffer cap, no quotient.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        ShardConfig {
            shards,
            split_depth: None,
            batch_nodes: DEFAULT_BATCH_NODES,
            quotient: false,
            max_buffered_batches: DEFAULT_MAX_BUFFERED_BATCHES,
            checkpoint: false,
        }
    }

    /// Sets the maximum node records per streamed batch (see
    /// [`ShardConfig::batch_nodes`]).
    #[must_use]
    pub fn batch_nodes(mut self, nodes: usize) -> Self {
        self.batch_nodes = nodes.max(1);
        self
    }

    /// Sets the reorder-buffer cap (see
    /// [`ShardConfig::max_buffered_batches`]).
    #[must_use]
    pub fn max_buffered_batches(mut self, batches: usize) -> Self {
        self.max_buffered_batches = batches.max(1);
        self
    }

    /// Enables frontier checkpointing (see [`ShardConfig::checkpoint`]):
    /// the result carries a [`Frontier`] that [`extend_sharded`] can
    /// resume from.
    #[must_use]
    pub fn checkpoint(mut self) -> Self {
        self.checkpoint = true;
        self
    }

    /// Enables the symmetry-quotient mode (see
    /// [`ShardConfig::quotient`]).
    ///
    /// # Example
    ///
    /// A fully symmetric two-process protocol collapses to one
    /// representative per multiset of per-process step counts,
    /// independent of the shard count:
    ///
    /// ```
    /// use hpl_core::{enumerate_sharded, EnumerationLimits, ShardConfig};
    /// use hpl_core::{LocalView, ProtoAction, Protocol};
    /// use hpl_model::{ActionId, ProcessId, SymmetryGroup};
    ///
    /// struct Twins;
    /// impl Protocol for Twins {
    ///     fn system_size(&self) -> usize { 2 }
    ///     fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
    ///         if view.len() < 2 {
    ///             vec![ProtoAction::Internal { action: ActionId::new(view.len() as u32) }]
    ///         } else { vec![] }
    ///     }
    ///     fn symmetry(&self) -> SymmetryGroup { SymmetryGroup::Full { n: 2 } }
    /// }
    ///
    /// let cfg = ShardConfig::with_shards(2).quotient();
    /// let out = enumerate_sharded(&Twins, EnumerationLimits::depth(4), &cfg)?;
    /// let orbits = out.orbits.expect("quotient mode attaches orbits");
    /// assert_eq!(out.stats.explored, 19);            // full interleaving tree
    /// assert_eq!(out.stats.unique, 6);               // orbit representatives
    /// assert_eq!(orbits.full_size(), 19);            // multiplicities cover it
    /// # Ok::<(), hpl_core::CoreError>(())
    /// ```
    #[must_use]
    pub fn quotient(mut self) -> Self {
        self.quotient = true;
        self
    }
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            shards: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            ..ShardConfig::with_shards(1)
        }
    }
}

/// Counters describing one sharded enumeration run.
#[derive(Clone, Copy, Debug)]
pub struct EnumerationStats {
    /// Tree nodes explored (computations before the quotient). For
    /// extensions this counts the whole tree at the deeper horizon —
    /// replayed nodes included — so it is comparable with a from-scratch
    /// run's count.
    pub explored: usize,
    /// Nodes replayed from a resumed [`Frontier`] instead of explored
    /// against the protocol (`0` for from-scratch enumerations; always
    /// `≤ explored`).
    pub resumed: usize,
    /// Computations kept in the universe (equals `explored` outside
    /// quotient mode).
    pub unique: usize,
    /// Frontier tasks distributed to workers.
    pub tasks: usize,
    /// Worker threads used.
    pub shards: usize,
    /// Order of the symmetry group the quotient collapsed over (`1`
    /// outside quotient mode).
    pub group_order: usize,
    /// Canonical orbit keys the merge computed, each a minimum over
    /// [`group_order`](EnumerationStats::group_order) relabelings: one per
    /// newly decided `[D]`-class under a declared group, `0` under the
    /// trivial group and outside quotient mode. An extension counts only
    /// the classes below its frontier, the ones it newly decides.
    pub canonical_keys: usize,
    /// Record batches streamed through the merge (≥ `tasks`; grows as
    /// [`ShardConfig::batch_nodes`] shrinks).
    pub batches: usize,
    /// Time the merge spent actively renumbering and inserting records
    /// (excludes time blocked waiting for workers), in milliseconds.
    pub merge_wall_ms: f64,
    /// Peak bytes of finished-but-not-yet-spliced batches held by the
    /// merge, including the batch being consumed. This — not the total
    /// node count — bounds the merge's buffering; it equals
    /// [`largest_batch_bytes`](EnumerationStats::largest_batch_bytes)
    /// when every batch was consumed the moment it arrived (always true
    /// at 1 shard).
    pub peak_buffered_bytes: usize,
    /// Size of the largest single batch consumed, in bytes.
    pub largest_batch_bytes: usize,
}

impl EnumerationStats {
    /// The universe **reduction factor**: explored-to-kept ratio (`1.0`
    /// outside quotient mode; higher means more interleavings and
    /// relabelings collapsed).
    #[must_use]
    pub fn reduction_factor(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let (e, u) = (self.explored as f64, self.unique.max(1) as f64);
        e / u
    }
}

/// The result of [`enumerate_sharded`]: the universe plus run counters.
#[derive(Debug)]
pub struct ShardedEnumeration {
    /// The enumerated universe (byte-identical to the sequential engine's
    /// outside quotient mode).
    pub universe: ProtocolUniverse,
    /// Exploration counters.
    pub stats: EnumerationStats,
    /// Orbit structure (group elements, per-representative
    /// multiplicities) — present exactly in quotient mode; feed it to
    /// [`Evaluator::with_symmetry`](crate::Evaluator::with_symmetry).
    pub orbits: Option<Orbits>,
    /// The resumable checkpoint at this run's horizon — present exactly
    /// when [`ShardConfig::checkpoint`] was set; feed it to
    /// [`extend_sharded`] to grow this universe in place.
    pub frontier: Option<Frontier>,
    /// For extensions ([`extend_sharded`]): where every member of the
    /// source universe landed in the grown one. `None` for from-scratch
    /// enumerations.
    pub growth: Option<GrowthMap>,
}

/// One journaled pre-order node of a checkpointed run: its depth (events
/// in the computation), the global id of its edge event in the producing
/// run's event space, and whether the merge kept it as a universe member
/// (representative) or collapsed it onto an earlier one.
#[derive(Clone, Copy, Debug)]
struct FrontierRec {
    depth: u32,
    event: u32,
    kept: bool,
}

/// A resumable enumeration checkpoint: the persisted pre-order journal of
/// a finished [`enumerate_sharded`] (or [`extend_sharded`]) run plus the
/// interning tables that anchor it — the event table, the message payload
/// table and (in quotient mode) the per-representative multiplicities.
///
/// [`extend_sharded`] replays the journal through a fresh event space —
/// re-interning each event at its first pre-order edge encounter, exactly
/// where a from-scratch merge would intern it, so every old event keeps
/// its id — and then explores **only below the depth-`d` leaf cut**,
/// where `d` is the producing run's horizon. The grown universe is
/// byte-identical to a from-scratch enumeration at the deeper horizon.
///
/// Capture is requested with [`ShardConfig::checkpoint`]; a frontier is
/// self-contained (it borrows nothing from the universe it came from) and
/// cheap to keep around: one compact record per explored node plus one
/// copy of the event table.
#[derive(Clone, Debug)]
pub struct Frontier {
    system_size: usize,
    /// The producing run's horizon (`limits.max_events`).
    depth: usize,
    /// Whether the producing run quotiented — an extension must resume
    /// in the same mode, because the journal records which nodes that
    /// mode kept.
    quotient: bool,
    /// Generation of the universe state this frontier was captured from
    /// — extensions stamp it into their [`GrowthMap`].
    generation: u64,
    /// The producing run's full event table, in global id order.
    events: Vec<Event>,
    /// Message payload tags of the producing run.
    payloads: HashMap<MessageId, u32>,
    /// Every explored node (the root excluded) in pre-order.
    records: Vec<FrontierRec>,
    /// Quotient mode only: multiplicity per kept representative, in
    /// `CompId` order (index 0 is the root's orbit).
    multiplicities: Vec<u64>,
}

impl Frontier {
    /// The depth-0 frontier every enumeration grows from: the root alone.
    fn root(system_size: usize, quotient: bool) -> Self {
        Frontier {
            system_size,
            depth: 0,
            quotient,
            generation: 0,
            events: Vec::new(),
            payloads: HashMap::new(),
            records: Vec::new(),
            multiplicities: Vec::new(),
        }
    }

    /// The horizon (maximum events per computation) the producing run
    /// explored to; extensions must use a horizon at least this deep.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// The generation of the universe this frontier was captured from.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Explored nodes the frontier will replay instead of re-exploring
    /// (the root included).
    #[must_use]
    pub fn resumed_nodes(&self) -> usize {
        self.records.len() + 1
    }

    /// Leaf-cut size: the depth-`d` nodes an extension resumes
    /// exploration below (collapsed nodes included — collapse affects
    /// storage, not the tree shape).
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        if self.depth == 0 {
            1
        } else {
            self.records
                .iter()
                .filter(|r| r.depth as usize == self.depth)
                .count()
        }
    }
}

/// A partition-local event id: a dense index into one explorer's id
/// table ([`EventDef`] list). Partitions are disjoint by construction — a
/// local id is meaningful only together with its partition, and the
/// streaming merge renumbers each partition into the global [`EventId`]
/// space as its batches arrive.
type LocalId = u32;

/// Sentinel for "no previous event on this process".
const NO_EVENT: LocalId = u32::MAX;

/// What kind of event a partition table entry defines. The communication
/// peer of a receive is named by the *local id of its send* — resolvable
/// entirely within the partition.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum DefKind {
    /// A send with its destination and payload tag.
    Send { to: ProcessId, payload: u32 },
    /// A receive of the message sent by local event `send`.
    Recv { send: LocalId },
    /// An internal action.
    Internal { action: ActionId },
}

/// One entry of a partition's id table: everything the merge needs to
/// re-intern the event globally, expressed in partition-local ids.
#[derive(Clone, Copy, Debug)]
struct EventDef {
    p: ProcessId,
    /// Previous event of `p` (local id), or [`NO_EVENT`].
    prev: LocalId,
    kind: DefKind,
}

/// One protocol step, as recorded in leaf *paths*: enough to replay the
/// edge without consulting the protocol again. (`PartialEq` lets
/// [`Explorer::goto`] find the common prefix of two paths.)
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepDesc {
    /// A spontaneous step by `p`.
    Spont { p: ProcessId, action: ProtoAction },
    /// Receipt of the in-flight message at `slot` (index into the
    /// replayed in-flight queue, which evolves deterministically).
    Recv { slot: u32 },
}

/// A pre-order node record: the node's depth (events in the computation)
/// plus the partition-local id of its edge event. Depth lets the merge
/// recover the parent by truncation, so records need no explicit tree
/// structure.
#[derive(Clone, Copy, Debug)]
struct NodeRec {
    depth: u32,
    local: LocalId,
}

/// A leaf subtree for a worker: the step path from the root to the leaf
/// (the leaf itself is replayed from the frontier by [`drive`]).
#[derive(Debug)]
struct Task {
    id: usize,
    path: Vec<StepDesc>,
}

/// One streamed unit of worker output: the partition-table entries
/// discovered since the previous batch of the same task, plus a run of
/// pre-order node records. `last` marks the task's final batch;
/// `credited` records whether the producer holds a reorder-buffer
/// credit for it (released when the merge consumes the batch).
struct TaskBatch {
    defs: Vec<EventDef>,
    nodes: Vec<NodeRec>,
    last: bool,
    credited: bool,
}

/// The size a batch of `defs` and `nodes` is accounted at.
fn batch_bytes(defs: &[EventDef], nodes: &[NodeRec]) -> usize {
    std::mem::size_of_val(defs) + std::mem::size_of_val(nodes)
}

impl TaskBatch {
    fn approx_bytes(&self) -> usize {
        batch_bytes(&self.defs, &self.nodes)
    }
}

/// Shared exploration budget: one global node counter enforcing
/// `max_computations` across all shards.
struct Budget {
    explored: AtomicUsize,
    max: usize,
    abort: AtomicBool,
    first_error: Mutex<Option<CoreError>>,
}

impl Budget {
    fn new(max: usize) -> Self {
        Budget {
            explored: AtomicUsize::new(0),
            max,
            abort: AtomicBool::new(false),
            first_error: Mutex::new(None),
        }
    }

    /// Accounts one node. On budget exhaustion, records the error and
    /// raises the abort flag so sibling workers stop promptly.
    fn charge(&self) -> Result<(), ()> {
        if self.abort.load(Ordering::Relaxed) {
            return Err(());
        }
        if self.explored.fetch_add(1, Ordering::Relaxed) >= self.max {
            self.fail(CoreError::EnumerationBudgetExceeded {
                max_computations: self.max,
            });
            return Err(());
        }
        Ok(())
    }

    fn fail(&self, e: CoreError) {
        self.first_error.lock().get_or_insert(e);
        self.abort.store(true, Ordering::Relaxed);
    }

    fn into_error(self) -> Option<CoreError> {
        self.first_error.into_inner()
    }
}

/// The batch-credit gate bounding the merge's in-flight batches.
///
/// A worker about to ship a batch for task `t` first calls
/// [`ReorderGate::admit`]. If `t` is **not** the task the merge is
/// currently splicing (the *head*), the batch must take one of
/// `max_buffered_batches` *parked credits*, blocking the worker until a
/// parked batch is consumed (releasing its credit), the head advances
/// to the worker's task, or the run shuts down; since every such batch
/// holds a credit from send to consumption, the reorder buffer — and
/// its share of the unbounded result channel — can never exceed the
/// cap. Head-task batches never park, but they can still outrun a slow
/// merge *inside the channel* (the merge is the serial section in
/// quotient mode), so they take a *head slot* from an equally-sized
/// window instead, released as the merge consumes them — total
/// in-flight batches are therefore hard-bounded by `2 ×
/// max_buffered_batches`, not just the parked side.
///
/// Deadlock-freedom: tasks are queued and pulled in splice order, so
/// when the merge waits on head task `h`, either a worker is already
/// producing `h` or `h` is still queued and some worker — having
/// finished an earlier task — will pull it next; workers blocked on
/// parked credits are by definition producing for tasks *after* `h`,
/// whose batches the merge does not need yet, and a worker blocked on
/// a head slot implies a full window of `h`-batches already sits in
/// the channel for the merge to consume (each consumption releases a
/// slot). [`ReorderGate::set_head`] wakes waiters whenever the merge
/// advances, and [`ReorderGate::shutdown`] (abort or teardown) opens
/// the gate unconditionally so no worker outlives the run blocked.
struct ReorderGate {
    state: std::sync::Mutex<GateState>,
    cv: std::sync::Condvar,
}

struct GateState {
    credits: usize,
    head_slots: usize,
    head: usize,
    open: bool,
}

impl ReorderGate {
    fn new(credits: usize) -> Self {
        let credits = credits.max(1);
        ReorderGate {
            state: std::sync::Mutex::new(GateState {
                credits,
                head_slots: credits,
                head: 0,
                open: false,
            }),
            cv: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Blocks until the batch for `task` may be shipped; returns whether
    /// a parked credit was consumed (`true` exactly for batches that may
    /// park — head-task batches take a head slot instead and return
    /// `false`).
    fn admit(&self, task: usize) -> bool {
        // analyze:acquire(enum.gate)
        let mut s = self.lock();
        // credit-stall accounting: first blocked iteration starts the
        // clock (telemetry observes the wait, it never alters it)
        let mut stalled: Option<Instant> = None;
        let credited = loop {
            if s.open {
                break false;
            }
            if s.head == task {
                if s.head_slots > 0 {
                    s.head_slots -= 1;
                    break false;
                }
            } else if s.credits > 0 {
                s.credits -= 1;
                break true;
            }
            if stalled.is_none() && hpl_telemetry::enabled() {
                // analyze:allow(wall-clock) credit-stall telemetry, gated on the recorder; never read by merge logic
                stalled = Some(Instant::now());
            }
            s = self
                .cv
                .wait(s)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        };
        // analyze:release(enum.gate)
        drop(s);
        if let Some(t) = stalled {
            #[allow(clippy::cast_possible_truncation)]
            let ns = t.elapsed().as_nanos() as u64;
            hpl_telemetry::counter_add("enum.credit_stall_ns", ns);
            hpl_telemetry::record("enum.credit_stall", ns);
        }
        credited
    }

    /// Returns a consumed parked batch's credit to the pool.
    fn release(&self) {
        // analyze:acquire(enum.gate) analyze:release(enum.gate)
        self.lock().credits += 1;
        self.cv.notify_all();
    }

    /// Returns a consumed head batch's slot to the window. (After
    /// [`ReorderGate::shutdown`] uncredited batches bypassed the gate,
    /// so the counter may grow past the window — harmless, the run is
    /// tearing down and `open` short-circuits every admit.)
    fn release_head(&self) {
        // analyze:acquire(enum.gate) analyze:release(enum.gate)
        self.lock().head_slots += 1;
        self.cv.notify_all();
    }

    /// The merge is now splicing `task`: its batches take head slots
    /// rather than parked credits.
    fn set_head(&self, task: usize) {
        // analyze:acquire(enum.gate) analyze:release(enum.gate)
        self.lock().head = task;
        self.cv.notify_all();
    }

    /// Opens the gate unconditionally (abort or teardown) so blocked
    /// workers can drain and exit.
    fn shutdown(&self) {
        // analyze:acquire(enum.gate) analyze:release(enum.gate)
        self.lock().open = true;
        self.cv.notify_all();
    }
}

/// Undo data for one applied step: the stepping process's cached action
/// list and previous last event, plus the message a receive consumed.
struct Undo {
    actions: Vec<ProtoAction>,
    last: LocalId,
    received: Option<InFlight>,
}

/// An in-flight message during exploration, with the local id of its
/// send event (what a receive's [`DefKind::Recv`] names).
#[derive(Clone, Copy, Debug)]
struct InFlight {
    from: ProcessId,
    to: ProcessId,
    payload: u32,
    send: LocalId,
}

/// Node records an explorer has buffered since its last flush.
struct BatchBuf {
    nodes: Vec<NodeRec>,
    /// Partition-table entries already handed out by earlier flushes.
    defs_sent: usize,
    limit: usize,
}

impl BatchBuf {
    fn new(limit: usize) -> Self {
        BatchBuf {
            nodes: Vec::new(),
            defs_sent: 0,
            limit: limit.max(1),
        }
    }
}

/// Where an explorer's buffered records go: called with the
/// partition-table entries added since the previous flush and the
/// records, which the sink takes or clears.
type Sink<'s> = dyn FnMut(&[EventDef], &mut Vec<NodeRec>) + 's;

/// Protocol-side depth-first explorer with per-process action caching
/// and **partition-local event interning**: every event it touches gets
/// a dense id in its own table, allocated at first encounter, with no
/// cross-thread coordination. Global event ids appear only later, when
/// the merge renumbers the partition's table as its batches arrive.
///
/// The explorer sits at one node of the protocol tree: [`Explorer::goto`]
/// moves it to a leaf of a frontier, and [`Explorer::explore`] walks the
/// subtree below.
struct Explorer<'a, P: ?Sized> {
    protocol: &'a P,
    budget: &'a Budget,
    max_events: usize,
    views: Vec<LocalView>,
    in_flight: Vec<InFlight>,
    // cached enabled steps per process, recomputed only when that
    // process's view changes
    actions: Vec<Vec<ProtoAction>>,
    // the id partition: defs in first-encounter order plus the intern
    // table that makes re-visited edges reuse their id
    defs: Vec<EventDef>,
    intern: HashMap<(ProcessId, LocalId, DefKind), LocalId>,
    last_local: Vec<LocalId>,
    /// The steps from the root to the current node, with their undo data.
    path: Vec<(StepDesc, Undo)>,
}

impl<'a, P: Protocol + ?Sized> Explorer<'a, P> {
    fn new(protocol: &'a P, max_events: usize, budget: &'a Budget) -> Self {
        let n = protocol.system_size();
        let views = vec![LocalView::new(); n];
        let actions = (0..n)
            .map(|pi| protocol.actions(ProcessId::new(pi), &views[pi]))
            .collect();
        Explorer {
            protocol,
            budget,
            max_events,
            views,
            in_flight: Vec::new(),
            actions,
            defs: Vec::new(),
            intern: HashMap::new(),
            last_local: vec![NO_EVENT; n],
            path: Vec::new(),
        }
    }

    /// Interns the event "process `p` does `kind` after its current last
    /// event" into the partition table, allocating a fresh local id on
    /// first encounter.
    fn intern_local(&mut self, p: ProcessId, kind: DefKind) -> LocalId {
        let prev = self.last_local[p.index()];
        if let Some(&id) = self.intern.get(&(p, prev, kind)) {
            return id;
        }
        let id = LocalId::try_from(self.defs.len()).expect("partition fits u32");
        self.intern.insert((p, prev, kind), id);
        self.defs.push(EventDef { p, prev, kind });
        id
    }

    /// Applies one step, returning the undo data and the edge's
    /// partition-local event id.
    // always inlined (as is `undo`): at the exploration loop's call sites
    // the step kind is known, so the dispatch on it folds away
    #[inline(always)]
    fn apply(&mut self, step: StepDesc) -> (Undo, LocalId) {
        let (p, kind, local_step, received) = match step {
            StepDesc::Spont {
                p,
                action: ProtoAction::Send { to, payload },
            } => (
                p,
                DefKind::Send { to, payload },
                LocalStep::Sent { to, payload },
                None,
            ),
            StepDesc::Spont {
                p,
                action: ProtoAction::Internal { action },
            } => (
                p,
                DefKind::Internal { action },
                LocalStep::Did { action },
                None,
            ),
            StepDesc::Recv { slot } => {
                let entry = self.in_flight.remove(slot as usize);
                (
                    entry.to,
                    DefKind::Recv { send: entry.send },
                    LocalStep::Received {
                        from: entry.from,
                        payload: entry.payload,
                    },
                    Some(entry),
                )
            }
        };
        let local = self.intern_local(p, kind);
        if let DefKind::Send { to, payload } = kind {
            self.in_flight.push(InFlight {
                from: p,
                to,
                payload,
                send: local,
            });
        }
        let pi = p.index();
        self.views[pi].push_step(local_step);
        let last = std::mem::replace(&mut self.last_local[pi], local);
        let actions = std::mem::replace(
            &mut self.actions[pi],
            self.protocol.actions(p, &self.views[pi]),
        );
        (
            Undo {
                actions,
                last,
                received,
            },
            local,
        )
    }

    /// Reverts `step`, the most recently applied step.
    #[inline(always)]
    fn undo(&mut self, step: StepDesc, undo: Undo) {
        let p = match (step, undo.received) {
            (StepDesc::Spont { p, action }, _) => {
                if matches!(action, ProtoAction::Send { .. }) {
                    self.in_flight.pop();
                }
                p
            }
            (StepDesc::Recv { slot }, Some(entry)) => {
                self.in_flight.insert(slot as usize, entry);
                entry.to
            }
            (StepDesc::Recv { .. }, None) => unreachable!("a receive's undo holds its message"),
        };
        let pi = p.index();
        self.actions[pi] = undo.actions;
        self.last_local[pi] = undo.last;
        self.views[pi].pop_step();
    }

    /// Moves the explorer to the node `target` reaches from the root:
    /// undoes back to the longest common prefix with the current path and
    /// applies the rest. Visiting a frontier's leaves in pre-order costs
    /// the size of the frontier *tree* in total (each edge applied and
    /// undone once), not `leaves × depth`, and undo restores cached action
    /// lists without consulting the protocol.
    fn goto(&mut self, target: &[StepDesc]) {
        let common = self
            .path
            .iter()
            .zip(target)
            .take_while(|((step, _), t)| step == *t)
            .count();
        while self.path.len() > common {
            let (step, undo) = self.path.pop().expect("path non-empty");
            self.undo(step, undo);
        }
        for &step in &target[common..] {
            let (undo, _) = self.apply(step);
            self.path.push((step, undo));
        }
    }

    /// Explores the subtree below the current node (at `depth`) in
    /// pre-order, pushing one record per node into `buf` and handing
    /// every full buffer to `sink`. The caller flushes the final, partial
    /// buffer with [`Explorer::flush`].
    fn explore(&mut self, depth: usize, buf: &mut BatchBuf, sink: &mut Sink<'_>) -> Result<(), ()> {
        if depth >= self.max_events {
            return Ok(());
        }
        self.for_each_child(|ex, local| {
            ex.budget.charge()?;
            buf.nodes.push(NodeRec {
                depth: (depth + 1) as u32,
                local,
            });
            if buf.nodes.len() >= buf.limit {
                ex.flush(buf, sink);
            }
            ex.explore(depth + 1, buf, sink)
        })
    }

    /// Hands `sink` the buffered records together with the
    /// partition-table entries added since the previous flush (which the
    /// records may reference).
    fn flush(&self, buf: &mut BatchBuf, sink: &mut Sink<'_>) {
        sink(&self.defs[buf.defs_sent..], &mut buf.nodes);
        buf.defs_sent = self.defs.len();
    }

    /// Enumerates the children of the current node in the sequential
    /// engine's order — spontaneous steps by process, then receives by
    /// in-flight slot — applying/undoing state around each visit. The
    /// visit closure receives the edge's partition-local event id.
    fn for_each_child(
        &mut self,
        mut visit: impl FnMut(&mut Self, LocalId) -> Result<(), ()>,
    ) -> Result<(), ()> {
        for pi in 0..self.protocol.system_size() {
            let p = ProcessId::new(pi);
            // take the cached list out of its slot (leaving an empty vec)
            // so apply/undo can swap the slot while we iterate, without
            // cloning the list at every node
            let acts = std::mem::take(&mut self.actions[pi]);
            for &action in &acts {
                let step = StepDesc::Spont { p, action };
                let (undo, local) = self.apply(step);
                let r = visit(self, local);
                self.undo(step, undo);
                if r.is_err() {
                    self.actions[pi] = acts;
                    return Err(());
                }
            }
            self.actions[pi] = acts;
        }
        let mut slot = 0;
        while slot < self.in_flight.len() {
            let InFlight {
                from, to, payload, ..
            } = self.in_flight[slot];
            if self
                .protocol
                .accepts(to, &self.views[to.index()], from, payload)
            {
                let step = StepDesc::Recv { slot: slot as u32 };
                let (undo, local) = self.apply(step);
                let r = visit(self, local);
                self.undo(step, undo);
                r?;
            }
            slot += 1;
        }
        Ok(())
    }
}

/// The deterministic streaming merge: renumbers each id partition into
/// the single global event space at its splice point and replays node
/// records in sequential pre-order through a depth-truncated path stack,
/// building the universe through the trusted fast path (tree nodes are
/// unique and valid by construction).
struct Merger {
    space: EventSpace,
    universe: Universe,
    /// The path of the node being replayed, as global events.
    events: Vec<Event>,
    system_size: usize,
    mode: MergeMode,
    /// Pre-order journal of every node (frontier capture); `None` when
    /// not checkpointing.
    journal: Option<Vec<FrontierRec>>,
}

/// How the merge treats isomorphic computations.
enum MergeMode {
    /// Keep everything: byte-identical to the sequential engine.
    Exact,
    /// Symmetry quotient: collapse orbits under the protocol's
    /// automorphism group, tracking multiplicities (boxed: the state
    /// carries scratch buffers and dwarfs the other variant).
    Quotient(Box<QuotientState>),
}

impl Merger {
    fn new(system_size: usize, mode: MergeMode, checkpoint: bool) -> Self {
        Merger {
            space: EventSpace::default(),
            universe: Universe::new(system_size),
            events: Vec::new(),
            system_size,
            mode,
            journal: checkpoint.then(Vec::new),
        }
    }

    /// Renumbers a run of partition-table entries into the global event
    /// space, appending the assigned global ids to the partition's
    /// renumbering `map`. Entries reference only earlier entries of the
    /// same partition, so one forward pass suffices; re-interning an
    /// event another partition (or the prefix) already discovered
    /// returns its existing global id.
    fn renumber(&mut self, defs: &[EventDef], map: &mut Vec<EventId>) {
        for def in defs {
            let prev = (def.prev != NO_EVENT).then(|| map[def.prev as usize]);
            let key = match def.kind {
                DefKind::Send { to, payload } => StepKey::Send { to, payload },
                DefKind::Recv { send } => StepKey::Recv {
                    send_event: map[send as usize],
                },
                DefKind::Internal { action } => StepKey::Internal { action },
            };
            let e = self.space.intern(def.p, prev, key);
            map.push(e.id());
        }
    }

    /// The global event bound to `id`.
    fn event(&self, id: EventId) -> Event {
        self.space.events[id.index()]
    }

    /// Moves the replay head to a child of the node at `depth - 1`:
    /// truncates the path stack to the parent and pushes the edge event.
    /// The quotient follows along with the child's class key.
    fn descend(&mut self, depth: u32, e: Event) {
        self.events.truncate(depth as usize - 1);
        self.events.push(e);
        if let MergeMode::Quotient(q) = &mut self.mode {
            q.follow(&self.events);
        }
    }

    /// Replays one node record: descends to it along the (already
    /// renumbered) edge event and decides it.
    fn apply(&mut self, depth: u32, e: Event) {
        self.descend(depth, e);
        let kept = self.insert_current();
        self.journal_current(depth, e, kept);
    }

    /// Replays one pre-order record of a resumed frontier: path
    /// maintenance always; kept records re-enter the universe as
    /// previously-decided representatives via [`Merger::adopt_current`].
    /// Collapsed records still journal (a chained frontier needs the
    /// full tree) and still extend the path stack — exploration resumes
    /// below collapsed leaves too, exactly as a from-scratch run would
    /// explore them.
    fn replay_resumed(&mut self, depth: u32, e: Event, kept: bool, multiplicity: Option<u64>) {
        self.descend(depth, e);
        if kept {
            self.adopt_current(multiplicity);
        }
        self.journal_current(depth, e, kept);
    }

    /// Inserts the computation at the replay head as a
    /// previously-decided representative, skipping the quotient
    /// decision: no node explored past the frontier can collapse onto it
    /// (every such node is strictly longer, and class and orbit keys
    /// determine length), so re-deciding would only re-derive what the
    /// frontier already recorded. Quotient mode re-registers the
    /// representative's descriptors and adopts its captured multiplicity
    /// as final.
    fn adopt_current(&mut self, multiplicity: Option<u64>) {
        if let MergeMode::Quotient(q) = &mut self.mode {
            let payloads = &self.space.payloads;
            q.adopt_representative(
                &self.events,
                &mut |m| payloads.get(&m).copied().unwrap_or(0),
                multiplicity.unwrap_or(1),
            );
        }
        let c = Computation::from_events_trusted(self.system_size, self.events.clone());
        self.universe.insert_trusted(c);
    }

    fn journal_current(&mut self, depth: u32, e: Event, kept: bool) {
        if let Some(j) = &mut self.journal {
            #[allow(clippy::cast_possible_truncation)] // ids fit u32 (LocalId invariant)
            j.push(FrontierRec {
                depth,
                event: e.id().index() as u32,
                kept,
            });
        }
    }

    /// Grows the universe's tables toward the live explored count — in
    /// exact mode every explored node is kept, so the counter (which the
    /// workers race ahead of the merge) forecasts the final size and the
    /// id table stops rehashing early. The quotient keeps far fewer
    /// members than it explores, so the forecast would over-reserve.
    fn forecast(&mut self, explored: usize) {
        if matches!(self.mode, MergeMode::Exact) {
            self.universe.reserve_to(explored);
        }
    }

    /// Consumes one batch: renumbers its partition-table run, then
    /// replays its node records.
    fn consume(&mut self, defs: &[EventDef], nodes: &[NodeRec], map: &mut Vec<EventId>) {
        {
            let _renumber = hpl_telemetry::span("enum.renumber");
            self.renumber(defs, map);
        }
        for rec in nodes {
            let e = self.event(map[rec.local as usize]);
            self.apply(rec.depth, e);
        }
    }

    /// Inserts the computation at the replay head, unless the symmetry
    /// quotient finds a member of its orbit already present; returns
    /// whether the node was kept.
    fn insert_current(&mut self) -> bool {
        if let MergeMode::Quotient(q) = &mut self.mode {
            let payloads = &self.space.payloads;
            let decision = q.observe(&self.events, &mut |m| {
                payloads.get(&m).copied().unwrap_or(0)
            });
            if matches!(decision, OrbitDecision::Collapsed) {
                return false;
            }
        }
        let c = Computation::from_events_trusted(self.system_size, self.events.clone());
        self.universe.insert_trusted(c);
        true
    }

    /// Finalizes the run. `horizon` is the run's `max_events`, stamped
    /// into the captured [`Frontier`] (if checkpointing) as the depth of
    /// the leaf cut an extension resumes from.
    fn finish(mut self, horizon: usize) -> (ProtocolUniverse, Option<Orbits>, Option<Frontier>) {
        // snapshot the interning tables before the space is dismantled
        let checkpoint = self.journal.take().map(|records| {
            (
                records,
                self.space.events.clone(),
                self.space.payloads.clone(),
            )
        });
        let EventSpace {
            events, payloads, ..
        } = self.space;
        self.universe.register_events(events);
        // trusted insertions defer the generation bump; commit the final
        // state once so generation-keyed caches (ClassCache) see exactly
        // one state for the whole enumeration
        self.universe.commit_generation();
        let orbits = match self.mode {
            MergeMode::Quotient(q) => Some(q.into_orbits()),
            MergeMode::Exact => None,
        };
        let system_size = self.system_size;
        let universe = ProtocolUniverse::from_parts(self.universe, payloads);
        let frontier = checkpoint.map(|(records, events, payloads)| Frontier {
            system_size,
            depth: horizon,
            quotient: orbits.is_some(),
            generation: universe.universe().generation(),
            events,
            payloads,
            records,
            multiplicities: orbits
                .as_ref()
                .map(|o| o.multiplicities().to_vec())
                .unwrap_or_default(),
        });
        (universe, orbits, frontier)
    }
}

/// Live accounting of the streaming merge.
#[derive(Default)]
struct MergeMetrics {
    merge_wall: Duration,
    buffered_now: usize,
    peak_buffered: usize,
    largest_batch: usize,
    batches: usize,
}

impl MergeMetrics {
    /// Accounts a batch of `bytes` the moment it is about to be consumed.
    fn on_consume(&mut self, bytes: usize) {
        self.batches += 1;
        self.largest_batch = self.largest_batch.max(bytes);
        self.peak_buffered = self.peak_buffered.max(self.buffered_now + bytes);
        hpl_telemetry::counter_add("enum.batches", 1);
        hpl_telemetry::record("enum.batch_bytes", bytes as u64);
    }

    /// Accounts a batch parked in the reorder buffer (finished out of
    /// splice order).
    fn on_buffer(&mut self, batch: &TaskBatch) {
        self.buffered_now += batch.approx_bytes();
        self.peak_buffered = self.peak_buffered.max(self.buffered_now);
        if hpl_telemetry::enabled() {
            hpl_telemetry::record("enum.buffered_bytes", self.buffered_now as u64);
            hpl_telemetry::counter("enum.peak_buffered_bytes").max(self.peak_buffered as u64);
        }
    }

    fn on_unbuffer(&mut self, batch: &TaskBatch) {
        self.buffered_now -= batch.approx_bytes();
    }
}

#[allow(clippy::too_many_arguments)] // one call site; a worker is exactly this context
fn worker_loop<P: Protocol + ?Sized>(
    protocol: &P,
    max_events: usize,
    batch_nodes: usize,
    budget: &Budget,
    gate: &ReorderGate,
    queue: &Mutex<channel::Receiver<Task>>,
    pending: &AtomicUsize,
    results: &Sender<(usize, TaskBatch)>,
) {
    loop {
        // the queue guard is a statement temporary — dropped at the `;`,
        // before any enumeration work, and `try_recv` never blocks
        // analyze:acquire(enum.task_queue) analyze:release(enum.task_queue)
        let Some(task) = queue.lock().try_recv() else {
            return;
        };
        // work-queue depth as observed at each pull (telemetry only)
        let depth = pending.fetch_sub(1, Ordering::Relaxed).saturating_sub(1);
        hpl_telemetry::record("enum.queue_depth", depth as u64);
        let _explore = hpl_telemetry::span("enum.explore");
        let mut ex = Explorer::new(protocol, max_events, budget);
        ex.goto(&task.path);
        let ship = |defs: &[EventDef], nodes: &mut Vec<NodeRec>, last: bool| {
            // the reorder-buffer credit: blocks while the buffer is at
            // capacity and the merge is splicing another task
            // analyze:blocking(enum.gate)
            let credited = gate.admit(task.id);
            let batch = TaskBatch {
                defs: defs.to_vec(),
                nodes: std::mem::take(nodes),
                last,
                credited,
            };
            // the coordinator outlives the workers; a send failure means
            // the run is being torn down
            let _ = results.send((task.id, batch));
        };
        let mut buf = BatchBuf::new(batch_nodes);
        if ex
            .explore(task.path.len(), &mut buf, &mut |d, n| ship(d, n, false))
            .is_err()
        {
            // budget exhausted or sibling failure; the error is recorded.
            // Open the gate so siblings blocked on credits can drain and
            // observe the abort themselves.
            gate.shutdown();
            return;
        }
        ex.flush(&mut buf, &mut |d, n| ship(d, n, true));
    }
}

/// Splices one task's streamed batches into the merge: pulls from the
/// reorder buffer first, then the live result channel (parking batches
/// of other tasks), until the task's `last` batch has been consumed.
/// `Err` means the workers vanished without finishing — a budget abort.
#[allow(clippy::too_many_arguments)] // exactly the merge-side context
fn consume_task_batches(
    merger: &mut Merger,
    id: usize,
    metrics: &mut MergeMetrics,
    gate: &ReorderGate,
    res_rx: &channel::Receiver<(usize, TaskBatch)>,
    parked: &mut HashMap<usize, VecDeque<TaskBatch>>,
    task_map: &mut Vec<EventId>,
    budget: &Budget,
) -> Result<(), ()> {
    task_map.clear();
    gate.set_head(id);
    loop {
        let batch = match parked.get_mut(&id).and_then(VecDeque::pop_front) {
            Some(b) => {
                metrics.on_unbuffer(&b);
                b
            }
            None => loop {
                // analyze:blocking(enum.results)
                match res_rx.recv() {
                    Ok((t, b)) if t == id => break b,
                    Ok((t, b)) => {
                        metrics.on_buffer(&b);
                        parked.entry(t).or_default().push_back(b);
                    }
                    // workers gone without finishing: budget abort
                    Err(_) => return Err(()),
                }
            },
        };
        metrics.on_consume(batch.approx_bytes());
        if batch.credited {
            gate.release();
        } else {
            gate.release_head();
        }
        let last = batch.last;
        // analyze:allow(wall-clock) merge_wall metric; timing only, output-invariant
        let t = Instant::now();
        merger.forecast(budget.explored.load(Ordering::Relaxed));
        merger.consume(&batch.defs, &batch.nodes, task_map);
        metrics.merge_wall += t.elapsed();
        if last {
            return Ok(());
        }
    }
}

/// Enumerates every system computation of `protocol` (depth-bounded, like
/// [`enumerate`](crate::enumerate::enumerate)) using `config.shards`
/// worker threads, per-task id partitions and a streaming deterministic
/// merge. The tree down to the split depth is grown on the calling
/// thread from the empty frontier and checkpointed; that prefix frontier
/// is then extended to the horizon exactly as [`extend_sharded`] would,
/// with its leaves as the worker tasks.
///
/// Outside quotient mode the result is byte-identical to the sequential
/// engine for every shard count, split depth and batch size: same
/// computations, same `CompId` order, same event ids, same payload table.
///
/// # Example
///
/// ```
/// use hpl_core::{enumerate, enumerate_sharded, EnumerationLimits, ShardConfig};
/// use hpl_core::{LocalView, ProtoAction, Protocol};
/// use hpl_model::{ActionId, ProcessId};
///
/// /// Two processes, up to two internal steps each.
/// struct Clocks;
/// impl Protocol for Clocks {
///     fn system_size(&self) -> usize { 2 }
///     fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
///         if view.len() < 2 {
///             vec![ProtoAction::Internal { action: ActionId::new(view.len() as u32) }]
///         } else { vec![] }
///     }
/// }
///
/// let limits = EnumerationLimits::depth(4);
/// let seq = enumerate(&Clocks, limits)?;
/// let out = enumerate_sharded(&Clocks, limits, &ShardConfig::with_shards(2))?;
/// assert_eq!(out.universe.universe().len(), seq.universe().len());
/// // byte-identical: same computations under the same ids
/// for (id, c) in seq.universe().iter() {
///     assert_eq!(out.universe.universe().get(id), c);
/// }
/// assert_eq!(out.stats.explored, 19);
/// # Ok::<(), hpl_core::CoreError>(())
/// ```
///
/// # Errors
///
/// Returns [`CoreError::EnumerationBudgetExceeded`] if the tree exceeds
/// `limits.max_computations` nodes (counted before the quotient).
pub fn enumerate_sharded<P: Protocol + Sync + ?Sized>(
    protocol: &P,
    limits: EnumerationLimits,
    config: &ShardConfig,
) -> Result<ShardedEnumeration, CoreError> {
    // Default split: deep enough to produce many more tasks than shards
    // on branchy protocols, shallow enough that the prefix stays
    // negligible.
    let split = config.split_depth.unwrap_or(3).min(limits.max_events);
    let prefix = {
        let _prefix = hpl_telemetry::span("enum.prefix");
        let root = Frontier::root(protocol.system_size(), config.quotient);
        let on_caller = ShardConfig {
            shards: 1,
            checkpoint: true,
            ..*config
        };
        let prefix_limits = EnumerationLimits {
            max_events: split,
            ..limits
        };
        grow(protocol, &root, prefix_limits, &on_caller)?
    };
    let frontier = prefix.frontier.expect("checkpoint requested");
    let mut out = grow(protocol, &frontier, limits, config)?;
    out.stats.resumed = 0;
    out.stats.merge_wall_ms += prefix.stats.merge_wall_ms;
    out.stats.canonical_keys += prefix.stats.canonical_keys;
    out.growth = None;
    Ok(out)
}

/// The merge mode a config selects.
fn merge_mode<P: Protocol + ?Sized>(protocol: &P, config: &ShardConfig) -> MergeMode {
    if config.quotient {
        let group = protocol.symmetry();
        let elements = group.elements_for(protocol.system_size());
        let generators = group.generators_for(protocol.system_size());
        MergeMode::Quotient(Box::new(QuotientState::new(
            elements,
            generators,
            protocol.system_size(),
        )))
    } else {
        MergeMode::Exact
    }
}

/// Re-interns a frontier's events into a fresh global event space during
/// replay, memoized by old event id. An event's identity — its process,
/// its process-predecessor and its step key — is intrinsic to the event,
/// so interning each one at its **first pre-order edge encounter** (the
/// same position a from-scratch merge would intern it) reproduces the
/// producing run's event ids, message ids and payload table exactly.
struct Reinterner<'f> {
    frontier: &'f Frontier,
    /// Old event id → new-space event, filled at first encounter.
    renumbered: Vec<Option<Event>>,
    /// Message → old id of its send event (a receive names its peer by
    /// message; the send precedes every receive of it on every path).
    send_of: HashMap<MessageId, u32>,
}

impl<'f> Reinterner<'f> {
    fn new(frontier: &'f Frontier) -> Self {
        let mut send_of = HashMap::new();
        for (i, e) in frontier.events.iter().enumerate() {
            if let EventKind::Send { message, .. } = e.kind() {
                #[allow(clippy::cast_possible_truncation)] // ids fit u32
                send_of.insert(message, i as u32);
            }
        }
        Reinterner {
            frontier,
            renumbered: vec![None; frontier.events.len()],
            send_of,
        }
    }

    /// The new-space event for a replayed record's edge, interning on
    /// first encounter. Pre-order guarantees the record's parent path is
    /// exactly `merger.events[..depth-1]` when this is called (the merge
    /// stack still holds the previous record's path, which shares it).
    fn event(&mut self, merger: &mut Merger, rec: FrontierRec) -> Event {
        let idx = rec.event as usize;
        if let Some(e) = self.renumbered[idx] {
            return e;
        }
        let old = self.frontier.events[idx];
        let p = old.process();
        // the previous event of `p` along the parent path — intrinsic to
        // the event, recoverable from any path containing it as an edge
        let prev = merger.events[..rec.depth as usize - 1]
            .iter()
            .rev()
            .find(|e| e.process() == p)
            .map(|e| e.id());
        let key = match old.kind() {
            EventKind::Send { to, message } => StepKey::Send {
                to,
                payload: self.frontier.payloads[&message],
            },
            EventKind::Receive { message, .. } => {
                let send = self.renumbered[self.send_of[&message] as usize]
                    .expect("a send precedes every receive of its message in pre-order");
                StepKey::Recv {
                    send_event: send.id(),
                }
            }
            EventKind::Internal { action } => StepKey::Internal { action },
        };
        let e = merger.space.intern(p, prev, key);
        self.renumbered[idx] = Some(e);
        e
    }
}

/// The step paths (from the root) of a frontier's leaf cut: every
/// depth-`d` node of the journal, kept and collapsed alike — collapse
/// affects storage, not the tree, and a from-scratch run explores below
/// collapsed nodes too. At depth 0 the cut is the root itself.
fn leaf_step_paths(frontier: &Frontier) -> Vec<Vec<StepDesc>> {
    if frontier.depth == 0 {
        return vec![Vec::new()];
    }
    let mut paths = Vec::new();
    let mut stack: Vec<u32> = Vec::new(); // old event ids along the current path
    for rec in &frontier.records {
        stack.truncate(rec.depth as usize - 1);
        stack.push(rec.event);
        if rec.depth as usize == frontier.depth {
            paths.push(steps_of(frontier, &stack));
        }
    }
    paths
}

/// Converts an old-event path into the [`StepDesc`] replay language by
/// forward-simulating the in-flight message queue (which evolves
/// deterministically, so receive slots are recoverable).
fn steps_of(frontier: &Frontier, path: &[u32]) -> Vec<StepDesc> {
    let mut in_flight: Vec<MessageId> = Vec::new();
    let mut steps = Vec::with_capacity(path.len());
    for &idx in path {
        let e = frontier.events[idx as usize];
        let desc = match e.kind() {
            EventKind::Send { to, message } => {
                in_flight.push(message);
                StepDesc::Spont {
                    p: e.process(),
                    action: ProtoAction::Send {
                        to,
                        payload: frontier.payloads[&message],
                    },
                }
            }
            EventKind::Receive { message, .. } => {
                let slot = in_flight
                    .iter()
                    .position(|&m| m == message)
                    .expect("received messages are in flight");
                in_flight.remove(slot);
                #[allow(clippy::cast_possible_truncation)] // slots fit u32
                StepDesc::Recv { slot: slot as u32 }
            }
            EventKind::Internal { action } => StepDesc::Spont {
                p: e.process(),
                action: ProtoAction::Internal { action },
            },
        };
        steps.push(desc);
    }
    steps
}

/// Replays a frontier's journal through the merger — re-adopting kept
/// representatives, re-interning events in their original order and
/// collecting the [`GrowthMap`] — and, when `explore` is set, invokes
/// `run_leaf` at every leaf-cut node so new exploration splices in at
/// exactly the pre-order position a from-scratch run would reach it.
/// Every build, from scratch or from a checkpoint, runs through here.
fn drive(
    frontier: &Frontier,
    explore: bool,
    merger: &mut Merger,
    metrics: &mut MergeMetrics,
    growth: &mut Vec<u32>,
    mut run_leaf: impl FnMut(&mut Merger, usize, &mut MergeMetrics) -> Result<(), ()>,
) -> Result<(), ()> {
    let mut reintern = Reinterner::new(frontier);
    let mut mult = frontier.multiplicities.iter().copied();
    // the root (empty computation): always kept, orbit index 0
    merger.adopt_current(mult.next());
    growth.push(0);
    let leaf_depth = explore.then_some(frontier.depth);
    if leaf_depth == Some(0) {
        return run_leaf(merger, 0, metrics);
    }
    let mut leaf = 0usize;
    // `merge_wall` is timed per contiguous replay segment between leaf
    // calls, not per record — two clock reads per million-record replay
    // segment instead of two million
    // analyze:allow(wall-clock) replay-segment merge_wall metric; timing only
    let mut seg = Instant::now();
    for &rec in &frontier.records {
        let e = reintern.event(merger, rec);
        let multiplicity = if rec.kept { mult.next() } else { None };
        merger.replay_resumed(rec.depth, e, rec.kept, multiplicity);
        if rec.kept {
            #[allow(clippy::cast_possible_truncation)] // members fit u32 (CompId invariant)
            growth.push((merger.universe.len() - 1) as u32);
        }
        if leaf_depth == Some(rec.depth as usize) {
            metrics.merge_wall += seg.elapsed();
            run_leaf(merger, leaf, metrics)?;
            leaf += 1;
            // analyze:allow(wall-clock) replay-segment merge_wall metric; timing only
            seg = Instant::now();
        }
    }
    metrics.merge_wall += seg.elapsed();
    Ok(())
}

/// Grows `frontier` to the horizon `limits.max_events`: replays its
/// journal through a fresh merge and explores below its leaf cut, one
/// task per leaf. The caller has checked that the frontier fits the
/// protocol and the config's merge mode.
fn grow<P: Protocol + Sync + ?Sized>(
    protocol: &P,
    frontier: &Frontier,
    limits: EnumerationLimits,
    config: &ShardConfig,
) -> Result<ShardedEnumeration, CoreError> {
    let resumed = frontier.resumed_nodes();
    if resumed > limits.max_computations {
        return Err(CoreError::EnumerationBudgetExceeded {
            max_computations: limits.max_computations,
        });
    }
    let shards = config.shards.max(1);
    let budget = Budget::new(limits.max_computations);
    // the replayed tree is pre-charged: a from-scratch run counts every
    // one of these nodes, so `explored` stays comparable
    budget.explored.store(resumed, Ordering::Relaxed);

    let mut merger = Merger::new(
        protocol.system_size(),
        merge_mode(protocol, config),
        config.checkpoint,
    );
    let mut metrics = MergeMetrics::default();
    let mut growth: Vec<u32> = Vec::new();
    // a frontier already at the horizon has nothing below its leaves
    let leaf_paths = if frontier.depth < limits.max_events {
        leaf_step_paths(frontier)
    } else {
        Vec::new()
    };
    let tasks = leaf_paths.len();

    if shards == 1 || tasks <= 1 {
        // One shard: a single explorer visits the leaves in splice order
        // (moving between them with `goto`, not root replay) with one id
        // partition for the whole run, and every buffer it fills is
        // merged on the spot — renumbered in one pass and replayed from
        // the reused buffer, so nothing is parked or allocated per leaf.
        let mut ex = Explorer::new(protocol, limits.max_events, &budget);
        let mut buf = BatchBuf::new(config.batch_nodes);
        let mut map: Vec<EventId> = Vec::new();
        let _merge = hpl_telemetry::span("enum.merge");
        let _ = drive(
            frontier,
            tasks > 0,
            &mut merger,
            &mut metrics,
            &mut growth,
            |merger, leaf, metrics| {
                let _explore = hpl_telemetry::span("enum.explore");
                let path = &leaf_paths[leaf];
                ex.goto(path);
                let mut consume = |defs: &[EventDef], nodes: &mut Vec<NodeRec>| {
                    metrics.on_consume(batch_bytes(defs, nodes));
                    // analyze:allow(wall-clock) merge_wall metric; timing only, output-invariant
                    let t = Instant::now();
                    merger.forecast(budget.explored.load(Ordering::Relaxed));
                    merger.consume(defs, nodes, &mut map);
                    nodes.clear();
                    metrics.merge_wall += t.elapsed();
                };
                ex.explore(path.len(), &mut buf, &mut consume)?;
                ex.flush(&mut buf, &mut consume);
                Ok(())
            },
        );
    } else {
        // Several shards: the leaves are queued in splice order and the
        // worker pool explores them (each replaying its leaf path into a
        // fresh partition) while the merge interleaves replayed frontier
        // records with each task's streamed batches.
        let (task_tx, task_rx) = channel::unbounded();
        for (id, path) in leaf_paths.into_iter().enumerate() {
            task_tx.send(Task { id, path }).expect("receiver alive");
        }
        drop(task_tx);
        let pending = AtomicUsize::new(tasks);
        // the vendored crossbeam stand-in wraps std::sync::mpsc, whose
        // receiver is single-consumer — the mutex is what makes the
        // queue multi-consumer (real crossbeam receivers are MPMC and
        // would not need it)
        let queue = Mutex::new(task_rx);
        let gate = ReorderGate::new(config.max_buffered_batches);
        let (res_tx, res_rx) = channel::unbounded::<(usize, TaskBatch)>();
        std::thread::scope(|s| {
            for _ in 0..shards {
                let res_tx = res_tx.clone();
                let (queue, budget, gate, pending) = (&queue, &budget, &gate, &pending);
                s.spawn(move || {
                    worker_loop(
                        protocol,
                        limits.max_events,
                        config.batch_nodes,
                        budget,
                        gate,
                        queue,
                        pending,
                        &res_tx,
                    );
                });
            }
            drop(res_tx);
            let _merge = hpl_telemetry::span("enum.merge");
            // Reorder buffer: batches of tasks that finished ahead of
            // their splice point. This — not the node count — is the
            // merge's peak memory; every parked batch holds a gate
            // credit, so it never exceeds `max_buffered_batches`.
            let mut parked: HashMap<usize, VecDeque<TaskBatch>> = HashMap::new();
            let mut task_map: Vec<EventId> = Vec::new();
            let _ = drive(
                frontier,
                true,
                &mut merger,
                &mut metrics,
                &mut growth,
                |merger, leaf, metrics| {
                    consume_task_batches(
                        merger,
                        leaf,
                        metrics,
                        &gate,
                        &res_rx,
                        &mut parked,
                        &mut task_map,
                        &budget,
                    )
                },
            );
            // teardown: wake any worker still blocked on a credit
            // (normal completion leaves none; abort paths may)
            gate.shutdown();
        });
    }

    let explored = budget.explored.load(Ordering::Relaxed).min(budget.max);
    if let Some(e) = budget.into_error() {
        return Err(e);
    }

    let unique = merger.universe.len();
    let canonical_keys = match &merger.mode {
        MergeMode::Quotient(q) => q.canonical_keys(),
        MergeMode::Exact => 0,
    };
    let (universe, orbits, new_frontier) = merger.finish(limits.max_events);
    let growth_map = GrowthMap::new(
        frontier.generation,
        universe.universe().generation(),
        growth,
    );
    Ok(ShardedEnumeration {
        universe,
        stats: EnumerationStats {
            explored,
            resumed,
            unique,
            tasks,
            shards,
            group_order: orbits.as_ref().map_or(1, Orbits::group_order),
            canonical_keys,
            batches: metrics.batches,
            merge_wall_ms: metrics.merge_wall.as_secs_f64() * 1e3,
            peak_buffered_bytes: metrics.peak_buffered,
            largest_batch_bytes: metrics.largest_batch,
        },
        orbits,
        frontier: new_frontier,
        growth: Some(growth_map),
    })
}

/// Resumes a checkpointed enumeration from its [`Frontier`], exploring
/// only below the depth-`d` leaf cut (where `d` is the frontier's
/// horizon) up to the deeper horizon `limits.max_events`, and splicing
/// the new records into the existing id space.
///
/// The grown universe is **byte-identical** to a from-scratch
/// [`enumerate_sharded`] run at the deeper horizon — same `CompId`
/// order, event ids, payload table, orbit representatives and
/// multiplicities — for every shard count, split depth, batch size and
/// merge mode, because replayed events re-intern at their original
/// pre-order positions and new subtrees splice in at exactly the
/// pre-order slots a from-scratch merge would reach them. What an
/// extension never re-pays is the old tree's *decisions*: replayed
/// representatives re-enter the universe without class or orbit keys
/// (every newly explored node is strictly longer than every
/// frontier-era node, so their keys cannot collide), and orbit
/// multiplicities are adopted as captured instead of recanonicalizing
/// the old tree.
///
/// The result's [`ShardedEnumeration::growth`] maps every member of the
/// source universe to its id in the grown one. The grown universe has a
/// generation of its own, so a query service serves it by registering
/// it like any other (`hpl_runtime::QueryService::register`); with
/// [`ShardConfig::checkpoint`] set, a fresh frontier at the deeper
/// horizon is captured too, so growth chains (4 → 6 → 9 → …).
///
/// # Example
///
/// ```
/// use hpl_core::{enumerate_sharded, extend_sharded, EnumerationLimits, ShardConfig};
/// use hpl_core::{LocalView, ProtoAction, Protocol};
/// use hpl_model::{ActionId, ProcessId};
///
/// struct Clocks;
/// impl Protocol for Clocks {
///     fn system_size(&self) -> usize { 2 }
///     fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
///         if view.len() < 3 {
///             vec![ProtoAction::Internal { action: ActionId::new(view.len() as u32) }]
///         } else { vec![] }
///     }
/// }
///
/// let cfg = ShardConfig::with_shards(2).checkpoint();
/// let shallow = enumerate_sharded(&Clocks, EnumerationLimits::depth(4), &cfg)?;
/// let frontier = shallow.frontier.expect("checkpoint requested");
///
/// let grown = extend_sharded(&Clocks, &frontier, EnumerationLimits::depth(6), &cfg)?;
/// let scratch = enumerate_sharded(&Clocks, EnumerationLimits::depth(6), &cfg)?;
/// assert_eq!(grown.universe.universe().len(), scratch.universe.universe().len());
/// assert_eq!(grown.stats.explored, scratch.stats.explored);
/// assert!(grown.stats.resumed > 0);
/// // every old member kept its identity
/// let growth = grown.growth.expect("extensions report growth");
/// assert_eq!(growth.len(), shallow.universe.universe().len());
/// # Ok::<(), hpl_core::CoreError>(())
/// ```
///
/// # Errors
///
/// [`CoreError::FrontierMismatch`] if the frontier disagrees with the
/// protocol's system size or the config's quotient mode, or the
/// new horizon is shallower than the frontier's;
/// [`CoreError::EnumerationBudgetExceeded`] if replayed plus newly
/// explored nodes exceed `limits.max_computations`.
pub fn extend_sharded<P: Protocol + Sync + ?Sized>(
    protocol: &P,
    frontier: &Frontier,
    limits: EnumerationLimits,
    config: &ShardConfig,
) -> Result<ShardedEnumeration, CoreError> {
    let _extend = hpl_telemetry::span("enum.extend");
    let mismatch = |reason: String| CoreError::FrontierMismatch { reason };
    if frontier.system_size != protocol.system_size() {
        return Err(mismatch(format!(
            "frontier is over {} processes, the protocol over {}",
            frontier.system_size,
            protocol.system_size()
        )));
    }
    if frontier.quotient != config.quotient {
        return Err(mismatch(format!(
            "frontier was captured with quotient {}, the extension is configured with quotient {}",
            frontier.quotient, config.quotient
        )));
    }
    if limits.max_events < frontier.depth {
        return Err(mismatch(format!(
            "extension horizon {} is shallower than the frontier's {}",
            limits.max_events, frontier.depth
        )));
    }
    hpl_telemetry::counter_add("enum.extend.resumed", frontier.resumed_nodes() as u64);
    hpl_telemetry::counter_add("enum.extend.leaves", frontier.leaf_count() as u64);
    grow(protocol, frontier, limits, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::enumerate;

    /// Asserts the two universes are byte-identical: same computations in
    /// the same `CompId` order, same event bindings, same payload table.
    fn assert_identical(a: &ProtocolUniverse, b: &ProtocolUniverse) {
        assert_eq!(a.universe().len(), b.universe().len(), "universe size");
        for (id, ca) in a.universe().iter() {
            assert_eq!(ca, b.universe().get(id), "computation {id}");
        }
        for (id, ca) in a.universe().iter() {
            for e in ca.iter() {
                assert_eq!(
                    a.universe().event(e.id()),
                    b.universe().event(e.id()),
                    "event binding {:?} (computation {id})",
                    e.id()
                );
            }
        }
        assert_eq!(a.payload_table(), b.payload_table(), "payload table");
    }

    /// Two processes ping-ponging payloads, with an extra internal step —
    /// mixes sends, receives and internals.
    struct PingPong;
    impl Protocol for PingPong {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            let received = view.count_matching(|s| matches!(s, LocalStep::Received { .. }));
            let sent = view.count_matching(|s| matches!(s, LocalStep::Sent { .. }));
            match p.index() {
                0 if view.is_empty() => vec![
                    ProtoAction::Send {
                        to: ProcessId::new(1),
                        payload: 1,
                    },
                    ProtoAction::Internal {
                        action: ActionId::new(7),
                    },
                ],
                1 if received > sent => vec![ProtoAction::Send {
                    to: ProcessId::new(0),
                    payload: 2,
                }],
                _ => vec![],
            }
        }
    }

    /// Pure interleaving explosion: each process may take `k` internal
    /// steps.
    struct Clocks {
        n: usize,
        k: usize,
    }
    impl Protocol for Clocks {
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

    /// A picky receiver: accepts only even payloads.
    struct Picky;
    impl Protocol for Picky {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            if p.index() == 0 && view.len() < 2 {
                vec![
                    ProtoAction::Send {
                        to: ProcessId::new(1),
                        payload: view.len() as u32,
                    },
                    ProtoAction::Internal {
                        action: ActionId::new(0),
                    },
                ]
            } else {
                vec![]
            }
        }
        fn accepts(&self, _p: ProcessId, _v: &LocalView, _from: ProcessId, payload: u32) -> bool {
            payload.is_multiple_of(2)
        }
    }

    fn check_matches_sequential<P: Protocol + Sync>(p: &P, depth: usize) {
        let seq = enumerate(p, EnumerationLimits::depth(depth)).unwrap();
        for shards in [1, 2, 8] {
            for split in [0, 1, 3, depth] {
                for batch in [1usize, 5, DEFAULT_BATCH_NODES] {
                    let cfg = ShardConfig {
                        shards,
                        split_depth: Some(split),
                        ..ShardConfig::with_shards(shards)
                    }
                    .batch_nodes(batch);
                    let out = enumerate_sharded(p, EnumerationLimits::depth(depth), &cfg).unwrap();
                    assert_identical(&out.universe, &seq);
                    assert_eq!(out.stats.explored, seq.universe().len());
                    assert_eq!(out.stats.unique, seq.universe().len());
                    assert!((out.stats.reduction_factor() - 1.0).abs() < 1e-9);
                    assert!(out.stats.batches >= out.stats.tasks);
                }
            }
        }
    }

    #[test]
    fn matches_sequential_ping_pong() {
        check_matches_sequential(&PingPong, 5);
    }

    #[test]
    fn matches_sequential_clocks() {
        check_matches_sequential(&Clocks { n: 3, k: 2 }, 6);
    }

    #[test]
    fn matches_sequential_picky_accepts() {
        check_matches_sequential(&Picky, 4);
    }

    #[test]
    fn single_shard_streams_without_buffering() {
        // with one shard every batch is merged the moment it is produced:
        // the reorder buffer never holds anything, so the observed peak
        // equals the largest single batch.
        let cfg = ShardConfig::with_shards(1).batch_nodes(4);
        let out =
            enumerate_sharded(&Clocks { n: 3, k: 2 }, EnumerationLimits::depth(6), &cfg).unwrap();
        assert!(out.stats.batches >= out.stats.tasks);
        assert_eq!(out.stats.peak_buffered_bytes, out.stats.largest_batch_bytes);
        assert!(out.stats.merge_wall_ms >= 0.0);
    }

    #[test]
    fn extensions_count_a_batch_per_leaf() {
        // an extension's leaves are its tasks, and every leaf's records
        // reach the merge as at least one batch — at one shard, where
        // they are merged the moment they are explored, too
        let p = SymmetricClocks { n: 3, k: 3 };
        for shards in [1usize, 2] {
            let cfg = ShardConfig::with_shards(shards).checkpoint().quotient();
            let base = enumerate_sharded(&p, EnumerationLimits::depth(3), &cfg).unwrap();
            let grown = extend_sharded(
                &p,
                base.frontier.as_ref().unwrap(),
                EnumerationLimits::depth(5),
                &cfg,
            )
            .unwrap();
            let stats = grown.stats;
            assert!(stats.tasks > 1, "{shards} shards: {} tasks", stats.tasks);
            assert!(
                stats.batches >= stats.tasks,
                "{shards} shards: {} batches for {} tasks",
                stats.batches,
                stats.tasks
            );
            if shards == 1 {
                assert_eq!(stats.peak_buffered_bytes, stats.largest_batch_bytes);
                assert!(stats.largest_batch_bytes > 0);
            }
        }
    }

    #[test]
    fn tiny_batches_bound_the_largest_batch() {
        // batch_nodes = 1 caps every batch at one node record (plus the
        // partition-table entries it introduces).
        let one = ShardConfig::with_shards(2).batch_nodes(1);
        let big = ShardConfig::with_shards(2);
        let limits = EnumerationLimits::depth(6);
        let small = enumerate_sharded(&Clocks { n: 3, k: 2 }, limits, &one).unwrap();
        let large = enumerate_sharded(&Clocks { n: 3, k: 2 }, limits, &big).unwrap();
        assert_identical(&small.universe, &large.universe);
        assert!(small.stats.batches > large.stats.batches);
        assert!(small.stats.largest_batch_bytes <= large.stats.largest_batch_bytes);
    }

    #[test]
    fn dedupe_collapses_interleavings() {
        // Clocks is pure interleaving and declares no symmetry, so its
        // quotient is the [D]-collapse: the set of per-process
        // step-count vectors. For n=2, k=2 that is 3×3 = 9 members
        // versus 19 interleavings.
        let cfg = ShardConfig::with_shards(2).quotient();
        let out =
            enumerate_sharded(&Clocks { n: 2, k: 2 }, EnumerationLimits::depth(4), &cfg).unwrap();
        assert_eq!(out.stats.explored, 19);
        assert_eq!(out.stats.unique, 9);
        assert_eq!(out.stats.group_order, 1);
        assert_eq!(out.universe.universe().len(), 9);
        assert_eq!(out.orbits.as_ref().unwrap().full_size(), 19);
        assert!(out.stats.reduction_factor() > 2.0);
        // every member is the canonical representative of its class: no
        // two members share per-process projections
        let u = out.universe.universe();
        for (i, x) in u.iter() {
            for (j, y) in u.iter() {
                if i != j {
                    assert!(
                        !(x.agrees_on(y, hpl_model::ProcessSet::full(2))),
                        "{i} and {j} are [D]-isomorphic duplicates"
                    );
                }
            }
        }
    }

    /// Fully symmetric clocks under S_n: the quotient keeps one
    /// representative per multiset of per-process step counts.
    struct SymmetricClocks {
        n: usize,
        k: usize,
    }
    impl Protocol for SymmetricClocks {
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
        fn symmetry(&self) -> hpl_model::SymmetryGroup {
            hpl_model::SymmetryGroup::Full { n: self.n }
        }
    }

    #[test]
    fn quotient_collapses_orbits_with_multiplicities() {
        // n=2, k=2, depth 4: 19 interleavings; the [D]-collapse keeps the 9
        // count vectors (a,b); the S_2 quotient keeps the 6 multisets
        // {a,b} with a ≤ b ≤ 2.
        let cfg = ShardConfig::with_shards(2).quotient();
        let out = enumerate_sharded(
            &SymmetricClocks { n: 2, k: 2 },
            EnumerationLimits::depth(4),
            &cfg,
        )
        .unwrap();
        assert_eq!(out.stats.explored, 19);
        assert_eq!(out.stats.unique, 6);
        assert_eq!(out.stats.group_order, 2);
        let orbits = out.orbits.expect("quotient mode attaches orbits");
        assert_eq!(orbits.orbit_count(), 6);
        assert_eq!(orbits.full_size(), 19, "multiplicities cover the tree");
        assert!((out.stats.reduction_factor() - 19.0 / 6.0).abs() < 1e-9);
        // diagonal orbits (a == b) have the binomial multiplicity, off-
        // diagonal ones twice that (both relabelings): e.g. {1,1} → 2
        // interleavings, {0,1} → 2 members (one event on either process).
        let u = out.universe.universe();
        for (id, c) in u.iter() {
            let mult = orbits.multiplicity(id);
            assert!(mult >= 1);
            if c.is_empty() {
                assert_eq!(mult, 1);
            }
        }
    }

    #[test]
    fn quotient_is_deterministic_across_shard_counts_and_batches() {
        let mut reference: Option<(Vec<Vec<u64>>, Vec<u64>)> = None;
        for (shards, batch) in [(1usize, 1usize), (1, 64), (2, 1), (2, 64), (8, 7)] {
            let cfg = ShardConfig::with_shards(shards)
                .quotient()
                .batch_nodes(batch);
            let out = enumerate_sharded(
                &SymmetricClocks { n: 3, k: 2 },
                EnumerationLimits::depth(6),
                &cfg,
            )
            .unwrap();
            let ids: Vec<Vec<u64>> = out
                .universe
                .universe()
                .iter()
                .map(|(_, c)| c.iter().map(|e| e.id().index() as u64).collect())
                .collect();
            let mults: Vec<u64> = out
                .universe
                .universe()
                .ids()
                .map(|i| out.orbits.as_ref().unwrap().multiplicity(i))
                .collect();
            match &reference {
                None => reference = Some((ids, mults)),
                Some((rids, rmults)) => {
                    assert_eq!(&ids, rids, "{shards} shards: same representatives");
                    assert_eq!(&mults, rmults, "{shards} shards: same multiplicities");
                }
            }
        }
    }

    #[test]
    fn budget_guard_trips_across_shards() {
        for shards in [1, 4] {
            for batch in [1usize, DEFAULT_BATCH_NODES] {
                let cfg = ShardConfig {
                    split_depth: Some(1),
                    ..ShardConfig::with_shards(shards)
                }
                .batch_nodes(batch);
                let err = enumerate_sharded(
                    &Clocks { n: 2, k: 3 },
                    EnumerationLimits {
                        max_events: 6,
                        max_computations: 10,
                    },
                    &cfg,
                )
                .unwrap_err();
                assert!(matches!(err, CoreError::EnumerationBudgetExceeded { .. }));
            }
        }
    }

    /// Adversarial reorder-buffer schedule: the worker that pulls the
    /// first (splice-order head) task stalls, while the other worker
    /// races through the many later tasks. Without the credit gate the
    /// merge would park every one of those batches; with it, parked
    /// batches can never exceed `max_buffered_batches`.
    struct SlowFirstWorker {
        n: usize,
        k: usize,
        main: std::thread::ThreadId,
        stalled: AtomicBool,
    }

    impl SlowFirstWorker {
        fn new(n: usize, k: usize) -> Self {
            SlowFirstWorker {
                n,
                k,
                main: std::thread::current().id(),
                stalled: AtomicBool::new(false),
            }
        }
    }

    impl Protocol for SlowFirstWorker {
        fn system_size(&self) -> usize {
            self.n
        }
        fn actions(&self, _p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
            // the first worker-thread call stalls: tasks are pulled in
            // splice order, so with high probability this is the worker
            // replaying task 0 — the exact schedule that used to grow
            // the reorder buffer without bound. (The *assertions* below
            // are schedule-independent; the stall only makes the
            // adversarial case the one actually exercised.)
            if std::thread::current().id() != self.main
                && !self.stalled.swap(true, Ordering::Relaxed)
            {
                std::thread::sleep(Duration::from_millis(40));
            }
            if view.len() < self.k {
                vec![ProtoAction::Internal {
                    action: ActionId::new(view.len() as u32),
                }]
            } else {
                vec![]
            }
        }
    }

    #[test]
    fn reorder_buffer_is_hard_bounded_under_adversarial_schedule() {
        let protocol = SlowFirstWorker::new(3, 3);
        let limits = EnumerationLimits::depth(8);
        let cap = 2usize;
        let cfg = ShardConfig {
            split_depth: Some(2),
            ..ShardConfig::with_shards(2)
        }
        .batch_nodes(8)
        .max_buffered_batches(cap);
        let out = enumerate_sharded(&protocol, limits, &cfg).unwrap();
        // the hard bound: parked batches ≤ cap, each at most the largest
        // batch, plus the batch being consumed
        assert!(
            out.stats.peak_buffered_bytes <= (cap + 1) * out.stats.largest_batch_bytes,
            "reorder buffer exceeded its credit cap: peak {} > ({cap} + 1) × {}",
            out.stats.peak_buffered_bytes,
            out.stats.largest_batch_bytes
        );
        // enough streamed batches that an unbounded buffer could have
        // grown far past the cap — the schedule is genuinely adversarial
        assert!(out.stats.batches > 3 * cap, "{} batches", out.stats.batches);
        // and the credit gate changes scheduling only, never output
        let seq = enumerate(&SlowFirstWorker::new(3, 3), limits).unwrap();
        assert_identical(&out.universe, &seq);
    }

    #[test]
    fn budget_abort_releases_credit_blocked_workers() {
        // the gate must not deadlock the scope join when the budget
        // trips while workers wait on credits
        let protocol = Clocks { n: 3, k: 3 };
        let cfg = ShardConfig {
            split_depth: Some(1),
            ..ShardConfig::with_shards(4)
        }
        .batch_nodes(1)
        .max_buffered_batches(1);
        let err = enumerate_sharded(
            &protocol,
            EnumerationLimits {
                max_events: 9,
                max_computations: 50,
            },
            &cfg,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::EnumerationBudgetExceeded { .. }));
    }

    #[test]
    fn default_config_is_usable() {
        let out = enumerate_sharded(
            &PingPong,
            EnumerationLimits::depth(4),
            &ShardConfig::default(),
        )
        .unwrap();
        assert!(out.stats.shards >= 1);
        let quo = ShardConfig::with_shards(2).quotient();
        assert!(quo.quotient);
        assert_eq!(quo.shards, 2);
        assert_eq!(quo.batch_nodes, DEFAULT_BATCH_NODES);
        // the knobs clamp to at least one node per batch / parked batch
        assert_eq!(ShardConfig::with_shards(1).batch_nodes(0).batch_nodes, 1);
        assert_eq!(
            ShardConfig::with_shards(1)
                .max_buffered_batches(0)
                .max_buffered_batches,
            1
        );
        assert_eq!(
            ShardConfig::default().max_buffered_batches,
            DEFAULT_MAX_BUFFERED_BATCHES
        );
    }

    #[test]
    fn stats_report_tasks() {
        let cfg = ShardConfig {
            split_depth: Some(1),
            ..ShardConfig::with_shards(2)
        };
        let out =
            enumerate_sharded(&Clocks { n: 2, k: 2 }, EnumerationLimits::depth(4), &cfg).unwrap();
        // frontier at depth 1: one internal step per process → 2 tasks
        assert_eq!(out.stats.tasks, 2);
        assert_eq!(out.stats.shards, 2);
    }

    /// Asserts quotient structure matches: same representative event-id
    /// sequences, same multiplicities in `CompId` order.
    fn assert_same_orbits(a: &ShardedEnumeration, b: &ShardedEnumeration) {
        let project = |out: &ShardedEnumeration| -> (Vec<Vec<u64>>, Vec<u64>) {
            let ids = out
                .universe
                .universe()
                .iter()
                .map(|(_, c)| c.iter().map(|e| e.id().index() as u64).collect())
                .collect();
            let mults = out
                .universe
                .universe()
                .ids()
                .map(|i| out.orbits.as_ref().unwrap().multiplicity(i))
                .collect();
            (ids, mults)
        };
        assert_eq!(project(a), project(b), "orbit structure");
    }

    /// The step structure of a computation, independent of global event
    /// ids (which the deeper horizon may legitimately reassign — new
    /// events below early leaves intern before later old events' first
    /// encounters, exactly as a from-scratch run at that horizon would).
    fn shape(pu: &ProtocolUniverse, c: &hpl_model::Computation) -> Vec<(usize, usize, u32)> {
        c.iter()
            .map(|e| match e.kind() {
                hpl_model::EventKind::Send { to, message } => (
                    e.process().index(),
                    to.index(),
                    pu.payload_of(message).unwrap(),
                ),
                hpl_model::EventKind::Receive { from, message } => (
                    e.process().index() + 1000,
                    from.index(),
                    pu.payload_of(message).unwrap(),
                ),
                hpl_model::EventKind::Internal { action } => {
                    (e.process().index() + 2000, 0, action.tag())
                }
            })
            .collect()
    }

    /// The growth contract, end to end: the map covers the whole source
    /// universe in order, and every old member reappears at its mapped id
    /// with the same step structure (global event ids may shift — the
    /// grown space is the *deeper* horizon's id space).
    fn assert_growth_faithful(old: &ProtocolUniverse, out: &ShardedEnumeration) {
        let growth = out.growth.as_ref().expect("extensions report growth");
        assert_eq!(growth.len(), old.universe().len(), "map covers the source");
        assert_eq!(growth.to_generation(), out.universe.universe().generation());
        let mut prev: Option<u32> = None;
        for (old_id, new_id) in growth.iter() {
            assert_eq!(
                shape(old, old.universe().get(old_id)),
                shape(&out.universe, out.universe.universe().get(new_id)),
                "member {old_id} changed structure at {new_id}"
            );
            let raw = new_id.index() as u32;
            assert!(prev.is_none_or(|p| p < raw), "map preserves member order");
            prev = Some(raw);
        }
    }

    fn extend_configs(shards: usize) -> [ShardConfig; 2] {
        [
            ShardConfig::with_shards(shards).checkpoint(),
            ShardConfig::with_shards(shards).checkpoint().quotient(),
        ]
    }

    #[test]
    fn extend_matches_scratch_across_shards_and_modes() {
        let p = SymmetricClocks { n: 2, k: 3 };
        for shards in [1usize, 2, 8] {
            for cfg in extend_configs(shards) {
                let shallow = enumerate_sharded(&p, EnumerationLimits::depth(3), &cfg).unwrap();
                let frontier = shallow.frontier.as_ref().expect("checkpoint requested");
                assert_eq!(frontier.resumed_nodes(), shallow.stats.explored);

                let grown =
                    extend_sharded(&p, frontier, EnumerationLimits::depth(6), &cfg).unwrap();
                let scratch = enumerate_sharded(&p, EnumerationLimits::depth(6), &cfg).unwrap();
                assert_identical(&grown.universe, &scratch.universe);
                assert_eq!(grown.stats.explored, scratch.stats.explored, "tree size");
                assert_eq!(grown.stats.resumed, shallow.stats.explored);
                if cfg.quotient {
                    assert_same_orbits(&grown, &scratch);
                }
                assert_growth_faithful(&shallow.universe, &grown);
            }
        }
    }

    #[test]
    fn extend_matches_scratch_with_messages() {
        // PingPong mixes sends, receives and internals, so the replay
        // exercises message re-interning and receive-slot recovery.
        for shards in [1usize, 2] {
            for cfg in extend_configs(shards) {
                let shallow =
                    enumerate_sharded(&PingPong, EnumerationLimits::depth(3), &cfg).unwrap();
                let grown = extend_sharded(
                    &PingPong,
                    shallow.frontier.as_ref().unwrap(),
                    EnumerationLimits::depth(6),
                    &cfg,
                )
                .unwrap();
                let scratch =
                    enumerate_sharded(&PingPong, EnumerationLimits::depth(6), &cfg).unwrap();
                assert_identical(&grown.universe, &scratch.universe);
                assert_growth_faithful(&shallow.universe, &grown);
            }
        }
    }

    #[test]
    fn growth_chains_across_three_horizons() {
        // 2 → 4 → 6: each extension re-checkpoints, and the end state is
        // byte-identical to enumerating depth 6 from scratch.
        let p = SymmetricClocks { n: 3, k: 2 };
        for cfg in extend_configs(2) {
            let d2 = enumerate_sharded(&p, EnumerationLimits::depth(2), &cfg).unwrap();
            let d4 = extend_sharded(
                &p,
                d2.frontier.as_ref().unwrap(),
                EnumerationLimits::depth(4),
                &cfg,
            )
            .unwrap();
            assert_growth_faithful(&d2.universe, &d4);
            let d6 = extend_sharded(
                &p,
                d4.frontier.as_ref().unwrap(),
                EnumerationLimits::depth(6),
                &cfg,
            )
            .unwrap();
            assert_growth_faithful(&d4.universe, &d6);
            let scratch = enumerate_sharded(&p, EnumerationLimits::depth(6), &cfg).unwrap();
            assert_identical(&d6.universe, &scratch.universe);
            assert_eq!(d6.stats.explored, scratch.stats.explored);
            if cfg.quotient {
                assert_same_orbits(&d6, &scratch);
            }
        }
    }

    #[test]
    fn extension_at_same_horizon_is_identity() {
        let cfg = ShardConfig::with_shards(2).checkpoint().quotient();
        let base = enumerate_sharded(
            &SymmetricClocks { n: 2, k: 2 },
            EnumerationLimits::depth(4),
            &cfg,
        )
        .unwrap();
        let same = extend_sharded(
            &SymmetricClocks { n: 2, k: 2 },
            base.frontier.as_ref().unwrap(),
            EnumerationLimits::depth(4),
            &cfg,
        )
        .unwrap();
        assert_identical(&same.universe, &base.universe);
        assert_eq!(
            same.stats.resumed, same.stats.explored,
            "nothing re-explored"
        );
        assert_same_orbits(&same, &base);
    }

    #[test]
    fn extend_rejects_mismatched_frontiers() {
        let ck = ShardConfig::with_shards(1).checkpoint();
        let base =
            enumerate_sharded(&Clocks { n: 2, k: 2 }, EnumerationLimits::depth(4), &ck).unwrap();
        let frontier = base.frontier.unwrap();
        // wrong mode
        let err = extend_sharded(
            &Clocks { n: 2, k: 2 },
            &frontier,
            EnumerationLimits::depth(6),
            &ShardConfig::with_shards(1).quotient(),
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FrontierMismatch { .. }), "{err}");
        // shallower horizon
        let err = extend_sharded(
            &Clocks { n: 2, k: 2 },
            &frontier,
            EnumerationLimits::depth(3),
            &ck,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FrontierMismatch { .. }), "{err}");
        // wrong system size
        let err = extend_sharded(
            &Clocks { n: 3, k: 2 },
            &frontier,
            EnumerationLimits::depth(6),
            &ck,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::FrontierMismatch { .. }), "{err}");
    }

    #[test]
    fn extend_budget_guard_trips() {
        let ck = ShardConfig::with_shards(1).checkpoint();
        let base =
            enumerate_sharded(&Clocks { n: 2, k: 3 }, EnumerationLimits::depth(3), &ck).unwrap();
        let frontier = base.frontier.unwrap();
        // budget below the replayed tree: rejected before any work
        let err = extend_sharded(
            &Clocks { n: 2, k: 3 },
            &frontier,
            EnumerationLimits {
                max_events: 6,
                max_computations: frontier.resumed_nodes() - 1,
            },
            &ck,
        )
        .unwrap_err();
        assert!(matches!(err, CoreError::EnumerationBudgetExceeded { .. }));
        // budget covering the replay but not the growth: trips mid-run,
        // across shard counts
        for shards in [1usize, 4] {
            let cfg = ShardConfig::with_shards(shards).checkpoint();
            let err = extend_sharded(
                &Clocks { n: 2, k: 3 },
                &frontier,
                EnumerationLimits {
                    max_events: 6,
                    max_computations: frontier.resumed_nodes() + 3,
                },
                &cfg,
            )
            .unwrap_err();
            assert!(matches!(err, CoreError::EnumerationBudgetExceeded { .. }));
        }
    }

    #[test]
    fn frontier_reports_its_shape() {
        let cfg = ShardConfig::with_shards(1).checkpoint();
        let out =
            enumerate_sharded(&Clocks { n: 2, k: 2 }, EnumerationLimits::depth(2), &cfg).unwrap();
        let f = out.frontier.unwrap();
        assert_eq!(f.depth(), 2);
        assert_eq!(f.generation(), out.universe.universe().generation());
        assert_eq!(f.resumed_nodes(), out.stats.explored);
        // depth-2 cut of two clocks: (2,0), (1,1), (1,1), (0,2) → 4 leaves
        assert_eq!(f.leaf_count(), 4);
        // without the flag, no frontier is captured
        let plain = enumerate_sharded(
            &Clocks { n: 2, k: 2 },
            EnumerationLimits::depth(2),
            &ShardConfig::with_shards(1),
        )
        .unwrap();
        assert!(plain.frontier.is_none());
        assert!(plain.growth.is_none());
    }

    #[test]
    fn generation_committed_once_per_enumeration() {
        // trusted insertions defer the generation bump; two enumerations
        // of the same protocol still get distinct generations, so
        // generation-keyed caches cannot alias different universes.
        let limits = EnumerationLimits::depth(4);
        let cfg = ShardConfig::with_shards(2);
        let a = enumerate_sharded(&PingPong, limits, &cfg).unwrap();
        let b = enumerate_sharded(&PingPong, limits, &cfg).unwrap();
        assert_ne!(
            a.universe.universe().generation(),
            b.universe.universe().generation()
        );
    }
}
