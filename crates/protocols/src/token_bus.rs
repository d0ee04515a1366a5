//! The token bus of §4.1.
//!
//! > "Consider a token bus which is a linear sequence of processes among
//! > which a token is passed back and forth; processes at the left or
//! > right boundary have only a right or left neighbor to whom they may
//! > pass the token; other processes may send it to either neighbor.
//! > There is only one token in the system and initially it is at the
//! > leftmost process. Consider a token bus with five processes labelled
//! > p, q, r, s, t from left to right. When r holds the token,
//! > `r knows ((q knows (p does not hold the token)) and (s knows (t
//! > does not hold the token)))`."
//!
//! [`TokenBus`] is the exhaustive [`Protocol`]; [`holds_token`] the local
//! predicate; [`paper_formula`] the exact nested-knowledge formula; and
//! [`verify_paper_claim`] the end-to-end check used by the test suite,
//! the `token_bus` example and the `repro` report.

use hpl_core::{
    enumerate, CoreError, EnumerationLimits, Evaluator, Formula, Interpretation, LocalStep,
    LocalView, ProtoAction, Protocol, ProtocolUniverse,
};
use hpl_model::{ActionId, Computation, ProcessId, ProcessSet, SymmetryGroup};

/// Payload tag carried by the token message.
pub const TOKEN: u32 = 1;

/// Base action tag of the chatter alphabet: the `k`-th local work step of
/// a process is `CHATTER_BASE + k` (see [`TokenBus::with_chatter`]).
pub const CHATTER_BASE: u32 = 900;

/// A token bus over `n ≥ 2` processes in a line, token starting at the
/// leftmost process.
///
/// With a non-zero *chatter* budget every process additionally performs
/// up to `chatter` local work steps (a richer action alphabet: step `k`
/// carries action tag `CHATTER_BASE + k`), independent of the token.
/// Chatter interleaves freely with token passing, so depth-14 universes
/// grow far past the paper's toy sizes — the §5-scale workload — while
/// every knowledge fact about the token is untouched (chatter is
/// invisible to [`holds_token`]).
#[derive(Clone, Copy, Debug)]
pub struct TokenBus {
    n: usize,
    chatter: usize,
}

impl TokenBus {
    /// Creates a token bus of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        TokenBus::with_chatter(n, 0)
    }

    /// Creates a token bus of `n` processes where each process may also
    /// take up to `chatter` local work steps.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_chatter(n: usize, chatter: usize) -> Self {
        assert!(n >= 2, "a token bus needs at least two processes");
        TokenBus { n, chatter }
    }

    /// Does `p` currently hold the token, judged from its local view?
    /// The leftmost process starts with it; afterwards a process holds
    /// iff it has received the token more recently than it sent it.
    #[must_use]
    pub fn view_holds(&self, p: ProcessId, view: &LocalView) -> bool {
        let received = view.count_matching(|s| matches!(s, LocalStep::Received { .. }));
        let sent = view.count_matching(|s| matches!(s, LocalStep::Sent { .. }));
        if p.index() == 0 {
            sent <= received
        } else {
            received > sent
        }
    }
}

impl Protocol for TokenBus {
    fn system_size(&self) -> usize {
        self.n
    }

    fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        let i = p.index();
        let mut out = Vec::new();
        if self.view_holds(p, view) {
            if i > 0 {
                out.push(ProtoAction::Send {
                    to: ProcessId::new(i - 1),
                    payload: TOKEN,
                });
            }
            if i + 1 < self.n {
                out.push(ProtoAction::Send {
                    to: ProcessId::new(i + 1),
                    payload: TOKEN,
                });
            }
        }
        let done = view.count_matching(|s| matches!(s, LocalStep::Did { .. }));
        if done < self.chatter {
            out.push(ProtoAction::Internal {
                action: ActionId::new(CHATTER_BASE + done as u32),
            });
        }
        out
    }

    /// The bus is **asymmetric**: the token starts at the distinguished
    /// leftmost process, so even the line reversal `i ↦ n−1−i` fails to
    /// be an automorphism (it would move the initial token to the right
    /// boundary). Only the trivial group is sound — quotient mode over a
    /// token bus collapses interleavings, not relabelings.
    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::Trivial
    }
}

/// The token *star*: the line topology widened to a complete graph, so
/// the holder may hand the token to **any** other process. The token
/// still starts at `p0`, and the same optional chatter alphabet applies.
///
/// Unlike the line bus, the star is symmetric in every process *except*
/// the initial holder: relabeling the non-initial processes maps the
/// protocol onto itself, so the declared automorphism group is
/// [`SymmetryGroup::fixing`]`(n, 0)` — order `(n−1)!`. This is the
/// token-family workload for symmetry-quotient enumeration: on top of
/// the interleaving collapse, every computation's `(n−1)!` relabeled
/// variants collapse onto one orbit representative.
#[derive(Clone, Copy, Debug)]
pub struct BroadcastBus {
    n: usize,
    chatter: usize,
}

impl BroadcastBus {
    /// Creates a token star of `n` processes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        BroadcastBus::with_chatter(n, 0)
    }

    /// Creates a token star of `n` processes where each process may also
    /// take up to `chatter` local work steps (see
    /// [`TokenBus::with_chatter`]).
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    #[must_use]
    pub fn with_chatter(n: usize, chatter: usize) -> Self {
        assert!(n >= 2, "a token star needs at least two processes");
        BroadcastBus { n, chatter }
    }

    /// Does `p` currently hold the token, judged from its local view?
    /// Same holder rule as the line bus: `p0` starts with it.
    #[must_use]
    pub fn view_holds(&self, p: ProcessId, view: &LocalView) -> bool {
        let received = view.count_matching(|s| matches!(s, LocalStep::Received { .. }));
        let sent = view.count_matching(|s| matches!(s, LocalStep::Sent { .. }));
        if p.index() == 0 {
            sent <= received
        } else {
            received > sent
        }
    }
}

impl Protocol for BroadcastBus {
    fn system_size(&self) -> usize {
        self.n
    }

    fn actions(&self, p: ProcessId, view: &LocalView) -> Vec<ProtoAction> {
        let mut out = Vec::new();
        if self.view_holds(p, view) {
            for i in (0..self.n).filter(|&i| i != p.index()) {
                out.push(ProtoAction::Send {
                    to: ProcessId::new(i),
                    payload: TOKEN,
                });
            }
        }
        let done = view.count_matching(|s| matches!(s, LocalStep::Did { .. }));
        if done < self.chatter {
            out.push(ProtoAction::Internal {
                action: ActionId::new(CHATTER_BASE + done as u32),
            });
        }
        out
    }

    /// Every permutation fixing the initial holder `p0` is an
    /// automorphism: the holder rule reads only local step counts, the
    /// send set ("all others") is permutation-covariant, and chatter
    /// depends only on the local step count. Atom declarations matching
    /// this group live in [`token_atoms`]; the symmetry-soundness
    /// checker enforces both ends of the contract at query time.
    fn symmetry(&self) -> SymmetryGroup {
        SymmetryGroup::fixing(self.n, 0)
    }
}

/// The token-location predicate on whole computations: does `p` hold the
/// token at the end of `x`? (A *local* predicate of `{p}` in the paper's
/// sense — note the token "in flight" is held by nobody.)
#[must_use]
pub fn holds_token(x: &Computation, p: ProcessId) -> bool {
    let received = x.iter().filter(|e| e.is_on(p) && e.is_receive()).count();
    let sent = x.iter().filter(|e| e.is_on(p) && e.is_send()).count();
    if p.index() == 0 {
        sent <= received
    } else {
        received > sent
    }
}

/// Enumerates the token-bus universe to the given depth.
///
/// # Errors
///
/// Propagates enumeration budget errors.
pub fn universe(n: usize, depth: usize) -> Result<ProtocolUniverse, CoreError> {
    enumerate(&TokenBus::new(n), EnumerationLimits::depth(depth))
}

/// Registers the five `holds-token-at-i` atoms and returns them in
/// process order.
///
/// Invariance declaration (for the symmetry-soundness checker):
/// `token-at-p0` reads only `p0`'s local counts and every token-family
/// symmetry group fixes `p0` ([`SymmetryGroup::Trivial`] for the line
/// bus, [`SymmetryGroup::fixing`]`(n, 0)` for the star), so it is
/// declared invariant; `token-at-pi` for `i > 0` names a relabelable
/// process and stays relabeling-dependent — a quotient evaluator will
/// reject or orbit-expand knowledge over it, exactly as the paper's
/// formula (which nests knowledge of *specific* bus neighbours)
/// requires on a symmetric topology.
pub fn token_atoms(interp: &mut Interpretation, n: usize) -> Vec<Formula> {
    (0..n)
        .map(|i| {
            let p = ProcessId::new(i);
            let invariance = if i == 0 {
                hpl_model::AtomInvariance::Invariant
            } else {
                hpl_model::AtomInvariance::Dependent
            };
            let id = interp.register_with(&format!("token-at-p{i}"), invariance, move |c| {
                holds_token(c, p)
            });
            Formula::atom(id)
        })
        .collect()
}

/// The paper's formula for a 5-process bus `p q r s t`:
/// `r knows ((q knows ¬token-at-p) ∧ (s knows ¬token-at-t))`.
///
/// # Panics
///
/// Panics if fewer than five atoms are supplied.
#[must_use]
pub fn paper_formula(atoms: &[Formula]) -> Formula {
    assert!(atoms.len() >= 5, "the paper's bus has five processes");
    let q = ProcessSet::singleton(ProcessId::new(1));
    let r = ProcessSet::singleton(ProcessId::new(2));
    let s = ProcessSet::singleton(ProcessId::new(3));
    let q_knows = Formula::knows(q, atoms[0].clone().not());
    let s_knows = Formula::knows(s, atoms[4].clone().not());
    Formula::knows(r, q_knows.and(s_knows))
}

/// Outcome of checking the §4.1 claim on an enumerated universe.
#[derive(Clone, Debug)]
pub struct PaperClaimReport {
    /// Computations where `r` holds the token.
    pub r_holds_count: usize,
    /// Of those, how many satisfy the nested-knowledge formula.
    pub formula_holds_count: usize,
    /// Universe size.
    pub universe_size: usize,
}

impl PaperClaimReport {
    /// The claim holds iff the formula holds at *every* r-holding
    /// computation.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.r_holds_count == self.formula_holds_count && self.r_holds_count > 0
    }
}

/// Exhaustively verifies the paper's token-bus claim on a 5-process bus.
///
/// # Errors
///
/// Propagates enumeration budget errors.
pub fn verify_paper_claim(depth: usize) -> Result<PaperClaimReport, CoreError> {
    let pu = universe(5, depth)?;
    let mut interp = Interpretation::new();
    let atoms = token_atoms(&mut interp, 5);
    let formula = paper_formula(&atoms);
    let r = ProcessId::new(2);

    let mut eval = Evaluator::new(pu.universe(), &interp);
    let sat = eval.sat_set(&formula);

    let mut r_holds_count = 0;
    let mut formula_holds_count = 0;
    for (id, c) in pu.universe().iter() {
        if holds_token(c, r) {
            r_holds_count += 1;
            if sat.contains(id.index()) {
                formula_holds_count += 1;
            }
        }
    }
    Ok(PaperClaimReport {
        r_holds_count,
        formula_holds_count,
        universe_size: pu.universe().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    #[test]
    fn initial_holder_is_leftmost() {
        let x = Computation::empty(5);
        assert!(holds_token(&x, pid(0)));
        for i in 1..5 {
            assert!(!holds_token(&x, pid(i)));
        }
    }

    #[test]
    fn token_moves_along_the_line() {
        let pu = universe(3, 4).unwrap();
        // after p0 sends and p1 receives, p1 holds
        let after = pu.find(|c| c.len() == 2 && c.receives() == 1);
        assert!(!after.is_empty());
        for id in after {
            let c = pu.universe().get(id);
            assert!(!holds_token(c, pid(0)));
            assert!(holds_token(c, pid(1)));
            assert!(!holds_token(c, pid(2)));
        }
        // while the token is in flight, nobody holds it
        let flight = pu.find(|c| c.len() == 1);
        for id in flight {
            let c = pu.universe().get(id);
            assert!((0..3).all(|i| !holds_token(c, pid(i))));
        }
    }

    #[test]
    fn at_most_one_holder_always() {
        let pu = universe(4, 6).unwrap();
        for (_, c) in pu.universe().iter() {
            let holders = (0..4).filter(|&i| holds_token(c, pid(i))).count();
            assert!(holders <= 1, "two holders in {c}");
        }
    }

    #[test]
    fn boundary_processes_have_one_neighbor() {
        let bus = TokenBus::new(5);
        let empty = LocalView::new();
        let left = bus.actions(pid(0), &empty);
        assert_eq!(left.len(), 1); // only rightward
                                   // a middle holder may go either way: give p2 a token first — we
                                   // emulate by checking the action count via the protocol's own
                                   // holds logic on process 0 only (others start without the token).
        assert!(bus.actions(pid(2), &empty).is_empty());
    }

    #[test]
    fn paper_claim_verified_exhaustively() {
        // Depth 6 suffices for the token to reach r (2 hops = 4 events)
        // with slack for extra moves.
        let report = verify_paper_claim(6).unwrap();
        assert!(
            report.verified(),
            "formula held at {}/{} r-holding computations (universe {})",
            report.formula_holds_count,
            report.r_holds_count,
            report.universe_size
        );
    }

    #[test]
    fn broadcast_bus_group_is_closed_and_maximal() {
        use hpl_core::{check_closure, enumerate_sharded, IsoIndex, ShardConfig};
        use hpl_model::SymmetryGroup;

        let star = BroadcastBus::new(4);
        let pu = enumerate(&star, EnumerationLimits::depth(4)).unwrap();
        // the declared group really is an automorphism group …
        let declared = star.symmetry().elements_for(4);
        assert_eq!(declared.len(), 6, "S_3 on the non-initial processes");
        assert!(check_closure(&pu, &declared).is_ok());
        // … and widening it to S_4 (moving the initial holder) is unsound
        let full = SymmetryGroup::Full { n: 4 }.elements();
        assert!(check_closure(&pu, &full).is_err());
        // the line bus, by contrast, admits only the trivial group: even
        // the reversal breaks on the distinguished left boundary
        let bus = TokenBus::new(3);
        let pu = enumerate(&bus, EnumerationLimits::depth(4)).unwrap();
        let reversal = SymmetryGroup::Generated(vec![hpl_model::Permutation::reversal(3)]);
        assert!(check_closure(&pu, &reversal.elements()).is_err());
        assert!(check_closure(&pu, &bus.symmetry().elements_for(3)).is_ok());

        // quotient enumeration of the star collapses relabelings: it
        // keeps fewer members than the exact universe has [D]-classes
        // (what collapsing interleavings alone would keep)
        let limits = EnumerationLimits::depth(6);
        let quot =
            enumerate_sharded(&star, limits, &ShardConfig::with_shards(2).quotient()).unwrap();
        let exact = enumerate(&star, limits).unwrap();
        let d_classes = IsoIndex::new(exact.universe())
            .classes(ProcessSet::full(4))
            .class_count();
        assert_eq!(quot.stats.group_order, 6);
        assert!(quot.stats.unique < d_classes);
        let orbits = quot.orbits.expect("quotient attaches orbits");
        assert_eq!(orbits.full_size() as usize, quot.stats.explored);
    }

    #[test]
    fn broadcast_bus_keeps_single_holder_invariant() {
        let pu = enumerate(&BroadcastBus::new(3), EnumerationLimits::depth(6)).unwrap();
        for (_, c) in pu.universe().iter() {
            let holders = (0..3).filter(|&i| holds_token(c, pid(i))).count();
            assert!(holders <= 1, "two holders in {c}");
        }
    }

    #[test]
    fn r_does_not_know_too_much() {
        // Sanity for the universe semantics: when r holds the token it
        // does NOT know whether q told p… e.g. r must not know
        // "q holds no … " about things a chain could hide. Concretely:
        // r must not know ¬token-at-q *before* ever seeing the token.
        let pu = universe(5, 6).unwrap();
        let mut interp = Interpretation::new();
        let atoms = token_atoms(&mut interp, 5);
        let mut eval = Evaluator::new(pu.universe(), &interp);
        let r = ProcessSet::singleton(pid(2));
        let f = Formula::knows(r, atoms[1].clone().not());
        // at the empty computation, q does not hold the token, but r
        // cannot know that it will stay so… in fact at null q doesn't
        // hold; r knows token-at-p ⇒ knows ¬token-at-q? r's class at null
        // includes computations where q HAS the token (p sent it) — so r
        // must not know ¬token-at-q.
        let null_id = pu
            .universe()
            .id_of(&Computation::empty(5))
            .expect("prefix-closed universe contains null");
        assert!(!eval.holds_at(&f, null_id));
    }
}
