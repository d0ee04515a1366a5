//! The paper's claims, one row per `repro` section.
//!
//! [`CLAIMS`] is the one place the results of *How Processes Learn* are
//! checked. Each row names the section `repro` accepts, cites the paper,
//! and runs a check that prints the paper's claim beside the measured
//! result and returns a [`Refutation`] when the measurement contradicts
//! the claim. `repro` prints the rows at [`Scale::Paper`]; the root
//! package's `tests/paper_claims.rs` runs every row at [`Scale::Small`].

use crate::random_computation;
use hpl_core::isomorphism::properties;
use hpl_core::{
    axioms, decompose, enumerate_sharded, extension, fuse_lemma1, fuse_theorem2, local, transfer,
    Decomposition, EnumerationLimits, Evaluator, Formula, Interpretation, IsoIndex,
    IsomorphismDiagram, ShardConfig, Universe,
};
use hpl_model::{ActionId, ProcessId, ProcessSet, ScenarioPool};
use hpl_protocols::termination::{run_detector, DetectorKind, WorkloadConfig};
use hpl_protocols::tracking::accuracy_run;
use hpl_protocols::{failure, token_bus, tracking, two_generals};
use hpl_sim::{ChannelConfig, DelayModel, NetworkConfig, SimTime};
use std::fmt;

/// One row of the claims table.
#[derive(Debug)]
pub struct Claim {
    /// The section name `repro` accepts.
    pub name: &'static str,
    /// Where the paper states the claim.
    pub reference: &'static str,
    /// Prints the section and checks what it prints.
    pub check: fn(Scale) -> Result<(), Refutation>,
}

/// How large a run the checks make. Only `sweep` reads it.
#[derive(Clone, Copy, Debug)]
pub enum Scale {
    /// The report's depths: `sweep` enumerates to 14/14/8.
    Paper,
    /// The test suite's preset: `sweep` enumerates to 10/10/6.
    Small,
}

/// Why a claim's check failed.
#[derive(Debug)]
pub enum Refutation {
    /// The measured result contradicts the claim; the text says where.
    Contradicted(String),
    /// The measurement could not be made (an enumeration over its
    /// budget, a malformed scenario, …).
    Failed(Box<dyn std::error::Error>),
}

impl fmt::Display for Refutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refutation::Contradicted(what) => write!(f, "contradicted: {what}"),
            Refutation::Failed(e) => write!(f, "could not be measured: {e}"),
        }
    }
}

impl<E: std::error::Error + 'static> From<E> for Refutation {
    fn from(e: E) -> Self {
        Refutation::Failed(Box::new(e))
    }
}

/// Returns [`Refutation::Contradicted`] with the formatted text from the
/// enclosing check unless the condition holds.
macro_rules! ensure {
    ($cond:expr, $($what:tt)+) => {
        let holds: bool = $cond;
        if !holds {
            return Err(Refutation::Contradicted(format!($($what)+)));
        }
    };
}

/// The claims, in the order `repro` prints them.
pub const CLAIMS: [Claim; 16] = [
    Claim {
        name: "figures",
        reference: "§3 Figures 3-1 to 3-3, Lemma 1, Theorem 2",
        check: figures,
    },
    Claim {
        name: "example",
        reference: "§4.1 token-bus example",
        check: token_bus_example,
    },
    Claim {
        name: "properties",
        reference: "§3 properties 1–10",
        check: algebraic_properties,
    },
    Claim {
        name: "axioms",
        reference: "§4.1 knowledge facts 1–12, Lemma 2",
        check: knowledge_axioms,
    },
    Claim {
        name: "local",
        reference: "§4.2 local predicates, Lemma 3, common-knowledge corollaries",
        check: local_predicates,
    },
    Claim {
        name: "theorem1",
        reference: "§3 Theorem 1",
        check: theorem1_sampling,
    },
    Claim {
        name: "extension",
        reference: "§3.4 computation extension, Theorem 3",
        check: extension_and_theorem3,
    },
    Claim {
        name: "transfer",
        reference: "§4.3 Theorems 4–6, Lemma 4",
        check: transfer_theorems,
    },
    Claim {
        name: "generals",
        reference: "§5 two generals: no common knowledge",
        check: two_generals_report,
    },
    Claim {
        name: "faults",
        reference: "§5 two generals over sampled lossy networks",
        check: faults_report,
    },
    Claim {
        name: "tracking",
        reference: "§5 application 1: tracking a remote predicate",
        check: tracking_report,
    },
    Claim {
        name: "failure",
        reference: "§5 application 2: failure detection",
        check: failure_report,
    },
    Claim {
        name: "termination",
        reference: "§5 application 3: termination detection, Ω(M)",
        check: termination_report,
    },
    Claim {
        name: "ablation",
        reference: "§6 generalizations: state views and belief",
        check: ablation_report,
    },
    Claim {
        name: "extras",
        reference: "§4.3 chains in extension systems (mutex, snapshot, election)",
        check: extras_report,
    },
    Claim {
        name: "sweep",
        reference: "§4.1 knowledge at §5 scale, under the symmetry quotient",
        check: sweep_report,
    },
];

fn section(title: &str) {
    println!("\n--- {title} ---");
}

/// §3's three figures.
fn figures(_: Scale) -> Result<(), Refutation> {
    figure_3_1()?;
    figure_3_2()?;
    figure_3_3()
}

/// Figure 3-1: the isomorphism diagram of four computations over p, q.
fn figure_3_1() -> Result<(), Refutation> {
    section("Figure 3-1: isomorphism diagram");
    let (p, q) = (ProcessId::new(0), ProcessId::new(1));
    let mut pool = ScenarioPool::new(2);
    let ep = pool.internal_with(p, ActionId::new(0));
    let eq = pool.internal_with(q, ActionId::new(1));
    let eq2 = pool.internal_with(q, ActionId::new(2));
    let ep2 = pool.internal_with(p, ActionId::new(3));

    let mut u = Universe::new(2);
    let x = u.insert(pool.compose([ep, eq])?)?;
    let y = u.insert(pool.compose([ep, eq2])?)?;
    let z = u.insert(pool.compose([eq, ep])?)?;
    let w = u.insert(pool.compose([eq, ep2])?)?;

    let d = IsomorphismDiagram::build(&u).with_names(vec!["x", "y", "z", "w"]);
    println!("{}", d.to_dot());
    println!("paper: x[p]y, x[D]z (permutation), z[q]w, no direct y–w edge");
    let measured = [d.label(x, y), d.label(x, z), d.label(z, w), d.label(y, w)]
        .map(|label| label.expect("the diagram labels every pair of its computations"));
    println!(
        "measured: x–y {}, x–z {}, z–w {}, y–w {}",
        measured[0], measured[1], measured[2], measured[3]
    );
    let paper = [
        ProcessSet::from_indices([0]),
        ProcessSet::full(2),
        ProcessSet::from_indices([1]),
        ProcessSet::EMPTY,
    ];
    ensure!(
        measured == paper,
        "x–y, x–z, z–w, y–w are labelled {measured:?}, not {paper:?}"
    );
    // the indirect y–w relationship the paper points out: y [p q] w
    let iso = IsoIndex::new(&u);
    let related = iso.related(
        y,
        w,
        &[ProcessSet::from_indices([0]), ProcessSet::from_indices([1])],
    );
    println!("indirect y [p q] w: {related}");
    println!("Figure 3-1: REPRODUCED");
    Ok(())
}

/// Figure 3-2: Lemma 1's commutative fusion square.
fn figure_3_2() -> Result<(), Refutation> {
    section("Figure 3-2: fusion square (Lemma 1)");
    let (p, q) = (ProcessId::new(0), ProcessId::new(1));
    let (ps, qs) = (ProcessSet::singleton(p), ProcessSet::singleton(q));
    let mut pool = ScenarioPool::new(2);
    let base = pool.internal(p);
    let eq = pool.internal_with(q, ActionId::new(1));
    let ep = pool.internal_with(p, ActionId::new(2));

    let x = pool.compose([base])?;
    let y = pool.compose([base, eq])?; // extends x on P̄ = {q}: x [p] y
    let z = pool.compose([base, ep])?; // extends x on Q̄ = {p}: x [q] z
    let w = fuse_lemma1(&x, &y, &z, ps, qs)?;
    println!("x = {x}\ny = {y}\nz = {z}\nw = {w}");
    ensure!(x.is_prefix_of(&w), "x is not a prefix of w");
    ensure!(y.agrees_on(&w, qs), "not y [Q] w");
    ensure!(z.agrees_on(&w, ps), "not z [P] w");
    println!("square commutes: x[P]y, x[Q]z ⇒ y[Q]w, z[P]w — REPRODUCED");
    Ok(())
}

/// Figure 3-3: Theorem 2's fusion with chain-freedom conditions.
fn figure_3_3() -> Result<(), Refutation> {
    section("Figure 3-3: fusion theorem (Theorem 2)");
    let (p, q) = (ProcessId::new(0), ProcessId::new(1));
    let pset = ProcessSet::singleton(p);
    let mut pool = ScenarioPool::new(2);
    let base = pool.internal(p);
    let ep = pool.internal_with(p, ActionId::new(1));
    let eq = pool.internal_with(q, ActionId::new(2));
    let eq2 = pool.internal_with(q, ActionId::new(3));

    let x = pool.compose([base])?;
    let y = pool.compose([base, ep, eq])?; // no chain ⟨P̄ P⟩ in (x,y)
    let z = pool.compose([base, eq2])?; // no chain ⟨P P̄⟩ in (x,z)
    let w = fuse_theorem2(&x, &y, &z, pset)?;
    println!("x = {x}\ny = {y}\nz = {z}\nw = {w}");
    ensure!(y.agrees_on(&w, pset), "not y [P] w");
    let pbar = pset.complement(ProcessSet::full(2));
    ensure!(z.agrees_on(&w, pbar), "not z [P̄] w");
    println!("w = P-events of y + P̄-events of z over x — REPRODUCED");

    // and the obstruction case: a message P → P̄ in (x,z) blocks fusion
    let mut pool2 = ScenarioPool::new(2);
    let b2 = pool2.internal(p);
    let (s, m) = pool2.send(p, q);
    let r = pool2.receive(q, p, m);
    let x2 = pool2.compose([b2])?;
    let y2 = pool2.compose([b2])?;
    let z2 = pool2.compose([b2, s, r])?;
    let Err(err) = fuse_theorem2(&x2, &y2, &z2, pset) else {
        return Err(Refutation::Contradicted(
            "Theorem 2 fused across a chain ⟨P P̄⟩ in (x, z)".to_owned(),
        ));
    };
    println!("obstruction case correctly rejected: {err}");
    Ok(())
}

/// §4.1 token-bus example.
fn token_bus_example(_: Scale) -> Result<(), Refutation> {
    section("Example §4.1: token bus");
    let report = token_bus::verify_paper_claim(6)?;
    println!(
        "universe {} computations; r holds the token in {}; formula holds in {}",
        report.universe_size, report.r_holds_count, report.formula_holds_count
    );
    println!("paper: r knows ((q knows ¬token-at-p) ∧ (s knows ¬token-at-t)) whenever r holds");
    println!(
        "measured: {}",
        if report.verified() {
            "holds at every r-holding computation — REPRODUCED"
        } else {
            "VIOLATED"
        }
    );
    ensure!(
        report.verified(),
        "the formula fails at some r-holding computation ({report:?})"
    );
    Ok(())
}

/// §3 properties 1–10.
fn algebraic_properties(_: Scale) -> Result<(), Refutation> {
    section("§3 properties 1–10 of isomorphism relations");
    let pu = crate::token_bus_universe(3, 5);
    let iso = IsoIndex::new(pu.universe());
    let sets = [
        ProcessSet::EMPTY,
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1]),
        ProcessSet::from_indices([2]),
        ProcessSet::from_indices([0, 1]),
        ProcessSet::full(3),
    ];
    let violations = properties::check_all(&iso, &sets);
    println!(
        "checked all ten properties over {} computations × {} set pairs: {} violations",
        pu.universe().len(),
        sets.len() * sets.len(),
        violations.len()
    );
    for v in &violations {
        println!("  VIOLATION: {v}");
    }
    ensure!(violations.is_empty(), "{} violations", violations.len());
    println!("properties 1–10: REPRODUCED");
    Ok(())
}

/// §4.1 knowledge facts 1–12 (including Lemma 2).
fn knowledge_axioms(_: Scale) -> Result<(), Refutation> {
    section("§4.1 knowledge facts 1–12 (incl. Lemma 2)");
    let pu = crate::token_bus_universe(3, 5);
    let mut interp = Interpretation::new();
    let atoms = token_bus::token_atoms(&mut interp, 3);
    let mut eval = Evaluator::new(pu.universe(), &interp);
    let predicates = vec![atoms[0].clone(), atoms[1].clone(), atoms[2].clone().not()];
    let sets = vec![
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1]),
        ProcessSet::from_indices([0, 2]),
        ProcessSet::full(3),
    ];
    let report = axioms::check_knowledge_facts(&mut eval, &predicates, &sets);
    println!(
        "{} facts instantiated, {} total checks, all passing: {}",
        report.facts.len(),
        report.total_checks(),
        report.passed()
    );
    ensure!(report.passed(), "\n{}", report.render());
    println!("knowledge facts: REPRODUCED");
    Ok(())
}

/// §4.2 local predicates, Lemma 3, common-knowledge corollaries.
fn local_predicates(_: Scale) -> Result<(), Refutation> {
    section("§4.2 local predicates + Lemma 3 + CK corollaries");
    let pu = crate::token_bus_universe(3, 5);
    let mut interp = Interpretation::new();
    let atoms = token_bus::token_atoms(&mut interp, 3);
    let mut eval = Evaluator::new(pu.universe(), &interp);
    let predicates = vec![atoms[0].clone(), Formula::True];
    let sets = vec![
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1]),
        ProcessSet::full(3),
    ];
    let report = local::check_local_facts(&mut eval, &predicates, &sets);
    println!(
        "local-predicate facts: {} instantiations, all passing: {}",
        report.facts.len(),
        report.passed()
    );
    ensure!(report.passed(), "\n{}", report.render());

    let ck = local::check_common_knowledge_constant(
        &mut eval,
        &[atoms[0].clone(), atoms[1].clone(), Formula::True],
    );
    println!(
        "common knowledge constant across the universe: {}",
        ck.passed()
    );
    ensure!(ck.passed(), "common knowledge varies across the universe");
    println!("local predicates & CK corollary: REPRODUCED");
    Ok(())
}

/// Theorem 1 over random computations.
fn theorem1_sampling(_: Scale) -> Result<(), Refutation> {
    section("Theorem 1: constructive dichotomy (random sampling)");
    let mut paths = 0;
    let mut chains = 0;
    for seed in 0..300u64 {
        let z = random_computation(3, 14, seed);
        let cut = ((seed % 10) as usize).min(z.len());
        let x = z.prefix(cut);
        let sets = [
            ProcessSet::from_indices([(seed % 3) as usize]),
            ProcessSet::from_indices([((seed + 1) % 3) as usize]),
        ];
        match decompose(&x, &z, &sets)? {
            Decomposition::Path(p) => {
                ensure!(p.verify(&x, &z, &sets), "seed {seed}: the path fails");
                paths += 1;
            }
            Decomposition::Chain(w) => {
                ensure!(w.verify(&z, x.len(), &sets), "seed {seed}: the chain fails");
                chains += 1;
            }
        }
    }
    println!("300 random instances: {paths} isomorphism paths, {chains} chains, 0 failures");
    println!("Theorem 1: REPRODUCED (every witness verified)");
    Ok(())
}

/// Principle of computation extension + Theorem 3.
fn extension_and_theorem3(_: Scale) -> Result<(), Refutation> {
    section("§3.4 computation extension + Theorem 3");
    let pu = crate::token_bus_universe(3, 5);
    let r1 = extension::check_extension_principle(pu.universe(), true);
    println!(
        "extension principle: {} checks, passed: {}",
        r1.checks,
        r1.passed()
    );
    ensure!(r1.passed(), "{:?}", r1.violations);
    let r2 = extension::check_extension_corollary(pu.universe());
    println!("corollary: {} checks, passed: {}", r2.checks, r2.passed());
    ensure!(r2.passed(), "{:?}", r2.violations);
    let sets = [
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1]),
        ProcessSet::from_indices([2]),
    ];
    let r3 = extension::check_theorem3(pu.universe(), &sets);
    println!("theorem 3: {} checks, passed: {}", r3.checks, r3.passed());
    ensure!(r3.passed(), "{:?}", r3.violations);
    println!("event-type semantics: REPRODUCED");
    Ok(())
}

/// Theorems 4, 5, 6 and Lemma 4 on an enumerated protocol.
fn transfer_theorems(_: Scale) -> Result<(), Refutation> {
    section("§4.3 knowledge transfer (Theorems 4–6, Lemma 4)");
    // depth 8 lets the token travel 0→1→2→1, which is what nested
    // knowledge needs (p1 learns that p2 has learned).
    let pu = crate::token_bus_universe(3, 8);
    let mut interp = Interpretation::new();
    // stable fact, learned along chains and never lost:
    let stable = Formula::atom(interp.register("token-left-p0", |c| {
        c.iter().any(|e| e.is_on(ProcessId::new(0)) && e.is_send())
    }));
    // parity fact, local to p0, both gained (receive) and lost (send):
    let parity = Formula::atom(interp.register("p0-sent-even", |c| {
        c.iter()
            .filter(|e| e.is_on(ProcessId::new(0)) && e.is_send())
            .count()
            % 2
            == 0
    }));
    let mut eval = Evaluator::new(pu.universe(), &interp);

    let cases: Vec<(&str, Vec<ProcessSet>, Formula)> = vec![
        (
            "gain via direct receive",
            vec![ProcessSet::from_indices([1])],
            stable.clone(),
        ),
        (
            "gain via two-hop chain",
            vec![ProcessSet::from_indices([2])],
            stable.clone(),
        ),
        (
            "nested gain (p1 knows p2 knows)",
            vec![ProcessSet::from_indices([1]), ProcessSet::from_indices([2])],
            stable.clone(),
        ),
        (
            "even-parity gains",
            vec![ProcessSet::from_indices([1])],
            parity.clone(),
        ),
        (
            "odd-parity gains+losses",
            vec![ProcessSet::from_indices([1])],
            parity.clone().not(),
        ),
    ];
    for (label, sets, b) in &cases {
        let t4 = transfer::check_theorem4(&mut eval, sets, b);
        let t5 = transfer::check_theorem5_gain(&mut eval, sets, b);
        let t6 = transfer::check_theorem6_loss(&mut eval, sets, b);
        println!(
            "{label}: T4 {} ({} hits), T5 {} ({} gains), T6 {} ({} losses)",
            t4.passed(),
            t4.antecedent_hits,
            t5.passed(),
            t5.antecedent_hits,
            t6.passed(),
            t6.antecedent_hits,
        );
        ensure!(t4.passed(), "{label}: Theorem 4 fails");
        ensure!(t5.passed(), "{label}: Theorem 5 fails");
        ensure!(t6.passed(), "{label}: Theorem 6 fails");
    }
    // the checks must not be vacuous: gains exist for the stable fact,
    // and both gains and losses exist for the parity fact
    let gains = transfer::gain_witnesses(&mut eval, &[ProcessSet::from_indices([1])], &stable);
    // knowledge of the *odd* parity (true right after p0's first send) is
    // lost when p1 hands the token back and p0 may have re-sent it
    let parity_losses = transfer::loss_witnesses(
        &mut eval,
        &[ProcessSet::from_indices([1])],
        &parity.clone().not(),
    );
    println!(
        "witnesses: {} stable-fact gains, {} parity losses (chains verified)",
        gains.len(),
        parity_losses.len()
    );
    ensure!(
        !gains.is_empty() && !parity_losses.is_empty(),
        "the transfer checks are vacuous"
    );

    let l4 = transfer::check_lemma4(&mut eval, ProcessSet::from_indices([1, 2]), &parity);
    println!(
        "lemma 4 (P={{p1,p2}}): {} checks, passed: {}",
        l4.checks,
        l4.passed()
    );
    ensure!(l4.passed(), "{:?}", l4.violations);
    let l4c =
        transfer::check_lemma4_corollaries(&mut eval, ProcessSet::from_indices([1, 2]), &parity);
    println!(
        "lemma 4 corollaries: {} hits, passed: {}",
        l4c.antecedent_hits,
        l4c.passed()
    );
    ensure!(l4c.passed(), "a Lemma 4 corollary fails");
    println!("knowledge transfer: REPRODUCED");
    Ok(())
}

/// Two generals ladder + CK impossibility.
fn two_generals_report(_: Scale) -> Result<(), Refutation> {
    section("Two generals: knowledge ladder vs common knowledge");
    let pu = two_generals::universe(3, 6)?;
    let mut interp = Interpretation::new();
    let attack = two_generals::attack_atom(&mut interp);
    let mut eval = Evaluator::new(pu.universe(), &interp);
    let ladder = two_generals::knowledge_ladder(&pu, &mut eval, &attack, 3);
    println!("ladder (deliveries ⇒ depth-k knowledge): {ladder:?}");
    ensure!(ladder.iter().all(|&b| b), "a ladder rung is unattained");
    let ck = two_generals::common_knowledge_impossible(&mut eval, &attack);
    println!("common knowledge impossible: {ck}");
    ensure!(ck, "common knowledge of the attack is attained");
    println!("two generals: REPRODUCED");
    Ok(())
}

/// The fault-model axis: the same corollary, checked *empirically* over
/// universes sampled from seeded lossy and partitioned simulations.
fn faults_report(_: Scale) -> Result<(), Refutation> {
    section("Two generals under faults: sampled lossy/partitioned universes");
    let base = hpl_core::FaultModel::new(NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 10 },
        drop_probability: 0.0,
        fifo: false,
    }))
    .runs(48)
    .seeded(17);
    println!("drop    runs  traces  states  delivered  CK     knows  level");
    for model in base.crash_drop_grid(&[0.0, 0.1, 0.25, 0.5], &[]) {
        let w = two_generals::fault_witness(3, &model, 8)?;
        println!(
            "{:<7} {:<5} {:<7} {:<7} {:<10} {:<6} {:<6} {}",
            w.drop_probability,
            w.runs,
            w.distinct_traces,
            w.universe_size,
            w.delivered,
            w.ck_attained,
            w.knows_attained,
            w.max_knowledge_level
        );
        ensure!(
            !w.ck_attained,
            "corollary violated at drop {}",
            w.drop_probability
        );
        ensure!(
            w.knows_attained,
            "no knowledge attained at drop {}",
            w.drop_probability
        );
    }
    println!("common knowledge unattained at every sampled drop rate: REPRODUCED");
    Ok(())
}

/// §5 application 1: tracking a remote local predicate.
fn tracking_report(_: Scale) -> Result<(), Refutation> {
    section("§5 app 1: tracking a remote local predicate");
    let report = tracking::verify_unsure_at_change(2, 6)?;
    println!(
        "change points {}, owner-knew-tracker-unsure {}, interior sure-count {}",
        report.change_points, report.owner_knew_tracker_unsure, report.tracker_sure_count
    );
    ensure!(report.verified(), "{report:?}");
    ensure!(
        report.tracker_sure_count == 0,
        "the tracker is sure at {} interior points",
        report.tracker_sure_count
    );

    println!("\nbest-effort tracking accuracy vs notification delay:");
    println!("{:>12} {:>10}", "mean delay", "accuracy");
    let mut accuracies = Vec::new();
    for &d in &[5u64, 50, 200, 800, 2000] {
        let row = accuracy_run(d, 1_000, 30, 13);
        println!("{:>12} {:>10.4}", row.mean_delay, row.accuracy);
        ensure!(
            row.accuracy < 1.0,
            "exact tracking is impossible, yet delay {d} tracked exactly"
        );
        accuracies.push(row.accuracy);
    }
    let (shortest, longest) = (accuracies[0], accuracies[accuracies.len() - 1]);
    ensure!(
        shortest > longest,
        "accuracy {shortest} at the shortest delay is not above {longest} at the longest"
    );
    println!(
        "accuracy at the shortest delay beats the longest's; perfection unreachable — REPRODUCED"
    );
    Ok(())
}

/// §5 application 2: failure detection.
fn failure_report(_: Scale) -> Result<(), Refutation> {
    section("§5 app 2: failure detection");
    let report = failure::verify_impossibility(2, 6)?;
    println!(
        "async universe {}: crashes in {}, observer-sure count {}",
        report.universe_size, report.crashed_count, report.observer_sure_count
    );
    ensure!(report.verified(), "{report:?}");

    let net = NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 40 },
        drop_probability: 0.0,
        fifo: false,
    });
    println!("\ntimed detector (heartbeat 50, crash at 5000):");
    println!("{:>9} {:>8} {:>9}", "timeout", "false+", "latency");
    let rows = failure::sweep_timeouts(&[60, 100, 200, 400, 800], 50, 5_000, &net, 17, 60_000);
    for row in &rows {
        println!(
            "{:>9} {:>8} {:>9}",
            row.timeout,
            row.false_positive,
            row.detection_latency
                .map_or_else(|| "-".into(), |l| l.to_string())
        );
    }
    ensure!(
        rows.iter()
            .any(|r| !r.false_positive && r.detection_latency.is_some()),
        "no swept timeout detects the crash without a false positive"
    );
    println!("impossible without timeouts, routine with them — REPRODUCED");
    Ok(())
}

/// The Discussion-section generalizations (§6), as ablations: which
/// results survive state-based views and belief?
fn ablation_report(_: Scale) -> Result<(), Refutation> {
    use hpl_core::belief::{check_kd45, find_t_counterexamples, BeliefIndex, Plausibility};
    use hpl_core::views::{check_event_semantics, BoundedMemory, FullHistory, ViewIndex};
    use hpl_core::CompSet;

    section("§6 generalizations: state-based views & belief (ablation)");

    // universe: the crashable worker from the failure module
    let pu = hpl_core::enumerate(
        &failure::CrashableWorker { max_reports: 1 },
        hpl_core::EnumerationLimits::depth(4),
    )?;
    let u = pu.universe();
    let mut alive = CompSet::new(u.len());
    for (id, c) in u.iter() {
        if !failure::crashed(c) {
            alive.insert(id.index());
        }
    }
    let observer = ProcessSet::from_indices([1]);

    // state-based views — use a universe where the observer also does
    // unrelated internal work (which a bounded memory overwrites)
    struct Chatter;
    impl hpl_core::Protocol for Chatter {
        fn system_size(&self) -> usize {
            2
        }
        fn actions(&self, p: ProcessId, view: &hpl_core::LocalView) -> Vec<hpl_core::ProtoAction> {
            match p.index() {
                0 if view.is_empty() => vec![
                    hpl_core::ProtoAction::Internal {
                        action: ActionId::new(1),
                    },
                    hpl_core::ProtoAction::Send {
                        to: ProcessId::new(1),
                        payload: 7,
                    },
                ],
                1 if view.len() < 2 => vec![hpl_core::ProtoAction::Internal {
                    action: ActionId::new(9),
                }],
                _ => vec![],
            }
        }
    }
    let pu2 = hpl_core::enumerate(&Chatter, hpl_core::EnumerationLimits::depth(4))?;
    let u2 = pu2.universe();
    let mut sent = CompSet::new(u2.len());
    for (id, c) in u2.iter() {
        if c.sends() > 0 {
            sent.insert(id.index());
        }
    }
    let full = ViewIndex::new(u2, FullHistory);
    let v_full = check_event_semantics(&full, observer, &sent);
    let forgetful = ViewIndex::new(u2, BoundedMemory { window: 1 });
    let v_forget = check_event_semantics(&forgetful, observer, &sent);
    println!(
        "event semantics (Lemma 4 analogue): full-history {} violations, bounded-memory {} violations",
        v_full.len(),
        v_forget.len()
    );
    ensure!(v_full.is_empty(), "the paper's model must be clean");
    ensure!(
        !v_forget.is_empty(),
        "forgetting must produce a counterexample"
    );
    println!(
        "⇒ the paper's results survive faithful state views and break under forgetting, as §6 predicts"
    );

    // belief
    let optimist = Plausibility::new("crash-implausible", |c| u64::from(failure::crashed(c)));
    let belief = BeliefIndex::new(u, &optimist);
    let kd45 = check_kd45(&belief, observer, &alive);
    let t_fail = find_t_counterexamples(&belief, observer, &alive);
    println!(
        "belief (crash-implausible ranking): KD45 violations {}, truth-axiom counterexamples {}",
        kd45.len(),
        t_fail.len()
    );
    ensure!(kd45.is_empty(), "{} KD45 violations", kd45.len());
    ensure!(!t_fail.is_empty(), "belief must be fallible");
    println!("⇒ KD45 survives; knowledge-implies-truth is exactly what belief loses");

    // gossip knowledge pricing
    use hpl_protocols::gossip;
    println!("\nknowledge price list (3-process gossip):");
    for row in gossip::knowledge_price(3, 9, 2)? {
        println!(
            "  depth {} ⇒ min messages {}",
            row.depth,
            row.min_messages
                .map_or_else(|| "unattainable".into(), |m| m.to_string())
        );
    }
    ensure!(
        gossip::common_knowledge_unattainable(3, 5)?,
        "gossip attains common knowledge"
    );
    println!("  common knowledge ⇒ unattainable at any price");
    println!("ablation: REPRODUCED");
    Ok(())
}

/// The extension systems: mutex, snapshot, election — each validated
/// through the paper's machinery on recorded traces.
fn extras_report(_: Scale) -> Result<(), Refutation> {
    use hpl_protocols::election::{leadership_chains_ok, run_election};
    use hpl_protocols::snapshot::run_money_snapshot;
    use hpl_protocols::token_ring::{
        chain_between_critical_sections, mutual_exclusion_holds, run_ring,
    };

    section("extension systems validated by the calculus");

    // token-ring mutex
    let trace = run_ring(5, 3, 7, 1);
    println!(
        "token-ring mutex (5 nodes × 3 entries): exclusion {}, theorem-5 chains {}",
        mutual_exclusion_holds(&trace),
        chain_between_critical_sections(&trace)
    );
    ensure!(
        mutual_exclusion_holds(&trace) && chain_between_critical_sections(&trace),
        "the token ring breaks exclusion or its chains"
    );

    // snapshot
    let report = run_money_snapshot(4, 100, 15, 3, 50);
    println!(
        "chandy-lamport snapshot: balances {} + in-channel {} = {} (cut valid: {})",
        report.recorded_balances,
        report.recorded_in_channel,
        report.expected_total,
        report.cut_valid
    );
    ensure!(report.verified(), "{report:?}");

    // election
    let net = NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 12 },
        drop_probability: 0.0,
        fifo: true,
    });
    let out = run_election(7, &net, 5);
    println!(
        "chang-roberts election (7 nodes): leader {:?}, {} messages, chains from all {}",
        out.leader,
        out.messages,
        leadership_chains_ok(&out.trace)
    );
    ensure!(
        out.leader.is_some() && leadership_chains_ok(&out.trace),
        "the election elects no leader or lacks its chains"
    );
    println!("extras: all validated");
    Ok(())
}

/// The symmetry-soundness corpus of the sweep's admission and rejection
/// counts: formulas spanning all three checker verdicts over the
/// universe's own system size.
fn soundness_corpus(n: usize, interp: &mut Interpretation) -> Vec<Formula> {
    let nonempty = Formula::atom(interp.register_invariant("nonempty", |c| !c.is_empty()));
    let sendy = Formula::atom(interp.register_invariant("any-send", |c| c.sends() >= 1));
    let last = ProcessId::new(n - 1);
    let dep =
        Formula::atom(interp.register("last-quiet", move |c| c.iter().all(|e| !e.is_on(last))));
    let p0 = ProcessSet::singleton(ProcessId::new(0));
    let p1 = ProcessSet::singleton(ProcessId::new(1));
    let full = ProcessSet::full(n);
    vec![
        nonempty.clone(),
        Formula::everyone(nonempty.clone()),
        Formula::common(sendy.clone()),
        Formula::knows(full, nonempty.clone().and(sendy.clone())),
        Formula::knows(p0, Formula::everyone(nonempty.clone())),
        // outermost over a moved singleton: exact at representatives
        Formula::knows(p1, sendy.clone()),
        // nested over a moved singleton: expanded (rejected under Reject)
        Formula::everyone(Formula::knows(p1, nonempty)),
        // knowledge over a relabeling-dependent atom: ditto
        Formula::knows(full, dep.clone()),
        Formula::sure(p1, dep),
    ]
}

/// The symmetry-soundness admission pass: classifies each corpus formula
/// and answers it under `QuotientPolicy::Expand` (the default), so every
/// formula the checker sends to the orbit-expansion fallback is really
/// evaluated there. Returns `(admitted, expanded)` counts.
fn quotient_admission_pass(
    pu: &hpl_core::ProtocolUniverse,
    orbits: &hpl_core::Orbits,
) -> (usize, usize) {
    use hpl_core::Invariance;
    let mut interp = Interpretation::new();
    let corpus = soundness_corpus(pu.universe().system_size(), &mut interp);
    let mut eval = Evaluator::with_symmetry(pu.universe(), &interp, orbits);
    let (mut admitted, mut expanded) = (0usize, 0usize);
    for f in &corpus {
        match eval.check_symmetry(f) {
            Invariance::OutOfContract(_) => expanded += 1,
            _ => admitted += 1,
        }
        eval.sat_set(f);
    }
    (admitted, expanded)
}

/// The rejection count measured against a `QuotientPolicy::Reject`
/// evaluator (typed `QuotientUnsound` errors from `try_sat_set`); the
/// adversarial suite in `tests/symmetry_quotient.rs` proves it equals the
/// expanded count.
fn quotient_rejection_count(pu: &hpl_core::ProtocolUniverse, orbits: &hpl_core::Orbits) -> usize {
    use hpl_core::QuotientPolicy;
    let mut interp = Interpretation::new();
    let corpus = soundness_corpus(pu.universe().system_size(), &mut interp);
    let mut reject =
        Evaluator::with_symmetry_policy(pu.universe(), &interp, orbits, QuotientPolicy::Reject);
    corpus
        .iter()
        .filter(|f| reject.try_sat_set(f).is_err())
        .count()
}

/// The §5-scale workload sweep: the paper's toy universes (≤ 65
/// computations at depth 14) parameterized with richer action alphabets
/// — token-bus chatter, two-generals deliberation, the broadcast star —
/// and enumerated through the symmetry quotient, which is what keeps
/// the depth-14 sweeps tractable.
fn sweep_report(scale: Scale) -> Result<(), Refutation> {
    use hpl_protocols::token_bus::{BroadcastBus, TokenBus};
    use hpl_protocols::two_generals::TwoGenerals;

    section("§5-scale sweep: parameterized paper workloads under the quotient");
    println!(
        "{:>34} {:>9} {:>9} {:>10} {:>6}",
        "workload", "explored", "orbits", "reduction", "|G|"
    );
    let (bus_depth, generals_depth, star_depth) = match scale {
        Scale::Paper => (14, 14, 8),
        Scale::Small => (10, 10, 6),
    };
    let qcfg = ShardConfig::with_shards(8).quotient();
    let big = |d: usize| EnumerationLimits {
        max_events: d,
        max_computations: 20_000_000,
    };

    let row = |label: String, out: &hpl_core::ShardedEnumeration| -> Result<(), Refutation> {
        let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
        println!(
            "{:>34} {:>9} {:>9} {:>10.1} {:>6}",
            label,
            out.stats.explored,
            orbits.orbit_count(),
            orbits.reduction_factor(),
            out.stats.group_order
        );
        ensure!(
            out.stats.explored > 65,
            "sweep workloads must exceed the paper's toy sizes ({label})"
        );
        Ok(())
    };
    row(
        format!("token_bus n=3 chatter=2 d={bus_depth}"),
        &enumerate_sharded(&TokenBus::with_chatter(3, 2), big(bus_depth), &qcfg)?,
    )?;
    row(
        format!("two_generals r=3 deliberation=4 d={generals_depth}"),
        &enumerate_sharded(
            &TwoGenerals::with_deliberation(3, 4),
            big(generals_depth),
            &qcfg,
        )?,
    )?;
    row(
        format!("broadcast_star n=4 chatter=2 d={star_depth}"),
        &enumerate_sharded(&BroadcastBus::with_chatter(4, 2), big(star_depth), &qcfg)?,
    )?;

    // the symmetry-soundness checker over the sweep corpus: how many
    // formulas each policy admits on the star (the nontrivial group)
    {
        let star = BroadcastBus::with_chatter(4, 1);
        let out = enumerate_sharded(&star, big(star_depth), &qcfg)?;
        let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
        let (admitted, expanded) = quotient_admission_pass(&out.universe, orbits);
        let rejected = quotient_rejection_count(&out.universe, orbits);
        println!(
            "soundness checker on the star sweep corpus: {admitted} admitted on the \
             quotient fast path, {expanded} orbit-expanded by QuotientPolicy::Expand \
             (QuotientPolicy::Reject refuses {rejected} with typed errors)"
        );
    }

    // the knowledge results survive at scale: the chatter-rich bus still
    // satisfies the §4.1-style fact, evaluated on the quotient
    let bus = TokenBus::with_chatter(3, 2);
    let out = enumerate_sharded(&bus, EnumerationLimits::depth(10), &qcfg)?;
    let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
    let mut interp = Interpretation::new();
    let atoms = token_bus::token_atoms(&mut interp, 3);
    let mut eval = Evaluator::with_symmetry(out.universe.universe(), &interp, orbits);
    // whenever p2 holds the token, p2 knows p0 does not (outermost knows)
    let f = Formula::knows(
        ProcessSet::singleton(ProcessId::new(2)),
        atoms[0].clone().not(),
    );
    let sat = eval.sat_set(&f);
    let mut holds = 0usize;
    let mut verified = true;
    for (id, c) in out.universe.universe().iter() {
        if token_bus::holds_token(c, ProcessId::new(2)) {
            holds += 1;
            verified &= sat.contains(id.index());
        }
    }
    println!(
        "knowledge at scale: p2-holds representatives {holds}, all satisfy \
         (p2 knows ¬token-at-p0): {verified}"
    );
    ensure!(
        verified && holds > 0,
        "p2 holds the token at {holds} representatives, yet does not always know ¬token-at-p0"
    );
    println!("§5-scale sweep: REPRODUCED under the quotient");
    Ok(())
}

/// §5 application 3: the termination-detection overhead table.
fn termination_report(_: Scale) -> Result<(), Refutation> {
    section("§5 app 3: termination detection overhead (the Ω(M) bound)");
    let net = NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 30 },
        drop_probability: 0.0,
        fifo: false,
    });
    println!(
        "{:>18} {:>6} {:>9} {:>7} {:>6} {:>7}",
        "detector", "M", "overhead", "ratio", "valid", "chains"
    );
    for &budget in &[8u64, 16, 32, 64] {
        for kind in [
            DetectorKind::DijkstraScholten,
            DetectorKind::SafraRing,
            DetectorKind::Credit,
            DetectorKind::Naive { period: 200 },
        ] {
            let cfg = WorkloadConfig {
                n: 5,
                budget,
                fanout: 2,
                work_time: 4,
                seed: budget,
                spare_root: false,
            };
            let out = run_detector(kind, cfg, &net, 42, SimTime::MAX);
            println!(
                "{:>18} {:>6} {:>9} {:>7.2} {:>6} {:>7}",
                out.detector,
                out.work_messages,
                out.overhead_messages,
                out.overhead_ratio(),
                out.detection_valid,
                out.chains_ok
            );
            ensure!(
                out.detected && out.detection_valid && out.chains_ok,
                "{} at budget {budget}: detected {}, valid {}, chains {}",
                out.detector,
                out.detected,
                out.detection_valid,
                out.chains_ok
            );
        }
    }
    println!("\nadversarial sequential workload (fanout 1, detector spared):");
    for kind in [DetectorKind::DijkstraScholten, DetectorKind::Credit] {
        let cfg = WorkloadConfig {
            n: 4,
            budget: 40,
            fanout: 1,
            work_time: 2,
            seed: 7,
            spare_root: true,
        };
        let out = run_detector(kind, cfg, &net, 11, SimTime::MAX);
        println!(
            "{:>18} M={} overhead={} ratio={:.2}",
            out.detector,
            out.work_messages,
            out.overhead_messages,
            out.overhead_ratio()
        );
        ensure!(
            out.overhead_ratio() >= 1.0,
            "{} beats the Ω(M) bound: ratio {:.2}",
            out.detector,
            out.overhead_ratio()
        );
    }
    println!("overhead ≥ underlying on the adversarial workload — REPRODUCED");
    Ok(())
}
