//! The paper-reproduction report.
//!
//! Regenerates, in one run, every figure, worked example and application
//! of Chandy & Misra's *How Processes Learn* (PODC 1985), printing
//! paper-claim vs measured-result rows.
//!
//! Usage: `cargo run --release -p hpl-bench --bin repro [section…]`
//! where sections are any of:
//! `figures example properties axioms local theorem1 extension transfer
//! generals faults tracking failure termination ablation extras sweep`
//! (default: all, in that order).
//!
//! Three modes run instead of the report:
//!
//! - `repro serve` opens the query workloads behind a line-oriented REPL
//!   on the persistent [`hpl_runtime::QueryService`] (`:stats [scenario]`
//!   prints the Prometheus-style metrics snapshot).
//! - `repro trace [stress|query|faults|all] [--chrome PATH]` runs the
//!   named scenario once with span tracing on and writes a Chrome
//!   trace-event JSON (load in Perfetto / `chrome://tracing`) showing the
//!   per-shard explore/merge/renumber spans and the per-query
//!   parse/plan/eval/respond stages.
//! - `repro analyze [--json] [--out PATH] [--root DIR] [--config PATH]
//!   [--fixture NAME]` runs the workspace static analysis; any finding
//!   exits 8.
//!
//! An unknown section or flag, or a flag given outside the mode that
//! reads it, prints the usage and exits 2. Performance is measured by the
//! separate `perfbench` package that `BENCHMARK.json` names, not here.

use hpl_bench::{random_computation, InterleavingStress};
use hpl_core::isomorphism::properties;
use hpl_core::{
    axioms, decompose, enumerate, extension, fuse_lemma1, fuse_theorem2, local, transfer,
    Decomposition, EnumerationLimits, Evaluator, Formula, Interpretation, IsoIndex,
    IsomorphismDiagram, ShardConfig, Universe,
};
use hpl_model::{ActionId, ProcessId, ProcessSet, ScenarioPool};
use hpl_protocols::termination::{run_detector, DetectorKind, WorkloadConfig};
use hpl_protocols::tracking::accuracy_run;
use hpl_protocols::two_generals;
use hpl_protocols::{failure, token_bus, tracking};
use hpl_sim::{ChannelConfig, DelayModel, NetworkConfig, SimTime};

type Section = fn() -> Result<(), Box<dyn std::error::Error>>;

/// The report's sections, in the order a run prints them.
const SECTIONS: [(&str, Section); 16] = [
    ("figures", figures),
    ("example", token_bus_example),
    ("properties", algebraic_properties),
    ("axioms", knowledge_axioms),
    ("local", local_predicates),
    ("theorem1", theorem1_sampling),
    ("extension", extension_and_theorem3),
    ("transfer", transfer_theorems),
    ("generals", two_generals_report),
    ("faults", faults_report),
    ("tracking", tracking_report),
    ("failure", failure_report),
    ("termination", termination_report),
    ("ablation", ablation_report),
    ("extras", extras_report),
    ("sweep", sweep_report),
];

const MODES: [&str; 3] = ["serve", "trace", "analyze"];
const TRACE_SCENARIOS: [&str; 4] = ["stress", "query", "faults", "all"];

/// Every flag with the mode that reads it; all but `--json` take a value.
const FLAGS: [(&str, &str); 6] = [
    ("--json", "analyze"),
    ("--out", "analyze"),
    ("--root", "analyze"),
    ("--config", "analyze"),
    ("--fixture", "analyze"),
    ("--chrome", "trace"),
];

/// What one `repro` invocation runs.
enum Command {
    /// The paper report over the named sections (every section when empty).
    Report(Vec<String>),
    Serve,
    Trace {
        scenario: String,
        chrome: String,
    },
    Analyze {
        json: bool,
        out: Option<String>,
        root: Option<String>,
        config: Option<String>,
        fixture: Option<String>,
    },
}

fn usage() -> String {
    let sections: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: repro [section…]
       repro serve
       repro trace [{}] [--chrome PATH]
       repro analyze [--json] [--out PATH] [--root DIR] [--config PATH] [--fixture NAME]
sections: {}",
        TRACE_SCENARIOS.join("|"),
        sections.join(" ")
    )
}

/// Reads the command line: at most one mode, the operands it takes, and
/// only the flags that mode reads.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut mode: Option<String> = None;
    let mut operands: Vec<String> = Vec::new();
    let mut flags: Vec<(&str, &str, String)> = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if let Some(&(flag, owner)) = FLAGS.iter().find(|(flag, _)| *flag == arg) {
            let value = if flag == "--json" {
                String::new()
            } else {
                args.next()
                    .ok_or_else(|| format!("`{flag}` needs a value"))?
            };
            flags.push((flag, owner, value));
        } else if arg.starts_with('-') {
            return Err(format!("unknown flag `{arg}`"));
        } else if MODES.contains(&arg.as_str()) {
            if let Some(first) = &mode {
                return Err(format!("`{first}` and `{arg}` are separate modes"));
            }
            mode = Some(arg);
        } else {
            operands.push(arg);
        }
    }
    if let Some((flag, owner, _)) = flags
        .iter()
        .find(|(_, owner, _)| mode.as_deref() != Some(*owner))
    {
        return Err(format!("`{flag}` is read only by `repro {owner}`"));
    }
    // a repeated flag keeps its last value
    let flag = |name: &str| {
        flags
            .iter()
            .rev()
            .find(|(flag, ..)| *flag == name)
            .map(|(.., value)| value.clone())
    };
    match (mode.as_deref(), operands.as_slice()) {
        (None, wanted) => match wanted
            .iter()
            .find(|s| !SECTIONS.iter().any(|(name, _)| name == s))
        {
            Some(unknown) => Err(format!("unknown section `{unknown}`")),
            None => Ok(Command::Report(wanted.to_vec())),
        },
        (Some("trace"), [] | [_]) => {
            let scenario = operands.first().map_or("all", String::as_str);
            if !TRACE_SCENARIOS.contains(&scenario) {
                return Err(format!("unknown trace scenario `{scenario}`"));
            }
            Ok(Command::Trace {
                scenario: scenario.to_owned(),
                chrome: flag("--chrome").unwrap_or_else(|| "TRACE_repro.json".to_owned()),
            })
        }
        (Some("serve"), []) => Ok(Command::Serve),
        (Some("analyze"), []) => Ok(Command::Analyze {
            json: flag("--json").is_some(),
            out: flag("--out"),
            root: flag("--root"),
            config: flag("--config"),
            fixture: flag("--fixture"),
        }),
        (Some(m), extra) => Err(format!("`repro {m}` does not take `{}`", extra.join(" "))),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    match parse_args(std::env::args().skip(1)) {
        Ok(Command::Report(wanted)) => report(&wanted),
        Ok(Command::Serve) => serve_mode(),
        Ok(Command::Trace { scenario, chrome }) => trace_mode(&scenario, &chrome),
        Ok(Command::Analyze {
            json,
            out,
            root,
            config,
            fixture,
        }) => analyze_mode(
            root.as_deref(),
            config.as_deref(),
            fixture.as_deref(),
            json,
            out.as_deref(),
        ),
        Err(e) => {
            eprintln!("repro: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}

/// The paper report: every wanted section in [`SECTIONS`] order.
fn report(wanted: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    println!("=== How Processes Learn (PODC 1985) — reproduction report ===");
    for (name, run) in SECTIONS {
        if wanted.is_empty() || wanted.iter().any(|w| w == name) {
            run()?;
        }
    }
    println!("\n=== report complete ===");
    Ok(())
}

fn section(title: &str) {
    println!("\n--- {title} ---");
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

/// One registered snapshot of `repro serve` and `repro trace query`: an
/// enumerated universe, its interpretation, optional quotient structure,
/// and the formula batch (as parser text — the service's front door).
struct QueryWorkload {
    name: &'static str,
    universe: std::sync::Arc<Universe>,
    interp: std::sync::Arc<Interpretation>,
    orbits: Option<std::sync::Arc<hpl_core::Orbits>>,
    queries: Vec<&'static str>,
}

/// The three query workloads: the chatter-rich token bus on its
/// symmetry quotient (planner selects quotient-vs-expand per subtree),
/// push gossip and Two Generals on plain snapshots. Batches mix plain
/// atoms, sound quotient knowledge, out-of-contract knowledge (Expand
/// fallback), folding fodder and repeated subtrees, so a traced batch
/// passes through the planner, the soundness checker and both caches.
fn query_workloads() -> Result<Vec<QueryWorkload>, Box<dyn std::error::Error>> {
    use hpl_core::enumerate_sharded;
    use hpl_protocols::gossip::{self, PushGossip};
    use std::sync::Arc;

    let mut out = Vec::new();
    {
        let cfg = ShardConfig::with_shards(4).quotient();
        let q = enumerate_sharded(
            &token_bus::TokenBus::with_chatter(3, 2),
            EnumerationLimits::depth(10),
            &cfg,
        )?;
        let orbits = q.orbits.expect("quotient attaches orbits");
        let mut interp = Interpretation::new();
        token_bus::token_atoms(&mut interp, 3);
        out.push(QueryWorkload {
            name: "token_bus_quotient",
            universe: Arc::new(q.universe.into_universe()),
            interp: Arc::new(interp),
            orbits: Some(Arc::new(orbits)),
            queries: vec![
                "token-at-p0",
                "!token-at-p1",
                "token-at-p0 | token-at-p1 | token-at-p2",
                "K{p0} token-at-p0",
                "E token-at-p0",
                "C (token-at-p0 | !token-at-p0)",
                "Sure{p1} token-at-p0",
                "K{p1} !token-at-p0",
                "K{p0} (token-at-p0 & true)",
                "(token-at-p0 & !token-at-p1) | !(token-at-p0 & !token-at-p1)",
            ],
        });
    }
    {
        let pu = enumerate(&PushGossip { n: 3 }, EnumerationLimits::depth(6))?;
        let mut interp = Interpretation::new();
        // declared invariant via the helper: the contract audit flags a
        // bare `register` here as atom-invariance-missing
        gossip::rumor_atom(&mut interp);
        interp.register("p2-informed", |c| {
            c.iter()
                .any(|e| e.is_on(ProcessId::new(2)) && e.is_receive())
        });
        out.push(QueryWorkload {
            name: "gossip_push",
            universe: Arc::new(pu.into_universe()),
            interp: Arc::new(interp),
            orbits: None,
            queries: vec![
                "rumor-started",
                "p2-informed -> rumor-started",
                "K{p2} rumor-started",
                "K{p0} !p2-informed",
                "E rumor-started",
                "C rumor-started",
                "Sure{p1} p2-informed",
                "K{p1} K{p2} rumor-started",
            ],
        });
    }
    {
        let pu = two_generals::universe(3, 6)?;
        let mut interp = Interpretation::new();
        two_generals::attack_atom(&mut interp);
        out.push(QueryWorkload {
            name: "two_generals",
            universe: Arc::new(pu.into_universe()),
            interp: Arc::new(interp),
            orbits: None,
            queries: vec![
                "attack-planned",
                "!attack-planned",
                "K{p1} attack-planned",
                "K{p0} K{p1} attack-planned",
                "C attack-planned",
                "Sure{p1} attack-planned",
                "E attack-planned -> attack-planned",
                "attack-planned & true",
            ],
        });
    }
    Ok(out)
}

/// Starts a service and registers every workload under its name.
fn start_query_service(workloads: &[QueryWorkload]) -> hpl_runtime::QueryService {
    use hpl_core::QuotientPolicy;
    let service = hpl_runtime::QueryService::start(1);
    for w in workloads {
        match &w.orbits {
            Some(o) => service.register_quotient(
                w.name,
                w.universe.clone(),
                w.interp.clone(),
                o.clone(),
                QuotientPolicy::Expand,
            ),
            None => service.register(w.name, w.universe.clone(), w.interp.clone()),
        };
    }
    service
}

/// `repro serve`: the three workload snapshots behind a line-oriented
/// REPL. One query per line, `<scenario> <formula>`; `:scenarios`
/// lists the registered names, `:stats [scenario]` prints the
/// Prometheus-style metrics snapshot (all scenarios when no name is
/// given), `:quit` (or EOF) exits.
fn serve_mode() -> Result<(), Box<dyn std::error::Error>> {
    use std::io::BufRead as _;

    let workloads = query_workloads()?;
    let service = start_query_service(&workloads);
    println!("=== hpl knowledge-query service ===");
    for w in &workloads {
        let snap = service.snapshot(w.name).expect("registered workload");
        println!(
            "  {} — {} computations (generation {}){}",
            w.name,
            snap.universe().len(),
            snap.generation(),
            if w.orbits.is_some() {
                ", symmetry quotient"
            } else {
                ""
            }
        );
    }
    println!("query: <scenario> <formula>   e.g. `two_generals K{{p1}} attack-planned`");
    println!("commands: :scenarios, :stats [scenario], :quit");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == ":quit" {
            break;
        }
        if line == ":scenarios" {
            for name in service.scenarios() {
                println!("{name}");
            }
            continue;
        }
        if line == ":stats" || line == "stats" || line.starts_with(":stats ") {
            let wanted = line.strip_prefix(":stats").unwrap_or("").trim();
            let names: Vec<String> = if wanted.is_empty() {
                service.scenarios()
            } else {
                vec![wanted.to_owned()]
            };
            for name in names {
                match service.session(&name) {
                    Ok(session) => print!("{}", session.metrics_snapshot()),
                    Err(e) => println!("error: {e}"),
                }
            }
            continue;
        }
        let Some((scenario, text)) = line.split_once(char::is_whitespace) else {
            println!("error: expected `<scenario> <formula>` (try :scenarios)");
            continue;
        };
        let session = match service.session(scenario.trim()) {
            Ok(s) => s,
            Err(e) => {
                println!("error: {e}");
                continue;
            }
        };
        match session.query(text.trim()) {
            Ok(resp) => println!(
                "{} of {} computations satisfy ({} µs, plan: {} nodes, {} folded, {} deduped, \
                 {} quotient steps{})",
                resp.count,
                resp.universe_len,
                resp.elapsed.as_micros(),
                resp.plan.nodes,
                resp.plan.folded,
                resp.plan.deduped,
                resp.plan.quotient_steps,
                if resp.coalesced { ", coalesced" } else { "" }
            ),
            Err(e) => println!("error: {e}"),
        }
    }
    Ok(())
}

/// `repro trace [stress|query|faults|all] [--chrome PATH]`: runs the
/// named scenario once with the recorder **and** span tracing enabled,
/// then writes the collected spans as Chrome trace-event JSON — load
/// the file in Perfetto or `chrome://tracing` to see the per-shard
/// explore/merge/renumber lanes and the per-query
/// parse/plan/eval/respond stages on their client threads.
fn trace_mode(scenario: &str, chrome_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    use hpl_core::enumerate_sharded;

    let want = |name: &str| scenario == name || scenario == "all";

    hpl_telemetry::reset();
    hpl_telemetry::set_enabled(true);
    hpl_telemetry::set_tracing(true);
    if want("stress") {
        let cfg = ShardConfig::with_shards(8);
        let limits = EnumerationLimits {
            max_events: 12,
            max_computations: 2_000_000,
        };
        let out = enumerate_sharded(&InterleavingStress { n: 3, k: 4 }, limits, &cfg)?;
        println!(
            "traced stress enumeration: {} computations over {} tasks",
            out.stats.unique, out.stats.tasks
        );
    }
    if want("query") {
        let workloads = query_workloads()?;
        let service = start_query_service(&workloads);
        let mut served = 0usize;
        for w in &workloads {
            let session = service.session(w.name)?;
            for _ in 0..2 {
                for q in &w.queries {
                    session.query(q)?;
                    served += 1;
                }
            }
        }
        println!(
            "traced query service: {served} queries over {} workloads",
            workloads.len()
        );
    }
    if want("faults") {
        let model = hpl_core::FaultModel::new(NetworkConfig::uniform(ChannelConfig {
            delay: DelayModel::Uniform { lo: 1, hi: 10 },
            drop_probability: 0.25,
            fifo: false,
        }))
        .runs(48)
        .seeded(17);
        let w = two_generals::fault_witness(3, &model, 8)?;
        println!(
            "traced fault-universe build: {} states from {} runs",
            w.universe_size, w.runs
        );
    }
    hpl_telemetry::set_tracing(false);
    hpl_telemetry::set_enabled(false);
    let events = hpl_telemetry::global().span_events().len();
    let json = hpl_telemetry::chrome_trace();
    std::fs::write(chrome_path, &json)?;
    hpl_telemetry::reset();
    println!(
        "=== chrome trace ({events} spans, {} bytes) → {chrome_path} ===",
        json.len()
    );
    println!("open in Perfetto (https://ui.perfetto.dev) or chrome://tracing");
    Ok(())
}

/// The exit code of a static-analysis run that found something.
const EXIT_ANALYZE: i32 = 8;

/// `repro analyze [--json] [--out path] [--root dir] [--config path]
/// [--fixture name]`: the workspace static-analysis gate.
///
/// Runs the determinism lint and lock-graph checker over the scan
/// roots, plus the protocol-contract audit when the config enables it.
/// `--fixture` instead runs one entry of the seeded-violation corpus: a
/// contract fixture by name, or a directory under
/// `tests/fixtures/analyze/` carrying its own `analysis.toml`. Any
/// surviving finding exits with [`EXIT_ANALYZE`].
fn analyze_mode(
    root: Option<&str>,
    config: Option<&str>,
    fixture: Option<&str>,
    json: bool,
    out_path: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    use std::path::{Path, PathBuf};
    let report = if let Some(name) = fixture {
        let base = PathBuf::from(root.unwrap_or("."));
        let dir = base.join("tests/fixtures/analyze").join(name);
        if dir.is_dir() {
            let cfg = hpl_analyze::AnalysisConfig::load(&dir.join("analysis.toml"))?;
            hpl_analyze::analyze_workspace(&dir, &cfg)?
        } else {
            hpl_analyze::contract::audit_fixture(name)?
        }
    } else {
        let root = PathBuf::from(root.unwrap_or("."));
        let cfg_path = config
            .map(PathBuf::from)
            .unwrap_or_else(|| root.join("analysis.toml"));
        let cfg = hpl_analyze::AnalysisConfig::load(&cfg_path)?;
        hpl_analyze::analyze_workspace(&root, &cfg)?
    };

    println!(
        "=== static analysis: {} findings, {} waivers in effect, {} files, {} protocols ===",
        report.findings.len(),
        report.waivers_used.len(),
        report.files_scanned,
        report.protocols_audited
    );
    for f in &report.findings {
        println!("  {f}");
    }
    for (file, line, rule, reason) in &report.waivers_used {
        println!("  [waived] {rule} — {file}:{line}: {reason}");
    }
    if json {
        let path = out_path.unwrap_or("ANALYZE_report.json");
        std::fs::write(Path::new(path), report.to_json())?;
        println!("report → {path}");
    }
    if !report.clean() {
        println!("ANALYZE GATE FAIL: {} finding(s)", report.findings.len());
        std::process::exit(EXIT_ANALYZE);
    }
    println!("analyze gate OK");
    Ok(())
}

/// §3's three figures.
fn figures() -> Result<(), Box<dyn std::error::Error>> {
    figure_3_1()?;
    figure_3_2()?;
    figure_3_3()
}

/// Figure 3-1: the isomorphism diagram of four computations over p, q.
fn figure_3_1() -> Result<(), Box<dyn std::error::Error>> {
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
    println!(
        "measured: x–y {}, x–z {}, z–w {}, y–w {}",
        d.label(x, y).unwrap(),
        d.label(x, z).unwrap(),
        d.label(z, w).unwrap(),
        d.label(y, w).unwrap()
    );
    assert_eq!(d.label(x, y), Some(ProcessSet::from_indices([0])));
    assert_eq!(d.label(x, z), Some(ProcessSet::full(2)));
    assert_eq!(d.label(z, w), Some(ProcessSet::from_indices([1])));
    assert_eq!(d.label(y, w), Some(ProcessSet::EMPTY));
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
fn figure_3_2() -> Result<(), Box<dyn std::error::Error>> {
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
    assert!(x.is_prefix_of(&w));
    assert!(y.agrees_on(&w, qs), "y [Q] w");
    assert!(z.agrees_on(&w, ps), "z [P] w");
    println!("square commutes: x[P]y, x[Q]z ⇒ y[Q]w, z[P]w — REPRODUCED");
    Ok(())
}

/// Figure 3-3: Theorem 2's fusion with chain-freedom conditions.
fn figure_3_3() -> Result<(), Box<dyn std::error::Error>> {
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
    assert!(y.agrees_on(&w, pset), "y [P] w");
    let pbar = pset.complement(ProcessSet::full(2));
    assert!(z.agrees_on(&w, pbar), "z [P̄] w");
    println!("w = P-events of y + P̄-events of z over x — REPRODUCED");

    // and the obstruction case: a message P → P̄ in (x,z) blocks fusion
    let mut pool2 = ScenarioPool::new(2);
    let b2 = pool2.internal(p);
    let (s, m) = pool2.send(p, q);
    let r = pool2.receive(q, p, m);
    let x2 = pool2.compose([b2])?;
    let y2 = pool2.compose([b2])?;
    let z2 = pool2.compose([b2, s, r])?;
    let err = fuse_theorem2(&x2, &y2, &z2, pset).unwrap_err();
    println!("obstruction case correctly rejected: {err}");
    Ok(())
}

/// §4.1 token-bus example.
fn token_bus_example() -> Result<(), Box<dyn std::error::Error>> {
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
    Ok(())
}

/// §3 properties 1–10.
fn algebraic_properties() -> Result<(), Box<dyn std::error::Error>> {
    section("§3 properties 1–10 of isomorphism relations");
    let pu = hpl_bench::token_bus_universe(3, 5);
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
    assert!(violations.is_empty());
    println!("properties 1–10: REPRODUCED");
    Ok(())
}

/// §4.1 knowledge facts 1–12 (including Lemma 2).
fn knowledge_axioms() -> Result<(), Box<dyn std::error::Error>> {
    section("§4.1 knowledge facts 1–12 (incl. Lemma 2)");
    let pu = hpl_bench::token_bus_universe(3, 5);
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
    assert!(report.passed(), "\n{}", report.render());
    println!("knowledge facts: REPRODUCED");
    Ok(())
}

/// §4.2 local predicates, Lemma 3, common-knowledge corollaries.
fn local_predicates() -> Result<(), Box<dyn std::error::Error>> {
    section("§4.2 local predicates + Lemma 3 + CK corollaries");
    let pu = hpl_bench::token_bus_universe(3, 5);
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
    assert!(report.passed(), "\n{}", report.render());

    let ck = local::check_common_knowledge_constant(
        &mut eval,
        &[atoms[0].clone(), atoms[1].clone(), Formula::True],
    );
    println!(
        "common knowledge constant across the universe: {}",
        ck.passed()
    );
    assert!(ck.passed());
    println!("local predicates & CK corollary: REPRODUCED");
    Ok(())
}

/// Theorem 1 over random computations.
fn theorem1_sampling() -> Result<(), Box<dyn std::error::Error>> {
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
                assert!(p.verify(&x, &z, &sets));
                paths += 1;
            }
            Decomposition::Chain(w) => {
                assert!(w.verify(&z, x.len(), &sets));
                chains += 1;
            }
        }
    }
    println!("300 random instances: {paths} isomorphism paths, {chains} chains, 0 failures");
    println!("Theorem 1: REPRODUCED (every witness verified)");
    Ok(())
}

/// Principle of computation extension + Theorem 3.
fn extension_and_theorem3() -> Result<(), Box<dyn std::error::Error>> {
    section("§3.4 computation extension + Theorem 3");
    let pu = hpl_bench::token_bus_universe(3, 5);
    let r1 = extension::check_extension_principle(pu.universe(), true);
    println!(
        "extension principle: {} checks, passed: {}",
        r1.checks,
        r1.passed()
    );
    assert!(r1.passed(), "{:?}", r1.violations);
    let r2 = extension::check_extension_corollary(pu.universe());
    println!("corollary: {} checks, passed: {}", r2.checks, r2.passed());
    assert!(r2.passed());
    let sets = [
        ProcessSet::from_indices([0]),
        ProcessSet::from_indices([1]),
        ProcessSet::from_indices([2]),
    ];
    let r3 = extension::check_theorem3(pu.universe(), &sets);
    println!("theorem 3: {} checks, passed: {}", r3.checks, r3.passed());
    assert!(r3.passed(), "{:?}", r3.violations);
    println!("event-type semantics: REPRODUCED");
    Ok(())
}

/// Theorems 4, 5, 6 and Lemma 4 on an enumerated protocol.
fn transfer_theorems() -> Result<(), Box<dyn std::error::Error>> {
    section("§4.3 knowledge transfer (Theorems 4–6, Lemma 4)");
    // depth 8 lets the token travel 0→1→2→1, which is what nested
    // knowledge needs (p1 learns that p2 has learned).
    let pu = hpl_bench::token_bus_universe(3, 8);
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
        assert!(t4.passed() && t5.passed() && t6.passed());
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
    assert!(!gains.is_empty() && !parity_losses.is_empty());

    let l4 = transfer::check_lemma4(&mut eval, ProcessSet::from_indices([1, 2]), &parity);
    println!(
        "lemma 4 (P={{p1,p2}}): {} checks, passed: {}",
        l4.checks,
        l4.passed()
    );
    assert!(l4.passed(), "{:?}", l4.violations);
    let l4c =
        transfer::check_lemma4_corollaries(&mut eval, ProcessSet::from_indices([1, 2]), &parity);
    println!(
        "lemma 4 corollaries: {} hits, passed: {}",
        l4c.antecedent_hits,
        l4c.passed()
    );
    assert!(l4c.passed());
    println!("knowledge transfer: REPRODUCED");
    Ok(())
}

/// Two generals ladder + CK impossibility.
fn two_generals_report() -> Result<(), Box<dyn std::error::Error>> {
    section("Two generals: knowledge ladder vs common knowledge");
    let pu = two_generals::universe(3, 6)?;
    let mut interp = Interpretation::new();
    let attack = two_generals::attack_atom(&mut interp);
    let mut eval = Evaluator::new(pu.universe(), &interp);
    let ladder = two_generals::knowledge_ladder(&pu, &mut eval, &attack, 3);
    println!("ladder (deliveries ⇒ depth-k knowledge): {ladder:?}");
    assert!(ladder.iter().all(|&b| b));
    let ck = two_generals::common_knowledge_impossible(&mut eval, &attack);
    println!("common knowledge impossible: {ck}");
    assert!(ck);
    println!("two generals: REPRODUCED");
    Ok(())
}

/// The fault-model axis: the same corollary, checked *empirically* over
/// universes sampled from seeded lossy and partitioned simulations.
fn faults_report() -> Result<(), Box<dyn std::error::Error>> {
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
        assert!(
            !w.ck_attained,
            "corollary violated at drop {}",
            w.drop_probability
        );
        assert!(w.knows_attained);
    }
    println!("common knowledge unattained at every sampled drop rate: REPRODUCED");
    Ok(())
}

/// §5 application 1: tracking a remote local predicate.
fn tracking_report() -> Result<(), Box<dyn std::error::Error>> {
    section("§5 app 1: tracking a remote local predicate");
    let report = tracking::verify_unsure_at_change(2, 6)?;
    println!(
        "change points {}, owner-knew-tracker-unsure {}, interior sure-count {}",
        report.change_points, report.owner_knew_tracker_unsure, report.tracker_sure_count
    );
    assert!(report.verified());
    assert_eq!(report.tracker_sure_count, 0);

    println!("\nbest-effort tracking accuracy vs notification delay:");
    println!("{:>12} {:>10}", "mean delay", "accuracy");
    let mut last = 1.1f64;
    for &d in &[5u64, 50, 200, 800, 2000] {
        let row = accuracy_run(d, 1_000, 30, 13);
        println!("{:>12} {:>10.4}", row.mean_delay, row.accuracy);
        assert!(row.accuracy < 1.0, "exact tracking is impossible");
        last = last.min(row.accuracy);
    }
    println!("accuracy degrades with delay; perfection unreachable — REPRODUCED");
    let _ = last;
    Ok(())
}

/// §5 application 2: failure detection.
fn failure_report() -> Result<(), Box<dyn std::error::Error>> {
    section("§5 app 2: failure detection");
    let report = failure::verify_impossibility(2, 6)?;
    println!(
        "async universe {}: crashes in {}, observer-sure count {}",
        report.universe_size, report.crashed_count, report.observer_sure_count
    );
    assert!(report.verified());

    let net = NetworkConfig::uniform(ChannelConfig {
        delay: DelayModel::Uniform { lo: 1, hi: 40 },
        drop_probability: 0.0,
        fifo: false,
    });
    println!("\ntimed detector (heartbeat 50, crash at 5000):");
    println!("{:>9} {:>8} {:>9}", "timeout", "false+", "latency");
    for row in failure::sweep_timeouts(&[60, 100, 200, 400, 800], 50, 5_000, &net, 17, 60_000) {
        println!(
            "{:>9} {:>8} {:>9}",
            row.timeout,
            row.false_positive,
            row.detection_latency
                .map_or_else(|| "-".into(), |l| l.to_string())
        );
    }
    println!("impossible without timeouts, routine with them — REPRODUCED");
    Ok(())
}

/// The Discussion-section generalizations (§6), as ablations: which
/// results survive state-based views and belief?
fn ablation_report() -> Result<(), Box<dyn std::error::Error>> {
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
    assert!(v_full.is_empty(), "the paper's model must be clean");
    assert!(
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
    assert!(kd45.is_empty());
    assert!(!t_fail.is_empty(), "belief must be fallible");
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
    assert!(gossip::common_knowledge_unattainable(3, 5)?);
    println!("  common knowledge ⇒ unattainable at any price");
    println!("ablation: REPRODUCED");
    Ok(())
}

/// The extension systems: mutex, snapshot, election — each validated
/// through the paper's machinery on recorded traces.
fn extras_report() -> Result<(), Box<dyn std::error::Error>> {
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
    assert!(mutual_exclusion_holds(&trace) && chain_between_critical_sections(&trace));

    // snapshot
    let report = run_money_snapshot(4, 100, 15, 3, 50);
    println!(
        "chandy-lamport snapshot: balances {} + in-channel {} = {} (cut valid: {})",
        report.recorded_balances,
        report.recorded_in_channel,
        report.expected_total,
        report.cut_valid
    );
    assert!(report.verified());

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
    assert!(out.leader.is_some() && leadership_chains_ok(&out.trace));
    println!("extras: all validated");
    Ok(())
}

/// The §5-scale workload sweep: the paper's toy universes (≤ 65
/// computations at depth 14) parameterized with richer action alphabets
/// — token-bus chatter, two-generals deliberation, the broadcast star —
/// and enumerated through the symmetry quotient, which is what keeps
/// the depth-14 sweeps tractable.
fn sweep_report() -> Result<(), Box<dyn std::error::Error>> {
    use hpl_core::enumerate_sharded;
    use hpl_protocols::token_bus::{BroadcastBus, TokenBus};
    use hpl_protocols::two_generals::TwoGenerals;

    section("§5-scale sweep: parameterized paper workloads under the quotient");
    println!(
        "{:>34} {:>9} {:>9} {:>10} {:>6}",
        "workload", "explored", "orbits", "reduction", "|G|"
    );
    let qcfg = ShardConfig::with_shards(8).quotient();
    let big = |d: usize| EnumerationLimits {
        max_events: d,
        max_computations: 20_000_000,
    };

    struct Row {
        label: &'static str,
        explored: usize,
        orbits: usize,
        reduction: f64,
        group: usize,
    }
    let mut rows = Vec::new();
    {
        let out = enumerate_sharded(&TokenBus::with_chatter(3, 2), big(14), &qcfg)?;
        let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
        rows.push(Row {
            label: "token_bus n=3 chatter=2 d=14",
            explored: out.stats.explored,
            orbits: orbits.orbit_count(),
            reduction: orbits.reduction_factor(),
            group: out.stats.group_order,
        });
    }
    {
        let out = enumerate_sharded(&TwoGenerals::with_deliberation(3, 4), big(14), &qcfg)?;
        let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
        rows.push(Row {
            label: "two_generals r=3 deliberation=4 d=14",
            explored: out.stats.explored,
            orbits: orbits.orbit_count(),
            reduction: orbits.reduction_factor(),
            group: out.stats.group_order,
        });
    }
    {
        let out = enumerate_sharded(&BroadcastBus::with_chatter(4, 2), big(8), &qcfg)?;
        let orbits = out.orbits.as_ref().expect("quotient attaches orbits");
        rows.push(Row {
            label: "broadcast_star n=4 chatter=2 d=8",
            explored: out.stats.explored,
            orbits: orbits.orbit_count(),
            reduction: orbits.reduction_factor(),
            group: out.stats.group_order,
        });
    }
    for r in &rows {
        println!(
            "{:>34} {:>9} {:>9} {:>10.1} {:>6}",
            r.label, r.explored, r.orbits, r.reduction, r.group
        );
        assert!(
            r.explored > 65,
            "sweep workloads must exceed the paper's toy sizes"
        );
    }

    // the symmetry-soundness checker over the sweep corpus: how many
    // formulas each policy admits on the star (the nontrivial group)
    {
        let star = BroadcastBus::with_chatter(4, 1);
        let out = enumerate_sharded(&star, big(8), &qcfg)?;
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
    assert!(verified && holds > 0);
    println!("§5-scale sweep: REPRODUCED under the quotient");
    Ok(())
}

/// §5 application 3: the termination-detection overhead table.
fn termination_report() -> Result<(), Box<dyn std::error::Error>> {
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
            assert!(out.detected && out.detection_valid && out.chains_ok);
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
        assert!(out.overhead_ratio() >= 1.0, "Ω(M) bound");
    }
    println!("overhead ≥ underlying on the adversarial workload — REPRODUCED");
    Ok(())
}
