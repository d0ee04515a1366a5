//! The paper-reproduction report.
//!
//! Regenerates, in one run, every figure, worked example and application
//! of Chandy & Misra's *How Processes Learn* (PODC 1985), printing
//! paper-claim vs measured-result rows: the rows of
//! [`hpl_bench::claims::CLAIMS`] at paper scale.
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

use hpl_bench::claims::{Scale, CLAIMS};
use hpl_bench::InterleavingStress;
use hpl_core::{enumerate, EnumerationLimits, Interpretation, ShardConfig, Universe};
use hpl_model::ProcessId;
use hpl_protocols::{token_bus, two_generals};
use hpl_sim::{ChannelConfig, DelayModel, NetworkConfig};

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
    let sections: Vec<&str> = CLAIMS.iter().map(|claim| claim.name).collect();
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
            .find(|s| !CLAIMS.iter().any(|claim| claim.name == s.as_str()))
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
        Ok(Command::Report(wanted)) => {
            report(&wanted);
            Ok(())
        }
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

/// The paper report: every wanted row of [`CLAIMS`], in table order. A
/// refuted row is named with its paper reference on stderr and makes the
/// run exit 1.
fn report(wanted: &[String]) {
    println!("=== How Processes Learn (PODC 1985) — reproduction report ===");
    let mut refuted = 0;
    for claim in &CLAIMS {
        if wanted.is_empty() || wanted.iter().any(|w| w == claim.name) {
            if let Err(r) = (claim.check)(Scale::Paper) {
                eprintln!("repro: {} ({}) refuted: {r}", claim.name, claim.reference);
                refuted += 1;
            }
        }
    }
    if refuted > 0 {
        std::process::exit(1);
    }
    println!("\n=== report complete ===");
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
