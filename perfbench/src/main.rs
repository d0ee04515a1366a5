//! The repository benchmark: end-to-end metrics of three workloads and a
//! traced per-layer run, driving only the program's public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <build|query_cold|query_warm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One closed-loop client sends each op after the previous one
//! completed, as a researcher or a `repro serve` user waits for each
//! answer. Universe builds use one shard per core, the program's
//! default, on every core. Only the query op loops run pinned to one
//! CPU, with the service's pool worker (see [`host::Pinned`]).
//!
//! With `--trace 0` the run sets up repeatedly (reporting the median
//! set-up time), times the op loop for `--seconds`, then checks every
//! answer and prints the end-to-end metrics. With `--trace 1` it replays
//! a fixed prefix of the same seeded ops twice, untraced and traced, and
//! prints the per-layer metrics. The last stdout line is always one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`.

mod catalogue;
mod engine;
mod host;
mod query;
mod stats;
mod trace;

use catalogue::{Snap, Spec, END_TO_END, EXACT, PER_LAYER, SNAPS, WORKLOADS};
use engine::Built;
use host::{process_cpu_ns, resident, Pinned};
use hpl_runtime::{QueryError, QueryResponse};
use query::{Answer, QuerySetup, Reference, Replica};
use stats::{digest, mean, median, Tail};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Off, Probe, Tracer};

/// A `--trace 0` run sets up at least this many times, and until this
/// much time has passed; `setup_s` is the median.
const SETUP_REPS: usize = 5;
const SETUP_SECONDS: f64 = 2.0;

/// Ops generated ahead of a timed loop, far beyond what one run reaches.
const BUILD_BLOCKS: usize = 2_000;
const COLD_OPS: usize = 30_000;
/// Seeded (snapshot, formula) draws `query_warm` cycles through.
const WARM_DRAWS: usize = 1 << 14;
/// Most ops one `query_warm` loop times, about twice what a 20 s run
/// completes: its latency buffer is made before set-up, so a program
/// fast enough to fill it ends the loop early.
const WARM_LIMIT: usize = 1 << 20;

/// Ops of the fixed prefix a traced run replays: its own workload's,
/// and the complement pass that measures the layers the workload never
/// reaches (a cold pass for `build`, one build block for the queries).
const TRACED_BUILD_BLOCKS: usize = 5;
const TRACED_COLD_OPS: usize = 600;
const TRACED_WARM_OPS: usize = 12_000;
const COMPLEMENT_BUILD_BLOCKS: usize = 1;
const COMPLEMENT_COLD_OPS: usize = 60;

/// A timed loop may overrun `--seconds` to collect the samples the tail
/// rule needs, up to this many times `--seconds`.
const OVERRUN: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Cores available to the process: the shard count, as
    /// `ShardConfig::default()` picks it.
    shards: usize,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = HashMap::new();
    let mut it = argv.iter();
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        kv.insert(key.as_str(), value.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        shards: host::nproc(),
    })
}

/// What one invocation reports.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// A check other than a per-op answer failed (exact counts).
    mismatch: bool,
    metrics: Metrics,
}

/// `(name, value, unit)` in catalogue order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn metrics_json(metrics: &Metrics) -> String {
    metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host::facts(args.shards));
    println!(
        "universe builds: shards = {} on every core; query op loops: pinned to one cpu",
        args.shards
    );
    let outcome = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    let outcome = outcome.and_then(|o| match o.metrics.iter().find(|m| !m.1.is_finite()) {
        Some((name, value, _)) => Err(format!("{name} measured {value}")),
        None => Ok(o),
    });
    match outcome {
        Ok(o) => {
            let correct = o.failed == 0 && !o.mismatch;
            println!("{}", result_line(correct, &o));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

fn result_line(correct: bool, o: &Outcome) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics_json(&o.metrics)
    )
}

// ---------------------------------------------------------------------
// --trace 0: set up, time the closed loop, check, report end to end.
// ---------------------------------------------------------------------

/// Latencies and clocks of one closed loop.
struct Loop {
    latencies_ns: Vec<u32>,
    wall_ns: u64,
    cpu_ns: u64,
    failed: usize,
}

impl Loop {
    /// A loop of at most `limit` ops, its latency buffer already
    /// resident (see [`host::resident`]).
    fn with_limit(limit: usize) -> Loop {
        let mut latencies_ns = resident(limit, u32::MAX);
        latencies_ns.clear();
        Loop {
            latencies_ns,
            wall_ns: 0,
            cpu_ns: 0,
            failed: 0,
        }
    }

    /// Resets the peak-RSS mark, then times `op(0)`, `op(1)`, … and has
    /// `check` judge each answer after its latency is taken, until
    /// `seconds` have passed, at least `min_samples` ops are done and the
    /// op count is a multiple of `block` (so each workload's op mix stays
    /// whole), or until the limit or the overrun cap. Latencies saturate
    /// at 4.29 s.
    fn run<R>(
        &mut self,
        seconds: f64,
        min_samples: usize,
        block: usize,
        mut op: impl FnMut(usize) -> R,
        mut check: impl FnMut(usize, R) -> bool,
    ) {
        let limit = self.latencies_ns.capacity();
        // `peak_rss_mb` covers the loop: it counts what set-up leaves
        // resident and what ops allocate, not set-up's transient peak,
        // which varies with how the parallel shards interleave
        host::release_memory();
        let cpu = process_cpu_ns();
        let start = Instant::now();
        for i in 0..limit {
            let t = Instant::now();
            let answer = op(i);
            let ns = t.elapsed().as_nanos();
            self.latencies_ns
                .push(u32::try_from(ns).unwrap_or(u32::MAX));
            self.failed += usize::from(!check(i, answer));
            let elapsed = start.elapsed().as_secs_f64();
            let done = i + 1;
            if (done % block == 0 && done >= min_samples && elapsed >= seconds)
                || elapsed >= seconds * OVERRUN
            {
                break;
            }
        }
        self.wall_ns = start.elapsed().as_nanos() as u64;
        self.cpu_ns = process_cpu_ns() - cpu;
    }
}

/// Times `make` [`SETUP_REPS`] times or more, until [`SETUP_SECONDS`]
/// have passed, and returns the last result with the median wall time
/// and the number of set-ups. Each earlier result is dropped before the
/// next set-up.
fn repeated_setup<T>(
    mut make: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64, usize), String> {
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let made = make()?;
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= SETUP_REPS && times.iter().sum::<f64>() >= SETUP_SECONDS {
            return Ok((made, median(&times), times.len()));
        }
    }
}

fn timed_run(args: &Args) -> Result<Outcome, String> {
    let tail = Tail::for_workload(&args.workload);
    let min = tail.min_samples();
    let shards = args.shards;
    // peak RSS is read as the loop ends: the answer check that follows
    // is the benchmark's work, not the program's
    let (setup_s, setups, run, peak_rss_mb, check_failed) = match args.workload.as_str() {
        "build" => {
            let ops = catalogue::build_ops(args.seed, BUILD_BLOCKS);
            let mut run = Loop::with_limit(ops.len());
            let (setup, setup_s, setups) =
                repeated_setup(|| engine::setup(args.seed, shards).map_err(|e| e.to_string()))?;
            run.run(
                args.seconds,
                min,
                catalogue::SPECS.len(),
                |i| engine::run(&setup, ops[i], shards, &mut Off, i),
                |i, built| build_ok(ops[i], &built),
            );
            let peak_rss_mb = host::peak_rss_mb()?;
            let per_spec = p50_per(&run.latencies_ns, |i| ops[i], &catalogue::SPECS, Spec::name);
            println!("p50 ms per spec: {per_spec}");
            (setup_s, setups, run, peak_rss_mb, 0)
        }
        workload => {
            let pool = if workload == "query_cold" {
                COLD_OPS
            } else {
                WARM_DRAWS
            };
            let inputs = QueryInputs::generate(workload, args.seed, pool);
            let mut kept = Kept::new(&inputs.texts);
            // warm ops cycle through their draws; cold ops must stay new
            let (block, limit) = if inputs.warm {
                (1, WARM_LIMIT)
            } else {
                (SNAPS.len(), inputs.ops.len())
            };
            let mut run = Loop::with_limit(limit);
            let (setup, setup_s, setups) = repeated_setup(|| inputs.setup(shards, None))?;
            let pinned = Pinned::to_one_cpu()?;
            run.run(
                args.seconds,
                min,
                block,
                |i| {
                    let (k, j) = inputs.op(i);
                    setup.sessions[k].query(&inputs.texts[k][j])
                },
                |i, resp| kept.record(&inputs, &setup, i, resp),
            );
            let peak_rss_mb = host::peak_rss_mb()?;
            println!("timed ops ran pinned to cpu {}", pinned.cpu);
            drop(pinned);
            let per_snap = p50_per(
                &run.latencies_ns,
                |i| SNAPS[inputs.op(i).0],
                &SNAPS,
                Snap::name,
            );
            println!("p50 ms per snapshot: {per_snap}");
            let check_failed = inputs.check(&setup, &kept.answered(&setup), shards);
            (setup_s, setups, run, peak_rss_mb, check_failed)
        }
    };

    let ops = run.latencies_ns.len();
    let failed = run.failed + check_failed;
    let mut sorted: Vec<f64> = run
        .latencies_ns
        .iter()
        .map(|&ns| f64::from(ns) / 1e6)
        .collect();
    sorted.sort_by(f64::total_cmp);
    let tail_ms = tail
        .of(&sorted)
        .map_err(|e| format!("tail rule refuses this run: {e}"))?;
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "ops_per_s" => ops as f64 / (run.wall_ns as f64 / 1e9),
        "p50_ms" => median(&sorted),
        "cpu_ms_per_op" => run.cpu_ns as f64 / 1e6 / ops as f64,
        "peak_rss_mb" => peak_rss_mb,
        other => unreachable!("{other} is not an end-to-end metric"),
    };
    let metrics: Metrics = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    println!(
        "closed loop, 1 client: {ops} ops in {:.3} s, slowest {:.3} ms; failed_ratio {} ({failed} failed of {ops} attempted)",
        run.wall_ns as f64 / 1e9,
        sorted[ops - 1],
        failed as f64 / ops as f64
    );
    for (&(name, value, unit), m) in metrics.iter().zip(&END_TO_END) {
        let note = if name == "setup_s" {
            format!(", median of {setups} set-ups")
        } else {
            String::new()
        };
        let bound = m.bound.unwrap_or(0.0) * 100.0;
        println!(
            "  {name:<14} {value:>12.4} {unit:<4} {} is better, bound {bound}%{note}",
            m.better
        );
    }
    println!(
        "  {:<14} {tail_ms:>12.4} ms   {} of {ops} samples, {} beyond it (printed, not gated)",
        "tail_ms",
        tail.label(),
        ops - (tail.permille * ops).div_ceil(1000)
    );
    Ok(Outcome {
        attempted: ops,
        failed,
        mismatch: false,
        metrics,
    })
}

/// `name p50` for each key, over the ops whose key it is.
fn p50_per<K: Copy + PartialEq>(
    latencies_ns: &[u32],
    key_of_op: impl Fn(usize) -> K,
    keys: &[K],
    name: impl Fn(K) -> &'static str,
) -> String {
    keys.iter()
        .map(|&key| {
            let ms: Vec<f64> = (0..latencies_ns.len())
                .filter(|&i| key_of_op(i) == key)
                .map(|i| f64::from(latencies_ns[i]) / 1e6)
                .collect();
            format!("{} {:.4}", name(key), median(&ms))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Whether a build op reproduced its recorded counts; explains a miss.
fn build_ok(spec: Spec, built: &Result<Built, hpl_core::CoreError>) -> bool {
    match built {
        Ok(b) if b.correct() => true,
        Ok(b) => {
            eprintln!(
                "perfbench: {} built {:?} (witness holds: {}), the catalogue records {:?}",
                spec.name(),
                b.counts,
                b.witness_holds,
                spec.expected()
            );
            false
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", spec.name());
            false
        }
    }
}

/// A query workload's generated inputs: formula texts per snapshot and
/// ops as (snapshot, formula) indexes.
struct QueryInputs {
    texts: Vec<Vec<String>>,
    ops: Vec<(usize, usize)>,
    warm: bool,
}

fn snap_index(snap: Snap) -> usize {
    SNAPS
        .iter()
        .position(|&s| s == snap)
        .expect("every snapshot is listed")
}

/// Answered formulas for the reference check: (snapshot, formula),
/// the answer's digest, and how many ops got that answer.
type Answered = Vec<((usize, usize), u64, usize)>;

impl QueryInputs {
    /// `count` ops of `workload` from `seed`.
    fn generate(workload: &str, seed: u64, count: usize) -> Self {
        if workload == "query_warm" {
            return QueryInputs {
                texts: catalogue::warm_formulas(seed),
                ops: catalogue::warm_ops(seed, count),
                warm: true,
            };
        }
        let mut texts = vec![Vec::new(); SNAPS.len()];
        let ops = catalogue::cold_ops(seed, count)
            .into_iter()
            .map(|(snap, text)| {
                let k = snap_index(snap);
                texts[k].push(text);
                (k, texts[k].len() - 1)
            })
            .collect();
        QueryInputs {
            texts,
            ops,
            warm: false,
        }
    }

    /// Service set-up, plus the warm-up for `query_warm`.
    fn setup(&self, shards: usize, replica: Option<&Replica>) -> Result<QuerySetup, String> {
        let mut setup = query::setup(shards)?;
        if self.warm {
            // a query op loop, pinned as the timed one is
            let _pinned = Pinned::to_one_cpu()?;
            query::warm_up(&mut setup, replica, &self.texts).map_err(|e| e.to_string())?;
        }
        Ok(setup)
    }

    /// Op `i`, cycling through the generated ops.
    fn op(&self, i: usize) -> (usize, usize) {
        self.ops[i % self.ops.len()]
    }

    /// Checks each answer against a reference evaluation of its formula,
    /// one per distinct formula, spread over `threads` threads; returns
    /// how many ops got a wrong answer.
    fn check(&self, setup: &QuerySetup, answered: &Answered, threads: usize) -> usize {
        let mut distinct: Vec<(usize, usize)> = answered.iter().map(|a| a.0).collect();
        distinct.sort_unstable();
        distinct.dedup();
        let reference = Reference::new();
        let expected: HashMap<(usize, usize), Result<u64, String>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (distinct, reference) = (&distinct, &reference);
                    s.spawn(move || {
                        distinct
                            .iter()
                            .skip(t)
                            .step_by(threads)
                            .map(|&(k, j)| {
                                let want = reference.digest(&setup.scenarios[k], &self.texts[k][j]);
                                ((k, j), want)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("reference evaluation does not panic"))
                .collect()
        });
        let (mut wrong, mut reported) = (0, 0);
        for &((k, j), got, ops) in answered {
            let want = &expected[&(k, j)];
            if want.as_ref() != Ok(&got) {
                if reported < 5 {
                    eprintln!(
                        "perfbench: {} answered {} wrongly ({want:?})",
                        SNAPS[k].name(),
                        self.texts[k][j]
                    );
                }
                reported += 1;
                wrong += ops;
            }
        }
        wrong
    }
}

/// What a timed query loop keeps of its answers until the reference
/// check, per formula (`[snapshot][formula]`), made resident before
/// set-up (see [`host::resident`]). A `query_cold` formula is asked
/// once, and its answer's digest is kept. A `query_warm` answer is
/// compared in place with the answer the warm-up got, which the check
/// then compares with the reference.
struct Kept {
    /// Ops whose answer was kept or matched the warm-up's.
    asked: Vec<Vec<usize>>,
    /// `query_cold`: the digest of each formula's answer.
    digests: Vec<Vec<u64>>,
    /// Ops that errored or disagreed with the warm-up.
    errors: usize,
}

impl Kept {
    fn new(texts: &[Vec<String>]) -> Kept {
        Kept {
            asked: texts.iter().map(|t| resident(t.len(), 0)).collect(),
            digests: texts.iter().map(|t| resident(t.len(), 0)).collect(),
            errors: 0,
        }
    }

    /// Judges op `i`'s response; its digest is taken here, after the
    /// op's latency.
    fn record(
        &mut self,
        inputs: &QueryInputs,
        setup: &QuerySetup,
        i: usize,
        resp: Result<QueryResponse, QueryError>,
    ) -> bool {
        let (k, j) = inputs.op(i);
        let problem = match (&resp, setup.warm.get(k)) {
            (Err(e), _) => e.to_string(),
            (Ok(r), Some(warm)) if *r.sat != *warm[j] => "an answer unlike its warm-up".to_owned(),
            (Ok(r), warm) => {
                if warm.is_none() {
                    self.digests[k][j] = digest(r.sat.words());
                }
                self.asked[k][j] += 1;
                return true;
            }
        };
        if self.errors < 5 {
            eprintln!(
                "perfbench: {} on {}: {problem}",
                SNAPS[k].name(),
                inputs.texts[k][j]
            );
        }
        self.errors += 1;
        false
    }

    /// Each formula some op got a kept answer to, for the reference
    /// check.
    fn answered(&self, setup: &QuerySetup) -> Answered {
        let mut out = Vec::new();
        for (k, asked) in self.asked.iter().enumerate() {
            for (j, &ops) in asked.iter().enumerate() {
                if ops > 0 {
                    let got = match setup.warm.get(k) {
                        Some(warm) => digest(warm[j].words()),
                        None => self.digests[k][j],
                    };
                    out.push(((k, j), got, ops));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// --trace 1: the same seeded ops, untraced then traced, per layer.
// ---------------------------------------------------------------------

/// Counts that repeat exactly across runs of one seed ([`EXACT`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Exact {
    explored: usize,
    resumed: usize,
    batches: usize,
    quotient_explored: usize,
    quotient_unique: usize,
    distinct_traces: usize,
    quotient_steps: usize,
    fallback_steps: usize,
    deduped: usize,
    sat_hits: u64,
    sat_misses: u64,
}

struct BuildPass {
    latencies_ns: Vec<u64>,
    built: Vec<Built>,
    failed: usize,
    faults: Option<hpl_core::FaultStats>,
}

/// One build set-up, then `ops` in order; a traced pass also times the
/// fault builder alone after each fault op.
fn build_pass(
    seed: u64,
    shards: usize,
    ops: &[Spec],
    probe: &mut impl Probe,
) -> Result<BuildPass, String> {
    let setup = engine::setup(seed, shards).map_err(|e| e.to_string())?;
    let mut pass = BuildPass {
        latencies_ns: Vec::with_capacity(ops.len()),
        built: Vec::with_capacity(ops.len()),
        failed: 0,
        faults: None,
    };
    for (i, &spec) in ops.iter().enumerate() {
        let root = probe.enter("op", i);
        let t = Instant::now();
        let built = engine::run(&setup, spec, shards, probe, i);
        pass.latencies_ns.push(t.elapsed().as_nanos() as u64);
        probe.exit(root);
        pass.failed += usize::from(!build_ok(spec, &built));
        pass.built.extend(built.ok());
        if spec == Spec::Faults && probe.on() {
            let stats = engine::fault_universe(&setup, shards, probe, i);
            pass.faults = Some(stats.map_err(|e| e.to_string())?);
        }
    }
    Ok(pass)
}

impl BuildPass {
    fn exact(&self) -> Exact {
        let mut x = Exact::default();
        for b in &self.built {
            match b.stats {
                Some(s) => {
                    x.explored += s.explored;
                    x.resumed += s.resumed;
                    x.batches += s.batches;
                    if b.spec != Spec::StressExact {
                        x.quotient_explored += s.explored;
                        x.quotient_unique += s.unique;
                    }
                }
                None => x.distinct_traces = b.distinct_traces,
            }
        }
        x
    }
}

struct QueryPass {
    latencies_ns: Vec<u64>,
    answers: Vec<Option<Answer>>,
    wrong: usize,
    handoff_ns: Vec<f64>,
    /// Sat-cache counters accrued during the pass; `resident_bytes` as
    /// it ends.
    cache: query::CacheTotals,
    partitions: usize,
}

/// One query set-up (with its warm-up), then the ops in order, pinned
/// as in a timed run, then the answer check.
fn query_pass(
    inputs: &QueryInputs,
    shards: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<QueryPass, String> {
    let replica = Replica::new();
    let setup = inputs.setup(shards, tracer.is_some().then_some(&replica))?;
    let before = query::cache_totals(&setup);
    let mut latencies_ns = Vec::with_capacity(inputs.ops.len());
    let mut answers = Vec::with_capacity(inputs.ops.len());
    let mut handoff_ns = Vec::new();
    let pinned = Pinned::to_one_cpu()?;
    for (i, &(k, j)) in inputs.ops.iter().enumerate() {
        let text = &inputs.texts[k][j];
        let answer = match tracer.as_deref_mut() {
            Some(tr) => query::query_traced(&setup, &replica, k, text, tr, i).map(|t| {
                latencies_ns.push(t.latency_ns);
                handoff_ns.push(t.handoff_ns as f64);
                t.answer
            }),
            None => {
                let t = Instant::now();
                let resp = setup.sessions[k].query(text);
                latencies_ns.push(t.elapsed().as_nanos() as u64);
                resp.map(|r| Answer::of(&r))
            }
        };
        if let Err(e) = &answer {
            eprintln!("perfbench: {} failed on {text}: {e}", SNAPS[k].name());
        }
        answers.push(answer.ok());
    }
    drop(pinned);
    let after = query::cache_totals(&setup);
    let answered: Answered = answers
        .iter()
        .zip(&inputs.ops)
        .filter_map(|(a, &kj)| a.map(|a| (kj, a.digest, 1)))
        .collect();
    Ok(QueryPass {
        wrong: inputs.check(&setup, &answered, shards),
        latencies_ns,
        answers,
        handoff_ns,
        cache: query::CacheTotals {
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
            evictions: after.evictions - before.evictions,
            resident_bytes: after.resident_bytes,
            coalesced: after.coalesced - before.coalesced,
        },
        partitions: replica.partitions(),
    })
}

impl QueryPass {
    fn failed(&self) -> usize {
        self.answers.iter().filter(|a| a.is_none()).count() + self.wrong
    }

    fn exact(&self) -> Exact {
        let mut x = Exact {
            sat_hits: self.cache.hits,
            sat_misses: self.cache.misses,
            ..Exact::default()
        };
        for a in self.answers.iter().flatten() {
            x.quotient_steps += a.plan.quotient_steps;
            x.fallback_steps += a.plan.fallback_steps;
            x.deduped += a.plan.deduped;
        }
        x
    }
}

/// Everything a traced run measured.
struct Traced {
    build: BuildPass,
    query: QueryPass,
    own_ops: usize,
    untraced_p50_ns: f64,
    traced_p50_ns: f64,
    /// The untraced and traced passes over the workload's own ops
    /// agree on answers and exact counts.
    passes_agree: bool,
    attempted: usize,
    failed: usize,
}

fn p50_ns(latencies: &[u64]) -> f64 {
    median(&latencies.iter().map(|&n| n as f64).collect::<Vec<_>>())
}

fn trace_build(seed: u64, shards: usize, tr: &mut Tracer) -> Result<Traced, String> {
    let ops = catalogue::build_ops(seed, TRACED_BUILD_BLOCKS);
    let untraced = build_pass(seed, shards, &ops, &mut Off)?;
    tr.set_pass("build");
    let build = build_pass(seed, shards, &ops, tr)?;
    tr.set_pass("query");
    let complement = QueryInputs::generate("query_cold", seed, COMPLEMENT_COLD_OPS);
    let query = query_pass(&complement, shards, Some(tr))?;
    Ok(Traced {
        own_ops: ops.len(),
        untraced_p50_ns: p50_ns(&untraced.latencies_ns),
        traced_p50_ns: p50_ns(&build.latencies_ns),
        passes_agree: untraced.exact() == build.exact(),
        attempted: 2 * ops.len() + complement.ops.len(),
        failed: untraced.failed + build.failed + query.failed(),
        build,
        query,
    })
}

fn trace_query(
    workload: &str,
    seed: u64,
    shards: usize,
    tr: &mut Tracer,
) -> Result<Traced, String> {
    let count = if workload == "query_cold" {
        TRACED_COLD_OPS
    } else {
        TRACED_WARM_OPS
    };
    let inputs = QueryInputs::generate(workload, seed, count);
    let untraced = query_pass(&inputs, shards, None)?;
    tr.set_pass("query");
    let query = query_pass(&inputs, shards, Some(tr))?;
    tr.set_pass("build");
    let complement = catalogue::build_ops(seed, COMPLEMENT_BUILD_BLOCKS);
    let build = build_pass(seed, shards, &complement, tr)?;
    Ok(Traced {
        own_ops: count,
        untraced_p50_ns: p50_ns(&untraced.latencies_ns),
        traced_p50_ns: p50_ns(&query.latencies_ns),
        passes_agree: untraced.answers == query.answers && untraced.exact() == query.exact(),
        attempted: 2 * count + complement.len(),
        failed: untraced.failed() + query.failed() + build.failed,
        build,
        query,
    })
}

fn traced_run(args: &Args) -> Result<Outcome, String> {
    let mut tr = Tracer::new();
    let t = if args.workload == "build" {
        trace_build(args.seed, args.shards, &mut tr)?
    } else {
        trace_query(&args.workload, args.seed, args.shards, &mut tr)?
    };
    let metrics = per_layer(&tr, &t.build, &t.query);
    let exact: BTreeMap<&str, f64> = metrics
        .iter()
        .filter(|(name, _, _)| EXACT.contains(name))
        .map(|&(name, value, _)| (name, value))
        .collect();
    if !t.passes_agree {
        eprintln!("perfbench: the untraced and traced passes over the same ops disagree");
    }
    let repeats = exact_counts_repeat(args, &exact)?;
    print_layer_table(args, &metrics, &tr, &t);

    let header = format!(
        "\"workload\": \"{}\", \"seed\": {}, \"host\": \"{}\", \"metrics\": {{{}}}",
        args.workload,
        args.seed,
        host::facts(args.shards).replace('"', "'"),
        metrics_json(&metrics)
    );
    let path = out_dir().join(format!("{}-seed{}.json", args.workload, args.seed));
    tr.write(&path, &header)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(Outcome {
        attempted: t.attempted,
        failed: t.failed,
        mismatch: !(t.passes_agree && repeats),
        metrics,
    })
}

/// Where traced runs write spans and exact-count records.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("traces")
}

/// Compares this run's exact counts with the record an earlier run of
/// the same workload, seed and core count left, or leaves the record.
/// Records are keyed by the digest of the sources the benchmark was
/// built from (see `build.rs`), so a run only ever compares with runs of
/// the same code.
fn exact_counts_repeat(args: &Args, counts: &BTreeMap<&str, f64>) -> Result<bool, String> {
    let record: String = counts.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    let path = out_dir().join(format!(
        "exact-{}-seed{}-nproc{}-{}.txt",
        args.workload,
        args.seed,
        args.shards,
        env!("PERFBENCH_SOURCE_DIGEST")
    ));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier == record => Ok(true),
        Ok(earlier) => {
            eprintln!(
                "perfbench: exact counts differ from an earlier run of this seed\nearlier:\n{earlier}now:\n{record}"
            );
            Ok(false)
        }
        Err(_) => {
            std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
            std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(true)
        }
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

fn per_layer(tr: &Tracer, build: &BuildPass, query: &QueryPass) -> Metrics {
    let durations = |pass: &str, name: &str| -> Vec<f64> {
        tr.named(pass, name).map(|s| s.dur_ns() as f64).collect()
    };
    let engine_stats = build
        .built
        .iter()
        .filter_map(|b| b.stats.map(|s| (b.spec, s)));
    let merge_ms: Vec<f64> = engine_stats
        .clone()
        .filter(|(spec, _)| *spec == Spec::StressExact)
        .map(|(_, s)| s.merge_wall_ms)
        .collect();
    let peak_buffered = engine_stats
        .map(|(_, s)| s.peak_buffered_bytes)
        .max()
        .unwrap_or(0);
    let parallel_cpu_ns: u64 = ["parallel.exact", "parallel.quotient", "parallel.extend"]
        .iter()
        .flat_map(|n| tr.named("build", n))
        .filter_map(|s| s.cpu_ns)
        .sum();
    let x = build.exact();
    let q = query.exact();
    let faults = build.faults.unwrap_or_default();
    let lookups = q.sat_hits + q.sat_misses;
    let value = |name: &str| -> f64 {
        match name {
            "parallel.exact_ms" => ms(median(&durations("build", "parallel.exact"))),
            "parallel.quotient_ms" => ms(median(&durations("build", "parallel.quotient"))),
            "parallel.extend_ms" => ms(median(&durations("build", "parallel.extend"))),
            "parallel.merge_ms" => median(&merge_ms),
            "parallel.explored" => x.explored as f64,
            "parallel.resumed" => x.resumed as f64,
            "parallel.batches" => x.batches as f64,
            "parallel.nodes_per_cpu_ms" => x.explored as f64 / ms(parallel_cpu_ns as f64),
            "parallel.peak_buffered_kb" => peak_buffered as f64 / 1024.0,
            "symmetry.reduction" => x.quotient_explored as f64 / x.quotient_unique as f64,
            "fault_universe.build_ms" => ms(median(&durations("build", "fault_universe.build"))),
            "fault_universe.runs" => faults.runs as f64,
            "fault_universe.distinct_traces" => faults.distinct_traces as f64,
            "parser.parse_us" => mean(&durations("query", "parser.parse")) / 1e3,
            "planner.plan_us" => mean(&durations("query", "planner.plan")) / 1e3,
            "planner.quotient_steps" => q.quotient_steps as f64,
            "planner.fallback_steps" => q.fallback_steps as f64,
            "planner.deduped" => q.deduped as f64,
            "eval.plain_us" => mean(&durations("query", "eval.plain")) / 1e3,
            "eval.quotient_us" => mean(&durations("query", "eval.quotient")) / 1e3,
            "eval.expand_us" => mean(&durations("query", "eval.expand")) / 1e3,
            "isomorphism.partitions" => query.partitions as f64,
            "sat_cache.hit_ratio" => q.sat_hits as f64 / lookups as f64,
            "sat_cache.hits" => q.sat_hits as f64,
            "sat_cache.misses" => q.sat_misses as f64,
            "sat_cache.evictions" => query.cache.evictions as f64,
            "sat_cache.resident_mb" => query.cache.resident_bytes as f64 / (1024.0 * 1024.0),
            "service.handoff_us" => mean(&query.handoff_ns) / 1e3,
            "batching.coalesced" => query.cache.coalesced as f64,
            other => unreachable!("{other} is not a per-layer metric"),
        }
    };
    PER_LAYER
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect()
}

fn print_layer_table(args: &Args, metrics: &Metrics, tr: &Tracer, t: &Traced) {
    let own = if args.workload == "build" {
        "build"
    } else {
        "query"
    };
    println!(
        "traced run: the first {} seeded ops of {} as pass '{own}', untraced then traced; \
         the other pass measures the layers those ops never reach",
        t.own_ops, args.workload
    );
    println!(
        "tracing overhead: traced p50 {:.4} ms beside untraced p50 {:.4} ms ({:+.1}%)",
        ms(t.traced_p50_ns),
        ms(t.untraced_p50_ns),
        (t.traced_p50_ns / t.untraced_p50_ns - 1.0) * 100.0
    );
    println!(
        "sat cache: {} hits, {} misses",
        t.query.cache.hits, t.query.cache.misses
    );
    println!(
        "  {:<32} {:>14} {:<6} {:<7} {:<6} pass",
        "per-layer metric", "value", "unit", "better", "exact"
    );
    for (&(name, value, unit), m) in metrics.iter().zip(&PER_LAYER) {
        let exact = if EXACT.contains(&name) { "yes" } else { "" };
        let pass = catalogue::pass_of(name);
        let source = if pass == own { "" } else { " (complement)" };
        println!(
            "  {name:<32} {value:>14.4} {unit:<6} {:<7} {exact:<6} {pass}{source}",
            m.better
        );
    }
    let self_time = tr.self_time();
    let mut totals: BTreeMap<&str, u64> = BTreeMap::new();
    for (&(pass, _), &(ns, _)) in &self_time {
        *totals.entry(pass).or_default() += ns;
    }
    println!("  self time by layer (span minus the child spans it covers):");
    for (&(pass, layer), &(ns, count)) in &self_time {
        println!(
            "    {pass:<6} {layer:<15} {:>12.3} ms {:>6.1}% of pass  {count} spans",
            ms(ns as f64),
            100.0 * ns as f64 / totals[pass] as f64
        );
    }
}
