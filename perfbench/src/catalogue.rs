//! The workload catalogue: the build specs with the counts every run of
//! them must reproduce, the query snapshots, and seeded op generation.
//!
//! Ops are generated from the workload seed before any program call is
//! timed; the program only ever receives the generated inputs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;

pub const WORKLOADS: [&str; 3] = ["build", "query_cold", "query_warm"];

/// One universe build of the `build` workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Spec {
    /// `InterleavingStress{n:3,k:4}` to horizon 12, exact mode.
    StressExact,
    /// `TokenBus::with_chatter(3,2)` to horizon 10, quotient mode.
    BusQuotient,
    /// `BroadcastBus::with_chatter(4,1)` to horizon 8, quotient mode.
    StarQuotient,
    /// `BroadcastBus::new(5)` extended from a horizon-11 checkpoint to 12.
    StarExtend,
    /// `fault_witness(3, …)` over seeded Two Generals sims at drop 0.25.
    Faults,
}

pub const SPECS: [Spec; 5] = [
    Spec::StressExact,
    Spec::BusQuotient,
    Spec::StarQuotient,
    Spec::StarExtend,
    Spec::Faults,
];

/// Counts a build must reproduce exactly. For [`Spec::Faults`],
/// `explored` is the number of simulated runs and `unique` the size of
/// the sampled universe.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Expected {
    pub explored: usize,
    pub unique: usize,
    pub resumed: usize,
    pub group_order: usize,
}

/// Simulated Two Generals runs per [`Spec::Faults`] op.
pub const FAULT_RUNS: usize = 4_000;

impl Spec {
    pub fn name(self) -> &'static str {
        match self {
            Spec::StressExact => "stress_exact",
            Spec::BusQuotient => "bus_quotient",
            Spec::StarQuotient => "star_quotient",
            Spec::StarExtend => "star_extend",
            Spec::Faults => "faults",
        }
    }

    pub fn expected(self) -> Expected {
        let (explored, unique, resumed, group_order) = match self {
            Spec::StressExact => (110_251, 110_251, 0, 1),
            Spec::BusQuotient => (211_641, 4_226, 0, 1),
            Spec::StarQuotient => (96_881, 1_010, 0, 6),
            Spec::StarExtend => (10_921, 523, 6_825, 24),
            Spec::Faults => (FAULT_RUNS, 13, 0, 1),
        };
        Expected {
            explored,
            unique,
            resumed,
            group_order,
        }
    }
}

/// One registered snapshot of the query workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Snap {
    /// `TokenBus::with_chatter(3,2)` to horizon 9, exact.
    BusPlain,
    /// The [`Spec::BusQuotient`] universe, trivial group.
    BusQuotient,
    /// The [`Spec::StarQuotient`] universe under the Expand policy.
    StarQuotient,
}

pub const SNAPS: [Snap; 3] = [Snap::BusPlain, Snap::BusQuotient, Snap::StarQuotient];

impl Snap {
    pub fn name(self) -> &'static str {
        match self {
            Snap::BusPlain => "bus_plain",
            Snap::BusQuotient => "bus_quotient",
            Snap::StarQuotient => "star_quotient",
        }
    }

    /// Processes of the snapshot's protocol, hence its token atoms.
    pub fn processes(self) -> usize {
        match self {
            Snap::BusPlain | Snap::BusQuotient => 3,
            Snap::StarQuotient => 4,
        }
    }

    /// Computations the snapshot holds.
    pub fn universe_len(self) -> usize {
        match self {
            Snap::BusPlain => 92_537,
            Snap::BusQuotient => Spec::BusQuotient.expected().unique,
            Snap::StarQuotient => Spec::StarQuotient.expected().unique,
        }
    }
}

/// Formulas `query_warm` asks per snapshot.
pub const WARM_FORMULAS: usize = 32;

/// Nesting depth bound of every generated formula: operators on at most
/// three levels above the atoms.
pub const FORMULA_DEPTH: usize = 3;

/// Nodes (operators and atoms) of every generated formula. A fixed size
/// keeps the work per formula alike across seeds.
pub const FORMULA_NODES: usize = 7;

// Distinct streams drawn from one workload seed.
const FORMULA_STREAM: u64 = 0x5eed_f0e1;
const DRAW_STREAM: u64 = 0x5eed_d7a3;

/// The `build` op sequence: `blocks` shuffles of the five specs, so
/// every block of five ops builds each spec once.
pub fn build_ops(seed: u64, blocks: usize) -> Vec<Spec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops = Vec::with_capacity(blocks * SPECS.len());
    for _ in 0..blocks {
        let mut block = SPECS;
        for i in (1..block.len()).rev() {
            block.swap(i, rng.random_range(0..=i));
        }
        ops.extend(block);
    }
    ops
}

/// Operators a formula is built from: ∧ ∨ → (binary, `0..3`), then
/// ¬ K{p} K{p,q} Sure{p} E C (unary, `3..9`).
const OPERATORS: usize = 9;

/// A random formula of [`FORMULA_NODES`] nodes and depth at most
/// [`FORMULA_DEPTH`] over the token atoms of an `n`-process snapshot, in
/// the parser's syntax, with operator `root` (see [`OPERATORS`]) at the
/// root: generators cycle it, so every seed asks each kind of question
/// equally often.
pub fn formula(rng: &mut StdRng, n: usize, root: usize) -> String {
    /// Most nodes a formula of operator depth `depth` can have.
    fn cap(depth: usize) -> usize {
        (1 << (depth + 1)) - 1
    }
    fn node(rng: &mut StdRng, n: usize, size: usize, depth: usize, op: Option<usize>) -> String {
        if size == 1 {
            return format!("token-at-p{}", rng.random_range(0..n));
        }
        let wrap = |s: String, size: usize| if size == 1 { s } else { format!("({s})") };
        let sub = |rng: &mut StdRng, size: usize| wrap(node(rng, n, size, depth - 1, None), size);
        // split sizes a binary operator can give its operands
        let splits: Vec<usize> = (1..size - 1)
            .filter(|&a| a <= cap(depth - 1) && size - 1 - a <= cap(depth - 1))
            .collect();
        let unary = size - 1 <= cap(depth - 1);
        let op = op.unwrap_or_else(|| match (unary, splits.is_empty()) {
            (true, true) => rng.random_range(3..OPERATORS),
            (true, false) => rng.random_range(0..OPERATORS),
            (false, _) => rng.random_range(0..3),
        });
        if op < 3 {
            let a = splits[rng.random_range(0..splits.len())];
            let (l, r) = (sub(rng, a), sub(rng, size - 1 - a));
            let sym = ["&", "|", "->"][op];
            return format!("{l} {sym} {r}");
        }
        let operand = size - 1;
        match op {
            3 => format!("!{}", sub(rng, operand)),
            4 => format!("K{{p{}}} {}", rng.random_range(0..n), sub(rng, operand)),
            5 => {
                let p = rng.random_range(0..n);
                let q = (p + rng.random_range(1..n)) % n;
                format!("K{{p{},p{}}} {}", p.min(q), p.max(q), sub(rng, operand))
            }
            6 => format!("Sure{{p{}}} {}", rng.random_range(0..n), sub(rng, operand)),
            7 => format!("E {}", sub(rng, operand)),
            _ => format!("C {}", sub(rng, operand)),
        }
    }
    node(rng, n, FORMULA_NODES, FORMULA_DEPTH, Some(root % OPERATORS))
}

/// `count` formulas for `snap`, distinct from each other and from
/// everything already in `seen`.
fn fresh_formulas(
    rng: &mut StdRng,
    snap: Snap,
    count: usize,
    seen: &mut HashSet<String>,
) -> Vec<String> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let f = formula(rng, snap.processes(), seen.len());
        if seen.insert(f.clone()) {
            out.push(f);
        }
    }
    out
}

/// The `query_cold` op sequence: op `i` asks snapshot `SNAPS[i % 3]` a
/// formula no earlier op asked it.
pub fn cold_ops(seed: u64, count: usize) -> Vec<(Snap, String)> {
    let mut rng = StdRng::seed_from_u64(seed ^ FORMULA_STREAM);
    let mut seen: [HashSet<String>; 3] = Default::default();
    (0..count)
        .map(|i| {
            let k = i % SNAPS.len();
            let f = fresh_formulas(&mut rng, SNAPS[k], 1, &mut seen[k]).remove(0);
            (SNAPS[k], f)
        })
        .collect()
}

/// The `query_warm` working set: [`WARM_FORMULAS`] distinct formulas per
/// snapshot, in [`SNAPS`] order.
pub fn warm_formulas(seed: u64) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed ^ FORMULA_STREAM);
    SNAPS
        .iter()
        .map(|&s| fresh_formulas(&mut rng, s, WARM_FORMULAS, &mut HashSet::new()))
        .collect()
}

/// The `query_warm` op sequence: seeded (snapshot, formula) draws from
/// the working set.
pub fn warm_ops(seed: u64, count: usize) -> Vec<(usize, usize)> {
    let mut rng = StdRng::seed_from_u64(seed ^ DRAW_STREAM);
    (0..count)
        .map(|_| {
            (
                rng.random_range(0..SNAPS.len()),
                rng.random_range(0..WARM_FORMULAS),
            )
        })
        .collect()
}

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metrics: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Measured with tracing off, the same on every workload. The tail
/// percentile (p90 on build, p99 on the queries) is printed beside
/// them with its sample count but not gated: across host load changes
/// the query_warm p99 moved 31% where these moved at most 21%.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("p50_ms", "ms", "lower", 0.25),
    e2e("cpu_ms_per_op", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// Measured by the traced run; what each should move is described in
/// `perfbench/catalogue.json`.
pub const PER_LAYER: [Metric; 29] = [
    layer("parallel.exact_ms", "ms", "lower"),
    layer("parallel.quotient_ms", "ms", "lower"),
    layer("parallel.extend_ms", "ms", "lower"),
    layer("parallel.merge_ms", "ms", "lower"),
    layer("parallel.explored", "count", "lower"),
    layer("parallel.resumed", "count", "higher"),
    layer("parallel.batches", "count", "lower"),
    layer("parallel.nodes_per_cpu_ms", "1/ms", "higher"),
    layer("parallel.peak_buffered_kb", "KiB", "lower"),
    layer("symmetry.reduction", "ratio", "higher"),
    layer("fault_universe.build_ms", "ms", "lower"),
    layer("fault_universe.runs", "count", "higher"),
    layer("fault_universe.distinct_traces", "count", "lower"),
    layer("parser.parse_us", "us", "lower"),
    layer("planner.plan_us", "us", "lower"),
    layer("planner.quotient_steps", "count", "higher"),
    layer("planner.fallback_steps", "count", "lower"),
    layer("planner.deduped", "count", "higher"),
    layer("eval.plain_us", "us", "lower"),
    layer("eval.quotient_us", "us", "lower"),
    layer("eval.expand_us", "us", "lower"),
    layer("isomorphism.partitions", "count", "lower"),
    layer("sat_cache.hit_ratio", "ratio", "higher"),
    layer("sat_cache.hits", "count", "higher"),
    layer("sat_cache.misses", "count", "lower"),
    layer("sat_cache.evictions", "count", "lower"),
    layer("sat_cache.resident_mb", "MiB", "lower"),
    layer("service.handoff_us", "us", "lower"),
    layer("batching.coalesced", "count", "higher"),
];

/// The traced pass that measures a per-layer metric: build ops reach
/// the engine, the canonicalizer and the fault builder; queries reach
/// the rest. Layers a workload's own ops never reach are measured on a
/// complement pass: a short cold pass for `build`, one build block for
/// the query workloads.
pub fn pass_of(metric: &str) -> &'static str {
    let build_layers = ["parallel.", "symmetry.", "fault_universe."];
    if build_layers.iter().any(|l| metric.starts_with(l)) {
        "build"
    } else {
        "query"
    }
}

/// Counts that repeat exactly across runs of one seed on one host.
pub const EXACT: [&str; 10] = [
    "parallel.explored",
    "parallel.resumed",
    "parallel.batches",
    "symmetry.reduction",
    "fault_universe.distinct_traces",
    "planner.quotient_steps",
    "planner.fallback_steps",
    "planner.deduped",
    "sat_cache.hits",
    "sat_cache.misses",
];

#[cfg(test)]
mod tests {
    use super::*;
    use hpl_core::{parse, Interpretation};
    use hpl_protocols::token_bus::token_atoms;

    /// A document with its whitespace removed, for substring checks.
    fn squeezed(doc: &str) -> String {
        doc.split_whitespace().collect()
    }

    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit_and_direction() {
        let spec = squeezed(include_str!("../../BENCHMARK.json"));
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let bound = m.bound.map_or(String::new(), |b| format!(",\"bound\":{b}"));
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"{bound}}}",
                m.name, m.unit, m.better
            );
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                spec.contains(&format!("\"name\":\"{w}\"")),
                "BENCHMARK.json lacks workload {w}"
            );
        }
    }

    #[test]
    fn catalogue_json_agrees_with_the_code() {
        let doc = squeezed(include_str!("../catalogue.json"));
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            let bound = m.bound.map_or(String::new(), |b| format!(",\"bound\":{b}"));
            let exact = if m.bound.is_some() {
                String::new()
            } else {
                format!(
                    ",\"pass\":\"{}\",\"exact\":{}",
                    pass_of(m.name),
                    EXACT.contains(&m.name)
                )
            };
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"{bound}{exact},",
                m.name, m.unit, m.better
            );
            assert!(doc.contains(&entry), "catalogue.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(
                doc.contains(&format!("{{\"name\":\"{w}\",")),
                "catalogue.json lacks workload {w}"
            );
        }
        for s in SPECS {
            let e = s.expected();
            let entry = format!(
                "{{\"name\":\"{}\",\"explored\":{},\"unique\":{},\"resumed\":{},\"group_order\":{}}}",
                s.name(),
                e.explored,
                e.unique,
                e.resumed,
                e.group_order
            );
            assert!(doc.contains(&entry), "catalogue.json lacks {entry}");
        }
    }

    #[test]
    fn same_seed_same_ops_and_another_seed_other_ops() {
        assert_eq!(build_ops(7, 20), build_ops(7, 20));
        assert_ne!(build_ops(7, 20), build_ops(8, 20));
        assert_eq!(cold_ops(7, 60), cold_ops(7, 60));
        assert_ne!(cold_ops(7, 60), cold_ops(8, 60));
        assert_eq!(warm_formulas(7), warm_formulas(7));
        assert_ne!(warm_formulas(7), warm_formulas(8));
        assert_eq!(warm_ops(7, 500), warm_ops(7, 500));
        assert_ne!(warm_ops(7, 500), warm_ops(8, 500));
    }

    #[test]
    fn every_block_builds_each_spec_once() {
        for block in build_ops(3, 40).chunks(SPECS.len()) {
            for spec in SPECS {
                assert_eq!(block.iter().filter(|&&s| s == spec).count(), 1);
            }
        }
    }

    #[test]
    fn cold_ops_cycle_snapshots_and_never_repeat_a_formula() {
        let ops = cold_ops(11, 900);
        for (i, (snap, _)) in ops.iter().enumerate() {
            assert_eq!(*snap, SNAPS[i % SNAPS.len()]);
        }
        let distinct: HashSet<_> = ops.iter().map(|(snap, f)| (snap.name(), f)).collect();
        assert_eq!(distinct.len(), ops.len());
    }

    /// Nodes and operator depth of a parsed formula.
    fn shape(f: &hpl_core::Formula) -> (usize, usize) {
        use hpl_core::Formula as F;
        let fold = |gs: &[&F]| {
            gs.iter()
                .map(|g| shape(g))
                .fold((1, 0), |(n, d), (gn, gd)| (n + gn, d.max(gd + 1)))
        };
        match f {
            F::True | F::False | F::Atom(_) => (1, 0),
            F::Not(g) | F::Knows(_, g) | F::Sure(_, g) | F::Everyone(g) | F::Common(g) => {
                fold(&[g])
            }
            F::And(gs) | F::Or(gs) => fold(&gs.iter().collect::<Vec<_>>()),
            F::Implies(a, b) | F::Iff(a, b) => fold(&[a, b]),
        }
    }

    #[test]
    fn each_snapshot_gets_every_root_operator_equally_often() {
        use hpl_core::Formula as F;
        let mut interp = Interpretation::new();
        token_atoms(&mut interp, 4);
        let mut roots: [[usize; OPERATORS]; 3] = Default::default();
        for (i, (_, text)) in cold_ops(5, 3 * 9 * 20).into_iter().enumerate() {
            let root = match parse(&text, &interp).expect("generated formulas parse") {
                F::And(_) => 0,
                F::Or(_) => 1,
                F::Implies(..) => 2,
                F::Not(_) => 3,
                F::Knows(p, _) if p.len() == 1 => 4,
                F::Knows(..) => 5,
                F::Sure(..) => 6,
                F::Everyone(_) => 7,
                F::Common(_) => 8,
                other => panic!("unexpected root {other:?}"),
            };
            roots[i % 3][root] += 1;
        }
        assert!(
            roots.iter().all(|r| r.iter().all(|&n| n == 20)),
            "{roots:?}"
        );
    }

    #[test]
    fn every_generated_formula_parses_against_its_snapshot() {
        let interps: Vec<Interpretation> = SNAPS
            .iter()
            .map(|s| {
                let mut interp = Interpretation::new();
                token_atoms(&mut interp, s.processes());
                interp
            })
            .collect();
        let index = |snap: Snap| SNAPS.iter().position(|&s| s == snap).expect("listed");
        for seed in 0..4 {
            let warm = warm_formulas(seed);
            let texts = cold_ops(seed, 600)
                .into_iter()
                .map(|(snap, text)| (index(snap), text))
                .chain(
                    warm.iter()
                        .enumerate()
                        .flat_map(|(k, fs)| fs.iter().map(move |t| (k, t.clone()))),
                );
            for (k, text) in texts {
                let f = parse(&text, &interps[k]).expect("generated formulas parse");
                let (nodes, depth) = shape(&f);
                assert_eq!(nodes, FORMULA_NODES, "{text}");
                assert!(depth <= FORMULA_DEPTH, "{text}");
            }
            assert!(warm.iter().all(|fs| fs.len() == WARM_FORMULAS));
        }
    }
}
