//! A snapshot builds its evaluation structures once: on a `fixing(3, 0)`
//! star quotient under `Expand`, two sessions on two threads ask
//! different out-of-contract formulas at once. The orbit partitions, the
//! orbit-expanded universe, its partitions and dependent atoms and the
//! components are each built exactly once for the snapshot (the
//! `hpl_eval_structure_builds` gauge), every answer equals a standalone
//! evaluator's, and a grown universe registered in its place builds its
//! own structures instead of serving the old ones.

use hpl_core::{
    enumerate_sharded, extend_sharded, parse, EnumerationLimits, Evaluator, Interpretation, Orbits,
    QuotientPolicy, ShardConfig, Universe,
};
use hpl_protocols::token_bus::{token_atoms, BroadcastBus};
use hpl_runtime::{QueryService, Session};
use std::sync::{Arc, Barrier};

/// What each of the two client threads asks. Every formula puts
/// knowledge over a relabeling-dependent atom or a moved process set,
/// so each takes the `Expand` fallback.
const ASKED: [[&str; 3]; 2] = [
    [
        "K{p0} token-at-p1",
        "C K{p1} token-at-p0",
        "K{p2} (token-at-p1 | token-at-p0)",
    ],
    [
        "Sure{p1} token-at-p2",
        "E K{p0} token-at-p2",
        "K{p0} K{p1} token-at-p0",
    ],
];

/// Formulas that need only structures the first round built.
const AGAIN: [&str; 3] = [
    "K{p0} !token-at-p1",
    "C K{p1} !token-at-p0",
    "Sure{p2} token-at-p2",
];

struct Star {
    universe: Arc<Universe>,
    orbits: Arc<Orbits>,
}

/// The star quotient at depth 4 and grown to depth 5.
fn stars() -> (Star, Star) {
    let protocol = BroadcastBus::with_chatter(3, 1);
    let cfg = ShardConfig::with_shards(2).quotient().checkpoint();
    let shallow =
        enumerate_sharded(&protocol, EnumerationLimits::depth(4), &cfg).expect("within budget");
    let grown = extend_sharded(
        &protocol,
        shallow.frontier.as_ref().expect("checkpoint requested"),
        EnumerationLimits::depth(5),
        &cfg,
    )
    .expect("within budget");
    let star = |out: hpl_core::ShardedEnumeration| Star {
        orbits: Arc::new(out.orbits.expect("quotient mode attaches orbits")),
        universe: Arc::new(out.universe.into_universe()),
    };
    (star(shallow), star(grown))
}

fn interpretation() -> Arc<Interpretation> {
    let mut interp = Interpretation::new();
    token_atoms(&mut interp, 3);
    Arc::new(interp)
}

fn gauge(session: &Session, metric: &str) -> u64 {
    let text = session.metrics_snapshot();
    text.lines()
        .find(|l| l.starts_with(&format!("{metric}{{")))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {metric} sample in:\n{text}"))
}

/// Asks `text` on `session` and checks the answer against a standalone
/// `Expand` evaluator over the same quotient.
fn ask_and_check(session: &Session, star: &Star, interp: &Interpretation, text: &str) {
    let resp = session.query(text).expect("answered");
    assert!(
        resp.plan.fallback_steps > 0,
        "{text} must take the Expand fallback"
    );
    let f = parse(text, interp).expect("parses");
    let want = Evaluator::with_symmetry_policy(
        &star.universe,
        interp,
        &star.orbits,
        QuotientPolicy::Expand,
    )
    .sat_set(&f);
    assert_eq!(resp.sat.words(), want.words(), "answer to {text}");
}

#[test]
fn a_snapshot_builds_each_structure_once_for_all_threads() {
    let (shallow, grown) = stars();
    let interp = interpretation();
    let register = |service: &QueryService| {
        service.register_quotient(
            "star",
            Arc::clone(&shallow.universe),
            Arc::clone(&interp),
            Arc::clone(&shallow.orbits),
            QuotientPolicy::Expand,
        )
    };

    // the reference count: one thread asks every formula in turn
    let sequential = QueryService::start(1);
    register(&sequential);
    let alone = sequential.session("star").expect("registered");
    for text in ASKED.iter().flatten() {
        ask_and_check(&alone, &shallow, &interp, text);
    }
    let builds = gauge(&alone, "hpl_eval_structure_builds");
    let stats = alone.snapshot().structure_stats();
    assert_eq!(builds, stats.builds);
    assert_eq!(
        builds, stats.structures as u64,
        "one build per retained structure"
    );
    assert!(builds > 0);
    assert!(gauge(&alone, "hpl_eval_structure_bytes") > 0);

    // two sessions on two threads, released together
    let service = QueryService::start(2);
    register(&service);
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for texts in &ASKED {
            let session = service.session("star").expect("registered");
            let (barrier, shallow, interp) = (&barrier, &shallow, &interp);
            s.spawn(move || {
                barrier.wait();
                for text in texts {
                    ask_and_check(&session, shallow, interp, text);
                }
            });
        }
    });
    let session = service.session("star").expect("registered");
    assert_eq!(
        gauge(&session, "hpl_eval_structure_builds"),
        builds,
        "two threads build what one thread builds, each structure once"
    );
    assert_eq!(
        session.snapshot().structure_stats(),
        stats,
        "the same structures, the same bytes"
    );

    // new formulas over the same process sets and atoms build nothing
    for text in AGAIN {
        ask_and_check(&session, &shallow, &interp, text);
    }
    assert_eq!(gauge(&session, "hpl_eval_structure_builds"), builds);

    // a grown snapshot builds its own structures: the first round again
    // costs as many builds, and its answers are the grown universe's
    service.register_quotient(
        "star",
        Arc::clone(&grown.universe),
        Arc::clone(&interp),
        Arc::clone(&grown.orbits),
        QuotientPolicy::Expand,
    );
    assert!(!session.is_current());
    let swapped = service.session("star").expect("registered");
    for text in ASKED.iter().flatten() {
        ask_and_check(&swapped, &grown, &interp, text);
    }
    assert_eq!(
        gauge(&swapped, "hpl_eval_structure_builds"),
        builds,
        "the grown snapshot built its structures afresh"
    );
    // the old snapshot keeps its own structures: a formula it was never
    // asked reads them and builds nothing
    for text in ["K{p2} !token-at-p1", "Sure{p1} !token-at-p2"] {
        ask_and_check(&session, &shallow, &interp, text);
    }
    assert_eq!(gauge(&session, "hpl_eval_structure_builds"), builds);
    assert_eq!(gauge(&swapped, "hpl_eval_structure_builds"), builds);
}
