//! The adversarial corpus behind the `repro analyze` CI gate: every
//! rule of every pass is proven to *fire* on a minimal seeded
//! violation (`tests/fixtures/analyze/*` for the source-level passes,
//! `contract::audit_fixture` for the protocol audit), waivers
//! round-trip (adding `analyze:allow(rule) reason` above the seeded
//! line suppresses the finding and echoes it as a waiver), and the
//! repository at HEAD is clean under its committed `analysis.toml`.

use hpl_analyze::{
    analyze_workspace, contract, determinism, lockgraph, AnalysisConfig, SourceFile,
};
use std::path::{Path, PathBuf};

/// Fixture directory name → the one rule its seeded violation fires.
const FIXTURES: &[(&str, &str)] = &[
    ("nondet_iteration", "nondet-iteration"),
    ("wall_clock", "wall-clock"),
    ("thread_spawn", "thread-spawn"),
    ("unseeded_rng", "unseeded-rng"),
    ("unwrap_hot", "unwrap-hot-path"),
    ("waiver_missing_reason", "waiver-missing-reason"),
    ("lock_cycle", "lock-cycle"),
    ("lock_across_blocking", "lock-across-blocking"),
];

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/analyze")
        .join(name)
}

fn fixture_report(name: &str) -> hpl_analyze::AnalysisReport {
    let dir = fixture_dir(name);
    let cfg = AnalysisConfig::load(&dir.join("analysis.toml"))
        .unwrap_or_else(|e| panic!("{name}/analysis.toml parses: {e}"));
    analyze_workspace(&dir, &cfg).unwrap_or_else(|e| panic!("{name} scans: {e}"))
}

#[test]
fn every_fixture_fires_exactly_its_rule() {
    for (name, rule) in FIXTURES {
        let report = fixture_report(name);
        assert!(
            !report.of_rule(rule).is_empty(),
            "fixture {name} did not fire {rule}: {:?}",
            report.findings
        );
        assert!(
            report.findings.iter().all(|f| f.rule == *rule),
            "fixture {name} fired rules beyond {rule}: {:?}",
            report.findings
        );
    }
}

#[test]
fn every_contract_fixture_fires_its_rule() {
    let expected = [
        ("unclosed-group", "symmetry-not-closed"),
        ("overcap-group", "group-order-exceeded"),
        ("undeclared-invariant", "atom-invariance-missing"),
        ("wrongly-declared-invariant", "atom-invariance-unsound"),
        ("unwellformed-atom", "atom-not-wellformed"),
    ];
    assert_eq!(
        expected.len(),
        contract::fixture_names().len(),
        "every registered contract fixture must be asserted here"
    );
    for (name, rule) in expected {
        let report = contract::audit_fixture(name)
            .unwrap_or_else(|e| panic!("contract fixture {name} builds: {e}"));
        assert!(
            !report.of_rule(rule).is_empty(),
            "contract fixture {name} did not fire {rule}: {:?}",
            report.findings
        );
    }
}

/// Inserts a waiver comment line above line `lineno` (1-indexed).
fn with_waiver(src: &str, lineno: usize, rule: &str) -> String {
    let mut out = String::new();
    for (i, l) in src.lines().enumerate() {
        if i + 1 == lineno {
            out.push_str(&format!(
                "    // analyze:allow({rule}) seeded violation, waived for the round-trip test\n"
            ));
        }
        out.push_str(l);
        out.push('\n');
    }
    out
}

#[test]
fn determinism_waivers_round_trip() {
    // every determinism fixture except the waiver-hygiene one (whose
    // finding is about waivers and must not itself be waivable-away
    // by another reasonless waiver)
    for (name, rule) in FIXTURES
        .iter()
        .filter(|(_, r)| !r.starts_with("lock") && *r != "waiver-missing-reason")
    {
        let dir = fixture_dir(name);
        let cfg = AnalysisConfig::load(&dir.join("analysis.toml")).expect("parses");
        let src = std::fs::read_to_string(dir.join("src/lib.rs")).expect("fixture source");

        let before = determinism::lint(&[SourceFile::parse("src/lib.rs", &src)], &cfg);
        let hit = &before.of_rule(rule)[0];
        let waived_src = with_waiver(&src, hit.line, rule);
        let after = determinism::lint(&[SourceFile::parse("src/lib.rs", &waived_src)], &cfg);
        assert!(
            after.of_rule(rule).is_empty(),
            "{name}: waiver above line {} must suppress {rule}: {:?}",
            hit.line,
            after.findings
        );
        assert_eq!(
            after.waivers_used.len(),
            1,
            "{name}: the waiver must be echoed into the report"
        );
        assert_eq!(after.waivers_used[0].2, *rule);
    }
}

#[test]
fn lock_across_blocking_waiver_round_trips() {
    let dir = fixture_dir("lock_across_blocking");
    let cfg = AnalysisConfig::load(&dir.join("analysis.toml")).expect("parses");
    let src = std::fs::read_to_string(dir.join("src/lib.rs")).expect("fixture source");
    let waived_src = src.replace(
        "// analyze:blocking(feed)",
        "// analyze:blocking(feed) analyze:allow(lock-across-blocking) the queue mutex is the consume token here",
    );
    assert_ne!(src, waived_src, "the blocking annotation must be present");
    let report = lockgraph::check(&[SourceFile::parse("src/lib.rs", &waived_src)], &cfg);
    assert!(
        report.of_rule("lock-across-blocking").is_empty(),
        "waived: {:?}",
        report.findings
    );
    assert_eq!(report.waivers_used.len(), 1);
    assert_eq!(report.waivers_used[0].2, "lock-across-blocking");
}

#[test]
fn the_repository_at_head_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cfg = AnalysisConfig::load(&root.join("analysis.toml")).expect("committed config parses");
    let report = analyze_workspace(root, &cfg).expect("workspace scans");
    assert!(
        report.findings.is_empty(),
        "the analyze gate must be green at HEAD: {:?}",
        report.findings
    );
    // the gate is not vacuous: sources were scanned, protocols audited,
    // and the committed waivers are in effect
    assert!(report.files_scanned > 50);
    assert_eq!(report.protocols_audited, 6);
    assert!(report.waivers_used.len() >= 6);
}
