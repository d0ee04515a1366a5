//! The lock-graph checker over annotated lock sites.
//!
//! The workspace's concurrency is hand-rolled (a credit-scheme reorder
//! gate, enumeration workers pulling tasks from a mutex-wrapped
//! receiver, leader/follower admission, the telemetry recorder), so no
//! lock-ordering discipline is enforced by a library. Instead, every acquisition site carries an annotation:
//!
//! * `// analyze:acquire(name)` — a lock named `name` is taken here and
//!   held until `analyze:release(name)` or the end of the function.
//! * `// analyze:release(name)` — the lock is dropped early (e.g. an
//!   explicit `drop(guard)` before a send).
//! * `// analyze:blocking(name)` — a blocking channel/condvar operation
//!   on `name` (recv, condvar wait with a *different* lock held, …).
//!
//! From these the checker builds a global acquisition-order graph (an
//! edge `a → b` for every site taking `b` while holding `a`) and fails
//! on:
//!
//! * `lock-cycle` — a cycle in the acquisition graph (deadlock
//!   potential between two interleaved call paths);
//! * `lock-across-blocking` — a blocking op executed while any lock is
//!   held (a classic lost-wakeup / starvation shape). Intentional
//!   designs (a mutex serving as the consume token for a
//!   single-consumer channel) take an inline waiver with a reason.
//! * `unmatched-release` — a release of a lock that is not held,
//!   which usually means the annotations drifted from the code.
//!
//! The analysis is per-function and flow-insensitive (annotations in
//! source order); held sets reset at function end — scope-exit drops
//! need no annotation.

use crate::config::AnalysisConfig;
use crate::report::{AnalysisReport, Finding, Pass};
use crate::source::{Directive, SourceFile};
use std::collections::BTreeMap;

/// One acquisition-order edge with the site that witnessed it.
#[derive(Clone, Debug)]
struct Edge {
    to: String,
    file: String,
    line: usize,
}

/// Runs the lock-graph checker over lexed files.
#[must_use]
pub fn check(files: &[SourceFile], cfg: &AnalysisConfig) -> AnalysisReport {
    let mut report = AnalysisReport::default();
    // acquisition-order edges: held lock -> locks taken under it
    let mut edges: BTreeMap<String, Vec<Edge>> = BTreeMap::new();

    for file in files {
        for span in &file.fns {
            let mut held: Vec<(String, usize)> = Vec::new();
            for lineno in span.start..=span.end {
                for d in file.directives(lineno) {
                    match d {
                        Directive::Acquire(name) => {
                            for (h, _) in &held {
                                if *h != name {
                                    edges.entry(h.clone()).or_default().push(Edge {
                                        to: name.clone(),
                                        file: file.path.clone(),
                                        line: lineno,
                                    });
                                }
                            }
                            held.push((name, lineno));
                        }
                        Directive::Release(name) => {
                            if let Some(pos) = held.iter().rposition(|(h, _)| *h == name) {
                                held.remove(pos);
                            } else {
                                emit(
                                    &mut report,
                                    file,
                                    cfg,
                                    "unmatched-release",
                                    lineno,
                                    format!(
                                        "release of `{name}` in `{}` but it is not held — \
                                         annotations have drifted from the code",
                                        span.name
                                    ),
                                );
                            }
                        }
                        Directive::Blocking(chan) => {
                            if let Some((h, at)) = held.last() {
                                emit(
                                    &mut report,
                                    file,
                                    cfg,
                                    "lock-across-blocking",
                                    lineno,
                                    format!(
                                        "blocking op on `{chan}` in `{}` while holding \
                                         `{h}` (acquired line {at})",
                                        span.name
                                    ),
                                );
                            }
                        }
                        Directive::Allow { .. } => {}
                    }
                }
            }
        }
    }

    find_cycles(&edges, &mut report);
    report
}

/// DFS cycle detection over the acquisition graph; one finding per
/// distinct cycle entry lock.
fn find_cycles(edges: &BTreeMap<String, Vec<Edge>>, report: &mut AnalysisReport) {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Grey,
        Black,
    }
    let mut marks: BTreeMap<&str, Mark> = edges.keys().map(|k| (k.as_str(), Mark::White)).collect();
    for e in edges.values().flatten() {
        marks.entry(e.to.as_str()).or_insert(Mark::White);
    }

    fn dfs<'a>(
        node: &'a str,
        edges: &'a BTreeMap<String, Vec<Edge>>,
        marks: &mut BTreeMap<&'a str, Mark>,
        stack: &mut Vec<&'a str>,
        found: &mut Vec<(Vec<String>, String, usize)>,
    ) {
        marks.insert(node, Mark::Grey);
        stack.push(node);
        for e in edges.get(node).map(Vec::as_slice).unwrap_or_default() {
            match marks.get(e.to.as_str()).copied().unwrap_or(Mark::White) {
                Mark::Grey => {
                    let from = stack
                        .iter()
                        .position(|&s| s == e.to)
                        .unwrap_or(stack.len() - 1);
                    let mut cycle: Vec<String> =
                        stack[from..].iter().map(|s| (*s).to_owned()).collect();
                    cycle.push(e.to.clone());
                    found.push((cycle, e.file.clone(), e.line));
                }
                Mark::White => dfs(e.to.as_str(), edges, marks, stack, found),
                Mark::Black => {}
            }
        }
        stack.pop();
        marks.insert(node, Mark::Black);
    }

    let mut found = Vec::new();
    let roots: Vec<&str> = marks.keys().copied().collect();
    for node in roots {
        if marks.get(node) == Some(&Mark::White) {
            dfs(node, edges, &mut marks, &mut Vec::new(), &mut found);
        }
    }
    for (cycle, file, line) in found {
        report.findings.push(Finding {
            pass: Pass::LockGraph,
            rule: "lock-cycle",
            file,
            line,
            message: format!(
                "acquisition-order cycle {} — two interleaved call paths can deadlock",
                cycle.join(" -> ")
            ),
        });
    }
}

fn emit(
    report: &mut AnalysisReport,
    file: &SourceFile,
    cfg: &AnalysisConfig,
    rule: &'static str,
    line: usize,
    message: String,
) {
    if cfg.allows(&file.path, rule) {
        return;
    }
    if let Some((at, reason)) = file.waiver(line, rule) {
        report
            .waivers_used
            .push((file.path.clone(), at, rule.to_owned(), reason));
        return;
    }
    report.findings.push(Finding {
        pass: Pass::LockGraph,
        rule,
        file: file.path.clone(),
        line,
        message,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> AnalysisReport {
        let f = SourceFile::parse("x.rs", src);
        check(&[f], &AnalysisConfig::default())
    }

    #[test]
    fn detects_an_ab_ba_cycle() {
        let r = run(
            "fn left() {\n    // analyze:acquire(a)\n    // analyze:acquire(b)\n}\nfn right() {\n    // analyze:acquire(b)\n    // analyze:acquire(a)\n}\n",
        );
        assert_eq!(r.of_rule("lock-cycle").len(), 1);
        assert!(
            r.of_rule("lock-cycle")[0].message.contains("a -> b")
                || r.of_rule("lock-cycle")[0].message.contains("b -> a")
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let r = run(
            "fn left() {\n    // analyze:acquire(a)\n    // analyze:acquire(b)\n}\nfn right() {\n    // analyze:acquire(a)\n    // analyze:acquire(b)\n}\n",
        );
        assert!(r.clean(), "{:?}", r.findings);
    }

    #[test]
    fn blocking_under_lock_fires_and_release_clears() {
        let r = run(
            "fn bad() {\n    // analyze:acquire(q)\n    // analyze:blocking(rx)\n}\nfn good() {\n    // analyze:acquire(q)\n    // analyze:release(q)\n    // analyze:blocking(rx)\n}\n",
        );
        assert_eq!(r.of_rule("lock-across-blocking").len(), 1);
        assert_eq!(r.of_rule("lock-across-blocking")[0].line, 3);
    }

    #[test]
    fn unmatched_release_fires() {
        let r = run("fn f() {\n    // analyze:release(q)\n}\n");
        assert_eq!(r.of_rule("unmatched-release").len(), 1);
    }

    #[test]
    fn waived_blocking_is_reported_as_waiver() {
        let r = run(
            "fn worker() {\n    // analyze:acquire(q)\n    // analyze:blocking(rx) analyze:allow(lock-across-blocking) mutex is the consume token\n}\n",
        );
        assert!(r.of_rule("lock-across-blocking").is_empty());
        assert_eq!(r.waivers_used.len(), 1);
    }

    #[test]
    fn held_sets_reset_per_function() {
        let r = run(
            "fn one() {\n    // analyze:acquire(a)\n}\nfn two() {\n    // analyze:blocking(rx)\n}\n",
        );
        assert!(r.clean(), "{:?}", r.findings);
    }
}
