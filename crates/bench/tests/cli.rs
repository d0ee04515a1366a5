//! The `repro` command line: an unknown section, an unknown flag, or a
//! flag outside the mode that reads it must fail with the usage and
//! write nothing, so a typo never looks like a successful run.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `repro args…` in an empty directory named after `case` and
/// returns its output together with the names of the files it left there.
fn repro_in_empty_dir(case: &str, args: &[&str]) -> (Output, Vec<String>) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(case);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear the case directory");
    }
    std::fs::create_dir_all(&dir).expect("create the case directory");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let left = std::fs::read_dir(&dir)
        .expect("read the case directory")
        .map(|e| {
            e.expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    (out, left)
}

/// Asserts `repro args…` fails with the usage on stderr and writes nothing.
fn assert_rejected(case: &str, args: &[&str]) {
    let (out, left) = repro_in_empty_dir(case, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "repro {args:?} succeeded");
    assert!(
        stderr.contains("sections: figures") && stderr.contains("repro analyze"),
        "repro {args:?} did not name the sections and modes:\n{stderr}"
    );
    assert!(left.is_empty(), "repro {args:?} wrote {left:?}");
}

#[test]
fn an_unknown_section_is_an_error() {
    assert_rejected("unknown_section", &["nosuchsection"]);
}

#[test]
fn unknown_flags_and_flags_outside_their_mode_are_errors() {
    assert_rejected("baseline", &["--baseline", "x.json"]);
    assert_rejected("query_bench", &["query-bench"]);
    assert_rejected("json_out", &["--json", "--out", "r.json"]);
    assert_rejected("chrome_without_trace", &["figures", "--chrome", "t.json"]);
    assert_rejected("fixture_without_analyze", &["serve", "--fixture", "x"]);
}

#[test]
fn a_known_section_runs_to_completion() {
    let (out, left) = repro_in_empty_dir("figures", &["figures"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro figures failed");
    assert!(stdout.contains("Figure 3-1: REPRODUCED"));
    assert!(stdout.ends_with("=== report complete ===\n"));
    assert!(left.is_empty(), "repro figures wrote {left:?}");
}
