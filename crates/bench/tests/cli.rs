//! The `repro` command line: an unknown section, an unknown flag, or a
//! flag outside the mode that reads it must fail with the usage and
//! write nothing, so a typo never looks like a successful run; and
//! `repro serve` answers a scripted session on stdin.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

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

#[test]
fn serve_answers_a_scripted_session() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("repro serve starts");
    let script = "two_generals K{p1} attack-planned\ngossip_push C rumor-started\n\
                  token_bus_quotient K{p0} token-at-p0\nnope K{p1} x\ntwo_generals K{p1\n\
                  :stats two_generals\n:quit\n";
    write!(child.stdin.take().expect("piped stdin"), "{script}").expect("script written");
    let out = child.wait_with_output().expect("repro serve exits");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro serve failed:\n{stdout}");
    // one reply per line after the banner; answers match up to their
    // latency, which varies from run to run
    let mut replies = stdout
        .lines()
        .skip_while(|l| !l.starts_with("commands:"))
        .skip(1);
    for want in [
        "5 of 7 computations satisfy (",
        "0 of 475 computations satisfy (",
        "483 of 4226 computations satisfy (",
        "error: unknown scenario: nope",
        "error: parse error",
    ] {
        let reply = replies.next().unwrap_or_default();
        assert!(
            reply.starts_with(want),
            "{reply:?} is not {want:?}…\n{stdout}"
        );
    }
    assert!(
        replies.any(|l| l == "hpl_admission_led{scenario=\"two_generals\"} 1"),
        "{stdout}"
    );
}
