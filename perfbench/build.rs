//! Records the compiler version, a host fact every run prints, and a
//! digest of the sources the benchmark is built from, which keys the
//! exact-count records of traced runs to the code that produced them.

use std::path::{Path, PathBuf};
use std::process::Command;

/// What the benchmark binary is built from: the repository's crates and
/// vendored dependencies, and this package.
const SOURCES: [&str; 6] = [
    "../crates",
    "../vendor",
    "src",
    "build.rs",
    "Cargo.toml",
    "Cargo.lock",
];

/// Every file under `path`, in a fixed order, skipping build output.
fn files(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(path)
            .into_iter()
            .flatten()
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.file_name().is_some_and(|n| n != "target"))
            .collect();
        entries.sort();
        for e in entries {
            files(&e, out);
        }
    } else if path.is_file() {
        out.push(path.to_owned());
    }
}

/// 64-bit FNV-1a, continued from `hash`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_owned());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |v| v.trim().to_owned());
    let mut digest = fnv1a(0xcbf2_9ce4_8422_2325, version.as_bytes());
    for source in SOURCES {
        println!("cargo:rerun-if-changed={source}");
        let mut paths = Vec::new();
        files(Path::new(source), &mut paths);
        for path in paths {
            digest = fnv1a(digest, path.to_string_lossy().as_bytes());
            digest = fnv1a(digest, &std::fs::read(&path).unwrap_or_default());
        }
    }
    println!("cargo:rustc-env=PERFBENCH_RUSTC_VERSION={version}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");
    println!("cargo:rerun-if-env-changed=RUSTC");
}
