//! Replays the stored fuzzing regression corpus as plain tests.
//!
//! Every `.mlir` file under `fuzz/corpus-regressions/` is a minimized
//! reproducer written by `irdl-fuzz` (or a hand-written smoke case) with
//! its seed in the header comments. Each case once made an oracle
//! diverge; these tests pin the fixes by asserting that every oracle is
//! green on every stored case, on every `cargo test` — no fuzzing run
//! required.

use std::path::PathBuf;

use irdl_repro::fuzz::{load_case, replay_all, FuzzTarget};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fuzz/corpus-regressions")
}

/// The stored cases, sorted by file name for stable test output.
fn cases() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("fuzz/corpus-regressions exists")
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension().is_some_and(|e| e == "mlir")).then_some(path)
        })
        .collect();
    paths.sort();
    paths
}

#[test]
fn corpus_is_not_empty() {
    assert!(!cases().is_empty(), "regression corpus should hold at least one case");
}

#[test]
fn every_stored_case_replays_green() {
    let target = FuzzTarget::corpus().expect("corpus compiles");
    for path in cases() {
        let case = load_case(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let failures = replay_all(&target, &case.text, case.seed);
        assert!(
            failures.is_empty(),
            "{} (oracle `{}`, seed {:#x}) diverges again:\n{}",
            path.display(),
            case.oracle,
            case.seed,
            failures
                .iter()
                .map(|f| format!("[{}] {}", f.oracle, f.detail))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// Header metadata survives the write → load round trip.
#[test]
fn case_headers_parse() {
    for path in cases() {
        let case = load_case(&path).unwrap();
        assert!(!case.oracle.is_empty(), "{}", path.display());
        assert!(
            case.text.contains("builtin.module") || !case.text.is_empty(),
            "{}",
            path.display()
        );
    }
}
