//! `loadgen` rejects what it does not understand: an unknown flag —
//! `--help` included — is a usage error that starts no server. No run,
//! failed or successful, writes to the tracked `BENCH_serve.json`: that
//! file is frozen history, and hostbench is the performance harness.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bench_log() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json")
}

#[test]
fn help_and_unknown_flags_fail_without_touching_the_bench_log() {
    let log = bench_log();
    let before = std::fs::read(&log).ok();
    for args in [&["--help"][..], &["--backend", "epoll"][..], &["--clients"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "loadgen {args:?} must fail: {stderr}");
        assert!(stderr.contains("usage:"), "loadgen {args:?}: expected usage, got {stderr}");
        assert!(stderr.contains(args[0]), "loadgen {args:?} must name the flag: {stderr}");
    }
    assert_eq!(std::fs::read(&log).ok(), before, "BENCH_serve.json must be untouched");
}

#[test]
fn a_successful_self_hosted_run_leaves_the_bench_log_untouched() {
    let log = bench_log();
    let before = std::fs::read(&log).ok();
    let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
        .args(["--clients", "2", "--requests", "3"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "self-hosted loadgen must pass: {stdout}");
    assert!(stdout.contains("0 bit-mismatched"), "the run must verify its fetches: {stdout}");
    assert_eq!(std::fs::read(&log).ok(), before, "BENCH_serve.json must be untouched");
}
