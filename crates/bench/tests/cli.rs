//! The binaries reject what they do not understand: an unknown flag —
//! `--help` included — or a value that does not parse is a usage error
//! that does no work, so a typo never runs a default sweep or appends a
//! record. No `loadgen` run, failed or successful, writes to the tracked
//! `BENCH_serve.json`: that file is frozen history, and hostbench is the
//! performance harness.

use std::path::{Path, PathBuf};
use std::process::Command;

fn log_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{name}.json"))
}

fn bench_log() -> PathBuf {
    log_path("serve")
}

#[test]
fn typos_and_bad_values_fail_before_any_work() {
    let log = log_path("activation");
    let before = std::fs::read(&log).ok();
    let cases: [(&str, &[&str], &str); 6] = [
        (env!("CARGO_BIN_EXE_fig07_training_loss"), &["--epcohs", "1"], "--epcohs"),
        (env!("CARGO_BIN_EXE_fig07_training_loss"), &["--epochs", "one"], "--epochs"),
        (env!("CARGO_BIN_EXE_fig_ac_activation_compression"), &["--quikc"], "--quikc"),
        (
            env!("CARGO_BIN_EXE_fig_ac_activation_compression"),
            &["--quick", "--train", "x"],
            "--train",
        ),
        (env!("CARGO_BIN_EXE_repro_all"), &["--quick", "--help"], "--help"),
        (env!("CARGO_BIN_EXE_loadgen"), &["--clients", "many"], "--clients"),
    ];
    for (exe, args, flag) in cases {
        let out = Command::new(exe).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{exe} {args:?} must exit 1: {stderr}");
        assert!(stderr.contains("usage:") && stderr.contains(flag), "{exe} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{exe} {args:?} must do no work");
    }
    assert_eq!(std::fs::read(&log).ok(), before, "BENCH_activation.json must be untouched");
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
