//! `loadgen` rejects what it does not understand: an unknown flag —
//! `--help` included — is a usage error that starts no server and appends
//! no record to `BENCH_serve.json`.

use std::path::Path;
use std::process::Command;

#[test]
fn help_and_unknown_flags_fail_without_touching_the_bench_log() {
    let log = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_serve.json");
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
