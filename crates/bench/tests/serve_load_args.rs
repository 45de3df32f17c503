//! `serve_load` argument checks that must fail before any workload is
//! built.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_serve_load");

/// An open loop paces arrivals at a server's queue; in process there is
/// none, so `--mode open` without `--target` is refused as a usage
/// error. A snapshot path that does not exist proves the refusal comes
/// first: loading it would fail with a different message.
#[test]
fn open_mode_without_a_target_is_refused_before_the_workload_is_built() {
    let out = Command::new(BIN)
        .args([
            "--mode",
            "open",
            "--qps",
            "50",
            "--snapshot",
            "/nonexistent/serve_load/snapshot",
        ])
        .output()
        .expect("run serve_load");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--target"), "stderr: {stderr}");
    assert!(!stderr.contains("loading snapshot"), "stderr: {stderr}");

    // Without --snapshot the default workload is a full generate +
    // prepare; the refusal must still come before it.
    let out = Command::new(BIN)
        .args(["--mode", "open"])
        .output()
        .expect("run serve_load");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--target"), "stderr: {stderr}");
    assert!(!stderr.contains("generating"), "stderr: {stderr}");
}
