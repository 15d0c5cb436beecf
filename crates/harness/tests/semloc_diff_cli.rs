//! The `semloc-diff` binary's argument handling.

use std::process::Command;

#[test]
fn malformed_budget_fails_before_any_simulation() {
    let out = Command::new(env!("CARGO_BIN_EXE_semloc-diff"))
        .arg("100k")
        .output()
        .expect("semloc-diff runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("budget must be an integer >= 1, got \"100k\""),
        "stderr: {stderr}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing may run: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn zero_budget_fails_before_any_simulation() {
    // 0 would mean unbounded, and every registered kernel runs until its
    // budget. The malformed `SEMLOC_BUDGET` makes a build that accepted the
    // zero panic at `SimConfig::default` before it simulates anything.
    let out = Command::new(env!("CARGO_BIN_EXE_semloc-diff"))
        .arg("0")
        .env("SEMLOC_BUDGET", "banana")
        .output()
        .expect("semloc-diff runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("budget must be an integer >= 1, got \"0\""),
        "stderr: {stderr}"
    );
    assert!(out.stdout.is_empty());
}
