//! Meta-test: semloc-lint, run over this very workspace, must be clean.
//!
//! This is the enforcement teeth of the lint crate — a regression here
//! means someone introduced a determinism hazard (or forgot the pragma +
//! justification that argues why a site is safe). CI runs the same check
//! via `cargo run -p semloc-lint -- --deny-all`.

use semloc_lint::{lint, load_workspace};
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("lint crate sits two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_has_zero_findings() {
    let ws = load_workspace(&workspace_root()).expect("workspace loads");
    let report = lint(&ws);
    assert!(
        report.findings.is_empty(),
        "semloc-lint found {} violation(s) in the workspace:\n{}",
        report.findings.len(),
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn workspace_scan_covers_the_tree() {
    let ws = load_workspace(&workspace_root()).expect("workspace loads");
    // Sanity-check the walker: all sim crates, the umbrella crate, and the
    // manifest must actually be in the scan — an empty scan passing the
    // zero-findings test would be vacuous.
    assert!(
        ws.files.len() > 100,
        "only {} files scanned — walker lost a directory?",
        ws.files.len()
    );
    for needle in [
        "src/lib.rs",
        "crates/core/src/pfq.rs",
        "crates/mem/src/cache.rs",
        "crates/cpu/src/core.rs",
        "crates/bandit/src/reward.rs",
        "crates/baselines/src/sms.rs",
        "crates/spec/src/tables.rs",
        "crates/trace/src/snap.rs",
        "crates/harness/src/engine.rs",
        "tests/end_to_end.rs",
    ] {
        assert!(
            ws.files.iter().any(|f| f.rel_path == needle),
            "{needle} missing from the scan"
        );
    }
    assert!(
        ws.manifest.len() >= 20,
        "snapshot manifest lost entries: {}",
        ws.manifest.len()
    );
    assert!(ws.manifest_findings.is_empty(), "manifest must parse clean");
}

/// Seeded-mutation check for D8: drop one field reference from a real,
/// manifested Snapshot impl and the lint must catch it. This proves the
/// field-coverage rule actually reads the save/restore bodies rather than
/// vacuously passing on the clean tree.
#[test]
fn d8_catches_a_dropped_save_field() {
    let mut ws = load_workspace(&workspace_root()).expect("workspace loads");
    let bpred = ws
        .files
        .iter_mut()
        .find(|f| f.rel_path == "crates/cpu/src/bpred.rs")
        .expect("gshare predictor is in the scan");
    let seeded = "w.put_u16(self.history);";
    assert!(
        bpred.content.contains(seeded),
        "mutation anchor vanished from bpred.rs — update this test"
    );
    // The mutation: Gshare::save no longer serializes `history`. Everything
    // else (restore, the manifest entry, the pragma set) is untouched.
    bpred.content = bpred.content.replace(seeded, "");

    let report = lint(&ws);
    let caught = report.findings.iter().any(|f| {
        f.rule == "snapshot-field-coverage"
            && f.file == "crates/cpu/src/bpred.rs"
            && f.message.contains("`history`")
            && f.message.contains("save body")
    });
    assert!(
        caught,
        "D8 missed the seeded mutation; findings were:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The env-var registry must stay populated and every entry must earn its
/// keep — D10's both-direction check runs in `lint()`, so a clean report
/// plus a non-trivial registry means docs and code agree.
#[test]
fn env_registry_is_populated_and_live() {
    let ws = load_workspace(&workspace_root()).expect("workspace loads");
    assert!(
        ws.env_registry.len() >= 13,
        "env registry lost entries: {}",
        ws.env_registry.len()
    );
    assert!(
        ws.env_registry_findings.is_empty(),
        "env registry must parse clean"
    );
}

#[test]
fn vendored_stubs_are_not_scanned() {
    let ws = load_workspace(&workspace_root()).expect("workspace loads");
    assert!(
        !ws.files
            .iter()
            .any(|f| f.rel_path.starts_with("crates/rand/")
                || f.rel_path.starts_with("crates/proptest/")),
        "vendor stubs mirror external APIs and must stay out of the scan"
    );
}
