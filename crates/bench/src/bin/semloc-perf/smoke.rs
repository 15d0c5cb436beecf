//! Smoke tests: every workload at a tiny scale, with and without tracing,
//! emits every metric `BENCHMARK.json` names, with its unit, and fails no
//! operation; a digest mismatch counts as a failure; the standalone build
//! compiles with the workspace's release profile.

use semloc_harness::TraceStore;

use crate::report::{per_layer, END_TO_END};
use crate::timed::{pass_count, run_pass};
use crate::workloads::{Scale, Workload};
use crate::{parse_args, run_traced, run_untraced, Outcome};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// 20k-instruction cells in ~10 slices each, so even the 16-cell workload
/// has 160 ops and a p90 with 16 beyond it.
const SMOKE: Scale = Scale {
    budget: 20_000,
    slice: 2_048,
    mc: 80_000,
};

/// The value of `"key": ...` on one line of `BENCHMARK.json` (which keeps
/// each workload and metric object on a line of its own).
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = &line[line.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let rest = rest.trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// `(section, name, unit, better, bound)` of every named entry.
fn benchmark_entries() -> Vec<(String, String, String, String, String)> {
    let mut section = String::new();
    let mut out = Vec::new();
    for line in BENCHMARK_JSON.lines() {
        for s in ["workloads", "end_to_end", "per_layer"] {
            if line.contains(&format!("\"{s}\":")) {
                section = s.to_string();
            }
        }
        if let Some(name) = field(line, "name") {
            let get = |k| field(line, k).unwrap_or_default().to_string();
            out.push((
                section.clone(),
                name.to_string(),
                get("unit"),
                get("better"),
                get("bound"),
            ));
        }
    }
    out
}

fn section(s: &str) -> Vec<(String, String, String, String)> {
    benchmark_entries()
        .into_iter()
        .filter(|e| e.0 == s)
        .map(|(_, n, u, b, bound)| (n, u, b, bound))
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let workloads: Vec<String> = section("workloads").into_iter().map(|e| e.0).collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);

    let e2e: Vec<_> = END_TO_END
        .iter()
        .map(|d| {
            (
                d.name.to_string(),
                d.unit.to_string(),
                d.better.to_string(),
                d.bound.to_string(),
            )
        })
        .collect();
    assert_eq!(section("end_to_end"), e2e);

    let layers: Vec<_> = per_layer()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string(), String::new()))
        .collect();
    assert_eq!(section("per_layer"), layers);
}

fn assert_emits(o: &Outcome, want: &[(String, &str)], what: &str) {
    assert!(o.tally.correct(), "{what}: {:?}", o.tally.notes);
    assert_eq!(o.tally.failed, 0, "{what}: fail_frac must be 0");
    assert!(o.tally.attempted > 0, "{what}: no ops attempted");
    let got: Vec<(String, &str)> = o.metrics.iter().map(|(n, u, _)| (n.clone(), *u)).collect();
    assert_eq!(got, want, "{what}: metric names or units differ");
    for (n, _, v) in &o.metrics {
        assert!(v.is_finite(), "{what}: {n} = {v}");
    }
}

#[test]
fn every_workload_emits_every_metric() {
    let e2e: Vec<(String, &str)> = section("end_to_end")
        .iter()
        .map(|(n, u, ..)| {
            let def = END_TO_END.iter().find(|d| d.name == n).expect("catalogued");
            assert_eq!(def.unit, u);
            (n.clone(), def.unit)
        })
        .collect();
    let layers: Vec<(String, &str)> = per_layer().into_iter().map(|(n, u, _)| (n, u)).collect();
    let mut moved = vec![false; layers.len()];
    for w in Workload::ALL {
        let o = run_untraced(w, 0, SMOKE, 0.0, None);
        assert_emits(&o, &e2e, w.name());
        for (n, _, v) in &o.metrics {
            assert!(*v > 0.0, "{}: end-to-end {n} must never be 0", w.name());
        }
        let t = run_traced(w, 0, SMOKE, None);
        assert_emits(&t, &layers, w.name());
        for (m, (n, _, v)) in moved.iter_mut().zip(&t.metrics) {
            *m |= *v != 0.0;
            if n.ends_with(".accuracy") || n.ends_with(".coverage") {
                assert!((0.0..=1.0).contains(v), "{}: {n} = {v}", w.name());
            }
        }
    }
    // A layer that reads 0 on every workload cannot show any change.
    let dead: Vec<&String> = layers
        .iter()
        .zip(&moved)
        .filter_map(|((n, _), &m)| (!m).then_some(n))
        .collect();
    assert!(
        dead.is_empty(),
        "per-layer metrics 0 on every workload: {dead:?}"
    );
}

/// The `[profile.release]` keys of a manifest, in order.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// `BENCHMARK.json` builds this directory as a package of its own, which
/// does not inherit the workspace's profiles: its copy must match, or a
/// change to how the simulator is compiled would not reach the benchmark.
#[test]
fn release_profile_matches_the_workspace() {
    let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
    assert!(!workspace.is_empty(), "the workspace has a release profile");
    assert_eq!(
        release_profile(include_str!("Cargo.toml")),
        workspace,
        "copy the workspace's [profile.release] into this directory's Cargo.toml"
    );
}

#[test]
fn a_digest_mismatch_is_a_failure() {
    let o = run_untraced(Workload::SpecBaseline, 0, SMOKE, 0.0, Some(0xbad));
    assert!(!o.tally.correct());
    assert_eq!(o.tally.failed, o.tally.attempted);
    let t = run_traced(Workload::LdsContext, 0, SMOKE, Some(0xbad));
    assert!(!t.tally.correct());
    assert!(t.tally.failed > 0);
}

#[test]
fn seeds_change_only_seeded_workloads() {
    for w in Workload::ALL {
        let digest = |seed| run_pass(w, seed, SMOKE, &TraceStore::new()).digest;
        assert_eq!(digest(0) == digest(1), !w.seeded(), "{}", w.name());
    }
}

#[test]
fn pass_counts_come_from_seconds_alone() {
    for w in Workload::ALL {
        assert_eq!(pass_count(w, 0.0), 1, "{}", w.name());
    }
    assert_eq!(pass_count(Workload::LdsContext, 9.0), 10);
    assert_eq!(pass_count(Workload::SpecMatrix, 12.0), 5);
}

#[test]
fn arguments_parse_in_the_benchmark_command_form() {
    let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
    let a = args("--workload lds-context --seed 7 --seconds 3 --trace 0").unwrap();
    assert_eq!(
        (a.workload, a.seed, a.seconds, a.trace),
        (Workload::LdsContext, 7, 3.0, false)
    );
    assert!(args("--workload mc-shared-l2 --trace 1").unwrap().trace);
    assert!(args("--trace --workload spec-matrix").unwrap().trace);
    let c = args("--calibrate spec-baseline").unwrap();
    assert!(c.calibrate && !c.trace);
    assert!(args("--workload nope").is_err());
    assert!(args("--seed 1").is_err(), "a workload is required");
    assert!(args("--workload spec-matrix --seconds -1").is_err());
    assert!(args("--workload spec-matrix --bogus").is_err());
}
