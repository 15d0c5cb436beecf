//! Cross-crate integration tests: full workload → core → hierarchy →
//! prefetcher runs through the public API.

use semloc::context::ContextConfig;
use semloc::harness::{calibrated_context, run_kernel, Matrix, PrefetcherKind, SimConfig};
use semloc::workloads::{all_kernels, kernel_by_name, microbenchmarks, spec_suite};

fn quick() -> SimConfig {
    SimConfig::default().with_budget(80_000)
}

#[test]
fn every_registered_workload_simulates_under_every_prefetcher() {
    let cfg = SimConfig::default().with_budget(25_000);
    let lineup = [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::Markov,
        PrefetcherKind::NextLine,
        PrefetcherKind::context(),
    ];
    for kernel in all_kernels() {
        for pf in &lineup {
            let r = run_kernel(kernel.as_ref(), pf, &cfg);
            assert!(
                r.cpu.instructions >= cfg.instr_budget,
                "{}/{} stalled at {} instructions",
                kernel.name(),
                pf.label(),
                r.cpu.instructions
            );
            assert!(
                r.cpu.cycles > 0 && r.cpu.ipc() > 0.0,
                "{}/{} produced no cycles",
                kernel.name(),
                pf.label()
            );
            assert!(
                r.mem.demand_accesses > 0,
                "{}/{} made no memory accesses",
                kernel.name(),
                pf.label()
            );
        }
    }
}

#[test]
fn class_counts_cover_every_demand_access() {
    for name in ["mcf", "array", "bst"] {
        let k = kernel_by_name(name).unwrap();
        let r = run_kernel(k.as_ref(), &PrefetcherKind::context(), &quick());
        assert_eq!(
            r.mem.classes.demands(),
            r.mem.demand_accesses,
            "{name}: classification must partition the demand stream"
        );
    }
}

#[test]
fn miss_accounting_is_consistent() {
    for pf in [PrefetcherKind::None, PrefetcherKind::context()] {
        let k = kernel_by_name("list").unwrap();
        let r = run_kernel(k.as_ref(), &pf, &quick());
        // Misses + merges cannot exceed demand accesses; L2 misses cannot
        // exceed L1 misses (demand path).
        assert!(r.mem.l1_misses + r.mem.l1_mshr_merges <= r.mem.demand_accesses);
        assert!(r.mem.l2_misses <= r.mem.l1_misses);
    }
}

#[test]
fn prefetching_never_changes_instruction_count() {
    let k = kernel_by_name("hmmer").unwrap();
    let base = run_kernel(k.as_ref(), &PrefetcherKind::None, &quick());
    let ctx = run_kernel(k.as_ref(), &PrefetcherKind::context(), &quick());
    assert_eq!(
        base.cpu.instructions, ctx.cpu.instructions,
        "prefetching is microarchitectural only"
    );
    assert_eq!(base.cpu.loads, ctx.cpu.loads);
    assert_eq!(base.cpu.branches, ctx.cpu.branches);
}

#[test]
fn matrix_runs_share_one_baseline() {
    let kernels = vec![kernel_by_name("list").unwrap()];
    let m = Matrix::run(
        &kernels,
        &[PrefetcherKind::Sms, PrefetcherKind::context()],
        &quick(),
    );
    assert_eq!(m.prefetchers(), &["none", "sms", "context"]);
    let s_none = m.speedup("list", "none").unwrap();
    assert!((s_none - 1.0).abs() < 1e-12);
    assert!(m.speedup("list", "context").unwrap() > 0.5);
}

#[test]
fn registry_partitions_are_consistent() {
    let total = all_kernels().len();
    assert_eq!(
        microbenchmarks().len() + spec_suite().len() + 7,
        total,
        "3 PBBS + 2 Graph500 + 2 HPCS"
    );
}

#[test]
fn issue_threshold_throttles_real_prefetches() {
    let k = kernel_by_name("bst").unwrap();
    let default_run = run_kernel(k.as_ref(), &PrefetcherKind::context(), &quick());
    let cfg = ContextConfig {
        issue_score_threshold: 100, // only near-saturated candidates qualify
        max_degree: 1,
        ..ContextConfig::default()
    };
    let strict = run_kernel(k.as_ref(), &PrefetcherKind::Context(cfg), &quick());
    assert!(
        strict.mem.prefetches_issued < default_run.mem.prefetches_issued / 2,
        "strict threshold must issue far fewer real prefetches ({} vs {})",
        strict.mem.prefetches_issued,
        default_run.mem.prefetches_issued
    );
    let learn = strict.learn.unwrap();
    assert!(
        learn.shadow_issued > 0,
        "training must continue through shadows"
    );
}

#[test]
fn calibrated_context_runs_and_learns() {
    let k = kernel_by_name("mcf").unwrap();
    let cfg = calibrated_context(k.as_ref(), ContextConfig::default(), &quick());
    let r = run_kernel(k.as_ref(), &PrefetcherKind::Context(cfg), &quick());
    let learn = r.learn.expect("learning stats");
    assert!(learn.collected > 0);
    assert!(r.cpu.ipc() > 0.0);
}

#[test]
fn cli_rejects_a_malformed_budget() {
    // A typo'd budget must stop the CLI with the knob name and the bad
    // value, not silently run the 400k default.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_semloc"))
        .args(["run", "mcf", "context", "banana"])
        .output()
        .expect("run the semloc binary");
    assert_eq!(out.status.code(), Some(1), "malformed budget must exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("budget") && err.contains("\"banana\""),
        "stderr must name the knob and the value: {err}"
    );
    assert!(
        out.stdout.is_empty(),
        "nothing may run on a malformed budget"
    );
}

#[test]
fn cli_budget_defaults_to_semloc_budget() {
    // Without a budget argument the CLI runs `SEMLOC_BUDGET`, the same
    // default every other entry point reads.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_semloc"))
        .args(["run", "list", "none", "--json"])
        .env("SEMLOC_BUDGET", "20000")
        .output()
        .expect("run the semloc binary");
    assert_eq!(out.status.code(), Some(0));
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"instructions\":20000,"), "{json}");
}

#[test]
fn cli_refuses_a_zero_budget() {
    // A budget of 0 means unbounded, and every registered kernel runs
    // until its budget, so a zero from outside the program must stop the
    // CLI before anything runs. Each command below also makes a build
    // that accepted the zero stop without simulating: the workload does
    // not exist, or `table2` only prints.
    let semloc = |args: &[&str], budget_env: Option<&str>| {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_semloc"));
        cmd.args(args).env_remove("SEMLOC_BUDGET");
        if let Some(v) = budget_env {
            cmd.env("SEMLOC_BUDGET", v);
        }
        cmd.output().expect("run the semloc binary")
    };
    let file = std::env::temp_dir().join(format!("semloc-zero-{}.trace", std::process::id()));
    let file = file.to_str().unwrap();
    for args in [
        &["run", "no-such-kernel", "none", "0"][..],
        &["compare", "no-such-kernel", "0"],
        &["record", "no-such-kernel", file, "0"],
        &["inspect", "no-such-kernel", "0"],
    ] {
        let out = semloc(args, None);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains("budget must be an integer >= 1, got \"0\""),
            "{args:?}: {err}"
        );
    }
    let out = semloc(&["table2"], Some("0"));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "SEMLOC_BUDGET=0 was accepted");
    assert!(
        err.contains("SEMLOC_BUDGET must be an integer >= 1, got \"0\""),
        "{err}"
    );
}

#[test]
fn cli_replay_refuses_the_calibrated_prefetcher() {
    // Calibration probes a workload, and a trace file names none: replaying
    // one under `context-calibrated` must fail, not run the uncalibrated
    // prefetcher under the calibrated name.
    let dir = std::env::temp_dir().join(format!("semloc-cli-calibrated-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("list.trace");
    let file = path.to_str().unwrap();
    let semloc = |args: &[&str]| {
        std::process::Command::new(env!("CARGO_BIN_EXE_semloc"))
            .args(args)
            .output()
            .expect("run the semloc binary")
    };
    let recorded = semloc(&["record", "list", file, "5000"]);
    assert_eq!(recorded.status.code(), Some(0), "record must succeed");
    let out = semloc(&["replay", file, "context-calibrated"]);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(out.status.code(), Some(1), "calibrated replay must exit 1");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("context-calibrated") && err.contains("semloc run"),
        "stderr must name the prefetcher and point to `semloc run`: {err}"
    );
    assert!(out.stdout.is_empty(), "nothing may be simulated");
}

#[test]
fn cli_record_then_replay_matches_run() {
    let semloc = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_semloc"))
            .args(args)
            .output()
            .expect("run the semloc binary");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (out.status.code(), stdout)
    };
    // The three figures both commands print, as text.
    let figures = |out: &str| -> Vec<String> {
        let after = |label: &str| {
            let rest = &out[out.find(label).expect(label) + label.len()..];
            rest.split_whitespace().next().unwrap().to_string()
        };
        vec![after("IPC:"), after("L1 MPKI:"), after("L2 MPKI:")]
    };
    let path = std::env::temp_dir().join(format!("semloc-cli-{}.trace", std::process::id()));
    let file = path.to_str().unwrap();

    let (code, _) = semloc(&["record", "list", file, "20000"]);
    assert_eq!(code, Some(0), "record must succeed");
    let (code, replayed) = semloc(&["replay", file, "none"]);
    assert_eq!(code, Some(0), "replay must succeed: {replayed}");
    assert!(
        replayed.contains("replayed 20000 instructions"),
        "{replayed}"
    );
    let (code, ran) = semloc(&["run", "list", "none", "20000"]);
    assert_eq!(code, Some(0));
    assert_eq!(
        figures(&replayed),
        figures(&ran),
        "replay:\n{replayed}\nrun:\n{ran}"
    );

    // A byte appended to the frame makes it invalid.
    let mut bytes = std::fs::read(&path).unwrap();
    bytes.push(0);
    std::fs::write(&path, bytes).unwrap();
    let (code, _) = semloc(&["replay", file, "none"]);
    assert_eq!(code, Some(1), "an extended trace must be refused");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cli_record_writes_the_pinned_trace_bytes() {
    // The file older builds wrote for the same command, byte for byte
    // (FNV-1a of the whole file): trace files stay loadable across builds.
    let path = std::env::temp_dir().join(format!("semloc-pin-{}.trace", std::process::id()));
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_semloc"))
        .args(["record", "list", path.to_str().unwrap(), "20000"])
        .output()
        .expect("run the semloc binary")
        .status;
    assert!(status.success());
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        semloc::trace::fnv1a(semloc::trace::FNV_OFFSET, &bytes),
        0x1381_1757_1bd5_409d
    );
}

#[test]
fn cli_compare_json_rows_carry_the_listed_names() {
    // Each `compare --json` row names its prefetcher as `semloc list` does,
    // so `context` and `context-calibrated` stay distinguishable.
    let semloc = |args: &[&str]| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_semloc"))
            .args(args)
            .output()
            .expect("run the semloc binary");
        assert_eq!(out.status.code(), Some(0), "semloc {args:?} must succeed");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let list = semloc(&["list"]);
    let listed: Vec<&str> = list
        .split("prefetchers:")
        .nth(1)
        .expect("`semloc list` lists prefetchers")
        .split_whitespace()
        .collect();
    let json = semloc(&["compare", "list", "5000", "--json"]);
    let rows: Vec<&str> = json
        .split("\"prefetcher\":\"")
        .skip(1)
        .map(|row| row.split('"').next().unwrap())
        .collect();
    assert_eq!(listed.len(), 10, "{list}");
    assert_eq!(rows, listed, "{json}");
}
