//! Kill/resume smoke test for on-disk checkpoints (`SIMC` and `RRES`
//! frames in a `CkptStore`), driven as two separate processes so the
//! resume genuinely starts cold:
//!
//! ```text
//! ckpt_smoke interrupted <dir>   # run every golden cell partway, persist
//!                                # mid-run checkpoints, then exit (the
//!                                # "kill")
//! ckpt_smoke resume <dir>        # a fresh process resumes each cell from
//!                                # disk and must reproduce the pinned
//!                                # golden digest bit for bit
//! ```
//!
//! The resume phase also re-runs the matrix a second time: every cell now
//! has a *final* checkpoint on disk, so the rerun must short-circuit
//! simulation entirely and still fold to the same pinned digest.

use std::sync::Arc;

use semloc_harness::{run_resumable, CkptStore, Engine, PrefetcherKind, SimCheckpoint, SimConfig};
use semloc_trace::{fnv1a, FNV_OFFSET};
use semloc_workloads::{capture_kernel, kernel_by_name, ReplayKernel};

/// Same pinned fingerprint as `golden_digest.rs` / `checkpoint_golden.rs`.
const GOLDEN: u64 = 0xe1cb_22f1_96f5_5582;

const KERNELS: [&str; 3] = ["array", "list", "mcf"];

/// Fraction of the budget each cell runs before the simulated kill.
const INTERRUPT_AT: u64 = 50_000;

fn lineup() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::context(),
    ]
}

fn replay_of(name: &str, budget: u64) -> ReplayKernel {
    let k = kernel_by_name(name).expect("registered kernel");
    ReplayKernel::new(Arc::new(capture_kernel(k.as_ref(), budget)))
}

/// FNV-1a fold of per-cell digests, mirroring `Matrix::stats_digest`.
fn fold(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

fn interrupted(store: &CkptStore, cfg: &SimConfig) {
    let mut saved = 0;
    for kernel in KERNELS {
        let replay = replay_of(kernel, cfg.instr_budget);
        for kind in lineup() {
            let mut e = Engine::new(replay.clone(), &kind, cfg);
            e.run_to(INTERRUPT_AT);
            assert_eq!(e.cursor(), INTERRUPT_AT);
            let fp = e.fingerprint();
            store.save(kernel, fp, &e.checkpoint().to_bytes());
            assert!(
                store.load(kernel, fp, SimCheckpoint::from_bytes).is_some(),
                "{kernel}/{}: mid-run checkpoint must persist",
                kind.label()
            );
            saved += 1;
            // Dropping the engine here is the "kill": nothing past
            // INTERRUPT_AT was simulated in this process.
        }
    }
    println!("interrupted: persisted {saved} mid-run checkpoints");
}

fn resume(store: &CkptStore, cfg: &SimConfig) {
    let mut digests = Vec::new();
    for kernel in KERNELS {
        let replay = replay_of(kernel, cfg.instr_budget);
        for kind in lineup() {
            let r = run_resumable(store, replay.clone(), &kind, cfg);
            digests.push(r.stats_digest());
        }
    }
    let cells = digests.len() as u64;
    let (_, loads, rejects) = store.stats();
    assert!(
        loads >= cells,
        "every cell must have resumed from disk (loaded {loads}/{cells})"
    );
    assert_eq!(rejects, 0, "no checkpoint may be rejected in the smoke run");
    assert_eq!(
        fold(&digests),
        GOLDEN,
        "resumed matrix diverged from the pinned golden digest"
    );
    println!(
        "resume: {cells} cells resumed, digest {:#018x} == golden",
        GOLDEN
    );

    // Second pass: every cell finished above, so a final checkpoint now
    // short-circuits simulation — and must still fold to the same digest.
    let loads_before = loads;
    let mut shortcut = Vec::new();
    for kernel in KERNELS {
        let replay = replay_of(kernel, cfg.instr_budget);
        for kind in lineup() {
            shortcut.push(run_resumable(store, replay.clone(), &kind, cfg).stats_digest());
        }
    }
    let (_, loads_after, rejects_after) = store.stats();
    assert!(
        loads_after >= loads_before + cells,
        "rerun must load final checkpoints instead of simulating"
    );
    assert_eq!(rejects_after, 0);
    assert_eq!(
        fold(&shortcut),
        GOLDEN,
        "final-checkpoint short-circuit diverged from the pinned golden digest"
    );
    println!("resume: short-circuit rerun matches the golden digest");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let phase = args.next().unwrap_or_default();
    let dir = args
        .next()
        .unwrap_or_else(|| "/tmp/semloc-ckpt-smoke".into());
    let store = CkptStore::with_dir(&dir);
    let cfg = SimConfig::quick();
    match phase.as_str() {
        "interrupted" => interrupted(&store, &cfg),
        "resume" => resume(&store, &cfg),
        other => {
            eprintln!("usage: ckpt_smoke <interrupted|resume> [dir] (got {other:?})");
            std::process::exit(2);
        }
    }
}
