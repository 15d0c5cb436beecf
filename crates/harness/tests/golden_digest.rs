//! Golden statistics digest for the quick evaluation matrix.
//!
//! The hot-path work (single-pass context hashing, indexed prefetch queue,
//! flat cache arrays) and the record-once/replay-many trace store must be
//! pure performance changes: every simulated statistic has to stay
//! bit-identical. This test pins one fingerprint of the full quick matrix —
//! captured from the sequential runner before either rewrite — and asserts
//! that the sequential runner, the parallel runner, and explicit
//! trace-replay all still reproduce it exactly:
//!
//! `sequential == parallel == replay == GOLDEN`
//!
//! (The sequential/parallel runners go through the process-global
//! [`TraceStore`] since the store landed, so those two tests already
//! exercise store-backed replay; `replay_matches_golden` additionally pins
//! the explicit capture → [`ReplayKernel`] path.)
//!
//! If a future change *intends* to alter simulation behaviour, update
//! [`GOLDEN`] with the value printed by the failing assertion and record
//! why in CHANGES.md.
//!
//! **Why iteration order is part of this contract.** The digest folds
//! every counter of every cell, and several of those counters are fed by
//! code that *walks* containers: prefetch emission order decides MSHR
//! occupancy and which request gets rejected under pressure, eviction
//! scans decide which line a stats bump lands on, and the RNG stream is
//! consumed in whatever order exploration draws are made. A
//! `std::collections::HashMap`/`HashSet` randomizes its iteration order
//! per *process*, so a single order-sensitive walk of one would make this
//! digest differ between two runs of the same binary — the failure would
//! look like flakiness, not like the layout bug it is. That is exactly
//! what `clippy.toml`'s `disallowed-types` bans workspace-wide; the two
//! allowed exceptions (the prefetch queue's fixed-seed block index, the
//! harness's keyed-only memo maps) are argued inline at their declarations
//! as `#[expect]` reasons, which clippy re-checks on every CI run.

use std::sync::Arc;

use semloc_harness::{Matrix, PrefetcherKind, SimConfig, TraceStore};
use semloc_workloads::{capture_kernel, kernel_by_name, KernelBox, ReplayKernel};

/// Digest of the quick matrix (array/list/mcf × none/stride/context),
/// captured from `Matrix::run` with the demand-refill cache fix in place
/// and before the hot-path rewrite.
const GOLDEN: u64 = 0xe1cb_22f1_96f5_5582;

fn kernels() -> Vec<KernelBox> {
    ["array", "list", "mcf"]
        .iter()
        .map(|n| kernel_by_name(n).expect("kernel registered"))
        .collect()
}

fn lineup() -> Vec<PrefetcherKind> {
    vec![PrefetcherKind::Stride, PrefetcherKind::context()]
}

/// On mismatch, don't just report the aggregate fingerprint — render the
/// per-cell digest table so the failing (kernel × prefetcher) cell is
/// named directly and can be compared across two CI logs.
fn assert_golden(m: &Matrix, what: &str) {
    if m.stats_digest() == GOLDEN {
        return;
    }
    let mut table = String::from("kernel       prefetcher         cell digest\n");
    for r in m.iter() {
        table.push_str(&format!(
            "{:<12} {:<18} {:#018x}\n",
            r.kernel,
            r.prefetcher,
            r.stats_digest()
        ));
    }
    panic!(
        "{what} quick-matrix stats diverged from the pinned golden digest \
         (got {:#018x}, want {GOLDEN:#018x}); the change is not \
         behaviour-preserving.\nPer-cell digests:\n{table}",
        m.stats_digest()
    );
}

#[test]
fn sequential_matches_golden() {
    let m = Matrix::run(&kernels(), &lineup(), &SimConfig::quick());
    assert_golden(&m, "sequential");
}

#[test]
fn parallel_matches_golden() {
    let m = Matrix::run_parallel(&kernels(), &lineup(), &SimConfig::quick(), 4);
    assert_golden(&m, "parallel");
}

#[test]
fn replay_matches_golden() {
    // Capture each kernel's stream once, then drive the whole matrix from
    // the replayed traces. Replay must be bit-identical to generation, so
    // the digest must equal the one pinned before the trace store existed.
    let cfg = SimConfig::quick();
    let replayed: Vec<KernelBox> = kernels()
        .iter()
        .map(|k| {
            let trace = capture_kernel(k.as_ref(), cfg.instr_budget);
            assert!(trace.covers(cfg.instr_budget));
            Box::new(ReplayKernel::new(Arc::new(trace))) as KernelBox
        })
        .collect();
    let m = Matrix::run(&replayed, &lineup(), &cfg);
    assert_golden(&m, "replayed");
}

#[test]
fn disk_replay_matches_golden() {
    // Capture the three kernels into an on-disk trace cache, then run the
    // matrix through a fresh store on the same directory (as another
    // process would): every stream must come from disk, none may be
    // rejected, and the digest must not move.
    let dir = std::env::temp_dir().join(format!("semloc-golden-disk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = SimConfig::quick();
    let writer = TraceStore::with_dir(&dir);
    for k in kernels() {
        writer.replay(k.as_ref(), cfg.instr_budget);
    }
    let reader = TraceStore::with_dir(&dir);
    let m = Matrix::run_with_store(&reader, &kernels(), &lineup(), &cfg);
    assert_eq!(reader.stats().1, 0, "every kernel must load from disk");
    assert_eq!(reader.disk_rejects(), 0);
    assert_golden(&m, "disk-replayed");
    let _ = std::fs::remove_dir_all(&dir);
}
