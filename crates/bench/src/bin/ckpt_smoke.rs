//! Kill/resume smoke test for the store's finished-cell files (`RRES`
//! frames under a result directory), driven as two separate processes so
//! the resume genuinely starts cold:
//!
//! ```text
//! ckpt_smoke interrupted <dir>   # finish the first golden cells through
//!                                # the store, then exit between cells
//!                                # (the "kill"); <dir> starts empty
//! ckpt_smoke resume <dir>        # a fresh process loads those cells from
//!                                # their files, simulates the rest, and
//!                                # must reproduce the pinned golden digest
//! ```
//!
//! The resume phase then reruns all nine cells through a second fresh
//! store over the same directory: every cell loads from its file, with no
//! capture and no simulation, and the matrix still folds to the same
//! pinned digest.

use semloc_harness::{run_kernel_with_store, PrefetcherKind, SimConfig, TraceStore};
use semloc_trace::{fnv1a, FNV_OFFSET};
use semloc_workloads::kernel_by_name;

/// Same pinned fingerprint as `golden_digest.rs` / `checkpoint_golden.rs`.
const GOLDEN: u64 = 0xe1cb_22f1_96f5_5582;

const KERNELS: [&str; 3] = ["array", "list", "mcf"];

/// Cells the interrupted process finishes before the simulated kill.
const FINISHED_BEFORE_KILL: usize = 4;

/// The golden matrix's cells, kernel order, then prefetcher order.
fn cells() -> Vec<(&'static str, PrefetcherKind)> {
    KERNELS
        .into_iter()
        .flat_map(|k| {
            [
                PrefetcherKind::None,
                PrefetcherKind::Stride,
                PrefetcherKind::context(),
            ]
            .map(|kind| (k, kind))
        })
        .collect()
}

/// Run `cells` through `store`, returning each cell's digest.
fn run(store: &TraceStore, cells: &[(&str, PrefetcherKind)], cfg: &SimConfig) -> Vec<u64> {
    cells
        .iter()
        .map(|(kernel, kind)| {
            let k = kernel_by_name(kernel).expect("registered kernel");
            run_kernel_with_store(store, k.as_ref(), kind, cfg).stats_digest()
        })
        .collect()
}

/// FNV-1a fold of per-cell digests, mirroring `Matrix::stats_digest`.
fn fold(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.to_le_bytes()))
}

fn interrupted(dir: &str, cfg: &SimConfig) {
    let store = TraceStore::with_result_dir(dir);
    run(&store, &cells()[..FINISHED_BEFORE_KILL], cfg);
    assert_eq!(
        store.result_stats(),
        (0, FINISHED_BEFORE_KILL as u64),
        "every cell must simulate: {dir} must start empty"
    );
    // Returning here is the "kill": the remaining cells never started.
    println!(
        "interrupted: finished {FINISHED_BEFORE_KILL} of {} cells",
        cells().len()
    );
}

fn resume(dir: &str, cfg: &SimConfig) {
    let cells = cells();
    let n = cells.len() as u64;
    let store = TraceStore::with_result_dir(dir);
    let digests = run(&store, &cells, cfg);
    let finished = FINISHED_BEFORE_KILL as u64;
    assert_eq!(
        store.result_stats(),
        (finished, n - finished),
        "the finished cells must load from their files, the rest simulate"
    );
    assert_eq!(store.disk_rejects(), 0, "no file may be rejected");
    assert_eq!(
        fold(&digests),
        GOLDEN,
        "resumed matrix diverged from the pinned golden digest"
    );
    println!(
        "resume: loaded {finished}, simulated {}, digest {GOLDEN:#018x} == golden",
        n - finished
    );

    // Second pass, as a third process would see the directory: every cell
    // loads from its file before anything is captured.
    let store = TraceStore::with_result_dir(dir);
    let digests = run(&store, &cells, cfg);
    assert_eq!(store.result_stats(), (n, 0), "every cell must load");
    assert_eq!(store.stats(), (0, 0), "nothing may be captured");
    assert_eq!(store.disk_rejects(), 0);
    assert_eq!(
        fold(&digests),
        GOLDEN,
        "the loaded matrix diverged from the pinned golden digest"
    );
    println!("resume: all {n} cells load from their files and match the golden digest");
}

fn main() {
    let mut args = std::env::args().skip(1);
    let phase = args.next().unwrap_or_default();
    let dir = args
        .next()
        .unwrap_or_else(|| "/tmp/semloc-ckpt-smoke".into());
    let cfg = SimConfig::quick();
    match phase.as_str() {
        "interrupted" => interrupted(&dir, &cfg),
        "resume" => resume(&dir, &cfg),
        other => {
            eprintln!("usage: ckpt_smoke <interrupted|resume> [dir] (got {other:?})");
            std::process::exit(2);
        }
    }
}
