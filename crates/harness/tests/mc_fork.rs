//! Fork bit-identity for the multi-core engine.
//!
//! The single-core engine's fork contract — clone anywhere, and both the
//! clone and the original land on *exactly* the statistics of an
//! uninterrupted run — must survive the jump to N cores + shared L2 + DRAM
//! channel state. This test forks a 2-core interference run
//! **mid-schedule** (inside a composed phase, channels booked, MSHRs in
//! flight, cores desynchronized within a quantum). A fork that aliased the
//! shared level instead of copying it would let the fork's run disturb the
//! original's.

use std::sync::Arc;

use semloc_harness::{mc_digest, McConfig, McEngine, PrefetcherKind, SimConfig};
use semloc_workloads::{capture_kernel, kernel_by_name, Composer, ReplayKernel};

/// The 2-core scenario: a composed phase-shift schedule on
/// the learned prefetcher vs a streaming antagonist on stride.
fn engine() -> McEngine {
    let menu: Vec<_> = ["mcf", "list", "hashtest"]
        .iter()
        .map(|n| {
            let k = kernel_by_name(n).expect("registry kernel");
            Arc::new(capture_kernel(k.as_ref(), 30_000))
        })
        .collect();
    let sched = Composer::new(0x7a).phase_shift("snap-sched", &menu, 3, 6_000, 12_000);
    let antagonist = kernel_by_name("array").expect("registry kernel");
    McEngine::new(
        vec![
            (
                ReplayKernel::new(Arc::new(capture_kernel(&sched, 0))),
                PrefetcherKind::context(),
            ),
            (
                ReplayKernel::new(Arc::new(capture_kernel(antagonist.as_ref(), 25_000))),
                PrefetcherKind::Stride,
            ),
        ],
        &SimConfig::default().with_budget(0),
        &McConfig::default(),
    )
}

fn finish_digest(mut e: McEngine) -> u64 {
    e.run_to_end();
    let (results, shared) = e.finish();
    mc_digest(&results, &shared)
}

#[test]
fn a_fork_mid_schedule_and_its_original_both_finish_uninterrupted() {
    let uninterrupted = finish_digest(engine());

    // Pause mid-run — a handful of quanta in, inside the composed
    // schedule, with DRAM channels booked and cores desynchronized.
    let mut warm = engine();
    for _ in 0..9 {
        warm.step_quantum();
    }
    assert!(!warm.done(), "pause point must be mid-schedule");
    let cursors = |e: &McEngine| e.cores().iter().map(|c| c.cursor()).collect::<Vec<_>>();
    let paused = cursors(&warm);
    assert!(
        paused.iter().all(|&c| c > 0),
        "every core must have progressed before the pause"
    );

    let fork = warm.clone();
    assert_eq!(
        cursors(&fork),
        paused,
        "the fork resumes at the exact cursors"
    );
    assert_eq!(
        finish_digest(fork),
        uninterrupted,
        "a fork must continue like an uninterrupted multi-core run"
    );
    assert_eq!(
        cursors(&warm),
        paused,
        "running the fork moved its original"
    );
    assert_eq!(
        finish_digest(warm),
        uninterrupted,
        "the original must finish like an uninterrupted run"
    );
}
