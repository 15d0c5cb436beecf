//! Checkpoint/restore/fork bit-identity for the multi-core engine.
//!
//! The single-core engine's snapshot contract — pause anywhere, restore
//! into a cold engine, continue, and land on *exactly* the statistics of
//! an uninterrupted run; re-save and get byte-identical payloads — must
//! survive the jump to N cores + shared L2 + DRAM channel state. These
//! tests pause a 2-core interference run **mid-schedule** (inside a
//! composed phase, channels booked, MSHRs in flight, cores desynchronized
//! within a quantum) and pin:
//!
//! * restore + continue ≡ uninterrupted (full [`mc_digest`] equality),
//! * re-saving a restored engine is byte-identical (no hidden state
//!   outside the snapshot),
//! * a fork runs ahead without disturbing the paused original.

use std::sync::Arc;

use semloc_harness::{mc_digest, McConfig, McEngine, PrefetcherKind, SimConfig};
use semloc_workloads::{capture_kernel, kernel_by_name, Composer, ReplayKernel};

/// The 2-core scenario all tests share: a composed phase-shift schedule on
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
fn restore_mid_schedule_and_continue_is_bit_identical() {
    let uninterrupted = finish_digest(engine());

    // Pause mid-run — a handful of quanta in, inside the composed
    // schedule, with DRAM channels booked and cores desynchronized.
    let mut warm = engine();
    for _ in 0..9 {
        warm.step_quantum();
    }
    assert!(!warm.done(), "pause point must be mid-schedule");
    let ckpt = warm.checkpoint();
    assert!(
        ckpt.cursors.iter().all(|&c| c > 0),
        "every core must have progressed before the pause"
    );

    let mut resumed = engine();
    resumed.restore(&ckpt).expect("restore into cold engine");
    assert_eq!(
        resumed.checkpoint().payload,
        ckpt.payload,
        "re-saving a restored engine must be byte-identical"
    );
    assert_eq!(
        finish_digest(resumed),
        uninterrupted,
        "restore + continue must match an uninterrupted multi-core run"
    );
}

#[test]
fn fork_runs_ahead_independently() {
    let mut e = engine();
    for _ in 0..6 {
        e.step_quantum();
    }
    let cursors: Vec<u64> = e.cores().iter().map(|c| c.cursor()).collect();
    let fork = e.fork();
    assert_eq!(
        fork.cores().iter().map(|c| c.cursor()).collect::<Vec<_>>(),
        cursors,
        "fork must resume at the parent's exact cursors"
    );
    let forked = finish_digest(fork);
    // The paused original is untouched and finishes to the same digest.
    assert_eq!(
        e.cores().iter().map(|c| c.cursor()).collect::<Vec<_>>(),
        cursors,
        "forking must not advance the parent"
    );
    assert_eq!(finish_digest(e), forked);
}

#[test]
fn shared_dram_state_is_part_of_the_snapshot() {
    // Restoring an *earlier* checkpoint into a further-run engine must
    // rewind the shared level too: continue from the restore and land on
    // the uninterrupted digest, not on state contaminated by the extra
    // quanta simulated before the rewind.
    let uninterrupted = finish_digest(engine());
    let mut e = engine();
    for _ in 0..4 {
        e.step_quantum();
    }
    let early = e.checkpoint();
    for _ in 0..8 {
        e.step_quantum();
    }
    e.restore(&early).expect("rewind to the earlier checkpoint");
    assert_eq!(
        finish_digest(e),
        uninterrupted,
        "rewinding must restore shared L2 + DRAM channel state exactly"
    );
}
