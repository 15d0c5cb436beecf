//! Property tests for capture-time lanes, the form every replay steps.
//!
//! A capture holds only its decoded lanes, and a trace file holds their
//! varint encoding, so these tests pin both to the generated stream: for
//! random kernels and budgets — budgets that stop in the middle of a
//! 256-instruction block, budgets on a block boundary, and budget 0
//! through composed schedules — the capture's lanes equal the stream the
//! kernel emits into a recorder, and [`TraceBuffer::encode`] of the lanes
//! decodes back to it both through [`DecodedTrace::decode`] and through
//! the streaming varint decode. Alongside, the capture prefix property
//! ([`CapturedTrace::covers`]), the trace store's supersede rule, and a
//! multi-core fork at a cursor inside a block are pinned, because the
//! golden digests rest on all of them.
//!
//! [`CapturedTrace::covers`]: semloc_workloads::CapturedTrace::covers

use std::sync::Arc;

use proptest::prelude::*;

use semloc_harness::{mc_digest, McConfig, McEngine, PrefetcherKind, SimConfig};
use semloc_harness::{run_kernel_uncached, Engine, TraceStore};
use semloc_trace::{DecodedTrace, RecordingSink, TraceBuffer, BLOCK_LEN};
use semloc_workloads::{
    all_kernels, capture_kernel, kernel_by_name, CapturedTrace, Composer, Kernel, ReplayKernel,
};

/// Assert that a capture's lanes hold the stream `kernel` emits under
/// `budget` (0 = unbounded), and that their varint encoding decodes back
/// to it both into fresh lanes and through the streaming decode.
fn assert_lanes_match(t: &CapturedTrace, kernel: &dyn Kernel, budget: u64, what: &str) {
    let mut recorder = match budget {
        0 => RecordingSink::new(),
        b => RecordingSink::with_limit(b as usize),
    };
    kernel.run(&mut recorder);
    let generated = recorder.instrs();
    let encoded = TraceBuffer::encode(&t.lanes);
    let decoded = DecodedTrace::decode(&encoded);
    assert_eq!(t.lanes.len(), generated.len(), "{what}: lane count");
    assert_eq!(encoded.len(), generated.len(), "{what}: encoded count");
    assert_eq!(t.lanes.bytes(), decoded.bytes(), "{what}: lane bytes");
    let mut streamed = encoded.iter();
    for (i, want) in generated.iter().enumerate() {
        assert_eq!(&t.lanes.instr(i), want, "{what}: capture lanes at {i}");
        assert_eq!(&decoded.instr(i), want, "{what}: decoded lanes at {i}");
        assert_eq!(
            streamed.next().as_ref(),
            Some(want),
            "{what}: stream at {i}"
        );
    }
}

proptest! {
    /// Capture lanes == generation == decode(encode(lanes)) == streaming
    /// decode, for random kernels at budgets inside a block and on a block
    /// boundary.
    #[test]
    fn capture_lanes_match_decode_and_stream(
        kidx in 0usize..64,
        blocks in 0u64..24,
        offset in 1u64..=256,
    ) {
        let kernels = all_kernels();
        let kernel = kernels[kidx % kernels.len()].as_ref();
        // offset=256 lands exactly on a block boundary; everything else
        // stops the capture mid-block.
        let budget = blocks * BLOCK_LEN as u64 + offset;
        let t = capture_kernel(kernel, budget);
        assert_lanes_match(&t, kernel, budget, &format!("{} @ {budget}", kernel.name()));
    }

    /// The same for composed schedules captured at budget 0 (unbounded),
    /// whose lanes are built from their sources' lanes.
    #[test]
    fn composed_capture_lanes_match_decode_and_stream(
        seed in 0u64..1_000_000,
        phases in 1usize..5,
        min in 1u64..1_500,
        extra in 0u64..1_500,
    ) {
        let menu: Vec<Arc<CapturedTrace>> = ["list", "array", "mcf"]
            .iter()
            .map(|n| {
                let k = kernel_by_name(n).expect("registry kernel");
                Arc::new(capture_kernel(k.as_ref(), 3_000))
            })
            .collect();
        let sched = Composer::new(seed).phase_shift("prop", &menu, phases, min, min + extra);
        let t = capture_kernel(&sched, 0);
        prop_assert!(t.complete, "a budget-0 capture holds the whole schedule");
        prop_assert_eq!(t.lanes.len() as u64, sched.total_instrs());
        assert_lanes_match(&t, &sched, 0, &format!("compose seed {seed}"));
    }

    /// A capture taken at budget `b1` covers every smaller non-zero budget
    /// (the prefix property the whole store design rests on), and a
    /// claimed cover really holds enough instructions to serve it.
    #[test]
    fn capture_covers_is_the_prefix_property(
        kidx in 0usize..64,
        b1 in 1u64..4_000,
        b2 in 1u64..4_000,
    ) {
        let kernels = all_kernels();
        let kernel = kernels[kidx % kernels.len()].as_ref();
        let t = capture_kernel(kernel, b1);
        if b2 <= b1 {
            prop_assert!(
                t.covers(b2),
                "{}: capture at {b1} must cover {b2}", kernel.name()
            );
        }
        if t.covers(b2) && !t.complete {
            prop_assert!(
                t.lanes.len() as u64 >= b2,
                "{}: claimed cover of {b2} with only {} instructions",
                kernel.name(), t.lanes.len()
            );
        }
    }

    /// A larger budget supersedes a store's capture: later replays get the
    /// new capture's own lanes, replays handed out earlier keep theirs, and
    /// both simulate exactly what generation at their budget does.
    #[test]
    fn superseding_capture_serves_its_own_lanes(
        kidx in 0usize..64,
        small in 1u64..2_000,
        grow in 1u64..2_000,
    ) {
        let kernels = all_kernels();
        let kernel = kernels[kidx % kernels.len()].as_ref();
        let big = small + grow;
        let store = TraceStore::new();
        let early = store.replay(kernel, small);
        let early_lanes = Arc::clone(&early.trace().lanes);
        let late = store.replay(kernel, big);
        prop_assert!(late.trace().covers(big));
        if !early.trace().complete {
            // A complete capture covers `big` too, so only a truncated one
            // is superseded.
            prop_assert!(!Arc::ptr_eq(&early.trace().lanes, &late.trace().lanes));
        }
        prop_assert!(Arc::ptr_eq(&early.trace().lanes, &early_lanes), "earlier replay lost its lanes");
        prop_assert!(!late.trace().buf.is_encoded(), "the store built the varint form");
        let again = store.replay(kernel, small);
        prop_assert!(
            Arc::ptr_eq(&again.trace().lanes, &late.trace().lanes),
            "the superseding capture serves the smaller budget too"
        );
        for (replay, budget) in [(early, small), (late, big)] {
            let cfg = SimConfig::default().with_budget(budget);
            let mut e = Engine::new(replay, &PrefetcherKind::Stride, &cfg);
            e.run_to_end();
            prop_assert_eq!(
                e.finish().stats_digest(),
                run_kernel_uncached(kernel, &PrefetcherKind::Stride, &cfg).stats_digest(),
                "{} @ {budget}: replay diverged from generation", kernel.name()
            );
        }
    }
}

/// Two cores over a shared L2, each stepping its capture's lanes.
fn mc_engine() -> McEngine {
    let replay = |name: &str, budget| {
        let k = kernel_by_name(name).expect("registry kernel");
        ReplayKernel::new(Arc::new(capture_kernel(k.as_ref(), budget)))
    };
    McEngine::new(
        vec![
            (replay("mcf", 12_000), PrefetcherKind::context()),
            (replay("array", 9_000), PrefetcherKind::Stride),
        ],
        &SimConfig::default().with_budget(0),
        &McConfig::default(),
    )
}

fn mc_finish(mut e: McEngine) -> u64 {
    e.run_to_end();
    let (results, shared) = e.finish();
    mc_digest(&results, &shared)
}

/// A fork of a multi-core engine whose cursors sit inside a block
/// continues exactly as the uninterrupted run does.
#[test]
fn mc_fork_at_a_mid_block_cursor_matches_uninterrupted() {
    let uninterrupted = mc_finish(mc_engine());
    let mut mid_block = 0;
    for quanta in [1, 2, 5, 11] {
        let mut warm = mc_engine();
        for _ in 0..quanta {
            warm.step_quantum();
        }
        mid_block += warm
            .cores()
            .iter()
            .filter(|c| c.cursor() % BLOCK_LEN as u64 != 0)
            .count();
        assert_eq!(
            mc_finish(warm.clone()),
            uninterrupted,
            "a fork after {quanta} quanta diverged from the uninterrupted run"
        );
    }
    assert!(mid_block > 0, "no pause point left a cursor inside a block");
}
