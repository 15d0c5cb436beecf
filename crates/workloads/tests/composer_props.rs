//! Property tests for the workload composer.
//!
//! Composed schedules are the substrate of the multi-core interference
//! mode and the adversarial search, so three properties are pinned over
//! random schedules:
//!
//! * **seed determinism** — a [`Composer`] draw is a pure function of its
//!   seed (same seed ⇒ identical schedule, bit-identical stream);
//! * **prefix property** — capturing a composed schedule at budget `b`
//!   yields exactly the first `b` instructions of the full capture, for
//!   *any* `b`, including budgets that stop mid-phase (this is what lets
//!   the trace store serve composed runs from one capture, and what
//!   [`Engine::fork_onto`]-style warm-prefix sharing rests on);
//! * **exact phase boundaries** — instruction `i` of the composed stream
//!   equals instruction `i − start(p)` of phase `p`'s source capture,
//!   where `start(p)` is the sum of the preceding phase lengths. Phase
//!   changes happen at exactly the scheduled instruction, never one early
//!   or late.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use semloc_trace::RecordingSink;
use semloc_workloads::{
    capture_kernel, kernel_by_name, CapturedTrace, ComposedKernel, Composer, Kernel, Phase,
};

/// Shared source captures (built once; proptest runs many cases).
fn menu() -> &'static [Arc<CapturedTrace>] {
    static MENU: OnceLock<Vec<Arc<CapturedTrace>>> = OnceLock::new();
    MENU.get_or_init(|| {
        ["mcf", "list", "array", "hashtest"]
            .iter()
            .map(|n| {
                let k = kernel_by_name(n).expect("registry kernel");
                Arc::new(capture_kernel(k.as_ref(), 6_000))
            })
            .collect()
    })
}

fn record(kernel: &dyn Kernel, budget: u64) -> Vec<semloc_trace::Instr> {
    let mut sink = if budget == 0 {
        RecordingSink::new()
    } else {
        RecordingSink::with_limit(budget as usize)
    };
    kernel.run(&mut sink);
    sink.into_instrs()
}

proptest! {
    /// Same seed ⇒ same schedule (trace key *and* instruction stream);
    /// the drawn schedule respects the requested shape.
    #[test]
    fn composer_is_a_pure_function_of_its_seed(
        seed in 0u64..1_000,
        phases in 1usize..6,
        min in 100u64..500,
        extra in 0u64..2_000,
    ) {
        let m = menu();
        let a = Composer::new(seed).phase_shift("prop", m, phases, min, min + extra);
        let b = Composer::new(seed).phase_shift("prop", m, phases, min, min + extra);
        prop_assert_eq!(a.trace_key(), b.trace_key());
        prop_assert_eq!(record(&a, 0), record(&b, 0));
        prop_assert_eq!(a.phases().len(), phases);
        for p in a.phases() {
            prop_assert!(p.instrs >= min.min(p.source.lanes.len() as u64));
            prop_assert!(p.instrs <= min + extra);
        }
    }

    /// A composed capture at any smaller budget is exactly the prefix of
    /// the full stream — budgets landing mid-phase included.
    #[test]
    fn composed_streams_have_the_prefix_property(
        seed in 0u64..1_000,
        phases in 1usize..5,
        cut_num in 0u64..=100,
    ) {
        let m = menu();
        let k = Composer::new(seed).phase_shift("prop", m, phases, 200, 1_500);
        let full = record(&k, 0);
        prop_assert_eq!(full.len() as u64, k.total_instrs());
        let cut = (k.total_instrs() * cut_num / 100).max(1);
        let prefix = record(&k, cut);
        prop_assert_eq!(prefix.len() as u64, cut.min(k.total_instrs()));
        prop_assert_eq!(&prefix[..], &full[..prefix.len()]);
    }

    /// Every instruction of the composed stream equals the corresponding
    /// instruction of its phase's source capture: boundaries are exact.
    #[test]
    fn phase_boundaries_are_exact(
        picks in proptest::collection::vec((0usize..4, 1u64..1_200), 1..5),
    ) {
        let m = menu();
        let k = ComposedKernel::new(
            "prop",
            picks
                .iter()
                .map(|&(p, n)| Phase::new(m[p].clone(), n))
                .collect(),
        );
        let stream = record(&k, 0);
        let mut start = 0usize;
        for &(p, n) in &picks {
            let source: Vec<_> = (0..n as usize).map(|i| m[p].lanes.instr(i)).collect();
            prop_assert_eq!(
                &stream[start..start + n as usize],
                &source[..],
                "phase starting at {} diverged from its source prefix",
                start
            );
            start += n as usize;
        }
        prop_assert_eq!(start, stream.len());
    }
}
