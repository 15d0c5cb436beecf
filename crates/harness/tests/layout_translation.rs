//! Layout translation: moving a whole address space by a multiple of the
//! L2 set span must not change anything a layout-agnostic prefetcher or
//! the cache hierarchy can see. Paper Fig 14 rests on this premise: the
//! comparison between layouts is only meaningful if the simulator's
//! results depend on the *relative* placement of data, never on where the
//! heap happens to start.
//!
//! Each kernel is captured once, then rebuilt with every load and store
//! address shifted by k × the L2 set span (`size / ways`, 128 KiB for the
//! paper's L2). The shift keeps every L2 set index, and therefore every L1
//! set index and page offset too, since the L1 span divides the L2 span.
//! Both captures replay through the uncached runner, and their stats
//! digests must be bit-identical.
//!
//! `context` is checked under the `pc` and `pc+deltas` feature sets, whose
//! contexts see only the PC and block deltas, the directest test of Fig
//! 14's claim that the learned prefetcher does not care where data sits.
//!
//! Out of scope, on purpose:
//! * `ghb-g/ac` and `markov` correlate absolute addresses, so their
//!   hashed tables legitimately collide differently after a shift (they
//!   differ on `hashtest`);
//! * `context` with the Table-1 feature set: its features include register
//!   values and loaded data, which carry absolute pointers, so its
//!   decisions legitimately change (it differs on `graph500`, `bst` and
//!   `hashtest`).

use std::sync::Arc;

use semloc_context::{ContextConfig, FeatureSet};
use semloc_harness::{run_kernel_uncached, PrefetcherKind, SimConfig};
use semloc_trace::{BufferSink, Instr, InstrKind, TraceSink};
use semloc_workloads::{capture_kernel, kernel_by_name, CapturedTrace, Kernel, ReplayKernel};

/// Forwards every instruction to `out` with its data address moved by `by`.
struct Translate<'a> {
    out: &'a mut BufferSink,
    by: u64,
}

impl TraceSink for Translate<'_> {
    fn instr(&mut self, mut instr: Instr) {
        if let InstrKind::Load { addr, .. } | InstrKind::Store { addr, .. } = &mut instr.kind {
            *addr += self.by;
        }
        self.out.instr(instr);
    }

    fn done(&self) -> bool {
        self.out.done()
    }
}

/// `capture` rebuilt with every load and store address moved up by `by`
/// bytes; every other field of every instruction is unchanged.
fn translated(kernel: &dyn Kernel, capture: &Arc<CapturedTrace>, by: u64) -> ReplayKernel {
    let mut sink = BufferSink::with_limit(capture.budget);
    ReplayKernel::new(Arc::clone(capture)).run(&mut Translate { out: &mut sink, by });
    let moved = CapturedTrace::from_sink(kernel, capture.budget, capture.complete, sink);
    ReplayKernel::new(Arc::new(moved))
}

#[test]
fn translating_by_the_l2_set_span_changes_no_stats() {
    let cfg = SimConfig::default().with_budget(40_000);
    let l1_span = cfg.mem.l1.size_bytes / cfg.mem.l1.ways as u64;
    let l2_span = cfg.mem.l2.size_bytes / cfg.mem.l2.ways as u64;
    assert_eq!(l2_span, 128 * 1024);
    assert_eq!(l2_span % l1_span, 0, "the L1 span must divide the L2 span");

    let kinds = [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::NextLine,
        PrefetcherKind::Context(ContextConfig {
            features: FeatureSet::PcOnly,
            ..Default::default()
        }),
        PrefetcherKind::Context(ContextConfig {
            features: FeatureSet::PcDeltas,
            ..Default::default()
        }),
    ];
    for name in ["array", "list", "mcf", "bst", "graph500", "hashtest"] {
        let kernel = kernel_by_name(name).expect("registry kernel");
        let capture = Arc::new(capture_kernel(kernel.as_ref(), cfg.instr_budget));
        let original = ReplayKernel::new(Arc::clone(&capture));
        let want: Vec<u64> = kinds
            .iter()
            .map(|pf| run_kernel_uncached(&original, pf, &cfg).stats_digest())
            .collect();
        for k in [1, 37] {
            let moved = translated(kernel.as_ref(), &capture, k * l2_span);
            for (pf, &want) in kinds.iter().zip(&want) {
                let got = run_kernel_uncached(&moved, pf, &cfg).stats_digest();
                assert_eq!(
                    got,
                    want,
                    "{name} under {}: translating by {k} x {l2_span} B changed the stats",
                    match pf {
                        PrefetcherKind::Context(c) => format!("context {:?}", c.features),
                        _ => pf.label().to_string(),
                    }
                );
            }
        }
    }
}
