//! Record-once / replay-many: capture a kernel's instruction stream as
//! [`DecodedTrace`] lanes, and replay the lanes through the `Kernel` trait.
//!
//! Why replay is bit-identical to generation: kernels receive **no**
//! feedback from their sink other than `done()`, and every sink the
//! harness drives (the OoO core, [`BufferSink`]) gates identically —
//! instructions are accepted while the count is below the budget and
//! dropped after, with `done()` flipping exactly at the budget. So the
//! stream a kernel emits is a pure function of its configuration, and the
//! first `b` accepted instructions are the same for every budget ≥ `b`
//! (delaying `done()` only *extends* the stream — the prefix property).
//! A trace captured at the largest budget a matrix needs therefore serves
//! every smaller budget, including the calibration probe's.

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use semloc_trace::{BufferSink, DecodedTrace, TraceBuffer, TraceSink};

use crate::{Kernel, Suite};

/// A kernel's instruction stream, captured once for reuse across every
/// prefetcher column / sweep point that needs it.
#[derive(Debug, Clone)]
pub struct CapturedTrace {
    /// The source kernel's registry name.
    pub name: &'static str,
    /// The source kernel's suite.
    pub suite: Suite,
    /// The source kernel's [`Kernel::trace_key`] (its full configuration).
    pub key: String,
    /// The instruction budget the capture ran under (0 = unbounded).
    pub budget: u64,
    /// Whether the generator finished on its own before the capture budget
    /// — i.e. the lanes hold the kernel's *entire* stream.
    pub complete: bool,
    /// The captured stream as decoded lanes: the form every replay steps,
    /// and the only one a capture holds.
    pub lanes: Arc<DecodedTrace>,
    /// The same stream varint-encoded, built from the lanes on first use.
    /// Nothing that simulates or writes a trace file reads it; it serves
    /// `semloc-perf`'s per-layer decode figure.
    pub buf: EncodedOnUse,
}

impl CapturedTrace {
    /// Whether this capture can serve a replay at `budget` (0 = unbounded).
    ///
    /// A complete capture serves any budget. A truncated capture serves any
    /// budget up to its own, by the prefix property.
    pub fn covers(&self, budget: u64) -> bool {
        self.complete || (budget != 0 && self.budget != 0 && self.budget >= budget)
    }

    /// A capture of `kernel` under `budget` from a filled sink.
    pub fn from_sink(kernel: &dyn Kernel, budget: u64, complete: bool, sink: BufferSink) -> Self {
        Self::from_lanes(kernel, budget, complete, sink.into_lanes())
    }

    /// A capture of `kernel` under `budget` from a buffer read back from
    /// disk: its lanes are decoded once here, and the buffer is dropped.
    pub fn from_buffer(kernel: &dyn Kernel, budget: u64, complete: bool, buf: TraceBuffer) -> Self {
        Self::from_lanes(kernel, budget, complete, DecodedTrace::decode(&buf))
    }

    fn from_lanes(kernel: &dyn Kernel, budget: u64, complete: bool, lanes: DecodedTrace) -> Self {
        let lanes = Arc::new(lanes);
        CapturedTrace {
            name: kernel.name(),
            suite: kernel.suite(),
            key: kernel.trace_key(),
            budget,
            complete,
            buf: EncodedOnUse {
                lanes: Arc::clone(&lanes),
                encoded: OnceLock::new(),
            },
            lanes,
        }
    }
}

/// The varint [`TraceBuffer`] of a capture's lanes, encoded the first time
/// it is dereferenced and kept after.
#[derive(Debug, Clone)]
pub struct EncodedOnUse {
    lanes: Arc<DecodedTrace>,
    encoded: OnceLock<TraceBuffer>,
}

impl EncodedOnUse {
    /// Whether the buffer has been encoded, i.e. something dereferenced it.
    pub fn is_encoded(&self) -> bool {
        self.encoded.get().is_some()
    }
}

impl Deref for EncodedOnUse {
    type Target = TraceBuffer;

    fn deref(&self) -> &TraceBuffer {
        self.encoded
            .get_or_init(|| TraceBuffer::encode(&self.lanes))
    }
}

/// Run `kernel` once against a [`BufferSink`] with the given instruction
/// budget (0 = unbounded) and return the captured stream.
pub fn capture_kernel(kernel: &dyn Kernel, budget: u64) -> CapturedTrace {
    let mut sink = BufferSink::with_limit(budget);
    kernel.run(&mut sink);
    let complete = budget == 0 || (sink.len() as u64) < budget;
    CapturedTrace::from_sink(kernel, budget, complete, sink)
}

/// A [`Kernel`] that replays a [`CapturedTrace`] instead of re-running the
/// generator. Drop-in at every existing call site: same name, same suite,
/// same `trace_key`, bit-identical stream.
#[derive(Debug, Clone)]
pub struct ReplayKernel {
    trace: Arc<CapturedTrace>,
}

impl ReplayKernel {
    /// Wrap a captured trace.
    pub fn new(trace: Arc<CapturedTrace>) -> Self {
        ReplayKernel { trace }
    }

    /// The capture's decoded lanes; always present, since every capture
    /// builds them.
    pub fn decoded(&self) -> Option<&Arc<DecodedTrace>> {
        Some(&self.trace.lanes)
    }

    /// The underlying capture.
    pub fn trace(&self) -> &Arc<CapturedTrace> {
        &self.trace
    }
}

impl Kernel for ReplayKernel {
    fn name(&self) -> &'static str {
        self.trace.name
    }

    fn suite(&self) -> Suite {
        self.trace.suite
    }

    fn run(&self, sink: &mut dyn TraceSink) {
        replay_prefix(&self.trace.lanes, self.trace.lanes.len(), sink);
    }

    /// The *source* kernel's key, so a replay-backed run caches under the
    /// same identity as a generated one.
    fn trace_key(&self) -> String {
        self.trace.key.clone()
    }
}

/// Feed the first `n` instructions of `lanes` to `sink`, stopping early
/// once it reports done.
pub(crate) fn replay_prefix(lanes: &DecodedTrace, n: usize, sink: &mut dyn TraceSink) {
    let block = lanes.block(0, n);
    for i in 0..block.len() {
        if sink.done() {
            return;
        }
        sink.instr(block.instr(i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::{ComposedKernel, Phase};
    use crate::graph500::Graph500;
    use crate::kernel_by_name;
    use semloc_trace::{fnv1a, RecordingSink, FNV_OFFSET};

    /// The `TRCE` frame of `kernel`'s stream under `budget` as a build that
    /// pushed each generated instruction into a [`TraceBuffer`] wrote it.
    fn pushed_frame(kernel: &dyn Kernel, budget: u64, label: &str) -> Vec<u8> {
        let mut rec = match budget {
            0 => RecordingSink::new(),
            b => RecordingSink::with_limit(b as usize),
        };
        kernel.run(&mut rec);
        let mut buf = TraceBuffer::new();
        for i in rec.instrs() {
            buf.push(i);
        }
        buf.to_frame(label)
    }

    #[test]
    fn trace_frames_keep_their_bytes() {
        let frame_of = |t: &CapturedTrace| TraceBuffer::encode(&t.lanes).to_frame(&t.key);
        // graph500 carries semantic hints on its loads.
        for name in ["list", "mcf", "graph500"] {
            let k = kernel_by_name(name).unwrap();
            let t = capture_kernel(k.as_ref(), 30_000);
            assert_eq!(
                frame_of(&t),
                pushed_frame(k.as_ref(), 30_000, &t.key),
                "{name}: the frame encoded from the lanes changed"
            );
        }
        let source = |name, budget| {
            let k = kernel_by_name(name).unwrap();
            Arc::new(capture_kernel(k.as_ref(), budget))
        };
        let composed = ComposedKernel::new(
            "two-phase",
            vec![
                Phase::new(source("mcf", 4_000), 3_000),
                Phase::new(source("graph500", 5_000), 4_500),
            ],
        );
        let t = capture_kernel(&composed, 0);
        assert_eq!(frame_of(&t), pushed_frame(&composed, 0, &t.key));

        // The bytes older builds wrote: a change here stops every trace
        // directory they filled from loading.
        let list = capture_kernel(kernel_by_name("list").unwrap().as_ref(), 20_000);
        assert_eq!(fnv1a(FNV_OFFSET, &frame_of(&list)), 0x1381_1757_1bd5_409d);
    }

    #[test]
    fn replay_is_bit_identical_to_generation() {
        for name in ["list", "mcf", "graph500"] {
            let k = kernel_by_name(name).unwrap();
            let budget = 30_000u64;

            let mut direct = RecordingSink::with_limit(budget as usize);
            k.run(&mut direct);

            let trace = capture_kernel(k.as_ref(), budget);
            let replay = ReplayKernel::new(Arc::new(trace));
            let mut replayed = RecordingSink::with_limit(budget as usize);
            replay.run(&mut replayed);

            assert_eq!(
                direct.instrs(),
                replayed.instrs(),
                "{name}: replay diverged from generation"
            );
        }
    }

    #[test]
    fn prefix_property_holds_across_budgets() {
        // A capture at a large budget must serve smaller budgets with the
        // exact stream generation-at-that-budget would produce.
        let k = kernel_by_name("list").unwrap();
        let big = capture_kernel(k.as_ref(), 40_000);
        let replay = ReplayKernel::new(Arc::new(big));
        for small in [1_000u64, 10_000, 25_000] {
            let mut direct = RecordingSink::with_limit(small as usize);
            k.run(&mut direct);
            let mut replayed = RecordingSink::with_limit(small as usize);
            replay.run(&mut replayed);
            assert_eq!(direct.instrs(), replayed.instrs(), "budget {small}");
        }
    }

    #[test]
    fn covers_semantics() {
        let k = kernel_by_name("array").unwrap();
        let t = capture_kernel(k.as_ref(), 5_000);
        assert!(!t.complete, "array loops forever; capture must truncate");
        assert!(t.covers(5_000));
        assert!(t.covers(100));
        assert!(!t.covers(5_001));
        assert!(!t.covers(0), "truncated capture cannot serve unbounded");

        let complete = CapturedTrace {
            complete: true,
            ..t
        };
        assert!(complete.covers(0));
        assert!(complete.covers(u64::MAX));
    }

    #[test]
    fn trace_key_distinguishes_configurations() {
        let a = Graph500::csr();
        let b = Graph500 {
            vertices: 1024,
            ..Graph500::csr()
        };
        assert_eq!(a.name(), b.name());
        assert_ne!(a.trace_key(), b.trace_key());

        // And the replay adapter preserves the source identity.
        let t = capture_kernel(&a, 1_000);
        let r = ReplayKernel::new(Arc::new(t));
        assert_eq!(r.trace_key(), a.trace_key());
        assert_eq!(r.name(), a.name());
        assert_eq!(r.suite(), a.suite());
    }
}
