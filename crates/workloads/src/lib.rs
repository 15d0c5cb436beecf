//! Benchmark kernels for the semloc evaluation (Table 3 of the paper).
//!
//! Every workload is a [`Kernel`]: a deterministic, seeded generator that
//! *executes its algorithm for real* over a simulated
//! [`AddressSpace`](semloc_trace::AddressSpace) while pushing the resulting
//! dynamic instruction stream into a [`TraceSink`] (usually the
//! out-of-order core model). Kernels loop their steady-state phase until
//! the sink's instruction budget is exhausted, mirroring the paper's
//! steady-state simulation phases (§6).
//!
//! Suites reproduced:
//!
//! * **µkernels** — the paper's microbenchmarks: linked list, array, list
//!   insertion sort (Fig 1), binary search tree, Prim's MST, hash-table and
//!   ordered-map probing, and the linked SSCA variant (`SSCA_LDS`).
//! * **Graph500** — BFS over a generated graph, in CSR *and* linked-list
//!   layouts (the Fig 14 layout-agnostic experiment).
//! * **HPCS SSCA2** — the betweenness-centrality kernel, CSR and list
//!   variants.
//! * **PBBS** — suffix array, set cover, k-nearest-neighbors proxies.
//! * **SPEC CPU2006 proxies** — sixteen synthetic kernels, one per
//!   benchmark the paper evaluated, each reproducing that benchmark's
//!   dominant memory-access pattern (see `spec` module docs and the
//!   substitution table in `DESIGN.md`).

pub mod adversarial;
pub mod compose;
pub mod graph500;
pub mod object;
pub mod patterns;
pub mod pbbs;
pub mod registry;
pub mod replay;
pub mod spec;
pub mod ssca2;
pub mod ukernels;

pub use adversarial::{
    adversarial_by_name, adversarial_kernels, pinned_collapse_points, AliasChains, PhaseFlip,
    RewardStraddle,
};
pub use compose::{ComposedKernel, Composer, Phase};
pub use object::Session;
pub use registry::{
    all_kernels, kernel_by_name, memory_intensive, microbenchmarks, spec_suite, KernelBox,
    KernelInfo,
};
pub use replay::{capture_kernel, CapturedTrace, EncodedOnUse, ReplayKernel};

use semloc_trace::TraceSink;

/// The benchmark suite a kernel belongs to (Table 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Suite {
    /// SPEC CPU2006 proxy.
    Spec,
    /// PBBS problem-based benchmark.
    Pbbs,
    /// Graph500 BFS.
    Graph500,
    /// HPCS SSCA2.
    Hpcs,
    /// µkernel (algorithms and data-structure traversals).
    Micro,
}

impl Suite {
    /// Display label matching Table 3.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Spec => "SPEC CPU2006",
            Suite::Pbbs => "PBBS",
            Suite::Graph500 => "Graph500",
            Suite::Hpcs => "HPCS",
            Suite::Micro => "ukernels",
        }
    }
}

/// A runnable benchmark kernel.
///
/// The `Debug` supertrait doubles as the kernel's *configuration identity*:
/// every kernel is a plain struct whose derived `Debug` output spells out
/// its name and every configuration field (layout, sizes, seed), so
/// [`Kernel::trace_key`] distinguishes two instances of the same kernel
/// type with different parameters.
pub trait Kernel: std::fmt::Debug {
    /// Unique name (e.g. `"mcf"`, `"graph500-list"`).
    fn name(&self) -> &'static str;

    /// Originating suite.
    fn suite(&self) -> Suite;

    /// Execute the kernel, pushing instructions into `sink` until the
    /// kernel finishes or `sink.done()` turns true. Deterministic for a
    /// fixed kernel configuration.
    fn run(&self, sink: &mut dyn TraceSink);

    /// A string that uniquely identifies the instruction stream this kernel
    /// produces — used as the cache key by the trace store. The default
    /// (the derived `Debug` rendering) covers every configuration field, so
    /// two differently-parameterized instances never collide.
    fn trace_key(&self) -> String {
        format!("{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_labels_are_unique() {
        let all = [
            Suite::Spec,
            Suite::Pbbs,
            Suite::Graph500,
            Suite::Hpcs,
            Suite::Micro,
        ];
        let set: std::collections::BTreeSet<_> = all.iter().map(|s| s.label()).collect();
        assert_eq!(set.len(), all.len());
    }
}
