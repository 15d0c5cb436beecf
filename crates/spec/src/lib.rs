//! Executable specification of the context-based prefetcher.
//!
//! [`SpecPrefetcher`] re-implements every state machine of the optimized
//! [`semloc_context::ContextPrefetcher`] — CST link scoring, Reducer
//! bitmap/pressure updates, history-queue sampling, prefetch-queue reward
//! assignment with the Fig 5 bell, adaptive-ε exploration — in the most
//! naive, obviously-correct form available: plain `Vec`s, linear scans,
//! no incremental hashing, no indices, no buffer reuse. It exists purely
//! as a *differential oracle*: the harness drives both implementations in
//! lockstep over identical access streams and reports the first access at
//! which any observable (emitted prefetches, counters, table contents)
//! diverges.
//!
//! Design rules:
//!
//! * **No shared logic with the optimized path.** The only items reused
//!   from `semloc-context` are plain data/config types and the documented
//!   *reference* hash functions [`semloc_context::attrs::FullHash::of`] /
//!   [`semloc_context::attrs::ContextKey::of`] (the hot path uses the
//!   single-pass `FeatureVec` instead, so the lockstep run continuously
//!   re-proves that equivalence over real workloads). The bell reward and
//!   adaptive-ε formulas are re-stated here from their published
//!   parameters rather than calling the `semloc-bandit` implementations.
//! * **Clarity over speed.** Everything is a linear scan; the spec is
//!   only expected to keep up with test-sized streams.

// No panic paths in library code; tests, bins and examples are exempt.
// `clippy::unreachable` has no in-tests exemption, hence the `cfg_attr`.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod prefetcher;
pub mod tables;

pub use prefetcher::SpecPrefetcher;
pub use tables::{SpecAdd, SpecCst, SpecHistory, SpecPfq, SpecPfqEntry, SpecReducer};
