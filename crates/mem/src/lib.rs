//! Two-level cache hierarchy for the semloc simulator.
//!
//! Reproduces the memory system of Table 2 of the paper:
//!
//! * private L1 data cache — 64 kB, 8-way, 2-cycle access, 4 MSHRs;
//! * L2 — 2 MB, 16-way, 20-cycle access, 20 MSHRs;
//! * main memory — flat 300-cycle access.
//!
//! The L2 and the memory below it are one [`SharedL2`] level, the only
//! path below the L1: a [`Hierarchy`] builds its own private level over a
//! flat-latency DRAM, and the multi-core mode lends every core one shared
//! level over a finite-bandwidth [`DramModel`] instead.
//!
//! Prefetches are delivered **to the L1** (as in the paper), subject to L1
//! MSHR availability; when the memory system is stressed, prefetch requests
//! are rejected and the issuing prefetcher is told, so it can account for
//! them as shadow operations.
//!
//! Every demand access is classified into the six categories of Fig 9
//! (`Hit prefetched line`, `Shorter wait time`, `Non-timely`,
//! `Miss not prefetched`, `Hit older demand`, plus `Prefetch never hit`
//! counted at eviction), which the harness uses to regenerate that figure.
//!
//! Timing is *latency-computed* rather than event-queued: each access
//! returns the cycle at which its data is ready; in-flight lines are tracked
//! by per-cache MSHR files so overlapping accesses merge, exactly the
//! behaviour the out-of-order core needs to extract memory-level
//! parallelism.

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

pub mod cache;
pub mod classify;
pub mod config;
pub mod hierarchy;
pub mod mshr;
pub mod prefetcher;
pub mod shared_l2;
pub mod stats;

pub use cache::{Cache, LookupResult};
pub use classify::{AccessClass, ClassCounts};
pub use config::{CacheConfig, MemConfig};
pub use hierarchy::{DemandResult, Hierarchy};
pub use mshr::{MshrFile, MshrKind};
pub use prefetcher::{Fork, MemPressure, NoPrefetch, PrefetchReq, Prefetcher, PrefetcherStats};
pub use shared_l2::{DramConfig, DramModel, SharedL2, SharedL2Stats};
pub use stats::MemStats;
