//! Trace-driven out-of-order core timing model.
//!
//! Models the gem5 configuration of Table 2 of the paper — a 4-wide
//! out-of-order x86-class core with a 192-entry ROB, 64-entry issue queue,
//! 32-entry load and store queues — as a *dependence-graph* timing model:
//! each dynamic instruction's dispatch, issue, completion and retirement
//! cycles are computed from
//!
//! * front-end bandwidth (fetch/dispatch width, branch-mispredict redirect),
//! * register dependencies (a load's consumers wait for the cache),
//! * structural resources (ROB/IQ/LQ/SQ occupancy), and
//! * the memory system ([`semloc_mem::Hierarchy`]), which bounds
//!   memory-level parallelism through its MSHR files.
//!
//! This reproduces exactly the phenomena the paper's prefetcher interacts
//! with: overlapped independent misses, serialized pointer chases, and the
//! out-of-order reordering that jitters prefetch distances (§4.3).
//!
//! The core implements [`TraceSink`], so a workload kernel drives it
//! directly and no trace is ever materialized.

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

pub mod bpred;
pub mod config;
pub mod core;
pub mod stats;

pub use bpred::Gshare;
pub use config::CpuConfig;
pub use core::Cpu;
pub use stats::CpuStats;

pub use semloc_trace::TraceSink;
