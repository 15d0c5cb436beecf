//! Experiment harness: assembles core + hierarchy + prefetcher + workload,
//! runs the paper's evaluation matrix, storage sweep and ablations.
//!
//! The flow mirrors the paper's methodology (§6–§7):
//!
//! 1. pick a [`SimConfig`] (Table 2 defaults),
//! 2. pick workloads from [`semloc_workloads::registry`] (Table 3),
//! 3. pick prefetchers via [`PrefetcherKind`] (the §7 competitors),
//! 4. [`run_kernel`] each combination and aggregate [`RunResult`]s into a
//!    [`Matrix`],
//! 5. render with [`report::Table`]; `semloc-bench` turns the results into
//!    the paper's tables and figures (speedups for Fig 12, MPKI for Figs
//!    10/11, access classes for Fig 9, hit-depth CDFs for Fig 8, the storage
//!    sweep for Fig 13 and layout comparisons for Fig 14).

pub mod ckpt;
pub mod config;
pub mod diff;
pub mod engine;
pub mod interfere;
pub mod knob;
pub mod matrix;
pub mod mc;
pub mod pool;
pub mod prefetchers;
pub mod report;
pub mod runner;
pub mod store;
pub mod sweep;

pub use ckpt::CkptStore;
pub use config::SimConfig;
pub use diff::{diff_dump_dir, diff_kernel, DiffReport, Divergence, TeePrefetcher};
pub use engine::{Engine, SimCheckpoint, SIM_CKPT_VERSION};
pub use interfere::{
    adversarial_search, coverage, AdvBench, AdvFinding, AdvParams, AdvScore, SearchConfig,
    BASELINES,
};
pub use knob::{parse_knob, KnobError};
pub use matrix::Matrix;
pub use mc::{mc_digest, McCheckpoint, McConfig, McCore, McEngine, MC_CKPT_VERSION};
pub use pool::{pool_threads, run_sharded};
pub use prefetchers::PrefetcherKind;
pub use report::Table;
pub use runner::{
    calibrated_context, run_kernel, run_kernel_uncached, run_kernel_with_store, run_resumable,
    RunResult, SpeedupError,
};
pub use store::TraceStore;
pub use sweep::{
    ablation_variants, geomean, storage_sweep, storage_sweep_with_store, AblationVariant,
    SweepPoint, ABLATION_KERNELS,
};
