//! The **context-based prefetcher** of Peled, Mannor, Weiser and Etsion,
//! *"Semantic Locality and Context-based Prefetching Using Reinforcement
//! Learning"*, ISCA 2015 — the paper's primary contribution.
//!
//! The prefetcher approximates *semantic locality*: instead of correlating
//! addresses spatially or temporally, it associates the **machine context**
//! of each memory access (hardware attributes such as the PC, branch
//! history and register values, plus compiler-injected hints such as the
//! object type and link offset — Table 1) with the addresses observed soon
//! after, and trains those associations with a contextual-bandits
//! reinforcement-learning loop.
//!
//! Architecture (paper §5, Fig 6):
//!
//! * [`attrs`] — attribute extraction and the two-level hashing scheme
//!   (16-bit full-context hash → Reducer; 19-bit partial-context hash →
//!   CST), per Fig 7;
//! * [`reducer`] — online feature selection: per-entry count of *active*
//!   attributes, grown on context overload and shrunk on underload (§4.4);
//! * [`cst`] — the context-states table: 2K direct-mapped entries, each
//!   binding a reduced context to up to 4 address deltas with 1-byte scores
//!   and score-based replacement;
//! * [`history`] — the 50-entry history queue sampled at predefined depths
//!   to create context→address candidates (*data collection*);
//! * [`pfq`] — the 128-entry prefetch queue that delivers the delayed,
//!   bell-shaped rewards (*feedback*), including for shadow prefetches;
//! * [`prefetcher`] — [`ContextPrefetcher`], tying the three units together
//!   behind the [`semloc_mem::Prefetcher`] interface (*prediction* with
//!   ε-greedy exploration and accuracy/MSHR throttling).
//!
//! # Example
//!
//! ```rust
//! use semloc_context::{ContextConfig, ContextPrefetcher};
//! use semloc_mem::{Hierarchy, MemConfig, Prefetcher};
//!
//! let pf = ContextPrefetcher::new(ContextConfig::default());
//! let mem = Hierarchy::new(MemConfig::default(), pf);
//! // hand `mem` to a semloc_cpu::Cpu and drive it with a workload
//! assert!(mem.prefetcher().storage_bytes() < 40 * 1024);
//! ```

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

pub mod attrs;
pub mod config;
pub mod cst;
pub mod features;
pub mod history;
pub mod pfq;
pub mod prefetcher;
pub mod reducer;
pub mod stats;

pub use attrs::{Attr, ContextKey, FullHash};
pub use config::ContextConfig;
pub use cst::ContextStatesTable;
pub use features::{ExtractedFeatures, FeatureExtractor, FeatureSet};
pub use history::HistoryQueue;
pub use pfq::PrefetchQueue;
pub use prefetcher::ContextPrefetcher;
pub use reducer::Reducer;
pub use semloc_bandit::RewardShape;
pub use stats::{ContextStats, HitDepthCdf};
