//! Reinforcement-learning primitives for the context-based prefetcher.
//!
//! The paper frames prefetching as a **contextual bandits** problem (§4):
//! the context is the machine state at a memory access, the actions are
//! candidate prefetch addresses, and the (delayed) reward is derived from
//! whether — and how soon — a predicted address was actually demanded.
//!
//! This crate provides the model-side building blocks, independent of any
//! cache machinery, so they can be tested and reused in isolation:
//!
//! * [`RewardFunction`] and the paper's bell-shaped [`BellReward`] (Fig 5),
//!   plus a [`StepReward`] used by the ablation experiments, a
//!   [`GaussianPenaltyReward`] and Pythia-style [`PythiaLevelReward`], and
//!   [`RewardShape`] — the closed sum the pipeline config stores;
//! * [`AdaptiveEpsilon`] — ε-greedy exploration whose rate anneals with
//!   prediction accuracy, after Tokic's value-difference-based exploration
//!   (the paper cites this directly in §4.1);
//! * [`ScoredSet`] — a fixed-capacity action set with saturating integer
//!   scores and score-based replacement, the policy core of a CST entry.

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

pub mod policy;
pub mod reward;
pub mod scored;

pub use policy::AdaptiveEpsilon;
pub use reward::{
    BellReward, GaussianPenaltyReward, PythiaLevelReward, RewardFunction, RewardLut, RewardShape,
    StepReward,
};
pub use scored::ScoredSet;
