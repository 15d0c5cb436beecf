//! Spatio-temporal baseline prefetchers the paper compares against (§7).
//!
//! * [`StridePrefetcher`] — classic per-PC reference-prediction-table
//!   stride prefetching (Fu, Patel & Janssens).
//! * [`GhbPrefetcher`] — the Global History Buffer of Nesbit & Smith, in
//!   both flavors evaluated by the paper: **G/DC** (global delta
//!   correlation) and **PC/DC** (per-PC delta correlation). Table 2: 2K
//!   GHB entries, history length 3, degree 3, ~32 kB.
//! * [`SmsPrefetcher`] — Spatial Memory Streaming (Somogyi et al.):
//!   2 kB regions, 32-entry accumulation and filter tables, 2K-entry
//!   pattern-history table, ~20 kB.
//! * [`MarkovPrefetcher`] — the address-correlating Markov prefetcher of
//!   Joseph & Grunwald (related work the paper contrasts with).
//! * [`NextLinePrefetcher`] — trivial sequential prefetching, useful as a
//!   sanity floor and in the examples.
//!
//! All of them implement [`semloc_mem::Prefetcher`] and are storage-scaled
//! to the context prefetcher's budget, as the paper scales its competitors.

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

pub mod ghb;
pub mod markov;
pub mod next_line;
pub mod sms;
pub mod stride;

pub use ghb::{GhbFlavor, GhbPrefetcher};
pub use markov::MarkovPrefetcher;
pub use next_line::NextLinePrefetcher;
pub use sms::SmsPrefetcher;
pub use stride::StridePrefetcher;
