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

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use semloc_mem::{MemPressure, Prefetcher};
    use semloc_trace::{AccessContext, SnapReader, SnapWriter};

    fn pressure() -> MemPressure {
        MemPressure {
            l1_mshr_free: 4,
            l2_mshr_free: 20,
        }
    }

    /// Access `i` as `(pc, addr)`: mixed per-PC strided streams with a
    /// recurring irregular chain, enough variety to populate the
    /// stride, GHB and SMS tables.
    fn mixed(i: u64) -> (u64, u64) {
        let chain = [0x70_0000u64, 0x21_0000, 0x95_0000, 0x33_0000];
        match i % 3 {
            0 => (0x400, 0x10_0000 + (i / 3) * 64),
            1 => (0x900, 0x80_0000 + (i / 3) * 4096),
            _ => (0x700, chain[(i / 3) as usize % chain.len()]),
        }
    }

    /// Access `i` of a pointer chase around a fixed irregular cycle: the
    /// pattern Markov, which learns each block's successors, predicts.
    fn chase(i: u64) -> (u64, u64) {
        let cycle = [0x70_0000u64, 0x21_0000, 0x95_0000, 0x33_0000, 0x5a_0000];
        (0x700, cycle[i as usize % cycle.len()])
    }

    fn drive(
        p: &mut dyn Prefetcher,
        stream: fn(u64) -> (u64, u64),
        range: std::ops::Range<u64>,
        out: &mut Vec<u64>,
    ) {
        let mut buf = Vec::new();
        for i in range {
            let (pc, addr) = stream(i);
            buf.clear();
            p.on_access(
                &AccessContext::bare(i, pc, addr, false),
                pressure(),
                &mut buf,
            );
            out.extend(buf.iter().map(|r| r.addr));
        }
    }

    /// Over each stream: save a warmed prefetcher, restore it into a
    /// fresh one, and require both to continue identically.
    fn round_trip(make: impl Fn() -> Box<dyn Prefetcher>) {
        for stream in [mixed, chase] {
            let (mut p, mut q) = (make(), make());
            let mut sink = Vec::new();
            drive(p.as_mut(), stream, 0..3000, &mut sink);

            let mut w = SnapWriter::new();
            p.save_state(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapReader::new(&bytes);
            q.restore_state(&mut r).expect("restore succeeds");
            r.expect_end().expect("snapshot fully consumed");
            let mut w2 = SnapWriter::new();
            q.save_state(&mut w2);
            assert_eq!(bytes, w2.into_bytes(), "{}: re-save differs", p.name());

            let mut out_p = Vec::new();
            let mut out_q = Vec::new();
            drive(p.as_mut(), stream, 3000..4000, &mut out_p);
            drive(q.as_mut(), stream, 3000..4000, &mut out_q);
            assert_eq!(out_p, out_q, "{}: continuation diverged", p.name());
            assert_eq!(p.stats(), q.stats());
        }
    }

    #[test]
    fn every_baseline_round_trips_bit_identically() {
        round_trip(|| Box::new(StridePrefetcher::paper_default()));
        for flavor in [GhbFlavor::GlobalDc, GhbFlavor::PcDc, GhbFlavor::GlobalAc] {
            round_trip(|| Box::new(GhbPrefetcher::paper_default(flavor)));
        }
        round_trip(|| Box::new(SmsPrefetcher::paper_default()));
        round_trip(|| Box::new(MarkovPrefetcher::paper_default()));
        round_trip(|| Box::new(NextLinePrefetcher::default()));
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let mut p = GhbPrefetcher::paper_default(GhbFlavor::GlobalDc);
        let mut sink = Vec::new();
        drive(&mut p, mixed, 0..100, &mut sink);
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut q = GhbPrefetcher::new(GhbFlavor::GlobalDc, 256, 64, 3);
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            q.restore_state(&mut r).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
