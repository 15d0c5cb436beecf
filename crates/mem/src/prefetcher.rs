//! The prefetcher interface.
//!
//! Every prefetcher in the workspace — the paper's context-based prefetcher
//! and the spatio-temporal baselines (stride, GHB, SMS, Markov) — implements
//! [`Prefetcher`]. The [`Hierarchy`](crate::Hierarchy) invokes it on every
//! demand access, attempts to issue the returned requests subject to MSHR
//! pressure, and reports back which were actually dispatched.

use semloc_trace::{AccessContext, Addr, SnapReader, SnapWriter, Snapshot};

/// Snapshot of memory-system pressure handed to the prefetcher so it can
/// throttle (§4.2: "prefetch operations may be skipped if the memory system
/// is stressed").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemPressure {
    /// Free L1 MSHRs at this instant.
    pub l1_mshr_free: u32,
    /// Free L2 MSHRs at this instant.
    pub l2_mshr_free: u32,
}

/// A prefetch request produced by a prefetcher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchReq {
    /// Virtual address to prefetch (any address within the target line).
    pub addr: Addr,
    /// A shadow operation: tracked for training but never dispatched to the
    /// memory system (§4.1 of the paper).
    pub shadow: bool,
    /// Prefetcher-private identifier echoed back via
    /// [`Prefetcher::on_issue_result`].
    pub tag: u64,
}

impl PrefetchReq {
    /// A real (dispatched) prefetch request.
    pub fn real(addr: Addr, tag: u64) -> Self {
        PrefetchReq {
            addr,
            shadow: false,
            tag,
        }
    }

    /// A shadow (training-only) request.
    pub fn shadow(addr: Addr, tag: u64) -> Self {
        PrefetchReq {
            addr,
            shadow: true,
            tag,
        }
    }
}

/// Aggregate counters every prefetcher exposes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Real prefetch requests produced.
    pub issued: u64,
    /// Requests rejected by the memory system (MSHR pressure) and converted
    /// to shadow operations.
    pub rejected: u64,
    /// Shadow operations produced deliberately (exploration).
    pub shadow: u64,
    /// Predictions that were later hit by a demand access.
    pub useful: u64,
}

impl PrefetcherStats {
    /// Fraction of issued prefetches that proved useful (0 when none
    /// issued).
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }
}

impl Snapshot for PrefetcherStats {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            issued,
            rejected,
            shadow,
            useful,
        } = self;
        w.section(*b"PFST", 1);
        w.put_u64(*issued);
        w.put_u64(*rejected);
        w.put_u64(*shadow);
        w.put_u64(*useful);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
        let Self {
            issued,
            rejected,
            shadow,
            useful,
        } = self;
        r.section(*b"PFST", 1)?;
        *issued = r.get_u64()?;
        *rejected = r.get_u64()?;
        *shadow = r.get_u64()?;
        *useful = r.get_u64()?;
        Ok(())
    }
}

/// A hardware prefetcher attached to the L1 data cache.
pub trait Prefetcher {
    /// Short display name (e.g. `"context"`, `"ghb-pc/dc"`).
    fn name(&self) -> &'static str;

    /// Observe one demand access and append any prefetch requests to `out`.
    ///
    /// `out` is cleared by the caller before the call. Requests marked
    /// `shadow` are never dispatched; the rest are attempted in order until
    /// MSHR pressure rejects them.
    fn on_access(&mut self, ctx: &AccessContext, pressure: MemPressure, out: &mut Vec<PrefetchReq>);

    /// Told, for each non-shadow request returned by
    /// [`Prefetcher::on_access`], whether it was actually dispatched
    /// (`issued = false` means the memory system rejected it and the
    /// prefetcher should treat it as a shadow operation).
    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        let _ = (tag, issued);
    }

    /// Whether the prefetcher currently has an un-issued or shadow
    /// prediction covering `addr`'s block — used to classify demand misses
    /// as *non-timely* rather than *not prefetched* (Fig 9).
    fn was_predicted(&self, addr: Addr) -> bool {
        let _ = addr;
        false
    }

    /// Hardware budget of the configuration, in bytes (Table 2 scales all
    /// competitors to the same budget).
    fn storage_bytes(&self) -> usize;

    /// Aggregate counters.
    fn stats(&self) -> PrefetcherStats {
        PrefetcherStats::default()
    }

    /// End-of-run hook (e.g. flush outstanding training feedback). Called
    /// once by [`Hierarchy::finish`](crate::Hierarchy::finish).
    fn finish(&mut self) {}

    /// Downcast support for harness code that needs prefetcher-specific
    /// statistics from behind `dyn Prefetcher`.
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

/// A prefetcher that copies itself with its complete run state (tables,
/// queues, RNG streams, counters): what a forked engine holds. Every
/// `Prefetcher + Clone` is one, through the blanket impl, so a derived
/// `Clone` is the whole of a prefetcher's fork support.
pub trait Fork: Prefetcher {
    /// A boxed copy of this prefetcher. On a `Box<dyn Fork>`, call
    /// `clone()`: the box's own `fork` would box the box.
    fn fork(&self) -> Box<dyn Fork>;
}

impl<T: Prefetcher + Clone + 'static> Fork for T {
    fn fork(&self) -> Box<dyn Fork> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn Fork> {
    fn clone(&self) -> Self {
        (**self).fork()
    }
}

impl<T: Prefetcher + ?Sized> Prefetcher for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        (**self).on_access(ctx, pressure, out)
    }

    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        (**self).on_issue_result(tag, issued)
    }

    fn was_predicted(&self, addr: Addr) -> bool {
        (**self).was_predicted(addr)
    }

    fn storage_bytes(&self) -> usize {
        (**self).storage_bytes()
    }

    fn stats(&self) -> PrefetcherStats {
        (**self).stats()
    }

    fn finish(&mut self) {
        (**self).finish()
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        (**self).as_any()
    }
}

/// The no-prefetching baseline.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPrefetch;

impl Prefetcher for NoPrefetch {
    fn name(&self) -> &'static str {
        "none"
    }

    fn on_access(
        &mut self,
        _ctx: &AccessContext,
        _pressure: MemPressure,
        _out: &mut Vec<PrefetchReq>,
    ) {
    }

    fn storage_bytes(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prefetch_is_silent() {
        let mut p = NoPrefetch;
        let mut out = Vec::new();
        let ctx = AccessContext::bare(0, 0x400, 0x1000, false);
        p.on_access(
            &ctx,
            MemPressure {
                l1_mshr_free: 4,
                l2_mshr_free: 20,
            },
            &mut out,
        );
        assert!(out.is_empty());
        assert_eq!(p.storage_bytes(), 0);
        assert!(!p.was_predicted(0x1000));
    }

    #[test]
    fn stats_accuracy() {
        let s = PrefetcherStats {
            issued: 10,
            useful: 4,
            ..Default::default()
        };
        assert!((s.accuracy() - 0.4).abs() < 1e-12);
        assert_eq!(PrefetcherStats::default().accuracy(), 0.0);
    }

    #[test]
    fn req_constructors() {
        assert!(!PrefetchReq::real(0x40, 1).shadow);
        assert!(PrefetchReq::shadow(0x40, 2).shadow);
    }
}
