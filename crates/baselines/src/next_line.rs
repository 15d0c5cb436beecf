//! Trivial next-N-lines prefetching — the sanity floor of the comparison
//! and the subject of the `custom_prefetcher` example.

use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::AccessContext;

/// Prefetch the `degree` lines following every demand access.
#[derive(Clone, Debug)]
pub struct NextLinePrefetcher {
    degree: u32,
    line: u64,
    stats: PrefetcherStats,
}

impl NextLinePrefetcher {
    /// A next-line prefetcher of the given degree at `line`-byte
    /// granularity.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is zero or `line` is not a power of two.
    pub fn new(degree: u32, line: u64) -> Self {
        assert!(degree >= 1 && line.is_power_of_two());
        NextLinePrefetcher {
            degree,
            line,
            stats: PrefetcherStats::default(),
        }
    }
}

impl Default for NextLinePrefetcher {
    fn default() -> Self {
        NextLinePrefetcher::new(1, 64)
    }
}

impl Prefetcher for NextLinePrefetcher {
    fn name(&self) -> &'static str {
        "next-line"
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        _pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let base = ctx.addr & !(self.line - 1);
        for k in 1..=self.degree as u64 {
            out.push(PrefetchReq::real(base + k * self.line, k));
            self.stats.issued += 1;
        }
    }

    fn on_issue_result(&mut self, _tag: u64, issued: bool) {
        if !issued {
            self.stats.rejected += 1;
        }
    }

    fn storage_bytes(&self) -> usize {
        0
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetches_following_lines() {
        let mut p = NextLinePrefetcher::new(2, 64);
        let mut out = Vec::new();
        p.on_access(
            &AccessContext::bare(0, 0x400, 0x1010, false),
            MemPressure {
                l1_mshr_free: 4,
                l2_mshr_free: 20,
            },
            &mut out,
        );
        assert_eq!(
            out.iter().map(|r| r.addr).collect::<Vec<_>>(),
            vec![0x1040, 0x1080]
        );
    }
}
