//! Per-PC stride prefetching (reference prediction table).
//!
//! The classic design of Fu, Patel & Janssens: a direct-mapped table keyed
//! by load PC, tracking the last address and last stride with a 2-bit
//! confidence counter; confident entries prefetch `degree` strides ahead.

use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::{AccessContext, Addr};

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    tag: u16,
    last_addr: Addr,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// A reference-prediction-table stride prefetcher.
///
/// ```rust
/// use semloc_baselines::StridePrefetcher;
/// use semloc_mem::{MemPressure, Prefetcher};
/// use semloc_trace::AccessContext;
///
/// let mut pf = StridePrefetcher::paper_default();
/// let mut out = Vec::new();
/// for i in 0..8u64 {
///     out.clear();
///     let ctx = AccessContext::bare(i, 0x400, 0x1000 + i * 128, false);
///     pf.on_access(&ctx, MemPressure { l1_mshr_free: 4, l2_mshr_free: 20 }, &mut out);
/// }
/// assert!(!out.is_empty(), "a constant stride is detected after warmup");
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    table: Vec<Entry>,
    mask: u64,
    degree: u32,
    line: u64,
    stats: PrefetcherStats,
}

impl StridePrefetcher {
    /// A table of `entries` slots (power of two) prefetching `degree`
    /// strides ahead at `line`-byte granularity.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `degree` is zero.
    pub fn new(entries: usize, degree: u32, line: u64) -> Self {
        assert!(entries.is_power_of_two() && degree > 0 && line.is_power_of_two());
        StridePrefetcher {
            table: vec![Entry::default(); entries],
            mask: (entries - 1) as u64,
            degree,
            line,
            stats: PrefetcherStats::default(),
        }
    }

    /// The configuration used in the paper's comparison (storage-scaled to
    /// the context prefetcher's ~32 kB budget).
    pub fn paper_default() -> Self {
        // 2K entries x ~14B = 28kB.
        StridePrefetcher::new(2048, 3, 64)
    }

    fn index(&self, pc: Addr) -> (usize, u16) {
        let h = pc >> 2;
        (((h ^ (h >> 11)) & self.mask) as usize, (pc >> 13) as u16)
    }
}

impl Prefetcher for StridePrefetcher {
    fn name(&self) -> &'static str {
        "stride"
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        _pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let (idx, tag) = self.index(ctx.pc);
        let degree = self.degree;
        let line = self.line;
        let e = &mut self.table[idx];
        if !e.valid || e.tag != tag {
            *e = Entry {
                tag,
                last_addr: ctx.addr,
                stride: 0,
                confidence: 0,
                valid: true,
            };
            return;
        }
        let stride = ctx.addr as i64 - e.last_addr as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            if e.confidence == 0 {
                e.stride = stride;
            }
        }
        e.last_addr = ctx.addr;
        if e.confidence >= 2 && e.stride != 0 {
            for k in 1..=degree as i64 {
                let target = ctx.addr as i64 + e.stride * k;
                if target > 0 {
                    out.push(PrefetchReq::real((target as u64) & !(line - 1), k as u64));
                    self.stats.issued += 1;
                }
            }
        }
    }

    fn on_issue_result(&mut self, _tag: u64, issued: bool) {
        if !issued {
            self.stats.rejected += 1;
        }
    }

    fn storage_bytes(&self) -> usize {
        // tag(2) + addr(6) + stride(4) + conf/valid(1) per entry.
        self.table.len() * 13
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pressure() -> MemPressure {
        MemPressure {
            l1_mshr_free: 4,
            l2_mshr_free: 20,
        }
    }

    fn ctx(pc: Addr, addr: Addr) -> AccessContext {
        AccessContext::bare(0, pc, addr, false)
    }

    #[test]
    fn detects_a_constant_stride_after_training() {
        let mut p = StridePrefetcher::paper_default();
        let mut out = Vec::new();
        for i in 0..10u64 {
            out.clear();
            p.on_access(&ctx(0x400, 0x1000 + i * 256), pressure(), &mut out);
        }
        assert_eq!(out.len(), 3, "degree-3 prefetching once confident");
        assert_eq!(out[0].addr, 0x1000 + 9 * 256 + 256);
        assert_eq!(out[2].addr, 0x1000 + 9 * 256 + 3 * 256);
    }

    #[test]
    fn different_pcs_track_independent_strides() {
        let mut p = StridePrefetcher::paper_default();
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        for i in 0..10u64 {
            out_a.clear();
            out_b.clear();
            p.on_access(&ctx(0x400, 0x10_0000 + i * 64), pressure(), &mut out_a);
            p.on_access(&ctx(0x900, 0x80_0000 + i * 4096), pressure(), &mut out_b);
        }
        assert_eq!(out_a[0].addr - (0x10_0000 + 9 * 64), 64);
        assert_eq!(out_b[0].addr - (0x80_0000 + 9 * 4096), 4096);
    }

    #[test]
    fn random_addresses_stay_quiet() {
        let mut p = StridePrefetcher::paper_default();
        let mut out = Vec::new();
        let mut total = 0;
        let mut state = 3u64;
        for _ in 0..1000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            out.clear();
            p.on_access(&ctx(0x400, state % (1 << 30)), pressure(), &mut out);
            total += out.len();
        }
        assert!(total < 30, "random stream triggered {total} prefetches");
    }

    #[test]
    fn negative_strides_work() {
        let mut p = StridePrefetcher::paper_default();
        let mut out = Vec::new();
        for i in 0..10i64 {
            out.clear();
            p.on_access(
                &ctx(0x400, (0x100_0000 - i * 128) as u64),
                pressure(),
                &mut out,
            );
        }
        assert!(!out.is_empty());
        assert!(out[0].addr < 0x100_0000 - 9 * 128);
    }

    #[test]
    fn storage_is_near_the_scaled_budget() {
        let p = StridePrefetcher::paper_default();
        let kb = p.storage_bytes() as f64 / 1024.0;
        assert!((20.0..=36.0).contains(&kb), "storage {kb} kB");
    }
}
