//! Spatial Memory Streaming (Somogyi et al., ISCA'06).
//!
//! SMS records, per *spatial region generation*, the bit pattern of lines
//! touched while the region is live, indexed by the (PC, region-offset) of
//! the *trigger* access that opened the generation. On a later trigger with
//! the same signature, the stored pattern is streamed in.
//!
//! Structures per Table 2: 2 kB regions, 32-entry accumulation (AGT) and
//! filter tables, 2K-entry pattern history table (PHT), ~20 kB.

use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::{AccessContext, Addr};

const LINE: u64 = 64;

#[derive(Clone, Copy, Debug)]
struct Generation {
    region: u64,
    signature: u64,
    pattern: u32,
    last_use: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct PhtEntry {
    tag: u16,
    pattern: u32,
    valid: bool,
}

/// The SMS prefetcher.
#[derive(Clone, Debug)]
pub struct SmsPrefetcher {
    region_bytes: u64,
    agt: Vec<Generation>,
    agt_capacity: usize,
    filter: Vec<Generation>,
    filter_capacity: usize,
    pht: Vec<PhtEntry>,
    tick: u64,
    stats: PrefetcherStats,
}

impl SmsPrefetcher {
    /// An SMS prefetcher with the given region size (power of two, at most
    /// 32 lines), AGT/filter capacities and PHT entries (power of two).
    ///
    /// # Panics
    ///
    /// Panics on invalid geometry.
    pub fn new(region_bytes: u64, agt: usize, filter: usize, pht: usize) -> Self {
        assert!(
            region_bytes.is_power_of_two() && region_bytes / LINE <= 32 && region_bytes >= 2 * LINE
        );
        assert!(pht.is_power_of_two() && agt > 0 && filter > 0);
        SmsPrefetcher {
            region_bytes,
            agt: Vec::with_capacity(agt),
            agt_capacity: agt,
            filter: Vec::with_capacity(filter),
            filter_capacity: filter,
            pht: vec![PhtEntry::default(); pht],
            tick: 0,
            stats: PrefetcherStats::default(),
        }
    }

    /// Table 2 configuration: 2 kB regions, AGT 32, filter 32, PHT 2K.
    pub fn paper_default() -> Self {
        SmsPrefetcher::new(2048, 32, 32, 2048)
    }

    fn region_of(&self, addr: Addr) -> u64 {
        addr / self.region_bytes
    }

    fn line_in_region(&self, addr: Addr) -> u32 {
        ((addr % self.region_bytes) / LINE) as u32
    }

    fn signature(&self, pc: Addr, offset: u32) -> u64 {
        (pc << 5) ^ offset as u64
    }

    fn pht_slot(&self, sig: u64) -> (usize, u16) {
        let h = sig ^ (sig >> 13);
        ((h as usize) & (self.pht.len() - 1), (sig >> 7) as u16)
    }

    /// Store a finished generation's pattern into the PHT.
    fn archive(&mut self, g: Generation) {
        // Only patterns with spatial correlation (more than the trigger
        // line) are worth remembering.
        if g.pattern.count_ones() >= 2 {
            let (idx, tag) = self.pht_slot(g.signature);
            self.pht[idx] = PhtEntry {
                tag,
                pattern: g.pattern,
                valid: true,
            };
        }
    }
}

impl Prefetcher for SmsPrefetcher {
    fn name(&self) -> &'static str {
        "sms"
    }

    #[expect(
        clippy::expect_used,
        reason = "both evictions run only when len >= capacity >= 1 was just checked"
    )]
    fn on_access(
        &mut self,
        ctx: &AccessContext,
        _pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        self.tick += 1;
        let region = self.region_of(ctx.addr);
        let offset = self.line_in_region(ctx.addr);
        let bit = 1u32 << offset;

        // Accumulate into a live generation if one exists.
        if let Some(g) = self.agt.iter_mut().find(|g| g.region == region) {
            g.pattern |= bit;
            g.last_use = self.tick;
            return;
        }
        if let Some(i) = self.filter.iter().position(|g| g.region == region) {
            // Second access to the region: promote to the AGT.
            let mut g = self.filter.swap_remove(i);
            g.pattern |= bit;
            g.last_use = self.tick;
            if self.agt.len() >= self.agt_capacity {
                let oldest = self
                    .agt
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, g)| g.last_use)
                    .map(|(i, _)| i)
                    .expect("AGT at capacity is non-empty");
                let done = self.agt.swap_remove(oldest);
                self.archive(done);
            }
            self.agt.push(g);
            return;
        }

        // Trigger access of a new generation: predict from the PHT...
        let sig = self.signature(ctx.pc, offset);
        let (idx, tag) = self.pht_slot(sig);
        let e = self.pht[idx];
        if e.valid && e.tag == tag {
            let base = region * self.region_bytes;
            let mut k = 0u64;
            for line in 0..(self.region_bytes / LINE) as u32 {
                if line != offset && e.pattern & (1 << line) != 0 {
                    k += 1;
                    out.push(PrefetchReq::real(base + line as u64 * LINE, k));
                    self.stats.issued += 1;
                }
            }
        }
        // ...and start tracking the new generation in the filter.
        if self.filter.len() >= self.filter_capacity {
            let oldest = self
                .filter
                .iter()
                .enumerate()
                .min_by_key(|(_, g)| g.last_use)
                .map(|(i, _)| i)
                .expect("filter at capacity is non-empty");
            let done = self.filter.swap_remove(oldest);
            self.archive(done);
        }
        self.filter.push(Generation {
            region,
            signature: sig,
            pattern: bit,
            last_use: self.tick,
        });
    }

    fn on_issue_result(&mut self, _tag: u64, issued: bool) {
        if !issued {
            self.stats.rejected += 1;
        }
    }

    fn storage_bytes(&self) -> usize {
        // PHT entry: tag(2)+pattern(4)+valid packed ~ 6B; AGT/filter
        // generations ~ 12B each.
        self.pht.len() * 6 + (self.agt_capacity + self.filter_capacity) * 12
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

    /// Touch lines {0, 3, 5} of `region_base`, then flood the AGT so the
    /// generation is archived.
    fn train(p: &mut SmsPrefetcher, pc: Addr, region_base: u64) {
        let mut out = Vec::new();
        for line in [0u64, 3, 5] {
            p.on_access(&ctx(pc, region_base + line * 64), pressure(), &mut out);
        }
        // Open enough other generations (two touches each) to evict it.
        for i in 1..=40u64 {
            let other = region_base + i * 2048 * 64;
            p.on_access(&ctx(0x999, other), pressure(), &mut out);
            p.on_access(&ctx(0x999, other + 64), pressure(), &mut out);
        }
    }

    #[test]
    fn recalls_a_spatial_pattern_on_retrigger() {
        let mut p = SmsPrefetcher::paper_default();
        train(&mut p, 0x400, 0x40_0000);
        // Re-trigger from the same PC and offset in a *different* region.
        let mut out = Vec::new();
        let new_region = 0x900_0000;
        p.on_access(&ctx(0x400, new_region), pressure(), &mut out);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        assert_eq!(addrs, vec![new_region + 3 * 64, new_region + 5 * 64]);
    }

    #[test]
    fn different_trigger_pc_does_not_recall() {
        let mut p = SmsPrefetcher::paper_default();
        train(&mut p, 0x400, 0x40_0000);
        let mut out = Vec::new();
        p.on_access(&ctx(0x408, 0xA00_0000), pressure(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_line_generations_are_not_archived() {
        let mut p = SmsPrefetcher::paper_default();
        let mut out = Vec::new();
        // One access per region: purely non-spatial traffic.
        for i in 0..100u64 {
            p.on_access(&ctx(0x400, i * 2048 * 8), pressure(), &mut out);
        }
        out.clear();
        p.on_access(&ctx(0x400, 0xBB0_0000), pressure(), &mut out);
        assert!(out.is_empty(), "no dense pattern should have been learned");
    }

    #[test]
    fn accumulation_captures_lines_in_any_order() {
        let mut p = SmsPrefetcher::paper_default();
        let mut out = Vec::new();
        let base = 0x50_0000;
        for line in [7u64, 1, 4, 1, 7] {
            p.on_access(&ctx(0x500, base + line * 64), pressure(), &mut out);
        }
        for i in 1..=40u64 {
            let other = base + i * 2048 * 128;
            p.on_access(&ctx(0x999, other), pressure(), &mut out);
            p.on_access(&ctx(0x999, other + 64), pressure(), &mut out);
        }
        out.clear();
        let fresh = 0xC00_0000 + 7 * 64; // same trigger offset (7)
        p.on_access(&ctx(0x500, fresh), pressure(), &mut out);
        let addrs: std::collections::BTreeSet<u64> = out.iter().map(|r| r.addr).collect();
        assert_eq!(
            addrs,
            [0xC00_0000 + 64, 0xC00_0000 + 4 * 64].into_iter().collect()
        );
    }

    #[test]
    fn storage_matches_table2_scale() {
        let p = SmsPrefetcher::paper_default();
        let kb = p.storage_bytes() as f64 / 1024.0;
        assert!((10.0..=24.0).contains(&kb), "storage {kb} kB");
    }
}
