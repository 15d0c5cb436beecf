//! The Markov prefetcher (Joseph & Grunwald, ISCA'97).
//!
//! Models the miss-address stream as a first-order Markov chain: a
//! direct-mapped table maps each line address to its most likely
//! successors. The paper discusses it as related work whose state is *only*
//! the address — no other context — "which greatly limits its scalability
//! to predict diverging paths"; it is included to let the evaluation show
//! that contrast.

use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::AccessContext;
#[cfg(test)]
use semloc_trace::Addr;

const SUCCESSORS: usize = 2;

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    tag: u16,
    succ: [u64; SUCCESSORS],
    count: [u8; SUCCESSORS],
    valid: bool,
}

/// A first-order address-correlation prefetcher.
#[derive(Clone, Debug)]
pub struct MarkovPrefetcher {
    table: Vec<Entry>,
    last_block: Option<u64>,
    line_shift: u32,
    degree: u32,
    stats: PrefetcherStats,
}

impl MarkovPrefetcher {
    /// A table of `entries` (power of two) with up to `degree` prefetches
    /// per access.
    ///
    /// # Panics
    ///
    /// Panics on a non-power-of-two size or zero degree.
    pub fn new(entries: usize, degree: u32) -> Self {
        assert!(entries.is_power_of_two() && degree >= 1);
        MarkovPrefetcher {
            table: vec![Entry::default(); entries],
            last_block: None,
            line_shift: 6,
            degree: degree.min(SUCCESSORS as u32),
            stats: PrefetcherStats::default(),
        }
    }

    /// Storage-scaled default (~32 kB: 2K entries × ~16 B).
    pub fn paper_default() -> Self {
        MarkovPrefetcher::new(2048, 2)
    }

    fn slot(&self, block: u64) -> (usize, u16) {
        let h = block ^ (block >> 11);
        ((h as usize) & (self.table.len() - 1), (block >> 5) as u16)
    }

    #[expect(clippy::expect_used, reason = "SUCCESSORS is a const > 0")]
    fn learn(&mut self, from: u64, to: u64) {
        let (idx, tag) = self.slot(from);
        let e = &mut self.table[idx];
        if !e.valid || e.tag != tag {
            *e = Entry {
                tag,
                succ: [to, 0],
                count: [1, 0],
                valid: true,
            };
            return;
        }
        for i in 0..SUCCESSORS {
            if e.count[i] > 0 && e.succ[i] == to {
                e.count[i] = e.count[i].saturating_add(1);
                return;
            }
        }
        // Replace the weakest successor.
        let weakest = (0..SUCCESSORS)
            .min_by_key(|&i| e.count[i])
            .expect("non-empty successor list");
        e.succ[weakest] = to;
        e.count[weakest] = 1;
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        _pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let block = ctx.addr >> self.line_shift;
        if let Some(prev) = self.last_block {
            if prev != block {
                self.learn(prev, block);
            }
        }
        self.last_block = Some(block);

        let (idx, tag) = self.slot(block);
        let e = self.table[idx];
        if e.valid && e.tag == tag {
            let mut order: Vec<usize> = (0..SUCCESSORS).filter(|&i| e.count[i] >= 2).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(e.count[i]));
            for (k, &i) in order.iter().take(self.degree as usize).enumerate() {
                out.push(PrefetchReq::real(
                    e.succ[i] << self.line_shift,
                    k as u64 + 1,
                ));
                self.stats.issued += 1;
            }
        }
    }

    fn on_issue_result(&mut self, _tag: u64, issued: bool) {
        if !issued {
            self.stats.rejected += 1;
        }
    }

    fn storage_bytes(&self) -> usize {
        // tag(2) + 2 successors (6B each) + counts(2).
        self.table.len() * 16
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

    fn ctx(addr: Addr) -> AccessContext {
        AccessContext::bare(0, 0x400, addr, false)
    }

    #[test]
    fn learns_a_recurring_chain() {
        let mut p = MarkovPrefetcher::paper_default();
        let chain = [0x10_0000u64, 0x55_0000, 0x23_0000, 0x81_0000];
        let mut out = Vec::new();
        let mut predicted = Vec::new();
        for _ in 0..5 {
            for &a in &chain {
                out.clear();
                p.on_access(&ctx(a), pressure(), &mut out);
                predicted.extend(out.iter().map(|r| r.addr));
            }
        }
        // After training, visiting 0x10_0000 must predict 0x55_0000.
        out.clear();
        p.on_access(&ctx(0x10_0000), pressure(), &mut out);
        assert!(out.iter().any(|r| r.addr == 0x55_0000));
    }

    #[test]
    fn single_occurrence_transitions_are_not_prefetched() {
        let mut p = MarkovPrefetcher::paper_default();
        let mut out = Vec::new();
        p.on_access(&ctx(0x10_0000), pressure(), &mut out);
        p.on_access(&ctx(0x55_0000), pressure(), &mut out);
        out.clear();
        p.on_access(&ctx(0x10_0000), pressure(), &mut out);
        assert!(out.is_empty(), "confidence threshold requires repetition");
    }

    #[test]
    fn diverging_successors_keep_the_stronger_one() {
        let mut p = MarkovPrefetcher::paper_default();
        let mut out = Vec::new();
        // A -> B three times, A -> C once.
        for target in [0xB0_0000u64, 0xB0_0000, 0xC0_0000, 0xB0_0000] {
            p.on_access(&ctx(0xA0_0000), pressure(), &mut out);
            p.on_access(&ctx(target), pressure(), &mut out);
        }
        out.clear();
        p.on_access(&ctx(0xA0_0000), pressure(), &mut out);
        assert_eq!(out.first().map(|r| r.addr), Some(0xB0_0000));
    }

    #[test]
    fn same_block_repeats_do_not_self_link() {
        let mut p = MarkovPrefetcher::paper_default();
        let mut out = Vec::new();
        for _ in 0..10 {
            p.on_access(&ctx(0x77_0040), pressure(), &mut out);
        }
        out.clear();
        p.on_access(&ctx(0x77_0040), pressure(), &mut out);
        assert!(out.is_empty());
    }
}
