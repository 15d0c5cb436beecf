//! The Global History Buffer prefetcher (Nesbit & Smith, HPCA'04).
//!
//! A circular *global history buffer* holds the most recent miss addresses;
//! an *index table* keyed either globally (a single stream) or by load PC
//! points at the newest GHB entry of that key, and entries chain backwards
//! through their predecessors of the same key.
//!
//! The **delta-correlation** (DC) flavors evaluated by the paper take the
//! last two address deltas of a chain as a signature, search the chain for
//! an earlier occurrence of the same delta pair, and replay the deltas that
//! followed it (prefetch degree 3). Table 2: GHB size 2K, history length 3,
//! degree 3, ~32 kB.

use std::collections::VecDeque;

use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::AccessContext;
#[cfg(test)]
use semloc_trace::Addr;

/// Localization and correlation mode of the GHB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhbFlavor {
    /// One global access stream, delta correlation (G/DC).
    GlobalDc,
    /// Streams localized by load PC, delta correlation (PC/DC).
    PcDc,
    /// Address correlation (G/AC): chains link recurrences of the *same
    /// address*; prediction replays the accesses that followed the previous
    /// occurrence (the Markov-style flavor of Nesbit & Smith).
    GlobalAc,
}

impl GhbFlavor {
    fn label(self) -> &'static str {
        match self {
            GhbFlavor::GlobalDc => "ghb-g/dc",
            GhbFlavor::PcDc => "ghb-pc/dc",
            GhbFlavor::GlobalAc => "ghb-g/ac",
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct GhbEntry {
    block: u64,
    /// Absolute position of the previous entry with the same key, or
    /// `u64::MAX`: the link a hardware GHB walks, which
    /// [`Prefetcher::storage_bytes`] counts.
    #[cfg_attr(
        not(test),
        expect(
            dead_code,
            reason = "the chain memos replace the walk; only the test reference `ring_walk` reads it"
        )
    )]
    prev: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct ItEntry {
    tag: u16,
    /// Absolute position of the newest GHB entry for this key.
    head: u64,
    valid: bool,
}

/// A GHB delta-correlation prefetcher.
#[derive(Clone, Debug)]
pub struct GhbPrefetcher {
    flavor: GhbFlavor,
    ghb: Vec<GhbEntry>,
    /// Monotone count of pushes; `pos % len` is the ring slot.
    pushes: u64,
    it: Vec<ItEntry>,
    degree: u32,
    line_shift: u32,
    max_walk: u32,
    stats: PrefetcherStats,
    /// Per-index-table-slot memo of the key chain, newest first, as
    /// `(absolute position, delta)` links: `delta` is the link's block
    /// minus the next-older link's (the oldest link's is never read).
    /// After a push to a slot, its links are exactly those the walk
    /// through `prev` links from the slot's head would visit, without its
    /// up to `max_walk` dependent loads.
    chains: Vec<VecDeque<(u64, i64)>>,
}

impl GhbPrefetcher {
    /// A GHB of `ghb_entries` (power of two) with an index table of
    /// `it_entries` (power of two), prefetching `degree` deltas ahead.
    ///
    /// # Panics
    ///
    /// Panics on non-power-of-two sizes or zero degree.
    pub fn new(flavor: GhbFlavor, ghb_entries: usize, it_entries: usize, degree: u32) -> Self {
        assert!(ghb_entries.is_power_of_two() && it_entries.is_power_of_two() && degree > 0);
        GhbPrefetcher {
            flavor,
            ghb: vec![GhbEntry::default(); ghb_entries],
            pushes: 0,
            it: vec![ItEntry::default(); it_entries],
            degree,
            line_shift: 6,
            max_walk: 64,
            stats: PrefetcherStats::default(),
            chains: vec![VecDeque::new(); it_entries],
        }
    }

    /// Table 2 configuration: 2K GHB entries, degree 3.
    pub fn paper_default(flavor: GhbFlavor) -> Self {
        GhbPrefetcher::new(flavor, 2048, 512, 3)
    }

    fn key(&self, ctx: &AccessContext) -> u64 {
        match self.flavor {
            GhbFlavor::GlobalDc => 0,
            GhbFlavor::PcDc => ctx.pc,
            GhbFlavor::GlobalAc => ctx.addr >> self.line_shift,
        }
    }

    fn it_slot(&self, key: u64) -> (usize, u16) {
        let h = key ^ (key >> 9);
        ((h as usize) & (self.it.len() - 1), (key >> 2) as u16)
    }

    /// Is absolute position `pos` still resident in the ring?
    fn live(&self, pos: u64) -> bool {
        pos != u64::MAX && pos < self.pushes && self.pushes - pos <= self.ghb.len() as u64
    }

    fn at(&self, pos: u64) -> &GhbEntry {
        &self.ghb[(pos % self.ghb.len() as u64) as usize]
    }
}

impl Prefetcher for GhbPrefetcher {
    fn name(&self) -> &'static str {
        self.flavor.label()
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        _pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let block = ctx.addr >> self.line_shift;
        let key = self.key(ctx);
        let (it_idx, tag) = self.it_slot(key);

        // Link the new GHB entry to the previous head of this key.
        let prev = {
            let e = &self.it[it_idx];
            if e.valid && e.tag == tag && self.live(e.head) {
                e.head
            } else {
                u64::MAX
            }
        };
        // The new link's delta, read before the push below can overwrite
        // `prev`'s ring slot (`pos - prev` may equal the ring length).
        let delta = if prev == u64::MAX {
            0
        } else {
            block as i64 - self.at(prev).block as i64
        };
        let pos = self.pushes;
        let slot = (pos % self.ghb.len() as u64) as usize;
        self.ghb[slot] = GhbEntry { block, prev };
        self.pushes += 1;
        self.it[it_idx] = ItEntry {
            tag,
            head: pos,
            valid: true,
        };

        if self.flavor == GhbFlavor::GlobalAc {
            // Address correlation: replay the accesses that followed the
            // previous occurrence of this same block.
            if self.live(prev) {
                for k in 1..=self.degree as u64 {
                    let fpos = prev + k;
                    // Only positions that still hold the *original* epoch's
                    // data (not yet overwritten by the ring) are usable.
                    if fpos < pos && self.live(fpos) {
                        let target = self.at(fpos).block;
                        if target != block {
                            out.push(PrefetchReq::real(target << self.line_shift, k));
                            self.stats.issued += 1;
                        }
                    }
                }
            }
            return;
        }

        // Delta correlation. Maintain the memoized chain for this slot: a
        // reset push (no live same-tag head) starts a fresh chain, any
        // other push extends the front, `max_walk` bounds the depth, and
        // links the ring has overwritten since form a suffix (positions
        // strictly decrease along a chain) that is dropped.
        let ring = self.ghb.len() as u64;
        let pushes = self.pushes;
        let chain = &mut self.chains[it_idx];
        if prev == u64::MAX {
            chain.clear();
        }
        chain.push_front((pos, delta));
        chain.truncate(self.max_walk as usize);
        while chain.back().is_some_and(|&(p, _)| pushes - p > ring) {
            chain.pop_back();
        }

        // Every link but the oldest carries a usable delta, newest first.
        let usable = chain.len().saturating_sub(1);
        if usable < 3 {
            return;
        }
        let d = |k: usize| chain[k].1;
        let (d1, d2) = (d(0), d(1));
        // Find an earlier occurrence of the pair (d2, d1) in time order:
        // the first (older) i >= 1 with d(i) == d1 && d(i + 1) == d2.
        let Some(i) = (1..usable - 1).find(|&i| d(i) == d1 && d(i + 1) == d2) else {
            return;
        };
        // Replay the deltas that followed the earlier occurrence: in
        // newest-first indexing those are d(i - 1), d(i - 2), ...
        let mut target = block as i64;
        let mut k = 0u64;
        for j in (0..i).rev().take(self.degree as usize) {
            target += d(j);
            if target > 0 {
                k += 1;
                out.push(PrefetchReq::real((target as u64) << self.line_shift, k));
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
        // GHB entry: block tag (~6B) + link (~2B); IT entry: tag+ptr (~4B).
        self.ghb.len() * 8 + self.it.len() * 4
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
    fn gdc_replays_a_recurring_delta_pattern() {
        let mut p = GhbPrefetcher::paper_default(GhbFlavor::GlobalDc);
        let mut out = Vec::new();
        // Pattern of line deltas: +1, +2, +3 repeating.
        let mut addr = 0x10_0000u64;
        let deltas = [64u64, 128, 192];
        for i in 0..12 {
            addr += deltas[i % 3];
            out.clear();
            p.on_access(&ctx(0x400, addr), pressure(), &mut out);
        }
        assert!(!out.is_empty(), "recurring delta pattern must correlate");
        // After the last +192 the next deltas are +64, +128, +192.
        assert_eq!(out[0].addr, addr + 64);
        assert_eq!(out[1].addr, addr + 64 + 128);
    }

    #[test]
    fn pcdc_localizes_streams_by_pc() {
        let mut p = GhbPrefetcher::paper_default(GhbFlavor::PcDc);
        let mut out = Vec::new();
        let mut trigger = Vec::new();
        // Two interleaved strided streams from different PCs. Globally the
        // deltas are garbage; per-PC they are clean strides.
        for i in 0..16u64 {
            out.clear();
            p.on_access(&ctx(0x400, 0x10_0000 + i * 64), pressure(), &mut out);
            trigger.extend(out.iter().copied());
            out.clear();
            p.on_access(&ctx(0x900, 0x90_0000 + i * 4096), pressure(), &mut out);
            trigger.extend(out.iter().copied());
        }
        assert!(!trigger.is_empty());
        // Every prefetch must belong to one of the two streams' address ranges.
        for r in &trigger {
            assert!(
                (0x10_0000..0x20_0000).contains(&r.addr)
                    || (0x90_0000..0xA0_0000).contains(&r.addr),
                "stray prefetch {:#x}",
                r.addr
            );
        }
    }

    #[test]
    fn gdc_on_interleaved_streams_is_confused() {
        let mut gdc = GhbPrefetcher::paper_default(GhbFlavor::GlobalDc);
        let mut pcdc = GhbPrefetcher::paper_default(GhbFlavor::PcDc);
        let mut gdc_count = 0;
        let mut pcdc_count = 0;
        let mut out = Vec::new();
        // Three interleaved pointer-ish streams with irregular per-stream
        // strides; global deltas never repeat consistently.
        for i in 0..60u64 {
            for (s, stride) in [(0u64, 64u64), (1, 4096), (2, 320)] {
                let a = 0x100_0000 * (s + 1) + i * stride;
                out.clear();
                gdc.on_access(&ctx(0x400, a), pressure(), &mut out);
                gdc_count += out.len();
                out.clear();
                pcdc.on_access(&ctx(0x400 + s * 8, a), pressure(), &mut out);
                pcdc_count += out.len();
            }
        }
        assert!(
            pcdc_count > gdc_count / 2,
            "PC localization should not be worse by construction"
        );
        assert!(pcdc_count > 0);
    }

    #[test]
    fn ring_wraparound_does_not_corrupt_chains() {
        let mut p = GhbPrefetcher::new(GhbFlavor::GlobalDc, 16, 16, 2);
        let mut out = Vec::new();
        for i in 0..200u64 {
            out.clear();
            p.on_access(&ctx(0x400, 0x10_0000 + i * 64), pressure(), &mut out);
        }
        // Must still prefetch the unit-stride stream and never panic.
        assert!(!out.is_empty());
    }

    #[test]
    fn gac_replays_successors_of_recurring_addresses() {
        let mut p = GhbPrefetcher::paper_default(GhbFlavor::GlobalAc);
        let mut out = Vec::new();
        // A recurring irregular sequence: A B C D, repeated.
        let seq = [0x10_0000u64, 0x77_0000, 0x23_0000, 0x90_0000];
        for _ in 0..3 {
            for &a in &seq {
                out.clear();
                p.on_access(&ctx(0x400, a), pressure(), &mut out);
            }
        }
        // Visiting A again must predict B (and C at degree >= 2).
        out.clear();
        p.on_access(&ctx(0x400, seq[0]), pressure(), &mut out);
        let addrs: Vec<u64> = out.iter().map(|r| r.addr & !63).collect();
        assert!(
            addrs.contains(&seq[1]),
            "G/AC must replay the successor, got {addrs:x?}"
        );
    }

    #[test]
    fn gac_is_silent_on_first_occurrences() {
        let mut p = GhbPrefetcher::paper_default(GhbFlavor::GlobalAc);
        let mut out = Vec::new();
        for i in 0..50u64 {
            out.clear();
            p.on_access(&ctx(0x400, 0x10_0000 + i * 4096), pressure(), &mut out);
            assert!(out.is_empty(), "no recurrence, no prediction");
        }
    }

    /// The chain of slot `idx` as walking the ring through `prev` links
    /// from the slot's head finds it (the pre-memo formulation): its
    /// blocks and deltas, newest first.
    fn ring_walk(p: &GhbPrefetcher, idx: usize) -> (Vec<u64>, Vec<i64>) {
        let mut blocks = Vec::new();
        let mut pos = if p.it[idx].valid {
            p.it[idx].head
        } else {
            u64::MAX
        };
        while p.live(pos) && blocks.len() < p.max_walk as usize {
            let e = p.at(pos);
            blocks.push(e.block);
            pos = if e.prev < pos { e.prev } else { u64::MAX };
        }
        let deltas = blocks
            .windows(2)
            .map(|w| w[0] as i64 - w[1] as i64)
            .collect();
        (blocks, deltas)
    }

    /// A slot memo's live length and usable deltas (all but the oldest
    /// live link's). A memo may keep expired links until its slot's next
    /// push; only the live prefix is ever read.
    fn memo_view(p: &GhbPrefetcher, idx: usize) -> (usize, Vec<i64>) {
        let live = p.chains[idx].iter().take_while(|l| p.live(l.0)).count();
        let usable = p.chains[idx].iter().take(live.saturating_sub(1));
        (live, usable.map(|l| l.1).collect())
    }

    /// After every access, on every slot, the memo's live links must
    /// match the ring walk in length and deltas, including once the small
    /// ring has wrapped and expired entries mid-chain.
    #[test]
    fn chain_memo_matches_ring_walk_under_wraparound() {
        for flavor in [GhbFlavor::GlobalDc, GhbFlavor::PcDc] {
            let mut p = GhbPrefetcher::new(flavor, 32, 8, 3);
            let mut out = Vec::new();
            let mut state = 0x1234_5678_9abc_def0u64;
            for i in 0..2000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let pc = 0x400 + (state >> 60) * 8; // 16 distinct PCs
                let addr = 0x10_0000 + ((state >> 40) & 0xFFF) * 64 + i * 64;
                p.on_access(&ctx(pc, addr), pressure(), &mut out);
                for idx in 0..p.it.len() {
                    let (blocks, deltas) = ring_walk(&p, idx);
                    let want = (blocks.len(), deltas);
                    assert_eq!(
                        memo_view(&p, idx),
                        want,
                        "{flavor:?} slot {idx}, access {i}"
                    );
                }
            }
        }
    }

    /// What the pre-memo prefetcher emits for the access that just
    /// pushed to slot `idx`: walk the ring, find the first earlier
    /// occurrence of the newest delta pair, replay what followed it.
    fn walk_predictions(p: &GhbPrefetcher, idx: usize) -> Vec<PrefetchReq> {
        let (blocks, d) = ring_walk(p, idx);
        let found = (1..d.len().saturating_sub(1)).find(|&i| d[i] == d[0] && d[i + 1] == d[1]);
        let mut out = Vec::new();
        let mut target = blocks[0] as i64;
        for &delta in d[..found.unwrap_or(0)].iter().rev().take(p.degree as usize) {
            target += delta;
            if target > 0 {
                let k = out.len() as u64 + 1;
                out.push(PrefetchReq::real((target as u64) << p.line_shift, k));
            }
        }
        out
    }

    /// Every access's requests must equal the ring-walk reference's. The
    /// small ring strands live-headed chains with expired tails, so the
    /// memo's back-pruning is on the tested path; the hot PCs' recurring
    /// deltas make the correlation fire.
    #[test]
    fn predictions_match_a_ring_walk_reference() {
        for flavor in [GhbFlavor::GlobalDc, GhbFlavor::PcDc] {
            let mut p = GhbPrefetcher::new(flavor, 32, 8, 3);
            let mut out = Vec::new();
            let mut cursor = [0x10_0000u64, 0x40_0000, 0x70_0000];
            let mut state = 0x0bad_5eed_u64;
            let mut predicted = 0usize;
            for i in 0..20_000u64 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = state >> 33;
                let (pc, addr) = if r.is_multiple_of(8) {
                    // One of 64 cold PCs, touching a random line.
                    (0x8000 + (r >> 3) % 64 * 4, (r >> 9) % 4096 * 64)
                } else {
                    // One of 3 hot PCs, each stepping +1, +2, +3 lines.
                    let h = (r >> 3) as usize % 3;
                    cursor[h] += (i % 3 + 1) * 64;
                    (0x400 + h as u64 * 4, cursor[h])
                };
                out.clear();
                p.on_access(&ctx(pc, addr), pressure(), &mut out);
                let (idx, _) = p.it_slot(p.key(&ctx(pc, addr)));
                assert_eq!(out, walk_predictions(&p, idx), "{flavor:?} access {i}");
                predicted += out.len();
            }
            assert!(predicted > 1000, "{flavor:?} predicted only {predicted}");
        }
    }

    #[test]
    fn storage_matches_table2_scale() {
        let p = GhbPrefetcher::paper_default(GhbFlavor::GlobalDc);
        let kb = p.storage_bytes() as f64 / 1024.0;
        assert!((14.0..=34.0).contains(&kb), "storage {kb} kB");
    }
}
