//! Pre-optimization replicas of the hot-path data structures, kept solely
//! so the benchmarks can measure the speedup of the rewrites against the
//! original implementations (`bench_compare` and the `*_overhead` benches).
//!
//! Each replica reproduces the code the optimized version replaced:
//!
//! * [`LinearPrefetchQueue`] — O(capacity) scans per operation, where
//!   [`semloc_context::pfq::PrefetchQueue`] keeps a block→entry index;
//! * [`NestedCache`] — `Vec<Vec<Line>>` set storage, where
//!   [`semloc_mem::Cache`] uses one flat slice;
//! * [`LegacyContextPrefetcher`] — the original `on_access` pipeline:
//!   two-pass context hashing (`FullHash::of` + `ContextKey::of`), a fresh
//!   ranking `Vec` per prediction with a second sort, and the linear queue;
//! * [`LegacyScoredSet`] — interleaved `Vec<Slot>` storage with iterator
//!   scans, where [`semloc_bandit::ScoredSet`] splits actions/scores/ages
//!   into flat lanes (`tests::legacy_scored_set_matches_soa` checks the
//!   production set against it).
//!
//! The replicas share the CST/reducer/history/exploration implementations
//! with the optimized prefetcher, so any timing difference is attributable
//! to the rewritten components alone. `tests::legacy_prefetcher_matches_
//! optimized` pins the replica to the optimized path output-for-output.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use semloc_bandit::{ExplorationPolicy, RewardFunction};
use semloc_context::attrs::{ContextKey, FullHash};
use semloc_context::cst::{AddOutcome, ContextStatesTable};
use semloc_context::history::{HistoryEntry, HistoryQueue};
use semloc_context::pfq::{PfqEntry, PfqHit};
use semloc_context::reducer::Reducer;
use semloc_context::ContextConfig;
use semloc_mem::{CacheConfig, MemPressure, PrefetchReq};
use semloc_trace::{AccessContext, Addr, Cycle, Seq};

/// The original linear-scan prefetch queue (seed `pfq.rs`).
#[derive(Clone, Debug)]
pub struct LinearPrefetchQueue {
    entries: VecDeque<PfqEntry>,
    capacity: usize,
    next_id: u64,
}

impl LinearPrefetchQueue {
    /// A queue of `capacity` predictions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch queue needs capacity");
        LinearPrefetchQueue {
            entries: VecDeque::with_capacity(capacity + 1),
            capacity,
            next_id: 0,
        }
    }

    /// Seed `PrefetchQueue::push`.
    pub fn push(
        &mut self,
        block: u64,
        key: ContextKey,
        full: FullHash,
        delta: i16,
        issue_seq: Seq,
        shadow: bool,
    ) -> (u64, Option<PfqEntry>) {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push_back(PfqEntry {
            id,
            block,
            key,
            full,
            delta,
            issue_seq,
            shadow,
            hit: false,
        });
        let expired = if self.entries.len() > self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        (id, expired)
    }

    /// Seed `PrefetchQueue::record_access`: full scan.
    pub fn record_access(&mut self, block: u64, seq: Seq, out: &mut Vec<PfqHit>) {
        for e in self.entries.iter_mut() {
            if !e.hit && e.block == block {
                e.hit = true;
                let depth = seq.saturating_sub(e.issue_seq) as u32;
                out.push(PfqHit { entry: *e, depth });
            }
        }
    }

    /// Seed `PrefetchQueue::predicts`: full scan.
    pub fn predicts(&self, block: u64) -> bool {
        self.entries.iter().any(|e| !e.hit && e.block == block)
    }

    /// Seed `PrefetchQueue::predicts_real`: full scan.
    pub fn predicts_real(&self, block: u64) -> bool {
        self.entries
            .iter()
            .any(|e| !e.hit && !e.shadow && e.block == block)
    }

    /// Seed `PrefetchQueue::demote_to_shadow`: linear id search.
    pub fn demote_to_shadow(&mut self, id: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.shadow = true;
        }
    }

    /// Seed `PrefetchQueue::drain`.
    pub fn drain(&mut self) -> impl Iterator<Item = PfqEntry> + '_ {
        self.entries.drain(..)
    }

    /// Outstanding predictions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no predictions are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[derive(Clone, Copy, Debug)]
struct Slot<A> {
    action: A,
    score: i8,
}

/// The original `ScoredSet`: one interleaved `Vec<Slot>`, every
/// scan an iterator walk over ~7-byte-strided slots.
#[derive(Clone, Debug)]
pub struct LegacyScoredSet<A, const N: usize> {
    slots: Vec<Slot<A>>,
}

impl<A: Copy + Eq, const N: usize> Default for LegacyScoredSet<A, N> {
    fn default() -> Self {
        LegacyScoredSet {
            slots: Vec::with_capacity(N),
        }
    }
}

impl<A: Copy + Eq, const N: usize> LegacyScoredSet<A, N> {
    /// Seed `ScoredSet::insert` (lowest-score replacement).
    pub fn insert(&mut self, action: A) -> Option<(A, i8)> {
        if self.slots.iter().any(|s| s.action == action) {
            return None;
        }
        let slot = Slot { action, score: 0 };
        if self.slots.len() < N {
            self.slots.push(slot);
            return None;
        }
        let victim = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, s)| s.score)
            .map(|(i, _)| i)
            .expect("full set is non-empty");
        let evicted = (self.slots[victim].action, self.slots[victim].score);
        self.slots[victim] = slot;
        Some(evicted)
    }

    /// Seed `ScoredSet::reward_capped`.
    pub fn reward_capped(&mut self, action: A, delta: i32, cap: i8) -> bool {
        match self.slots.iter_mut().find(|s| s.action == action) {
            Some(s) => {
                let mut new = (s.score as i32 + delta).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
                if delta > 0 {
                    new = new.min(cap.max(s.score));
                }
                s.score = new;
                true
            }
            None => false,
        }
    }

    /// Seed `ScoredSet::best` (last maximum, `max_by_key` tie-break).
    pub fn best(&self) -> Option<(A, i8)> {
        self.slots
            .iter()
            .max_by_key(|s| s.score)
            .map(|s| (s.action, s.score))
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    prefetched: bool,
    touched: bool,
    lru: u64,
    ready_at: Cycle,
}

/// Cache lookup outcome (mirrors `semloc_mem::LookupResult` shape-for-shape
/// so routines compile identically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NestedLookup {
    /// Present and filled.
    Hit {
        /// First demand touch of a prefetched line.
        first_touch_of_prefetch: bool,
    },
    /// Present, fill outstanding.
    InFlight {
        /// Fill-completion cycle.
        ready_at: Cycle,
        /// The outstanding request is a prefetch.
        prefetch: bool,
    },
    /// Not present.
    Miss,
}

/// The original nested-`Vec` cache array (seed `cache.rs` storage layout,
/// with the demand-refill fix applied so behaviour matches the optimized
/// cache exactly).
#[derive(Debug)]
pub struct NestedCache {
    sets: Vec<Vec<Line>>,
    set_mask: u64,
    line_shift: u32,
    tick: u64,
}

impl NestedCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        NestedCache {
            sets: vec![vec![Line::default(); cfg.ways as usize]; sets as usize],
            set_mask: sets - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            tick: 0,
        }
    }

    #[inline]
    fn index(&self, addr: Addr) -> (usize, u64) {
        let block = addr >> self.line_shift;
        (
            (block & self.set_mask) as usize,
            block >> self.set_mask.count_ones(),
        )
    }

    /// Seed `Cache::lookup_demand` over nested sets.
    pub fn lookup_demand(&mut self, addr: Addr, now: Cycle, is_write: bool) -> NestedLookup {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        for line in &mut self.sets[set] {
            if line.valid && line.tag == tag {
                line.lru = tick;
                if is_write {
                    line.dirty = true;
                }
                if line.ready_at > now {
                    return NestedLookup::InFlight {
                        ready_at: line.ready_at,
                        prefetch: line.prefetched,
                    };
                }
                let first = line.prefetched && !line.touched;
                line.touched = true;
                line.prefetched = false;
                return NestedLookup::Hit {
                    first_touch_of_prefetch: first,
                };
            }
        }
        NestedLookup::Miss
    }

    /// Seed `Cache::fill` over nested sets. Returns whether a valid line
    /// was evicted.
    pub fn fill(&mut self, addr: Addr, ready_at: Cycle, prefetched: bool, dirty: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let (set, tag) = self.index(addr);
        let ways = &mut self.sets[set];
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = tick;
            line.dirty |= dirty;
            line.ready_at = line.ready_at.min(ready_at);
            if !prefetched {
                line.prefetched = false;
                line.touched = true;
            }
            return false;
        }
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("cache set has at least one way");
        let evicted = victim.valid;
        *victim = Line {
            tag,
            valid: true,
            dirty,
            prefetched,
            touched: false,
            lru: tick,
            ready_at,
        };
        evicted
    }
}

/// The original `ContextPrefetcher::on_access` pipeline: two-pass hashing,
/// per-prediction allocation + double sort, linear prefetch queue. CST,
/// reducer, history and exploration are the shared (unchanged) modules.
pub struct LegacyContextPrefetcher {
    cfg: ContextConfig,
    cst: ContextStatesTable,
    reducer: Reducer,
    history: HistoryQueue,
    pfq: LinearPrefetchQueue,
    rng: StdRng,
    hit_buf: Vec<PfqHit>,
}

impl LegacyContextPrefetcher {
    /// Build the replica from a configuration.
    pub fn new(cfg: ContextConfig) -> Self {
        cfg.validate();
        LegacyContextPrefetcher {
            cst: ContextStatesTable::new(cfg.cst_entries, cfg.replacement),
            reducer: Reducer::new(
                cfg.reducer_entries,
                cfg.initial_active,
                cfg.overload_threshold,
                cfg.underload_threshold,
                cfg.freeze_reducer,
            ),
            history: HistoryQueue::new(cfg.history_len),
            pfq: LinearPrefetchQueue::new(cfg.pfq_len),
            rng: StdRng::seed_from_u64(cfg.seed),
            hit_buf: Vec::with_capacity(8),
            cfg,
        }
    }

    /// Seed `ContextPrefetcher::on_access`.
    pub fn on_access(
        &mut self,
        ctx: &AccessContext,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let block = ctx.addr >> self.cfg.block_shift;

        // 1. Feedback.
        let mut hits = std::mem::take(&mut self.hit_buf);
        hits.clear();
        self.pfq.record_access(block, ctx.seq, &mut hits);
        let (lo, hi) = self.cfg.reward.window();
        for h in &hits {
            let r = self.cfg.reward.reward(h.depth);
            if h.depth < lo {
                self.cst.reward_capped(h.entry.key, h.entry.delta, r, 32);
            } else {
                self.cst.reward(h.entry.key, h.entry.delta, r);
            }
            let _ = h.depth >= lo && h.depth <= hi;
            self.cfg.exploration.observe(true);
        }
        self.hit_buf = hits;

        // 2. Two-pass context hashing.
        let full = FullHash::of(ctx, self.cfg.block_shift);
        let active = self.reducer.active_count(full);
        let key = ContextKey::of(ctx, active as usize, self.cfg.block_shift);
        if self
            .cst
            .note_shared_weak(key, full.0, self.cfg.split_strength_bar)
        {
            self.reducer.report_overload(full);
        }

        // 3. Collection.
        let mut samples: [Option<HistoryEntry>; 16] = [None; 16];
        let mut n = 0;
        for (_, e) in self.history.sample(&self.cfg.sample_depths) {
            if n == samples.len() {
                break;
            }
            samples[n] = Some(*e);
            n += 1;
        }
        let max_delta = self.cfg.max_delta();
        for e in samples.iter().take(n).flatten() {
            let delta64 = block as i64 - e.block as i64;
            if delta64 == 0 || delta64.abs() > max_delta {
                continue;
            }
            match self.cst.add_candidate(e.key, delta64 as i16) {
                AddOutcome::Evicted(victim_score) if victim_score > 0 => {
                    self.reducer.report_overload(e.full)
                }
                AddOutcome::Evicted(_) => {}
                AddOutcome::Allocated => self.reducer.report_underload(e.full),
                AddOutcome::Stored => {}
            }
        }

        // 4. Prediction: fresh Vec + double sort per access.
        self.predict(block, key, full, ctx.seq, pressure, out);

        // 5. History.
        self.history.push(HistoryEntry { key, full, block });
    }

    fn predict(
        &mut self,
        block: u64,
        key: ContextKey,
        full: FullHash,
        seq: u64,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let mut ranked = match self.cst.lookup(key) {
            Some(links) => links.ranked(),
            None => return,
        };
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| b.0.abs().cmp(&a.0.abs())));
        let explore_pick =
            if self.cfg.disable_shadow || !self.cfg.exploration.explore(&mut self.rng) {
                None
            } else {
                Some(ranked[self.rng.random_range(0..ranked.len())].0)
            };

        let acc = self.cfg.exploration.accuracy();
        let (step1, step2) = self.cfg.degree_accuracy_steps;
        let mut degree = 1 + (acc > step1) as u32 + (acc > step2) as u32;
        degree = degree.min(self.cfg.max_degree);
        let mshr_ok = pressure.l1_mshr_free > 1;

        let mut reals = 0u32;
        for &(delta, score) in &ranked {
            if reals >= degree {
                break;
            }
            if score < self.cfg.issue_score_threshold {
                break;
            }
            let target = block.wrapping_add(delta as i64 as u64);
            if self.pfq.predicts_real(target) {
                self.push_pred(target, key, full, delta, seq);
                continue;
            }
            if mshr_ok {
                let (id, expired) = self.pfq.push(target, key, full, delta, seq, false);
                self.expire(expired);
                out.push(PrefetchReq::real(target << self.cfg.block_shift, id));
                reals += 1;
            } else {
                self.push_pred(target, key, full, delta, seq);
            }
        }

        if reals == 0 && !self.cfg.disable_shadow {
            if let Some(&(delta, _)) = ranked.first() {
                let target = block.wrapping_add(delta as i64 as u64);
                if !self.pfq.predicts(target) {
                    self.push_pred(target, key, full, delta, seq);
                }
            }
        }

        if let Some(delta) = explore_pick {
            let target = block.wrapping_add(delta as i64 as u64);
            self.push_pred(target, key, full, delta, seq);
        }
    }

    fn push_pred(&mut self, target: u64, key: ContextKey, full: FullHash, delta: i16, seq: u64) {
        let (_, expired) = self.pfq.push(target, key, full, delta, seq, true);
        self.expire(expired);
    }

    fn expire(&mut self, expired: Option<PfqEntry>) {
        if let Some(e) = expired {
            if !e.hit {
                self.cst.reward(e.key, e.delta, self.cfg.reward.expiry());
                self.cfg.exploration.observe(false);
            }
        }
    }

    /// Reject a dispatched prefetch (seed `on_issue_result(_, false)`).
    pub fn reject(&mut self, tag: u64) {
        self.pfq.demote_to_shadow(tag);
    }
}

/// Lets `bench_compare` run the replica inside a full [`semloc_mem::
/// Hierarchy`] + CPU simulation, measuring the end-to-end "before" cost.
impl semloc_mem::Prefetcher for LegacyContextPrefetcher {
    fn name(&self) -> &'static str {
        "context-legacy"
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        LegacyContextPrefetcher::on_access(self, ctx, pressure, out);
    }

    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        if !issued {
            self.pfq.demote_to_shadow(tag);
        }
    }

    fn was_predicted(&self, addr: Addr) -> bool {
        self.pfq.predicts(addr >> self.cfg.block_shift)
    }

    fn storage_bytes(&self) -> usize {
        self.cfg.storage_bytes()
    }

    fn finish(&mut self) {
        let expiry = self.cfg.reward.expiry();
        let pending: Vec<PfqEntry> = self.pfq.drain().collect();
        for e in pending {
            if !e.hit {
                self.cst.reward(e.key, e.delta, expiry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_context::ContextPrefetcher;
    use semloc_mem::Prefetcher;
    use semloc_trace::SemanticHints;

    fn pressure() -> MemPressure {
        MemPressure {
            l1_mshr_free: 4,
            l2_mshr_free: 20,
        }
    }

    /// A mixed stream: strided phase, pointer-chain phase, noise phase.
    fn stream(n: u64) -> impl Iterator<Item = AccessContext> {
        let mut state = 0xfeed_5eed_u64;
        (0..n).map(move |seq| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = match seq % 3 {
                0 => 0x10_0000 + seq * 64,
                1 => 0x80_0000 + (seq % 97) * 160,
                _ => 0x100_0000 + (state % (1 << 22)),
            };
            let mut c = AccessContext::bare(seq, 0x400 + (seq % 3) * 0x10, addr, seq % 7 == 0);
            c.reg1 = addr >> 5;
            c.branch_history = state as u16;
            c.last_loaded = state;
            if seq % 3 == 1 {
                c.hints = Some(SemanticHints::link(2, 8));
            }
            c
        })
    }

    #[test]
    fn legacy_prefetcher_matches_optimized() {
        let mut legacy = LegacyContextPrefetcher::new(ContextConfig::default());
        let mut new = ContextPrefetcher::new(ContextConfig::default());
        let (mut out_l, mut out_n) = (Vec::new(), Vec::new());
        for (i, c) in stream(20_000).enumerate() {
            out_l.clear();
            out_n.clear();
            legacy.on_access(&c, pressure(), &mut out_l);
            new.on_access(&c, pressure(), &mut out_n);
            assert_eq!(out_l, out_n, "divergence at access {i}");
            // Occasionally reject an issue on both sides.
            if i % 13 == 0 {
                for r in &out_l {
                    legacy.reject(r.tag);
                    new.on_issue_result(r.tag, false);
                }
            }
        }
    }

    #[test]
    fn legacy_scored_set_matches_soa() {
        let mut legacy = LegacyScoredSet::<i16, 4>::default();
        let mut soa = semloc_bandit::ScoredSet::<i16, 4>::default();
        let mut state = 0xabcd_u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let action = (state % 23) as i16 - 11;
            match state % 3 {
                0 => assert_eq!(legacy.insert(action), soa.insert(action)),
                1 => {
                    let delta = (state % 33) as i32 - 16;
                    assert_eq!(
                        legacy.reward_capped(action, delta, 32),
                        soa.reward_capped(action, delta, 32)
                    );
                }
                _ => assert_eq!(legacy.best(), soa.best()),
            }
        }
    }

    #[test]
    fn nested_cache_matches_flat_cache() {
        let cfg = CacheConfig::l1d();
        let mut nested = NestedCache::new(&cfg);
        let mut flat = semloc_mem::Cache::new(cfg);
        let mut state = 0x1234_u64;
        for now in 0..50_000u64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let addr = (state % (1 << 20)) & !0x3f;
            match state % 4 {
                0 => {
                    let evicted = nested.fill(addr, now + 20, state.is_multiple_of(3), false);
                    let ev = flat.fill(addr, now + 20, state.is_multiple_of(3), false);
                    assert_eq!(evicted, ev.valid);
                }
                _ => {
                    let a = nested.lookup_demand(addr, now, state.is_multiple_of(5));
                    let b = flat.lookup_demand(addr, now, state.is_multiple_of(5));
                    let same = matches!(
                        (a, b),
                        (NestedLookup::Miss, semloc_mem::LookupResult::Miss)
                            | (
                                NestedLookup::Hit { .. },
                                semloc_mem::LookupResult::Hit { .. }
                            )
                            | (
                                NestedLookup::InFlight { .. },
                                semloc_mem::LookupResult::InFlight { .. }
                            )
                    );
                    assert!(same, "lookup diverged: {a:?} vs {b:?}");
                }
            }
        }
    }
}
