//! The context-based prefetcher (§4–§5, Algorithm 1, Fig 6).
//!
//! Per demand access, three operations execute (conceptually in parallel;
//! sequentially here, in feedback → collection → prediction order so that a
//! prediction can never be rewarded by the very access that produced it):
//!
//! 1. **Feedback** — match the access against the prefetch queue; every
//!    matching prediction is rewarded by depth (bell reward, Fig 5), and
//!    entries that overflow the queue un-hit are penalized.
//! 2. **Data collection** — associate the current address, as a block
//!    delta, with the contexts observed at the sampled history depths.
//!    Candidate churn and cold allocations feed the reducer's
//!    overload/underload adaptation.
//! 3. **Prediction** — look up the current (reduced) context in the CST and
//!    dispatch the highest-scoring deltas, with accuracy-adaptive degree and
//!    ε-greedy shadow exploration.

use rand::rngs::StdRng;
use rand::SeedableRng;

use semloc_bandit::{RewardFunction, RewardLut};
use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::{snap_err, AccessContext, Addr, SnapReader, SnapWriter, Snapshot};

use crate::attrs::{ContextKey, FullHash};
use crate::config::ContextConfig;
use crate::cst::{AddOutcome, ContextStatesTable};
use crate::features::FeatureExtractor;
use crate::history::{HistoryEntry, HistoryQueue};
use crate::pfq::{PfqEntry, PfqHit, PrefetchQueue};
use crate::reducer::Reducer;
use crate::stats::ContextStats;

/// The paper's context-based prefetcher.
///
/// ```rust
/// use semloc_context::{ContextConfig, ContextPrefetcher};
/// use semloc_mem::{MemPressure, Prefetcher};
/// use semloc_trace::AccessContext;
///
/// let mut pf = ContextPrefetcher::new(ContextConfig::default());
/// let mut out = Vec::new();
/// for i in 0..2000u64 {
///     out.clear();
///     let ctx = AccessContext::bare(i, 0x400, 0x10_0000 + i * 64, false);
///     pf.on_access(&ctx, MemPressure { l1_mshr_free: 4, l2_mshr_free: 20 }, &mut out);
///     for r in &out {
///         pf.on_issue_result(r.tag, true);
///     }
/// }
/// assert!(pf.learn_stats().hits > 0, "the stride stream is learned");
/// ```
pub struct ContextPrefetcher {
    cfg: ContextConfig,
    cst: ContextStatesTable,
    reducer: Reducer,
    history: HistoryQueue,
    pfq: PrefetchQueue,
    rng: StdRng,
    stats: ContextStats,
    hit_buf: Vec<PfqHit>,
    /// Reusable candidate-ranking scratch (hoisted out of `predict`).
    rank_buf: Vec<(i16, i8)>,
    /// Exact tabulation of `cfg.reward` — derived configuration, rebuilt on
    /// construction, deliberately absent from snapshots.
    reward_lut: RewardLut,
    /// Scratch for the batched depth→reward gather in `feedback`.
    depth_buf: Vec<u32>,
    reward_buf: Vec<i32>,
    mem_stats: PrefetcherStats,
}

impl ContextPrefetcher {
    /// Build the prefetcher from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ContextConfig::validate`].
    pub fn new(cfg: ContextConfig) -> Self {
        cfg.validate();
        let reward_lut = RewardLut::new(&cfg.reward);
        ContextPrefetcher {
            cst: ContextStatesTable::new(cfg.cst_entries, cfg.replacement),
            reducer: Reducer::new(
                cfg.reducer_entries,
                cfg.initial_active,
                cfg.overload_threshold,
                cfg.underload_threshold,
                cfg.freeze_reducer,
            ),
            history: HistoryQueue::new(cfg.history_len),
            pfq: PrefetchQueue::new(cfg.pfq_len),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: ContextStats::default(),
            hit_buf: Vec::with_capacity(8),
            rank_buf: Vec::with_capacity(16),
            reward_lut,
            depth_buf: Vec::with_capacity(8),
            reward_buf: Vec::with_capacity(8),
            mem_stats: PrefetcherStats::default(),
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &ContextConfig {
        &self.cfg
    }

    /// Learning statistics (hit-depth CDF, convergence counters).
    pub fn learn_stats(&self) -> &ContextStats {
        &self.stats
    }

    /// The context-states table (for inspection/diagnostics).
    pub fn cst(&self) -> &ContextStatesTable {
        &self.cst
    }

    /// The reducer (for inspection/diagnostics).
    pub fn reducer(&self) -> &Reducer {
        &self.reducer
    }

    /// Flush end-of-run feedback: every outstanding un-hit prediction
    /// expires with the penalty reward. Call once when a run completes.
    pub fn drain_feedback(&mut self) {
        let expiry = self.cfg.reward.expiry();
        for e in self.pfq.drain() {
            if !e.hit {
                self.cst.reward(e.key, e.delta, expiry);
                self.stats.expired += 1;
            }
        }
    }

    #[inline]
    fn block_of(&self, addr: Addr) -> u64 {
        addr >> self.cfg.block_shift
    }

    /// Feedback unit: reward matching predictions, observe accuracy.
    fn feedback(&mut self, block: u64, seq: u64) {
        let mut hits = std::mem::take(&mut self.hit_buf);
        hits.clear();
        self.pfq.record_access(block, seq, &mut hits);
        let (lo, hi) = self.cfg.reward.window();
        // Batched depth→reward translation: one clamped gather over the
        // tabulated bell (bit-identical to `cfg.reward.reward(depth)`, see
        // `RewardLut`) instead of two `exp()` calls per hit.
        self.depth_buf.clear();
        self.depth_buf.extend(hits.iter().map(|h| h.depth));
        self.reward_buf.clear();
        self.reward_buf.resize(hits.len(), 0);
        semloc_accel::gather_i32(
            self.reward_lut.table(),
            &self.depth_buf,
            &mut self.reward_buf,
        );
        for (h, &r) in hits.iter().zip(&self.reward_buf) {
            if h.depth < lo {
                // Late hits only shortened a wait (the demand merged into
                // the in-flight fill): partial credit, capped so it can
                // never outrank fully timely candidates.
                self.cst.reward_capped(h.entry.key, h.entry.delta, r, 32);
            } else {
                self.cst.reward(h.entry.key, h.entry.delta, r);
            }
            self.stats.hits += 1;
            self.stats.depth_cdf.record(h.depth);
            let timely = h.depth >= lo && h.depth <= hi;
            if timely {
                self.stats.timely_hits += 1;
            } else if h.depth < lo {
                self.stats.late_hits += 1;
            } else {
                self.stats.early_hits += 1;
            }
            if !h.entry.shadow {
                self.mem_stats.useful += 1;
            }
            // §4.2 throttles by "average hit rate in the prefetch queue":
            // any hit counts as a success; only expirations count against.
            self.cfg.exploration.observe(true);
        }
        self.hit_buf = hits;
    }

    /// Collection unit: bind the current block to sampled past contexts.
    fn collect(&mut self, block: u64) {
        // Gather first to keep the borrow checker happy: sampling borrows
        // the history queue immutably while the CST/reducer need &mut.
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
            if delta64 == 0 {
                continue;
            }
            if delta64.abs() > max_delta {
                self.stats.delta_overflow += 1;
                continue;
            }
            let delta = delta64 as i16;
            self.stats.collected += 1;
            match self.cst.add_candidate(e.key, delta) {
                // Only the loss of a *proven* candidate signals that too
                // many useful predictions compete for this reduced context;
                // churn among unproven candidates is ordinary exploration.
                AddOutcome::Evicted(victim_score) if victim_score > 0 => {
                    self.reducer.report_overload(e.full)
                }
                AddOutcome::Evicted(_) => {}
                AddOutcome::Allocated => self.reducer.report_underload(e.full),
                AddOutcome::Stored => {}
            }
        }
    }

    /// Prediction unit: dispatch high-score candidates, explore with
    /// shadows.
    fn predict(
        &mut self,
        block: u64,
        key: ContextKey,
        full: FullHash,
        seq: u64,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let mut ranked = std::mem::take(&mut self.rank_buf);
        let Some(links) = self.cst.lookup(key) else {
            self.rank_buf = ranked;
            return;
        };
        links.ranked_into(&mut ranked);
        // Rank by score, tie-breaking saturated scores toward the
        // deeper-reaching delta: with equal evidence, more distance hides
        // more latency. One stable sort over slot order — equivalent to
        // `ranked()` followed by a score-desc/abs-desc re-sort, since the
        // second key refines the first.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| b.0.abs().cmp(&a.0.abs())));
        let explore_pick =
            if self.cfg.disable_shadow || !self.cfg.exploration.explore(&mut self.rng) {
                None
            } else {
                use rand::RngExt;
                Some(ranked[self.rng.random_range(0..ranked.len())].0)
            };

        let acc = self.cfg.exploration.accuracy();
        let (step1, step2) = self.cfg.degree_accuracy_steps;
        let mut degree = 1 + (acc > step1) as u32 + (acc > step2) as u32;
        degree = degree.min(self.cfg.max_degree);
        // Proactive MSHR throttling (§4.2): under pressure, real prefetches
        // become shadow operations.
        let mshr_ok = pressure.l1_mshr_free > 1;

        let mut reals = 0u32;
        for &(delta, score) in &ranked {
            if reals >= degree {
                break;
            }
            if score < self.cfg.issue_score_threshold {
                break; // ranked: everything below is weaker
            }
            let target = block.wrapping_add(delta as i64 as u64);
            if self.pfq.predicts_real(target) {
                // Already dispatched by an earlier prefetch: re-add as a
                // shadow to train another context-address pair (§4.2).
                self.push_pred(target, key, full, delta, seq, true);
                continue;
            }
            if mshr_ok {
                let (id, expired) = self.pfq.push(target, key, full, delta, seq, false);
                self.expire(expired);
                out.push(PrefetchReq::real(target << self.cfg.block_shift, id));
                self.mem_stats.issued += 1;
                self.stats.real_issued += 1;
                reals += 1;
            } else {
                self.push_pred(target, key, full, delta, seq, true);
            }
        }

        if reals == 0 && !self.cfg.disable_shadow {
            // Nothing met the issue bar: train the best candidate silently.
            if let Some(&(delta, _)) = ranked.first() {
                let target = block.wrapping_add(delta as i64 as u64);
                if !self.pfq.predicts(target) {
                    self.push_pred(target, key, full, delta, seq, true);
                }
            }
        }

        if let Some(delta) = explore_pick {
            // ε-greedy exploration: a random previously-correlated address,
            // always as a shadow operation.
            let target = block.wrapping_add(delta as i64 as u64);
            self.push_pred(target, key, full, delta, seq, true);
        }
        self.rank_buf = ranked;
    }

    fn push_pred(
        &mut self,
        target: u64,
        key: ContextKey,
        full: FullHash,
        delta: i16,
        seq: u64,
        shadow: bool,
    ) {
        let (_, expired) = self.pfq.push(target, key, full, delta, seq, shadow);
        if shadow {
            self.stats.shadow_issued += 1;
            self.mem_stats.shadow += 1;
        }
        self.expire(expired);
    }

    fn expire(&mut self, expired: Option<PfqEntry>) {
        if let Some(e) = expired {
            if !e.hit {
                self.cst.reward(e.key, e.delta, self.cfg.reward.expiry());
                self.stats.expired += 1;
                self.cfg.exploration.observe(false);
            }
        }
    }
}

impl Prefetcher for ContextPrefetcher {
    fn name(&self) -> &'static str {
        "context"
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        let block = self.block_of(ctx.addr);

        // 1. Feedback.
        self.feedback(block, ctx.seq);

        // 2. Hash the current context through the reducer. One extraction
        // pass over the configured feature set yields the full hash and
        // every prefix key (bit-identical to `FullHash::of` /
        // `ContextKey::of` for the default Table-1 set).
        let features = self.cfg.features.extract(ctx, self.cfg.block_shift);
        let full = features.full_hash();
        let active = self.reducer.active_count(full);
        let key = features.key(active as usize);

        // 2b. Ref-count overload (§5): a reduced context shared by many
        // distinct full contexts while predicting weakly should split.
        if self
            .cst
            .note_shared_weak(key, full.0, self.cfg.split_strength_bar)
        {
            self.reducer.report_overload(full);
        }

        // 3. Data collection against sampled history.
        self.collect(block);

        // 4. Prediction.
        self.predict(block, key, full, ctx.seq, pressure, out);

        // 5. The current context now enters the history queue.
        self.history.push(HistoryEntry { key, full, block });
    }

    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        if !issued {
            self.pfq.demote_to_shadow(tag);
            self.stats.demoted += 1;
            self.mem_stats.rejected += 1;
        }
    }

    fn was_predicted(&self, addr: Addr) -> bool {
        self.pfq.predicts(self.block_of(addr))
    }

    fn storage_bytes(&self) -> usize {
        self.cfg.storage_bytes()
    }

    fn stats(&self) -> PrefetcherStats {
        self.mem_stats
    }

    fn finish(&mut self) {
        self.drain_feedback();
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn save_state(&self, w: &mut SnapWriter) {
        let Self {
            cfg,
            cst,
            reducer,
            history,
            pfq,
            rng,
            stats,
            hit_buf: _,    // scratch, cleared before each use and restored empty
            rank_buf: _,   // scratch, cleared before each use and restored empty
            reward_lut: _, // derived from cfg.reward at construction
            depth_buf: _,  // scratch, cleared before each use
            reward_buf: _, // scratch, cleared before each use
            mem_stats,
        } = self;
        // v2: the composition axes (feature set, reward shape) are stamped
        // ahead of the payload so a checkpoint can never silently restore
        // into a differently-composed pipeline.
        w.section(*b"CTXP", 2);
        cfg.features.save(w);
        cfg.reward.save(w);
        // The exploration policy lives inside the config but is mutated run
        // state (observe() anneals ε), so it snapshots with everything else.
        cfg.exploration.save(w);
        cst.save(w);
        reducer.save(w);
        history.save(w);
        pfq.save(w);
        for word in rng.state() {
            w.put_u64(word);
        }
        stats.save(w);
        mem_stats.save(w);
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
        let Self {
            cfg,
            cst,
            reducer,
            history,
            pfq,
            rng,
            stats,
            hit_buf,
            rank_buf,
            reward_lut: _, // derived from cfg.reward at construction
            depth_buf: _,  // scratch, cleared before each use
            reward_buf: _, // scratch, cleared before each use
            mem_stats,
        } = self;
        r.section(*b"CTXP", 2)?;
        let mut features = cfg.features;
        features.restore(r)?;
        if features != cfg.features {
            return Err(snap_err(format!(
                "checkpoint composed with feature set {:?}, this pipeline uses {:?}",
                features, cfg.features
            )));
        }
        let mut reward = cfg.reward.clone();
        reward.restore(r)?;
        if reward != cfg.reward {
            return Err(snap_err(format!(
                "checkpoint composed with reward shape {:?}, this pipeline uses {:?}",
                reward, cfg.reward
            )));
        }
        cfg.exploration.restore(r)?;
        cst.restore(r)?;
        reducer.restore(r)?;
        history.restore(r)?;
        pfq.restore(r)?;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.get_u64()?;
        }
        *rng = StdRng::from_state(s);
        stats.restore(r)?;
        mem_stats.restore(r)?;
        hit_buf.clear();
        rank_buf.clear();
        Ok(())
    }
}

impl std::fmt::Debug for ContextPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContextPrefetcher")
            .field("occupancy", &self.cst.occupancy())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::AccessContext;

    fn pressure() -> MemPressure {
        MemPressure {
            l1_mshr_free: 4,
            l2_mshr_free: 20,
        }
    }

    fn ctx(seq: u64, pc: u64, addr: u64) -> AccessContext {
        AccessContext::bare(seq, pc, addr, false)
    }

    /// Drive a strictly repeating single-PC stream whose addresses advance
    /// by `stride` bytes, `n` times; returns all real prefetch addresses.
    fn drive_stride(p: &mut ContextPrefetcher, n: u64, stride: u64) -> Vec<Addr> {
        let mut out = Vec::new();
        let mut reals = Vec::new();
        for i in 0..n {
            out.clear();
            p.on_access(&ctx(i, 0x400, 0x10_0000 + i * stride), pressure(), &mut out);
            for r in &out {
                p.on_issue_result(r.tag, true);
                reals.push(r.addr);
            }
        }
        reals
    }

    #[test]
    fn learns_a_regular_stride() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let reals = drive_stride(&mut p, 4000, 64);
        assert!(
            !reals.is_empty(),
            "stride stream must eventually trigger real prefetches"
        );
        let s = p.learn_stats();
        assert!(s.hits > 100, "predictions must be hit (got {})", s.hits);
        assert!(
            s.prediction_accuracy() > 0.5,
            "converged accuracy too low: {}",
            s.prediction_accuracy()
        );
    }

    #[test]
    fn prefetches_land_ahead_of_the_stream() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let reals = drive_stride(&mut p, 4000, 64);
        // Late-run prefetches must target blocks ahead of the current head.
        let last = *reals.last().unwrap();
        assert!(last > 0x10_0000 + 3000 * 64, "prefetch {last:#x} not ahead");
    }

    #[test]
    fn hit_depths_cluster_inside_the_reward_window() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        drive_stride(&mut p, 8000, 64);
        let s = p.learn_stats();
        let in_window = s.depth_cdf.fraction_in_window(18, 50);
        assert!(
            in_window > 0.4,
            "only {in_window:.2} of hits inside the window"
        );
    }

    #[test]
    fn irregular_but_recurring_pointer_chain_is_learned() {
        // A "linked list" of blocks at irregular (but block-delta-encodable)
        // offsets, traversed repeatedly. Contexts must specialize (via the
        // reducer) until each node predicts its successor.
        let offsets: Vec<i64> = vec![3, -7, 11, 5, -2, 9, -12, 6, 4, -8, 13, -3, 2, 10, -6, 8];
        let mut blocks = vec![20_000i64];
        for i in 0..offsets.len() * 4 {
            let d = offsets[i % offsets.len()];
            blocks.push(blocks.last().unwrap() + d);
        }
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let mut out = Vec::new();
        let mut seq = 0u64;
        let mut hits_before = 0;
        for lap in 0..400 {
            for (i, &b) in blocks.iter().enumerate() {
                out.clear();
                let mut c = ctx(seq, 0x700, (b as u64) << 5);
                // The traversal "carries" the current node pointer.
                c.reg1 = b as u64;
                c.last_loaded = blocks[(i + 1) % blocks.len()] as u64;
                p.on_access(&c, pressure(), &mut out);
                for r in &out {
                    p.on_issue_result(r.tag, true);
                }
                seq += 1;
            }
            if lap == 100 {
                hits_before = p.learn_stats().hits;
            }
        }
        let s = p.learn_stats();
        assert!(s.hits > hits_before, "learning must continue across laps");
        assert!(
            s.hits > 500,
            "recurring chain should be predicted, hits={}",
            s.hits
        );
    }

    #[test]
    fn rejected_issue_becomes_shadow() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let mut out = Vec::new();
        let mut demoted = 0;
        for i in 0..3000u64 {
            out.clear();
            p.on_access(&ctx(i, 0x400, 0x20_0000 + i * 64), pressure(), &mut out);
            for r in &out {
                p.on_issue_result(r.tag, false);
                demoted += 1;
            }
        }
        assert!(demoted > 0);
        assert_eq!(p.learn_stats().demoted, demoted);
        assert_eq!(p.stats().rejected, demoted);
    }

    #[test]
    fn mshr_pressure_suppresses_real_prefetches() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let starved = MemPressure {
            l1_mshr_free: 1,
            l2_mshr_free: 0,
        };
        let mut out = Vec::new();
        for i in 0..3000u64 {
            out.clear();
            p.on_access(&ctx(i, 0x400, 0x30_0000 + i * 64), starved, &mut out);
            assert!(out.iter().all(|r| r.shadow), "no panic path");
            assert!(out.is_empty(), "under pressure everything becomes shadow");
        }
        assert!(p.learn_stats().shadow_issued > 0);
    }

    #[test]
    fn was_predicted_reflects_outstanding_predictions() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let mut out = Vec::new();
        let mut predicted_addr = None;
        for i in 0..4000u64 {
            out.clear();
            p.on_access(&ctx(i, 0x400, 0x40_0000 + i * 64), pressure(), &mut out);
            if let Some(r) = out.first() {
                p.on_issue_result(r.tag, true);
                predicted_addr = Some(r.addr);
            }
        }
        let addr = predicted_addr.expect("some prefetch issued");
        assert!(p.was_predicted(addr));
        assert!(!p.was_predicted(0xdead_0000));
    }

    #[test]
    fn drain_feedback_expires_all_outstanding() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        drive_stride(&mut p, 2000, 64);
        let before = p.learn_stats().expired;
        p.drain_feedback();
        assert!(p.learn_stats().expired >= before);
        // Second drain is a no-op.
        let after = p.learn_stats().expired;
        p.drain_feedback();
        assert_eq!(p.learn_stats().expired, after);
    }

    #[test]
    fn random_stream_yields_low_confidence() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let mut out = Vec::new();
        let mut state = 9u64;
        let mut issued = 0u64;
        for i in 0..20_000u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = 0x100_0000 + (state % (1 << 22));
            out.clear();
            p.on_access(&ctx(i, 0x400, addr), pressure(), &mut out);
            issued += out.len() as u64;
            for r in &out {
                p.on_issue_result(r.tag, true);
            }
        }
        // On white noise the throttle must keep the issue rate low.
        assert!(
            (issued as f64) < 0.2 * 20_000.0,
            "issued {issued} real prefetches on random traffic"
        );
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        drive_stride(&mut p, 3000, 64);

        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut q = ContextPrefetcher::new(ContextConfig::default());
        let mut r = SnapReader::new(&bytes);
        q.restore_state(&mut r).expect("restore succeeds");
        r.expect_end().expect("snapshot fully consumed");

        // save → restore → save must reproduce the exact byte stream.
        let mut w2 = SnapWriter::new();
        q.save_state(&mut w2);
        assert_eq!(bytes, w2.into_bytes(), "re-save differs after restore");

        // Continued execution (including RNG-driven exploration) must match.
        let mut out_p = Vec::new();
        let mut out_q = Vec::new();
        for i in 3000..5000u64 {
            let c = ctx(i, 0x400, 0x10_0000 + i * 64);
            out_p.clear();
            out_q.clear();
            p.on_access(&c, pressure(), &mut out_p);
            q.on_access(&c, pressure(), &mut out_q);
            assert_eq!(out_p, out_q, "diverged at access {i}");
            for r in &out_p {
                p.on_issue_result(r.tag, true);
                q.on_issue_result(r.tag, true);
            }
        }
        assert_eq!(
            format!("{:?}", p.learn_stats()),
            format!("{:?}", q.learn_stats())
        );
        assert_eq!(p.stats(), q.stats());
    }

    #[test]
    fn snapshot_rejects_mismatched_geometry() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        drive_stride(&mut p, 500, 64);
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut q = ContextPrefetcher::new(ContextConfig::default().with_cst_entries(256));
        let mut r = SnapReader::new(&bytes);
        let err = q.restore_state(&mut r).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn delta_overflow_is_counted_not_learned() {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let mut out = Vec::new();
        // Jumps of 1 MiB never fit the 1-byte block delta.
        for i in 0..500u64 {
            out.clear();
            p.on_access(
                &ctx(i, 0x400, 0x10_0000 + i * (1 << 20)),
                pressure(),
                &mut out,
            );
        }
        let s = p.learn_stats();
        assert!(s.delta_overflow > 0);
        assert_eq!(s.collected, 0);
    }
}
