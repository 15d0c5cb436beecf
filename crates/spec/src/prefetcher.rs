//! The lockstep reference prefetcher.
//!
//! [`SpecPrefetcher`] restates the per-access pipeline of the optimized
//! [`semloc_context::ContextPrefetcher`] — feedback, collection,
//! prediction, in that order — over the naive tables of [`crate::tables`],
//! with the bell reward and adaptive-ε formulas written out inline from
//! their published parameters. Given the same configuration (including the
//! RNG seed) and the same access stream, every observable — emitted
//! requests (addresses, shadow flags, tags), statistics counters, table
//! contents, exploration state — must match the optimized implementation
//! exactly; any difference is a bug in one of the two.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use semloc_bandit::{RewardFunction, RewardShape};
use semloc_mem::{MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_trace::{AccessContext, Addr};

use semloc_context::{ContextConfig, ContextKey, ContextStats, FullHash};

use crate::tables::{
    SpecAdd, SpecCst, SpecHistEntry, SpecHistory, SpecPfq, SpecPfqEntry, SpecReducer,
};

/// The configured reward shape, restated from its published parameters —
/// one inline formula per [`RewardShape`] variant, never delegating to the
/// optimized implementation.
#[derive(Clone, Copy, Debug)]
enum SpecReward {
    /// The Fig 5 bell.
    Bell {
        lo: u32,
        hi: u32,
        peak: i32,
        edge_penalty: i32,
        expiry: i32,
    },
    /// Flat step (ablation A2).
    Step {
        lo: u32,
        hi: u32,
        peak: i32,
        penalty: i32,
    },
    /// Gaussian with a multiplicative out-of-window penalty.
    Gaussian {
        center: u32,
        sigma: u32,
        scale: i32,
        penalty_factor: i32,
        expiry: i32,
    },
    /// Pythia-style discrete levels.
    Levels {
        lo: u32,
        hi: u32,
        timely: i32,
        late: i32,
        early: i32,
        expiry: i32,
    },
}

impl SpecReward {
    fn of(shape: &RewardShape) -> Self {
        match shape {
            RewardShape::PaperBell(b) => {
                let (lo, hi) = b.window();
                SpecReward::Bell {
                    lo,
                    hi,
                    peak: b.peak(),
                    edge_penalty: b.edge_penalty(),
                    expiry: b.expiry(),
                }
            }
            RewardShape::Step(s) => {
                let (lo, hi) = s.window();
                SpecReward::Step {
                    lo,
                    hi,
                    peak: s.peak(),
                    penalty: s.penalty(),
                }
            }
            RewardShape::GaussianPenalty(g) => SpecReward::Gaussian {
                center: g.center(),
                sigma: g.sigma(),
                scale: g.scale(),
                penalty_factor: g.penalty_factor(),
                expiry: g.expiry(),
            },
            RewardShape::PythiaLevel(p) => {
                let (lo, hi) = p.window();
                SpecReward::Levels {
                    lo,
                    hi,
                    timely: p.timely(),
                    late: p.late(),
                    early: p.early(),
                    expiry: p.expiry(),
                }
            }
        }
    }

    /// The restated reward over hit depth. Each floating-point expression
    /// mirrors its optimized counterpart term for term, so rounding
    /// behaviour is identical.
    fn reward(&self, depth: u32) -> i32 {
        match *self {
            // Gaussian bell peaking at the window center; past the early
            // edge the reward dips to `edge_penalty` and decays to zero.
            SpecReward::Bell {
                lo,
                hi,
                peak,
                edge_penalty,
                ..
            } => {
                let (lo_f, hi_f) = (lo as f64, hi as f64);
                let d = depth as f64;
                let center = (lo_f + hi_f) / 2.0;
                let sigma = (hi_f - lo_f) / 2.0;
                if depth <= hi {
                    let x = (d - center) / sigma;
                    ((peak as f64) * (-x * x).exp()).round() as i32
                } else {
                    let dist = d - hi_f;
                    let decay = (-dist / 16.0).exp();
                    ((edge_penalty as f64) * decay).round() as i32
                }
            }
            // Flat peak inside the window, flat penalty outside.
            SpecReward::Step {
                lo,
                hi,
                peak,
                penalty,
            } => {
                if depth >= lo && depth <= hi {
                    peak
                } else {
                    penalty
                }
            }
            // `round(scale·exp(−(d−center)²/2σ²))` inside center ± 2σ; the
            // same magnitude negated and amplified by `penalty_factor`
            // outside.
            SpecReward::Gaussian {
                center,
                sigma,
                scale,
                penalty_factor,
                ..
            } => {
                let dc = depth as f64 - center as f64;
                let s = sigma as f64;
                let g = ((scale as f64) * (-(dc * dc) / (2.0 * s * s)).exp()).round() as i32;
                let lo = center.saturating_sub(2 * sigma).max(1);
                let hi = center + 2 * sigma;
                if depth < lo || depth > hi {
                    -g * penalty_factor
                } else {
                    g
                }
            }
            // One discrete level per region.
            SpecReward::Levels {
                lo,
                hi,
                timely,
                late,
                early,
                ..
            } => {
                if depth < lo {
                    late
                } else if depth <= hi {
                    timely
                } else {
                    early
                }
            }
        }
    }

    fn expiry(&self) -> i32 {
        match *self {
            SpecReward::Bell { expiry, .. } => expiry,
            // The step's expiry is half its flat penalty.
            SpecReward::Step { penalty, .. } => penalty / 2,
            SpecReward::Gaussian { expiry, .. } => expiry,
            SpecReward::Levels { expiry, .. } => expiry,
        }
    }

    fn window(&self) -> (u32, u32) {
        match *self {
            SpecReward::Bell { lo, hi, .. } => (lo, hi),
            SpecReward::Step { lo, hi, .. } => (lo, hi),
            SpecReward::Gaussian { center, sigma, .. } => {
                (center.saturating_sub(2 * sigma).max(1), center + 2 * sigma)
            }
            SpecReward::Levels { lo, hi, .. } => (lo, hi),
        }
    }
}

/// Accuracy-adaptive ε-greedy, restated:
/// `ε = eps_min + (eps_max − eps_min)·(1 − accuracy)` over an EWMA
/// accuracy estimate.
#[derive(Clone, Copy, Debug)]
struct SpecEpsilon {
    eps_min: f64,
    eps_max: f64,
    alpha: f64,
    accuracy: f64,
}

impl SpecEpsilon {
    fn epsilon(&self) -> f64 {
        self.eps_min + (self.eps_max - self.eps_min) * (1.0 - self.accuracy)
    }

    fn explore(&self, rng: &mut StdRng) -> bool {
        rng.random::<f64>() < self.epsilon()
    }

    fn observe(&mut self, hit: bool) {
        self.accuracy += self.alpha * ((hit as u8 as f64) - self.accuracy);
    }
}

/// The reference prefetcher. See the module docs for the equivalence
/// contract.
pub struct SpecPrefetcher {
    cfg: ContextConfig,
    bell: SpecReward,
    eps: SpecEpsilon,
    cst: SpecCst,
    reducer: SpecReducer,
    history: SpecHistory,
    pfq: SpecPfq,
    rng: StdRng,
    stats: ContextStats,
    mem_stats: PrefetcherStats,
}

impl SpecPrefetcher {
    /// Build the reference prefetcher for `cfg`. The bell and ε parameters
    /// are read out of the config's reward/exploration objects so both
    /// implementations run the same numbers.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ContextConfig::validate`].
    pub fn new(cfg: ContextConfig) -> Self {
        cfg.validate();
        let bell = SpecReward::of(&cfg.reward);
        let eps = SpecEpsilon {
            eps_min: cfg.exploration.eps_min(),
            eps_max: cfg.exploration.eps_max(),
            alpha: cfg.exploration.alpha(),
            accuracy: cfg.exploration.accuracy(),
        };
        SpecPrefetcher {
            bell,
            eps,
            cst: SpecCst::new(cfg.cst_entries, cfg.replacement),
            reducer: SpecReducer::new(
                cfg.reducer_entries,
                cfg.initial_active,
                cfg.overload_threshold,
                cfg.underload_threshold,
                cfg.freeze_reducer,
            ),
            history: SpecHistory::new(cfg.history_len),
            pfq: SpecPfq::new(cfg.pfq_len),
            rng: StdRng::seed_from_u64(cfg.seed),
            stats: ContextStats::default(),
            mem_stats: PrefetcherStats::default(),
            cfg,
        }
    }

    /// Learning statistics (same structure as the optimized prefetcher's).
    pub fn learn_stats(&self) -> &ContextStats {
        &self.stats
    }

    /// Current EWMA accuracy estimate.
    pub fn accuracy(&self) -> f64 {
        self.eps.accuracy
    }

    /// Current exploration rate.
    pub fn epsilon(&self) -> f64 {
        self.eps.epsilon()
    }

    /// The spec's restated reward at `depth` (for fidelity tests that pin
    /// it against the optimized `RewardShape` bit for bit).
    pub fn bell_reward(&self, depth: u32) -> i32 {
        self.bell.reward(depth)
    }

    /// The spec's expiry penalty.
    pub fn expiry_reward(&self) -> i32 {
        self.bell.expiry()
    }

    /// CST contents as `(index, ranked links)`.
    pub fn cst_dump(&self) -> Vec<(usize, Vec<(i16, i8)>)> {
        self.cst.dump()
    }

    /// CST occupancy.
    pub fn cst_occupancy(&self) -> usize {
        self.cst.occupancy()
    }

    /// Reducer active-count histogram.
    pub fn reducer_histogram(&self) -> [u64; 9] {
        self.reducer.active_histogram()
    }

    /// Reducer activation count.
    pub fn reducer_activations(&self) -> u64 {
        self.reducer.activations()
    }

    /// Reducer deactivation count.
    pub fn reducer_deactivations(&self) -> u64 {
        self.reducer.deactivations()
    }

    /// Outstanding predictions.
    pub fn pfq_len(&self) -> usize {
        self.pfq.len()
    }

    /// Flush end-of-run feedback: every outstanding un-hit prediction
    /// expires with the penalty reward (without an accuracy observation —
    /// the run is over).
    pub fn drain_feedback(&mut self) {
        let expiry = self.bell.expiry();
        for e in self.pfq.drain() {
            if !e.hit {
                self.cst.reward(e.key, e.delta, expiry);
                self.stats.expired += 1;
            }
        }
    }

    /// Human-readable state dump for divergence reports.
    pub fn dump_state(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "spec state:");
        let _ = writeln!(
            s,
            "  accuracy={:.6} epsilon={:.6} pfq_len={}",
            self.eps.accuracy,
            self.eps.epsilon(),
            self.pfq.len()
        );
        let _ = writeln!(s, "  stats={:?}", self.stats);
        let _ = writeln!(s, "  mem_stats={:?}", self.mem_stats);
        let _ = writeln!(
            s,
            "  reducer: hist={:?} act={} deact={}",
            self.reducer.active_histogram(),
            self.reducer.activations(),
            self.reducer.deactivations()
        );
        let dump = self.cst.dump();
        let _ = writeln!(s, "  cst: occupancy={}", dump.len());
        for (i, links) in dump.iter().take(64) {
            let _ = writeln!(s, "    [{i}] {links:?}");
        }
        if dump.len() > 64 {
            let _ = writeln!(s, "    ... {} more entries", dump.len() - 64);
        }
        s
    }

    fn block_of(&self, addr: Addr) -> u64 {
        addr >> self.cfg.block_shift
    }

    /// Feedback: reward matching predictions, observe accuracy per hit.
    fn feedback(&mut self, block: u64, seq: u64) {
        let hits = self.pfq.record_access(block, seq);
        let (lo, hi) = self.bell.window();
        for h in &hits {
            let r = self.bell.reward(h.depth);
            if h.depth < lo {
                // Late hit: partial merge credit, capped at 32.
                self.cst.reward_capped(h.entry.key, h.entry.delta, r, 32);
            } else {
                self.cst.reward(h.entry.key, h.entry.delta, r);
            }
            self.stats.hits += 1;
            self.stats.depth_cdf.record(h.depth);
            if h.depth >= lo && h.depth <= hi {
                self.stats.timely_hits += 1;
            } else if h.depth < lo {
                self.stats.late_hits += 1;
            } else {
                self.stats.early_hits += 1;
            }
            if !h.entry.shadow {
                self.mem_stats.useful += 1;
            }
            self.eps.observe(true);
        }
    }

    /// Collection: bind the current block to up to 16 sampled contexts.
    fn collect(&mut self, block: u64) {
        let samples = self.history.sample(&self.cfg.sample_depths);
        let max_delta = self.cfg.max_delta();
        for e in samples.into_iter().take(16) {
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
                SpecAdd::Evicted(victim_score) if victim_score > 0 => {
                    self.reducer.report_overload(e.full)
                }
                SpecAdd::Evicted(_) => {}
                SpecAdd::Allocated => self.reducer.report_underload(e.full),
                SpecAdd::Stored => {}
            }
        }
    }

    /// Prediction: issue high-score candidates, explore with shadows.
    fn predict(
        &mut self,
        block: u64,
        key: ContextKey,
        full: FullHash,
        seq: u64,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        // A CST miss produces nothing — and consumes no RNG draw.
        let Some(mut ranked) = self.cst.lookup_slots(key) else {
            return;
        };
        // Score descending, ties toward the larger delta magnitude; one
        // stable sort over slot order, exactly like the optimized path.
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| b.0.abs().cmp(&a.0.abs())));

        // RNG draw order is part of the contract: one f64 draw per
        // predicted access (unless shadows are disabled), one index draw
        // only when exploring.
        let explore_pick = if self.cfg.disable_shadow || !self.eps.explore(&mut self.rng) {
            None
        } else {
            Some(ranked[self.rng.random_range(0..ranked.len())].0)
        };

        let acc = self.eps.accuracy;
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
                self.push_shadow(target, key, full, delta, seq);
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
                self.push_shadow(target, key, full, delta, seq);
            }
        }

        if reals == 0 && !self.cfg.disable_shadow {
            if let Some(&(delta, _)) = ranked.first() {
                let target = block.wrapping_add(delta as i64 as u64);
                if !self.pfq.predicts(target) {
                    self.push_shadow(target, key, full, delta, seq);
                }
            }
        }

        if let Some(delta) = explore_pick {
            let target = block.wrapping_add(delta as i64 as u64);
            self.push_shadow(target, key, full, delta, seq);
        }
    }

    fn push_shadow(&mut self, target: u64, key: ContextKey, full: FullHash, delta: i16, seq: u64) {
        let (_, expired) = self.pfq.push(target, key, full, delta, seq, true);
        self.stats.shadow_issued += 1;
        self.mem_stats.shadow += 1;
        self.expire(expired);
    }

    fn expire(&mut self, expired: Option<SpecPfqEntry>) {
        if let Some(e) = expired {
            if !e.hit {
                self.cst.reward(e.key, e.delta, self.bell.expiry());
                self.stats.expired += 1;
                self.eps.observe(false);
            }
        }
    }
}

impl Prefetcher for SpecPrefetcher {
    fn name(&self) -> &'static str {
        "spec-context"
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

        // 2. Two-pass reference hashing over the configured feature set:
        // full hash routes the reducer, the active-prefix key routes the
        // CST. For the default Table-1 set these are exactly
        // `FullHash::of` / `ContextKey::of`.
        let full = self.cfg.features.full_hash_ref(ctx, self.cfg.block_shift);
        let active = self.reducer.active_count(full);
        let key = self
            .cfg
            .features
            .key_ref(ctx, active as usize, self.cfg.block_shift);

        // 2b. Shared-and-weak (ref-count) overload cue.
        if self
            .cst
            .note_shared_weak(key, full.0, self.cfg.split_strength_bar)
        {
            self.reducer.report_overload(full);
        }

        // 3. Data collection.
        self.collect(block);

        // 4. Prediction.
        self.predict(block, key, full, ctx.seq, pressure, out);

        // 5. History records the current context.
        self.history.push(SpecHistEntry { key, full, block });
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
}

impl std::fmt::Debug for SpecPrefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecPrefetcher")
            .field("cst_occupancy", &self.cst.occupancy())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}
