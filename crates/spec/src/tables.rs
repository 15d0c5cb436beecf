//! Naive reference implementations of the prefetcher's tables.
//!
//! Each structure states the *intended* semantics of its optimized twin in
//! `semloc-context` / `semloc-bandit` as directly as possible: plain
//! vectors, linear scans, explicit tie-break rules spelled out in comments.
//! Observable behaviour (return values, eviction choices, counter updates)
//! must match the optimized implementations exactly — that equivalence is
//! what the lockstep differential runner checks.

use semloc_bandit::scored::Replacement;
use semloc_context::{Attr, ContextKey, FullHash};

/// One scored candidate link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct SpecSlot {
    delta: i16,
    score: i8,
    inserted_at: u32,
}

/// Reference twin of `ScoredSet<i16, 4>`: up to four scored deltas.
#[derive(Clone, Debug)]
pub struct SpecScoredSet {
    slots: Vec<SpecSlot>,
    policy: Replacement,
    clock: u32,
}

/// Links per CST entry (Table 2: 4).
pub const SPEC_LINKS: usize = 4;

impl SpecScoredSet {
    fn new(policy: Replacement) -> Self {
        SpecScoredSet {
            slots: Vec::new(),
            policy,
            clock: 0,
        }
    }

    /// Insert with score 0; duplicate inserts are no-ops (but still tick
    /// the insertion clock, like the optimized set). A full set evicts the
    /// *first* slot holding the minimum score (LowestScore) or the first
    /// slot with the minimum insertion time (Fifo), replacing it in place
    /// so the slot order of survivors is preserved.
    fn insert(&mut self, delta: i16) -> Option<(i16, i8)> {
        self.clock = self.clock.wrapping_add(1);
        if self.slots.iter().any(|s| s.delta == delta) {
            return None;
        }
        let slot = SpecSlot {
            delta,
            score: 0,
            inserted_at: self.clock,
        };
        if self.slots.len() < SPEC_LINKS {
            self.slots.push(slot);
            return None;
        }
        let mut victim = 0;
        for i in 1..self.slots.len() {
            let better = match self.policy {
                // Strictly-less keeps the FIRST minimum on ties.
                Replacement::LowestScore => self.slots[i].score < self.slots[victim].score,
                Replacement::Fifo => self.slots[i].inserted_at < self.slots[victim].inserted_at,
            };
            if better {
                victim = i;
            }
        }
        let evicted = (self.slots[victim].delta, self.slots[victim].score);
        self.slots[victim] = slot;
        Some(evicted)
    }

    /// Saturating score update; positive deltas cannot raise the score
    /// above `max(cap, previous score)`.
    fn reward_capped(&mut self, delta_action: i16, reward: i32, cap: i8) -> bool {
        for s in &mut self.slots {
            if s.delta == delta_action {
                let mut new = (s.score as i32 + reward).clamp(i8::MIN as i32, i8::MAX as i32) as i8;
                if reward > 0 {
                    new = new.min(cap.max(s.score));
                }
                s.score = new;
                return true;
            }
        }
        false
    }

    fn score_of(&self, delta: i16) -> Option<i8> {
        self.slots
            .iter()
            .find(|s| s.delta == delta)
            .map(|s| s.score)
    }

    /// Highest-scoring candidate; the LAST slot wins ties (matching the
    /// optimized set's `Iterator::max_by_key`).
    fn best(&self) -> Option<(i16, i8)> {
        let mut best: Option<(i16, i8)> = None;
        for s in &self.slots {
            if best.is_none_or(|(_, bs)| s.score >= bs) {
                best = Some((s.delta, s.score));
            }
        }
        best
    }

    /// Candidates in slot order, unsorted.
    fn slot_order(&self) -> Vec<(i16, i8)> {
        self.slots.iter().map(|s| (s.delta, s.score)).collect()
    }

    /// Candidates sorted by score descending, stable over slot order.
    fn ranked(&self) -> Vec<(i16, i8)> {
        let mut v = self.slot_order();
        v.sort_by_key(|&(_, s)| std::cmp::Reverse(s));
        v
    }
}

/// Outcome of a candidate insertion, mirroring
/// [`semloc_context::cst::AddOutcome`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpecAdd {
    /// Added to (or already present in) an entry with room.
    Stored,
    /// Displaced an existing link with the carried score.
    Evicted(i8),
    /// The direct-mapped entry was (re)allocated for this context.
    Allocated,
}

#[derive(Clone, Debug)]
struct SpecCstEntry {
    tag: u8,
    last_full: u16,
    links: SpecScoredSet,
}

/// Reference twin of the direct-mapped context-states table.
#[derive(Clone, Debug)]
pub struct SpecCst {
    entries: Vec<Option<SpecCstEntry>>,
    replacement: Replacement,
}

impl SpecCst {
    /// A table with `entries` slots (power of two).
    pub fn new(entries: usize, replacement: Replacement) -> Self {
        assert!(entries.is_power_of_two());
        SpecCst {
            entries: vec![None; entries],
            replacement,
        }
    }

    fn slot(&self, key: ContextKey) -> usize {
        key.cst_index(self.entries.len())
    }

    /// Insert a candidate delta, allocating the entry on a tag miss.
    #[expect(
        clippy::expect_used,
        reason = "insert into a full set without a matching slot always evicts"
    )]
    pub fn add_candidate(&mut self, key: ContextKey, delta: i16) -> SpecAdd {
        let idx = self.slot(key);
        let tag = key.cst_tag();
        match &mut self.entries[idx] {
            Some(e) if e.tag == tag => {
                if e.links.slots.len() == SPEC_LINKS && e.links.score_of(delta).is_none() {
                    let (_, score) = e.links.insert(delta).expect("full entry evicts");
                    SpecAdd::Evicted(score)
                } else {
                    e.links.insert(delta);
                    SpecAdd::Stored
                }
            }
            slot => {
                let mut e = SpecCstEntry {
                    tag,
                    last_full: 0,
                    links: SpecScoredSet::new(self.replacement),
                };
                e.links.insert(delta);
                *slot = Some(e);
                SpecAdd::Allocated
            }
        }
    }

    /// Stored candidates in slot order, if the context is present.
    pub fn lookup_slots(&self, key: ContextKey) -> Option<Vec<(i16, i8)>> {
        let e = self.entries[self.slot(key)].as_ref()?;
        (e.tag == key.cst_tag()).then(|| e.links.slot_order())
    }

    /// Score of one stored `(context, delta)` link, if present.
    pub fn score_of(&self, key: ContextKey, delta: i16) -> Option<i8> {
        let e = self.entries[self.slot(key)].as_ref()?;
        if e.tag != key.cst_tag() {
            return None;
        }
        e.links.score_of(delta)
    }

    /// Apply a reward; `false` when the pair is no longer stored.
    pub fn reward(&mut self, key: ContextKey, delta: i16, reward: i32) -> bool {
        self.reward_capped(key, delta, reward, i8::MAX)
    }

    /// Apply a capped reward; `false` when the pair is no longer stored.
    pub fn reward_capped(&mut self, key: ContextKey, delta: i16, reward: i32, cap: i8) -> bool {
        let idx = self.slot(key);
        match &mut self.entries[idx] {
            Some(e) if e.tag == key.cst_tag() => e.links.reward_capped(delta, reward, cap),
            _ => false,
        }
    }

    /// Shared-and-weak observation: `true` when a *different* full context
    /// used this entry since the last observation while its best link
    /// scores below `strength_bar`.
    pub fn note_shared_weak(&mut self, key: ContextKey, full: u16, strength_bar: i8) -> bool {
        let idx = self.slot(key);
        match &mut self.entries[idx] {
            Some(e) if e.tag == key.cst_tag() => {
                let alternated = e.last_full != full;
                e.last_full = full;
                let weak = e.links.best().is_none_or(|(_, s)| s < strength_bar);
                alternated && weak
            }
            _ => false,
        }
    }

    /// Number of valid entries.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Valid entries as `(index, ranked (delta, score) list)`.
    pub fn dump(&self) -> Vec<(usize, Vec<(i16, i8)>)> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (i, e.links.ranked())))
            .collect()
    }
}

#[derive(Clone, Copy, Debug)]
struct SpecReducerEntry {
    tag: u8,
    active: u8,
    pressure: i8,
}

/// Reference twin of the Reducer (online feature selection, §4.4).
#[derive(Clone, Debug)]
pub struct SpecReducer {
    entries: Vec<Option<SpecReducerEntry>>,
    initial_active: u8,
    overload_threshold: i8,
    underload_threshold: i8,
    frozen: bool,
    activations: u64,
    deactivations: u64,
}

impl SpecReducer {
    /// A reducer with `entries` slots (power of two).
    pub fn new(
        entries: usize,
        initial_active: u8,
        overload_threshold: i8,
        underload_threshold: i8,
        frozen: bool,
    ) -> Self {
        assert!(entries.is_power_of_two());
        assert!((1..=Attr::COUNT as u8).contains(&initial_active));
        SpecReducer {
            entries: vec![None; entries],
            initial_active,
            overload_threshold,
            underload_threshold,
            frozen,
            activations: 0,
            deactivations: 0,
        }
    }

    fn slot(&self, full: FullHash) -> usize {
        full.reducer_index() & (self.entries.len() - 1)
    }

    /// Active-attribute count for `full`, (re)allocating on tag mismatch.
    pub fn active_count(&mut self, full: FullHash) -> u8 {
        let idx = self.slot(full);
        let tag = full.reducer_tag();
        match &mut self.entries[idx] {
            Some(e) if e.tag == tag => e.active,
            slot => {
                *slot = Some(SpecReducerEntry {
                    tag,
                    active: self.initial_active,
                    pressure: 0,
                });
                self.initial_active
            }
        }
    }

    /// Overload report: +1 pressure; at the threshold, activate one more
    /// attribute (up to all 8) and reset pressure. Stale handles (tag
    /// mismatch) and frozen reducers ignore the report.
    pub fn report_overload(&mut self, full: FullHash) {
        if self.frozen {
            return;
        }
        let idx = self.slot(full);
        let threshold = self.overload_threshold;
        let Some(e) = &mut self.entries[idx] else {
            return;
        };
        if e.tag != full.reducer_tag() {
            return;
        }
        e.pressure = e.pressure.saturating_add(1);
        if e.pressure >= threshold && (e.active as usize) < Attr::COUNT {
            e.active += 1;
            e.pressure = 0;
            self.activations += 1;
        }
    }

    /// Underload report: −1 pressure; at the threshold, deactivate one
    /// attribute (at least one always stays active) and reset pressure.
    pub fn report_underload(&mut self, full: FullHash) {
        if self.frozen {
            return;
        }
        let idx = self.slot(full);
        let threshold = self.underload_threshold;
        let Some(e) = &mut self.entries[idx] else {
            return;
        };
        if e.tag != full.reducer_tag() {
            return;
        }
        e.pressure = e.pressure.saturating_sub(1);
        if e.pressure <= threshold && e.active > 1 {
            e.active -= 1;
            e.pressure = 0;
            self.deactivations += 1;
        }
    }

    /// Total attribute activations.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Total attribute deactivations.
    pub fn deactivations(&self) -> u64 {
        self.deactivations
    }

    /// `dist[k]` = valid entries with `k` active attributes.
    pub fn active_histogram(&self) -> [u64; Attr::COUNT + 1] {
        let mut h = [0u64; Attr::COUNT + 1];
        for e in self.entries.iter().flatten() {
            h[e.active as usize] += 1;
        }
        h
    }
}

/// One recorded context observation, mirroring
/// [`semloc_context::history::HistoryEntry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecHistEntry {
    /// Reduced-context key under which the context was observed.
    pub key: ContextKey,
    /// Full-context hash (reducer feedback routing).
    pub full: FullHash,
    /// Block address anchoring the context.
    pub block: u64,
}

/// Reference twin of the history queue: newest observation first.
#[derive(Clone, Debug)]
pub struct SpecHistory {
    entries: Vec<SpecHistEntry>,
    capacity: usize,
}

impl SpecHistory {
    /// A queue holding the last `capacity` contexts.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        SpecHistory {
            entries: Vec::new(),
            capacity,
        }
    }

    /// Record the current access's context (depth 1 for the next access).
    pub fn push(&mut self, e: SpecHistEntry) {
        self.entries.insert(0, e);
        self.entries.truncate(self.capacity);
    }

    /// The context observed `depth` accesses ago (1 = previous access).
    pub fn at_depth(&self, depth: u16) -> Option<SpecHistEntry> {
        if depth == 0 {
            return None;
        }
        self.entries.get(depth as usize - 1).copied()
    }

    /// Sample at each depth, in depth-list order, skipping depths not yet
    /// populated.
    pub fn sample(&self, depths: &[u16]) -> Vec<SpecHistEntry> {
        depths.iter().filter_map(|&d| self.at_depth(d)).collect()
    }
}

/// One outstanding prediction (reference twin of
/// [`semloc_context::pfq::PfqEntry`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecPfqEntry {
    /// Monotone identifier echoed through issue results.
    pub id: u64,
    /// Predicted block.
    pub block: u64,
    /// Producing reduced-context key.
    pub key: ContextKey,
    /// Producing full-context hash.
    pub full: FullHash,
    /// Predicted delta.
    pub delta: i16,
    /// Demand-access sequence number at prediction time.
    pub issue_seq: u64,
    /// Shadow (not dispatched).
    pub shadow: bool,
    /// Already matched by a demand access.
    pub hit: bool,
}

/// A matched prediction with its depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecPfqHit {
    /// The matched entry as of the hit.
    pub entry: SpecPfqEntry,
    /// Accesses elapsed between prediction and demand.
    pub depth: u32,
}

/// Reference twin of the prefetch queue: a plain FIFO with linear scans.
#[derive(Clone, Debug)]
pub struct SpecPfq {
    entries: Vec<SpecPfqEntry>,
    capacity: usize,
    next_id: u64,
}

impl SpecPfq {
    /// A queue of `capacity` predictions.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        SpecPfq {
            entries: Vec::new(),
            capacity,
            next_id: 0,
        }
    }

    /// Record a prediction; on overflow the oldest entry pops out.
    pub fn push(
        &mut self,
        block: u64,
        key: ContextKey,
        full: FullHash,
        delta: i16,
        issue_seq: u64,
        shadow: bool,
    ) -> (u64, Option<SpecPfqEntry>) {
        let id = self.next_id;
        self.next_id += 1;
        self.entries.push(SpecPfqEntry {
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
            Some(self.entries.remove(0))
        } else {
            None
        };
        (id, expired)
    }

    /// Mark every un-hit entry predicting `block` as hit, yielding hits in
    /// queue (oldest-first) order.
    pub fn record_access(&mut self, block: u64, seq: u64) -> Vec<SpecPfqHit> {
        let mut out = Vec::new();
        for e in &mut self.entries {
            if !e.hit && e.block == block {
                e.hit = true;
                out.push(SpecPfqHit {
                    entry: *e,
                    depth: seq.saturating_sub(e.issue_seq) as u32,
                });
            }
        }
        out
    }

    /// Any un-hit prediction covering `block`?
    pub fn predicts(&self, block: u64) -> bool {
        self.entries.iter().any(|e| !e.hit && e.block == block)
    }

    /// Any un-hit *real* prediction covering `block`?
    pub fn predicts_real(&self, block: u64) -> bool {
        self.entries
            .iter()
            .any(|e| !e.hit && !e.shadow && e.block == block)
    }

    /// Demote entry `id` to a shadow operation (no-op if gone).
    pub fn demote_to_shadow(&mut self, id: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
            e.shadow = true;
        }
    }

    /// Remove and return every entry, oldest first.
    pub fn drain(&mut self) -> Vec<SpecPfqEntry> {
        std::mem::take(&mut self.entries)
    }

    /// Outstanding predictions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}
