//! The Context-States Table (§5, Fig 6/7).
//!
//! A direct-mapped table binding reduced contexts to up to four candidate
//! address deltas, each with a 1-byte score — "the space of possible
//! actions for the exploration/exploitation of each stored context". Deltas
//! are at block granularity (32-byte blocks by default, §7.3) relative to
//! the address that anchored the context, and replacement within an entry
//! is score-based.

use crate::attrs::ContextKey;
use semloc_bandit::scored::Replacement;
use semloc_bandit::ScoredSet;

/// Candidate links per CST entry (Table 2: 4).
pub const LINKS: usize = 4;

/// Outcome of inserting a context→delta candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AddOutcome {
    /// The candidate was added to an existing entry with a free slot (or
    /// was already present).
    Stored,
    /// The candidate displaced the lowest-scoring existing link, whose
    /// score is carried here. Displacing a *proven* (positively scored)
    /// link is the *overload* signal for the reducer: too many useful
    /// candidates compete for one reduced context. Displacing unproven
    /// noise is ordinary exploration.
    Evicted(i8),
    /// The entry was (re)allocated for this context — the *underload*
    /// signal (contexts spread over too many unique states).
    Allocated,
}

#[derive(Clone, Debug)]
struct Entry {
    tag: u8,
    valid: bool,
    links: ScoredSet<i16, LINKS>,
    /// Last full-context hash observed at this entry (alternation sketch
    /// for the §4.4/§5 ref-count overload signal).
    last_full: u16,
}

/// The direct-mapped context-states table.
#[derive(Clone, Debug)]
pub struct ContextStatesTable {
    entries: Vec<Entry>,
    count: usize,
    replacement: Replacement,
}

impl ContextStatesTable {
    /// A table with `entries` slots (power of two) and the given link
    /// replacement policy.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize, replacement: Replacement) -> Self {
        assert!(entries.is_power_of_two(), "CST size must be a power of two");
        ContextStatesTable {
            entries: vec![
                Entry {
                    tag: 0,
                    valid: false,
                    links: ScoredSet::new(replacement),
                    last_full: 0
                };
                entries
            ],
            count: entries,
            replacement,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the table has zero entries (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    fn slot(&self, key: ContextKey) -> usize {
        key.cst_index(self.count)
    }

    /// Insert a candidate delta for `key` (data collection). Allocates the
    /// entry on a tag miss.
    #[expect(
        clippy::expect_used,
        reason = "insert into a full set without a matching slot always evicts"
    )]
    pub fn add_candidate(&mut self, key: ContextKey, delta: i16) -> AddOutcome {
        let idx = self.slot(key);
        let tag = key.cst_tag();
        let replacement = self.replacement;
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            *e = Entry {
                tag,
                valid: true,
                links: ScoredSet::new(replacement),
                last_full: 0,
            };
            e.links.insert(delta);
            return AddOutcome::Allocated;
        }
        if e.links.len() == LINKS && e.links.score_of(delta).is_none() {
            let (_, score) = e.links.insert(delta).expect("full entry evicts");
            AddOutcome::Evicted(score)
        } else {
            e.links.insert(delta);
            AddOutcome::Stored
        }
    }

    /// The stored candidates for `key`, if the context is present (used by
    /// the prediction unit; never allocates).
    pub fn lookup(&self, key: ContextKey) -> Option<&ScoredSet<i16, LINKS>> {
        let e = &self.entries[self.slot(key)];
        (e.valid && e.tag == key.cst_tag()).then_some(&e.links)
    }

    /// Apply a reward to the (context, delta) pair. Returns `false` when
    /// the pair is no longer stored (entry replaced or link evicted since
    /// the prediction — the reward is simply lost, as in hardware).
    pub fn reward(&mut self, key: ContextKey, delta: i16, reward: i32) -> bool {
        self.reward_capped(key, delta, reward, i8::MAX)
    }

    /// Like [`ContextStatesTable::reward`], but positive rewards cannot
    /// raise the score above `cap` (partial credit for late hits).
    pub fn reward_capped(&mut self, key: ContextKey, delta: i16, reward: i32, cap: i8) -> bool {
        let idx = self.slot(key);
        let tag = key.cst_tag();
        let e = &mut self.entries[idx];
        if e.valid && e.tag == tag {
            e.links.reward_capped(delta, reward, cap)
        } else {
            false
        }
    }

    /// Observe a lookup of `key` routed from full-context hash `full`.
    /// Returns `true` when this entry is *shared and weak*: a different
    /// full context used it since the last observation (many reducer
    /// entries point here — the §5 ref-count overload cue) while its best
    /// candidate has not proven itself. Good coarse contexts (strong best
    /// score) are never reported, so useful shared contexts survive.
    pub fn note_shared_weak(&mut self, key: ContextKey, full: u16, strength_bar: i8) -> bool {
        let idx = self.slot(key);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != key.cst_tag() {
            return false;
        }
        let alternated = e.last_full != full;
        e.last_full = full;
        let weak = e.links.best().is_none_or(|(_, s)| s < strength_bar);
        alternated && weak
    }

    /// Number of valid entries (diagnostics).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Iterate valid entries as `(index, ranked (delta, score) list)` —
    /// backs the `explore_contexts` example and debugging dumps.
    pub fn dump(&self) -> impl Iterator<Item = (usize, Vec<(i16, i8)>)> + '_ {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid)
            .map(|(i, e)| (i, e.links.ranked()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(v: u32) -> ContextKey {
        ContextKey(v & 0x7ffff)
    }

    fn cst() -> ContextStatesTable {
        ContextStatesTable::new(64, Replacement::LowestScore)
    }

    #[test]
    fn collection_then_prediction_roundtrip() {
        let mut t = cst();
        let k = key(0x123);
        assert_eq!(t.add_candidate(k, 3), AddOutcome::Allocated);
        assert_eq!(t.add_candidate(k, -2), AddOutcome::Stored);
        let links = t.lookup(k).expect("context present");
        assert_eq!(links.len(), 2);
        assert!(links.score_of(3).is_some() && links.score_of(-2).is_some());
    }

    #[test]
    fn lookup_never_allocates() {
        let t = cst();
        assert!(t.lookup(key(0x456)).is_none());
        assert_eq!(t.occupancy(), 0);
    }

    #[test]
    fn tag_conflict_reallocates_entry() {
        let mut t = cst();
        // Same 6-bit index, different tag bits (bits 11+).
        let a = key(0x0800 | 5);
        let b = key(0x1000 | 5);
        t.add_candidate(a, 1);
        assert_eq!(t.add_candidate(b, 2), AddOutcome::Allocated);
        assert!(t.lookup(a).is_none(), "conflicting context evicted");
        assert!(t.lookup(b).is_some());
    }

    #[test]
    fn full_entry_insert_reports_eviction() {
        let mut t = cst();
        let k = key(7);
        for d in 1..=4i16 {
            t.add_candidate(k, d);
        }
        assert!(matches!(t.add_candidate(k, 5), AddOutcome::Evicted(_)));
        // Re-inserting an already-present delta is not an eviction.
        assert_eq!(t.add_candidate(k, 5), AddOutcome::Stored);
    }

    #[test]
    fn reward_strengthens_and_is_lost_after_replacement() {
        let mut t = cst();
        let k = key(9);
        t.add_candidate(k, 4);
        assert!(t.reward(k, 4, 10));
        assert_eq!(t.lookup(k).unwrap().best(), Some((4, 10)));
        // Replace the entry via a tag conflict; the old reward target is gone.
        let other = key(0x1000 | 9);
        t.add_candidate(other, 1);
        assert!(!t.reward(k, 4, 10));
    }

    #[test]
    fn scores_rank_candidates_for_prediction() {
        let mut t = cst();
        let k = key(11);
        t.add_candidate(k, 1);
        t.add_candidate(k, 2);
        t.add_candidate(k, 3);
        t.reward(k, 2, 15);
        t.reward(k, 3, 7);
        t.reward(k, 1, -5);
        assert_eq!(t.lookup(k).unwrap().best(), Some((2, 15)));
        let ranked = t.lookup(k).unwrap().ranked();
        assert_eq!(
            ranked.iter().map(|&(d, _)| d).collect::<Vec<_>>(),
            vec![2, 3, 1]
        );
    }

    #[test]
    fn dump_lists_valid_entries() {
        let mut t = cst();
        t.add_candidate(key(1), 1);
        t.add_candidate(key(2), 2);
        assert_eq!(t.dump().count(), 2);
        assert_eq!(t.occupancy(), 2);
    }
}
