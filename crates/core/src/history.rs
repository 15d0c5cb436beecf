//! The history queue (§5): recently observed contexts awaiting association
//! with impending memory addresses.
//!
//! To avoid a fully-associative search, the collection unit samples the
//! queue only at a set of predefined depths — the probabilistic lookup the
//! paper adopts from prior work on skewed memory-access distributions.

use std::collections::VecDeque;

use crate::attrs::{ContextKey, FullHash};

/// One recorded context observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistoryEntry {
    /// Reduced-context key (CST index/tag) under which the context was
    /// observed.
    pub key: ContextKey,
    /// Full-context hash (for routing reducer feedback).
    pub full: FullHash,
    /// Block address that anchored the context (deltas are relative to it).
    pub block: u64,
}

/// Fixed-depth queue of recent contexts (Table 2: 50 entries).
#[derive(Clone, Debug)]
pub struct HistoryQueue {
    entries: VecDeque<HistoryEntry>,
    capacity: usize,
}

impl HistoryQueue {
    /// A queue holding the last `capacity` contexts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "history queue needs capacity");
        HistoryQueue {
            entries: VecDeque::with_capacity(capacity + 1),
            capacity,
        }
    }

    /// Record the context of the current access (newest at depth 1 for the
    /// *next* access).
    pub fn push(&mut self, entry: HistoryEntry) {
        self.entries.push_front(entry);
        if self.entries.len() > self.capacity {
            self.entries.pop_back();
        }
    }

    /// The context observed `depth` accesses ago (1 = the previous access).
    pub fn at_depth(&self, depth: u16) -> Option<&HistoryEntry> {
        if depth == 0 {
            return None;
        }
        self.entries.get(depth as usize - 1)
    }

    /// Sample the queue at each of `depths`, yielding `(depth, entry)`.
    pub fn sample<'a>(
        &'a self,
        depths: &'a [u16],
    ) -> impl Iterator<Item = (u16, &'a HistoryEntry)> + 'a {
        depths
            .iter()
            .filter_map(move |&d| self.at_depth(d).map(|e| (d, e)))
    }

    /// Current number of stored contexts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(block: u64) -> HistoryEntry {
        HistoryEntry {
            key: ContextKey(block as u32 & 0x7ffff),
            full: FullHash(block as u16),
            block,
        }
    }

    #[test]
    fn depth_one_is_previous_access() {
        let mut q = HistoryQueue::new(4);
        q.push(entry(10));
        q.push(entry(20));
        assert_eq!(q.at_depth(1).unwrap().block, 20);
        assert_eq!(q.at_depth(2).unwrap().block, 10);
        assert!(q.at_depth(3).is_none());
        assert!(q.at_depth(0).is_none());
    }

    #[test]
    fn capacity_is_bounded() {
        let mut q = HistoryQueue::new(3);
        for b in 0..10 {
            q.push(entry(b));
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.at_depth(3).unwrap().block, 7);
    }

    #[test]
    fn sample_skips_unavailable_depths() {
        let mut q = HistoryQueue::new(50);
        for b in 0..5 {
            q.push(entry(b));
        }
        let depths = [1u16, 3, 10, 50];
        let got: Vec<u64> = q.sample(&depths).map(|(_, e)| e.block).collect();
        assert_eq!(got, vec![4, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        HistoryQueue::new(0);
    }
}
