//! The prefetch queue (§5): outstanding predictions awaiting feedback.
//!
//! Every prediction — real or shadow — is pushed here with the context that
//! produced it. When a demand access arrives, all matching un-hit entries
//! are rewarded according to their depth (the number of accesses since the
//! prediction); entries that fall off the 128-entry queue without being hit
//! expire with a negative reward. The queue is deliberately larger than the
//! useful prefetch window so that *too-early* predictions can still be
//! observed and demoted.
//!
//! # Implementation
//!
//! The queue runs once per demand access, so its operations are indexed
//! rather than scanned:
//!
//! * Entry ids are assigned sequentially by [`PrefetchQueue::push`] and
//!   entries leave only from the front (overflow) or all at once (drain),
//!   so the deque always holds **contiguous ascending ids** and any live
//!   entry sits at position `id - front_id` — an O(1) lookup that replaces
//!   the linear id search in [`PrefetchQueue::demote_to_shadow`].
//! * A block → ids map covers exactly the *un-hit* entries, so
//!   [`PrefetchQueue::record_access`] costs O(matches) instead of a full
//!   O(capacity) scan and [`PrefetchQueue::predicts`] is a key-presence
//!   test. Each id list is kept in ascending (= deque) order, so hits are
//!   emitted in exactly the order the scan produced them, and an expiring
//!   un-hit entry (the oldest live one) is always its list's front. Freed
//!   id lists are pooled to keep the hot path allocation-free.
//! * Each block's index value also counts its un-hit *real* (non-shadow)
//!   entries, kept current by push, expiry and demotion, so
//!   [`PrefetchQueue::predicts_real`] is one lookup.

#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed BlockHasher; keyed access only (see BlockIndex)"
)]
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use crate::attrs::{ContextKey, FullHash};
use semloc_trace::Seq;

/// An outstanding prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PfqEntry {
    /// Monotone identifier (echoed through the memory system's issue
    /// results).
    pub id: u64,
    /// Predicted block address.
    pub block: u64,
    /// Reduced-context key that produced the prediction.
    pub key: ContextKey,
    /// Full-context hash (for reducer feedback routing).
    pub full: FullHash,
    /// Predicted delta (action), at block granularity.
    pub delta: i16,
    /// Demand-access sequence number at prediction time.
    pub issue_seq: Seq,
    /// Shadow operation (not dispatched to memory).
    pub shadow: bool,
    /// A demand access has already matched this entry.
    pub hit: bool,
}

/// A matched prediction and its hit depth.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PfqHit {
    /// The matched entry (as of the hit).
    pub entry: PfqEntry,
    /// Accesses elapsed between prediction and demand.
    pub depth: u32,
}

/// Multiplicative hasher for block addresses: one multiply and a fold beat
/// SipHash by an order of magnitude on 8-byte keys, and block numbers have
/// enough entropy in their low bits for the golden-ratio spread.
#[derive(Clone, Copy, Debug, Default)]
struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = v.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A block's un-hit entries.
#[derive(Clone, Debug, Default)]
struct Unhit {
    /// Their ids, ascending.
    ids: VecDeque<u64>,
    /// How many of them are real (not shadow).
    real: u32,
}

/// Hot-path block → un-hit entries index. A std HashMap is allowed here
/// because the hasher is the fixed-seed [`BlockHasher`] (no per-process
/// randomization), every read is keyed, and the only iteration
/// ([`PrefetchQueue::drain`]) recycles cleared buffers whose order is
/// unobservable — so iteration order can never reach stats or output.
#[expect(
    clippy::disallowed_types,
    reason = "fixed-seed hasher, keyed access, order never observable"
)]
type BlockIndex = HashMap<u64, Unhit, BuildHasherDefault<BlockHasher>>;

/// Fixed-capacity queue of outstanding predictions (Table 2: 128 entries).
#[derive(Clone, Debug)]
pub struct PrefetchQueue {
    entries: VecDeque<PfqEntry>,
    capacity: usize,
    next_id: u64,
    /// block → ascending ids of *un-hit* entries predicting it, and their
    /// real count. Lists are never left empty (the key is removed
    /// instead), so `predicts` is a key-presence test.
    index: BlockIndex,
    /// Recycled id lists (allocation-free steady state).
    pool: Vec<VecDeque<u64>>,
}

impl PrefetchQueue {
    /// A queue of `capacity` predictions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch queue needs capacity");
        PrefetchQueue {
            entries: VecDeque::with_capacity(capacity + 1),
            capacity,
            next_id: 0,
            index: BlockIndex::default(),
            pool: Vec::new(),
        }
    }

    /// Record a new prediction. Returns its id and, when the queue
    /// overflowed, the expired oldest entry (un-hit expirations earn the
    /// expiry penalty).
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
        Self::index_unhit(&mut self.index, &mut self.pool, block, id, shadow);
        let expired = if self.entries.len() > self.capacity {
            self.entries.pop_front()
        } else {
            None
        };
        if let Some(e) = &expired {
            if !e.hit {
                self.unindex_oldest(e);
            }
        }
        (id, expired)
    }

    /// Append the un-hit entry `id` to `block`'s list in `index` (ids only
    /// grow), taking a new list from `pool`.
    fn index_unhit(
        index: &mut BlockIndex,
        pool: &mut Vec<VecDeque<u64>>,
        block: u64,
        id: u64,
        shadow: bool,
    ) {
        let list = index.entry(block).or_insert_with(|| Unhit {
            ids: pool.pop().unwrap_or_default(),
            real: 0,
        });
        list.ids.push_back(id);
        list.real += u32::from(!shadow);
    }

    /// Drop the expired un-hit entry `e` from its block's list, retiring
    /// the list when empty. `e` was the oldest live entry, so it is the
    /// list's front.
    fn unindex_oldest(&mut self, e: &PfqEntry) {
        let Some(list) = self.index.get_mut(&e.block) else {
            return;
        };
        debug_assert_eq!(list.ids.front(), Some(&e.id));
        list.ids.pop_front();
        list.real -= u32::from(!e.shadow);
        if list.ids.is_empty() {
            if let Some(freed) = self.index.remove(&e.block) {
                self.pool.push(freed.ids);
            }
        }
    }

    /// Match a demand access against the queue: every un-hit entry
    /// predicting `block` is marked hit and returned with its depth.
    #[expect(
        clippy::expect_used,
        reason = "index lists cover exactly the live un-hit entries, so a hit implies a \
                  non-empty deque; silent divergence here would be worse than the panic"
    )]
    pub fn record_access(&mut self, block: u64, seq: Seq, out: &mut Vec<PfqHit>) {
        let Some(Unhit { mut ids, .. }) = self.index.remove(&block) else {
            return;
        };
        let front = self
            .entries
            .front()
            .expect("indexed entry implies non-empty queue")
            .id;
        for &id in &ids {
            let e = &mut self.entries[(id - front) as usize];
            debug_assert!(e.id == id && !e.hit && e.block == block);
            e.hit = true;
            let depth = seq.saturating_sub(e.issue_seq) as u32;
            out.push(PfqHit { entry: *e, depth });
        }
        ids.clear();
        self.pool.push(ids);
    }

    /// Whether any un-hit prediction covers `block` (drives the Fig 9
    /// *non-timely* classification).
    pub fn predicts(&self, block: u64) -> bool {
        self.index.contains_key(&block)
    }

    /// Whether an un-hit *real* (dispatched) prefetch covers `block` —
    /// the dedup check before issuing another real prefetch. Shadow
    /// entries must not suppress a real dispatch.
    pub fn predicts_real(&self, block: u64) -> bool {
        self.index.get(&block).is_some_and(|list| list.real > 0)
    }

    /// Demote the entry `id` to a shadow operation (the memory system
    /// rejected its dispatch).
    pub fn demote_to_shadow(&mut self, id: u64) {
        // Ids are contiguous and ascending, so a live entry sits at
        // `id - front`; an expired or never-issued id finds nothing.
        let front = self.entries.front().map_or(0, |e| e.id);
        let Some(e) = id
            .checked_sub(front)
            .and_then(|k| self.entries.get_mut(k as usize))
        else {
            return;
        };
        debug_assert_eq!(e.id, id);
        if !e.shadow && !e.hit {
            if let Some(list) = self.index.get_mut(&e.block) {
                list.real -= 1;
            }
        }
        e.shadow = true;
    }

    /// Drain every remaining entry (end of run); un-hit ones are expiries.
    pub fn drain(&mut self) -> impl Iterator<Item = PfqEntry> + '_ {
        self.pool.extend(self.index.drain().map(|(_, mut list)| {
            list.ids.clear();
            list.ids
        }));
        self.entries.drain(..)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ContextKey {
        ContextKey(1)
    }

    fn full() -> FullHash {
        FullHash(2)
    }

    #[test]
    fn hit_depth_counts_accesses() {
        let mut q = PrefetchQueue::new(8);
        q.push(100, key(), full(), 5, 10, false);
        let mut hits = Vec::new();
        q.record_access(100, 35, &mut hits);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].depth, 25);
        assert_eq!(hits[0].entry.delta, 5);
    }

    #[test]
    fn entries_are_rewarded_once() {
        let mut q = PrefetchQueue::new(8);
        q.push(100, key(), full(), 1, 0, false);
        let mut hits = Vec::new();
        q.record_access(100, 5, &mut hits);
        q.record_access(100, 6, &mut hits);
        assert_eq!(hits.len(), 1, "second demand must not re-reward");
    }

    #[test]
    fn multiple_contexts_predicting_same_block_all_rewarded() {
        let mut q = PrefetchQueue::new(8);
        q.push(100, ContextKey(1), full(), 1, 0, false);
        q.push(100, ContextKey(2), full(), 2, 3, true);
        let mut hits = Vec::new();
        q.record_access(100, 10, &mut hits);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].depth, 10);
        assert_eq!(hits[1].depth, 7);
    }

    #[test]
    fn overflow_expires_oldest() {
        let mut q = PrefetchQueue::new(2);
        q.push(1, key(), full(), 1, 0, false);
        q.push(2, key(), full(), 1, 1, false);
        let (_, expired) = q.push(3, key(), full(), 1, 2, false);
        let e = expired.expect("oldest expired");
        assert_eq!(e.block, 1);
        assert!(!e.hit);
        assert_eq!(q.len(), 2);
        assert!(!q.predicts(1), "expired entry must leave the index");
        assert!(q.predicts(2) && q.predicts(3));
    }

    #[test]
    fn predicts_only_unhit_blocks() {
        let mut q = PrefetchQueue::new(4);
        q.push(7, key(), full(), 1, 0, false);
        assert!(q.predicts(7));
        let mut hits = Vec::new();
        q.record_access(7, 1, &mut hits);
        assert!(!q.predicts(7));
        assert!(!q.predicts(8));
    }

    #[test]
    fn predicts_real_ignores_shadows() {
        let mut q = PrefetchQueue::new(8);
        q.push(7, key(), full(), 1, 0, true);
        assert!(q.predicts(7) && !q.predicts_real(7));
        q.push(7, key(), full(), 1, 1, false);
        assert!(q.predicts_real(7));
        let mut hits = Vec::new();
        q.record_access(7, 2, &mut hits);
        assert!(!q.predicts_real(7));
    }

    #[test]
    fn demote_to_shadow_flags_entry() {
        let mut q = PrefetchQueue::new(4);
        let (id, _) = q.push(7, key(), full(), 1, 0, false);
        q.demote_to_shadow(id);
        let e = q.drain().next().unwrap();
        assert!(e.shadow);
    }

    #[test]
    fn demote_of_expired_id_is_a_noop() {
        let mut q = PrefetchQueue::new(2);
        let (first, _) = q.push(1, key(), full(), 1, 0, false);
        q.push(2, key(), full(), 1, 1, false);
        q.push(3, key(), full(), 1, 2, false); // expires `first`
        q.demote_to_shadow(first);
        q.demote_to_shadow(999); // never existed
        assert!(q.drain().all(|e| !e.shadow));
    }

    #[test]
    fn drain_empties_queue() {
        let mut q = PrefetchQueue::new(4);
        q.push(1, key(), full(), 1, 0, false);
        q.push(2, key(), full(), 1, 0, true);
        assert_eq!(q.drain().count(), 2);
        assert!(q.is_empty());
        assert!(!q.predicts(1) && !q.predicts(2));
    }

    /// Reference implementation: the original linear-scan queue. The
    /// indexed queue must stay observably identical to it under any
    /// operation sequence.
    #[derive(Clone)]
    struct LinearQueue {
        entries: VecDeque<PfqEntry>,
        capacity: usize,
        next_id: u64,
    }

    impl LinearQueue {
        fn new(capacity: usize) -> Self {
            LinearQueue {
                entries: VecDeque::new(),
                capacity,
                next_id: 0,
            }
        }

        fn push(
            &mut self,
            block: u64,
            delta: i16,
            seq: Seq,
            shadow: bool,
        ) -> (u64, Option<PfqEntry>) {
            let id = self.next_id;
            self.next_id += 1;
            self.entries.push_back(PfqEntry {
                id,
                block,
                key: key(),
                full: full(),
                delta,
                issue_seq: seq,
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

        fn record_access(&mut self, block: u64, seq: Seq, out: &mut Vec<PfqHit>) {
            for e in self.entries.iter_mut() {
                if !e.hit && e.block == block {
                    e.hit = true;
                    out.push(PfqHit {
                        entry: *e,
                        depth: seq.saturating_sub(e.issue_seq) as u32,
                    });
                }
            }
        }

        fn predicts(&self, block: u64) -> bool {
            self.entries.iter().any(|e| !e.hit && e.block == block)
        }

        fn predicts_real(&self, block: u64) -> bool {
            self.entries
                .iter()
                .any(|e| !e.hit && !e.shadow && e.block == block)
        }

        fn demote_to_shadow(&mut self, id: u64) {
            if let Some(e) = self.entries.iter_mut().find(|e| e.id == id) {
                e.shadow = true;
            }
        }
    }

    /// Drive the indexed queue and [`LinearQueue`] through one random op
    /// mix: pushes (real and shadow), demand accesses, demotes of any id
    /// (pending, hit, expired or never issued) and `predicts` /
    /// `predicts_real` probes, over a small block space so blocks alias
    /// heavily.
    fn random_ops_match_linear_reference(seed: u64) {
        let mut q = PrefetchQueue::new(16);
        let mut r = LinearQueue::new(16);
        let mut state = seed;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for seq in 0..5000u64 {
            let block = next() % 24;
            match next() % 5 {
                0 | 1 => {
                    let delta = (next() % 32) as i16;
                    let shadow = next() % 2 == 0;
                    let want = r.push(block, delta, seq, shadow);
                    assert_eq!(q.push(block, key(), full(), delta, seq, shadow), want);
                }
                2 => {
                    let mut want = Vec::new();
                    r.record_access(block, seq, &mut want);
                    let mut got = Vec::new();
                    q.record_access(block, seq, &mut got);
                    assert_eq!(got, want, "hit sets (and their order) must match");
                }
                3 => {
                    let id = next() % (r.next_id + 4);
                    r.demote_to_shadow(id);
                    q.demote_to_shadow(id);
                }
                _ => {
                    assert_eq!(q.predicts(block), r.predicts(block), "step {seq}");
                    assert_eq!(q.predicts_real(block), r.predicts_real(block), "step {seq}");
                }
            }
        }
        let want: Vec<_> = r.entries.drain(..).collect();
        assert_eq!(q.drain().collect::<Vec<_>>(), want);
    }

    #[test]
    fn indexed_queue_matches_linear_reference_on_random_ops() {
        random_ops_match_linear_reference(0xdead_beef);
    }
}
