//! `ScoredSet` against an independent reference: the original set, one
//! interleaved `Vec` of (action, score) slots scanned with iterators. The
//! production set splits actions, scores and insertion ages into flat
//! lanes scanned by the `semloc_accel` kernels; under the default
//! lowest-score replacement both must return the same value from every
//! operation, tie-breaks included.

use semloc_bandit::ScoredSet;

#[derive(Clone, Copy, Debug)]
struct Slot<A> {
    action: A,
    score: i8,
}

/// Up to `N` scored actions in one interleaved `Vec<Slot>`.
struct LegacyScoredSet<A, const N: usize> {
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
    /// Lowest-score replacement; the first minimum is the victim.
    fn insert(&mut self, action: A) -> Option<(A, i8)> {
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

    fn reward_capped(&mut self, action: A, delta: i32, cap: i8) -> bool {
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

    /// The last maximum (`max_by_key`'s tie-break).
    fn best(&self) -> Option<(A, i8)> {
        self.slots
            .iter()
            .max_by_key(|s| s.score)
            .map(|s| (s.action, s.score))
    }
}

#[test]
fn legacy_scored_set_matches_soa() {
    let mut legacy = LegacyScoredSet::<i16, 4>::default();
    let mut soa = ScoredSet::<i16, 4>::default();
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
