//! A gshare branch predictor.
//!
//! The paper's gem5 model includes a conventional branch predictor; its role
//! here is (a) to charge realistic front-end redirect penalties and (b) to
//! maintain the global branch-history register that feeds the prefetcher's
//! *branch history* context attribute (Table 1).

use semloc_trace::Addr;

/// Global-history XOR PC predictor with 2-bit saturating counters.
///
/// ```rust
/// use semloc_cpu::Gshare;
///
/// let mut bp = Gshare::new(10);
/// for _ in 0..10 {
///     bp.predict_and_update(0x400, true);
/// }
/// assert!(bp.predict_and_update(0x400, true), "a constant branch is learned");
/// assert_eq!(bp.history() & 1, 1);
/// ```
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u64,
    history: u16,
}

impl Gshare {
    /// A predictor with `2^log2_entries` counters, initialized weakly taken.
    pub fn new(log2_entries: u32) -> Self {
        let n = 1usize << log2_entries;
        Gshare {
            table: vec![2; n],
            mask: (n - 1) as u64,
            history: 0,
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        (((pc >> 2) ^ self.history as u64) & self.mask) as usize
    }

    /// The global branch-history register (newest outcome in bit 0).
    #[inline]
    pub fn history(&self) -> u16 {
        self.history
    }

    /// Predict the branch at `pc`, then update with the actual outcome.
    /// Returns `true` when the prediction was correct.
    pub fn predict_and_update(&mut self, pc: Addr, taken: bool) -> bool {
        let idx = self.index(pc);
        let counter = self.table[idx];
        let predicted = counter >= 2;
        self.table[idx] = match (taken, counter) {
            (true, c) if c < 3 => c + 1,
            (false, c) if c > 0 => c - 1,
            (_, c) => c,
        };
        self.history = (self.history << 1) | taken as u16;
        predicted == taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_constant_direction() {
        let mut p = Gshare::new(10);
        let mut wrong = 0;
        for _ in 0..100 {
            if !p.predict_and_update(0x400, true) {
                wrong += 1;
            }
        }
        assert!(wrong <= 2, "constant branch mispredicted {wrong} times");
    }

    #[test]
    fn learns_an_alternating_pattern_through_history() {
        let mut p = Gshare::new(12);
        let mut wrong_tail = 0;
        for i in 0..400 {
            let taken = i % 2 == 0;
            if !p.predict_and_update(0x500, taken) && i >= 200 {
                wrong_tail += 1;
            }
        }
        assert!(
            wrong_tail <= 4,
            "alternating branch not learned: {wrong_tail} late misses"
        );
    }

    #[test]
    fn history_records_outcomes_newest_first() {
        let mut p = Gshare::new(4);
        p.predict_and_update(0, true);
        p.predict_and_update(0, false);
        p.predict_and_update(0, true);
        assert_eq!(p.history() & 0b111, 0b101);
    }

    #[test]
    fn random_branches_are_hard() {
        // Sanity check that the predictor is not an oracle.
        let mut p = Gshare::new(10);
        let mut state = 0x12345678u64;
        let mut wrong = 0;
        let n = 2000;
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let taken = (state >> 33) & 1 == 1;
            if !p.predict_and_update(0x600, taken) {
                wrong += 1;
            }
        }
        assert!(
            wrong > n / 4,
            "predictor suspiciously good on random stream"
        );
    }
}
