//! The classical multi-armed bandit (§4.1 background).
//!
//! The paper's contextual-bandits formulation generalizes this model: a
//! single global decision with incremental value estimates and ε-greedy
//! action selection. Kept as a reference implementation — it documents the
//! learning rule the prefetcher specializes, anchors the crate's tests, and
//! backs the `explore_contexts` example.

use crate::policy::ExplorationPolicy;
use rand::{Rng, RngExt};

/// An ε-greedy multi-armed bandit with incremental mean value estimates.
///
/// ```rust
/// use semloc_bandit::{FixedEpsilon, MultiArmedBandit};
///
/// let mut bandit = MultiArmedBandit::new(3, FixedEpsilon::new(0.0));
/// bandit.update(2, 5.0);
/// assert_eq!(bandit.greedy(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct MultiArmedBandit<P> {
    values: Vec<f64>,
    pulls: Vec<u64>,
    policy: P,
}

impl<P: ExplorationPolicy> MultiArmedBandit<P> {
    /// A bandit with `arms` arms and the given exploration policy.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is zero.
    pub fn new(arms: usize, policy: P) -> Self {
        assert!(arms > 0, "bandit needs at least one arm");
        MultiArmedBandit {
            values: vec![0.0; arms],
            pulls: vec![0; arms],
            policy,
        }
    }

    /// Number of arms.
    pub fn arms(&self) -> usize {
        self.values.len()
    }

    /// Select an arm: the greedy arm, or a random one with probability ε.
    pub fn select<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        if self.policy.explore(rng) {
            rng.random_range(0..self.values.len())
        } else {
            self.greedy()
        }
    }

    /// The arm with the highest value estimate.
    #[expect(
        clippy::expect_used,
        reason = "estimates are incremental means of finite rewards, never NaN, and \
                  constructors reject zero-arm bandits"
    )]
    pub fn greedy(&self) -> usize {
        self.values
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("value estimates are finite"))
            .map(|(i, _)| i)
            .expect("at least one arm")
    }

    /// Update arm `arm` with an observed `reward` (incremental mean).
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn update(&mut self, arm: usize, reward: f64) {
        self.pulls[arm] += 1;
        let n = self.pulls[arm] as f64;
        self.values[arm] += (reward - self.values[arm]) / n;
        self.policy.observe(reward > 0.0);
    }

    /// Current value estimate of `arm`.
    pub fn value(&self, arm: usize) -> f64 {
        self.values[arm]
    }

    /// Times `arm` was updated.
    pub fn pulls(&self, arm: usize) -> u64 {
        self.pulls[arm]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::FixedEpsilon;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn converges_to_the_best_arm() {
        let mut bandit = MultiArmedBandit::new(5, FixedEpsilon::new(0.1));
        let mut rng = StdRng::seed_from_u64(11);
        // Arm 3 pays double.
        for _ in 0..5000 {
            let arm = bandit.select(&mut rng);
            let noise: f64 = rng.random::<f64>() * 0.1;
            let reward = if arm == 3 { 2.0 } else { 1.0 } + noise;
            bandit.update(arm, reward);
        }
        assert_eq!(bandit.greedy(), 3);
        assert!(bandit.pulls(3) > 3000, "greedy arm should dominate pulls");
    }

    #[test]
    fn incremental_mean_matches_arithmetic_mean() {
        let mut b = MultiArmedBandit::new(1, FixedEpsilon::new(0.0));
        for r in [1.0, 2.0, 3.0, 4.0] {
            b.update(0, r);
        }
        assert!((b.value(0) - 2.5).abs() < 1e-12);
        assert_eq!(b.pulls(0), 4);
    }

    #[test]
    fn zero_epsilon_is_pure_greedy() {
        let mut b = MultiArmedBandit::new(3, FixedEpsilon::new(0.0));
        b.update(1, 5.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert!((0..100).all(|_| b.select(&mut rng) == 1));
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn zero_arms_rejected() {
        MultiArmedBandit::new(0, FixedEpsilon::new(0.0));
    }
}
