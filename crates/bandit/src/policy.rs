//! The exploration policy.
//!
//! The paper's exploration is "based on the common ε-greedy approach
//! (choosing a random address from the set of previously correlated ones at
//! probability ε on each step)" with "dynamic adaptation based on prediction
//! accuracy, thereby reducing the level of exploration as the predictor
//! begins to converge, similar to the proposal by Tokic" (§4.1).

use rand::{Rng, RngExt};

/// Accuracy-adaptive ε-greedy.
///
/// Maintains an exponentially-weighted accuracy estimate and anneals the
/// exploration rate from `eps_max` (cold predictor) toward `eps_min`
/// (converged predictor): `ε = eps_min + (eps_max − eps_min)·(1 − accuracy)`.
/// ```rust
/// use semloc_bandit::AdaptiveEpsilon;
///
/// let mut eps = AdaptiveEpsilon::paper_default();
/// let cold = eps.epsilon();
/// for _ in 0..1000 {
///     eps.observe(true);
/// }
/// assert!(eps.epsilon() < cold, "exploration anneals as accuracy rises");
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveEpsilon {
    eps_min: f64,
    eps_max: f64,
    accuracy: f64,
    alpha: f64,
}

impl AdaptiveEpsilon {
    /// An adaptive policy annealing between `eps_min` and `eps_max` with
    /// EWMA smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are not probabilities with
    /// `eps_min <= eps_max`, or `alpha` is outside `(0, 1]`.
    pub fn new(eps_min: f64, eps_max: f64, alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&eps_min) && (0.0..=1.0).contains(&eps_max) && eps_min <= eps_max
        );
        assert!(alpha > 0.0 && alpha <= 1.0);
        AdaptiveEpsilon {
            eps_min,
            eps_max,
            accuracy: 0.0,
            alpha,
        }
    }

    /// The paper-flavored default: explore a few percent of accesses when
    /// converged, aggressively when cold.
    pub fn paper_default() -> Self {
        AdaptiveEpsilon::new(0.02, 0.25, 0.01)
    }

    /// Current accuracy estimate in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        self.accuracy
    }

    /// The floor exploration rate reached at perfect accuracy.
    pub fn eps_min(&self) -> f64 {
        self.eps_min
    }

    /// The ceiling exploration rate of a cold predictor.
    pub fn eps_max(&self) -> f64 {
        self.eps_max
    }

    /// The EWMA smoothing factor for accuracy updates.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current exploration probability in `[eps_min, eps_max]`.
    pub fn epsilon(&self) -> f64 {
        self.eps_min + (self.eps_max - self.eps_min) * (1.0 - self.accuracy)
    }

    /// Sample the explore/exploit decision: one uniform draw from `rng`.
    pub fn explore<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        rng.random::<f64>() < self.epsilon()
    }

    /// Feed back whether the latest prediction was accurate.
    pub fn observe(&mut self, hit: bool) {
        self.accuracy += self.alpha * ((hit as u8 as f64) - self.accuracy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_anneals_with_accuracy() {
        let mut p = AdaptiveEpsilon::paper_default();
        let cold = p.epsilon();
        for _ in 0..2000 {
            p.observe(true);
        }
        let warm = p.epsilon();
        assert!(cold > 0.2 && warm < 0.05, "cold {cold}, warm {warm}");
        // Degrades back when accuracy collapses.
        for _ in 0..2000 {
            p.observe(false);
        }
        assert!(p.epsilon() > 0.2);
    }

    #[test]
    fn adaptive_epsilon_stays_in_bounds() {
        let mut p = AdaptiveEpsilon::new(0.05, 0.5, 0.5);
        for i in 0..100 {
            p.observe(i % 3 == 0);
            assert!(p.epsilon() >= 0.05 - 1e-12 && p.epsilon() <= 0.5 + 1e-12);
            assert!((0.0..=1.0).contains(&p.accuracy()));
        }
    }
}
