//! Property tests over the reward machinery: the [`BellReward`] shape
//! (symmetry, monotone decay, strictly-negative expiry) under *arbitrary*
//! valid parameterizations, and the saturating-arithmetic invariants of
//! [`ScoredSet`] (clamping at the i8 rails, cap semantics that never lower
//! a score).

use proptest::prelude::*;

use semloc_bandit::scored::{Replacement, ScoredSet};
use semloc_bandit::{
    BellReward, GaussianPenaltyReward, PythiaLevelReward, RewardFunction, RewardLut, RewardShape,
    StepReward,
};

/// An arbitrary *valid* bell: lo < hi, positive peak, non-positive
/// penalties.
fn bell_from(raw: (u64, u64, u64, u64)) -> BellReward {
    let (a, b, c, d) = raw;
    let lo = 1 + (a % 60) as u32;
    let hi = lo + 2 + (b % 100) as u32;
    let peak = 1 + (c % 40) as i32;
    let edge = -((d % 20) as i32);
    let expiry = -(1 + (d >> 32 & 0xf) as i32);
    BellReward::new(lo, hi, peak, edge, expiry)
}

proptest! {
    #[test]
    fn bell_symmetry_around_center(raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let bell = bell_from(raw);
        let (lo, hi) = bell.window();
        // exp(-x²) is even around the (possibly half-integer) center
        // (lo+hi)/2, so depths d and (lo+hi)−d mirror each other exactly
        // while both stay in the bell regime (≤ hi).
        let c2 = lo + hi;
        for d in lo..=(c2 / 2) {
            prop_assert_eq!(bell.reward(d), bell.reward(c2 - d));
        }
    }

    #[test]
    fn bell_monotone_decay_on_both_sides(raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let bell = bell_from(raw);
        let (lo, hi) = bell.window();
        let center = (lo + hi) / 2;
        for d in 1..=center {
            prop_assert!(bell.reward(d - 1) <= bell.reward(d));
        }
        for d in center..hi {
            prop_assert!(bell.reward(d + 1) <= bell.reward(d));
        }
        // Past the early edge the penalty decays toward zero and never
        // goes positive.
        let mut prev = bell.reward(hi + 1);
        prop_assert!(prev <= 0);
        for d in (hi + 2)..(hi + 64) {
            let r = bell.reward(d);
            prop_assert!(r <= 0 && r >= prev);
            prev = r;
        }
    }

    #[test]
    fn bell_peak_bounds_every_reward(raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())) {
        let bell = bell_from(raw);
        let (_, hi) = bell.window();
        for d in 0..(hi + 64) {
            prop_assert!(bell.reward(d) <= bell.peak());
        }
        prop_assert!(bell.expiry() < 0, "expiry must always be a strict penalty");
    }

    #[test]
    fn scores_clamp_at_the_i8_rails(
        deltas in proptest::collection::vec(-120i32..=120, 1..60),
        action in any::<i16>(),
    ) {
        let mut set: ScoredSet<i16, 4> = ScoredSet::new(Replacement::LowestScore);
        set.insert(action);
        let mut expected = 0i32;
        for d in deltas {
            set.reward(action, d);
            expected = (expected + d).clamp(i8::MIN as i32, i8::MAX as i32);
            prop_assert_eq!(set.score_of(action), Some(expected as i8));
        }
    }

    #[test]
    fn capped_reward_never_exceeds_cap_nor_lowers_a_score(
        start_rewards in proptest::collection::vec(1i32..=50, 0..10),
        cap in -20i8..=60,
        delta in 1i32..=50,
    ) {
        let mut set: ScoredSet<i16, 4> = ScoredSet::new(Replacement::LowestScore);
        set.insert(7);
        for r in start_rewards {
            set.reward(7, r);
        }
        let before = set.score_of(7).unwrap();
        set.reward_capped(7, delta, cap);
        let after = set.score_of(7).unwrap();
        // A positive capped reward stops at max(cap, previous score): it
        // respects the cap but never *reduces* an already-higher score.
        prop_assert!(after >= before, "capped positive reward lowered {before} -> {after}");
        prop_assert!(after <= before.max(cap), "cap exceeded: {before} -> {after} (cap {cap})");
    }

    #[test]
    fn negative_capped_reward_ignores_the_cap(
        penalty in -50i32..=-1,
        cap in -20i8..=60,
    ) {
        let mut set: ScoredSet<i16, 4> = ScoredSet::new(Replacement::LowestScore);
        set.insert(3);
        set.reward(3, 40);
        set.reward_capped(3, penalty, cap);
        prop_assert_eq!(
            set.score_of(3),
            Some((40 + penalty).clamp(i8::MIN as i32, i8::MAX as i32) as i8),
            "penalties apply in full regardless of the cap"
        );
    }
}

/// An arbitrary *valid* gaussian-penalty shape.
fn gaussian_from(raw: (u64, u64, u64)) -> GaussianPenaltyReward {
    let (a, b, c) = raw;
    let center = (a % 90) as u32;
    let sigma = 1 + (b % 24) as u32;
    let scale = 1 + (c % 40) as i32;
    let factor = (c >> 32 & 0x7) as i32;
    GaussianPenaltyReward::new(center, sigma, scale, factor, -1 - (a >> 32 & 0x7) as i32)
}

/// An arbitrary *valid* pythia-level shape.
fn levels_from(raw: (u64, u64, u64)) -> PythiaLevelReward {
    let (a, b, c) = raw;
    let lo = 1 + (a % 60) as u32;
    let hi = lo + 2 + (b % 100) as u32;
    let late = 1 + (c % 20) as i32;
    let timely = late + 1 + (c >> 16 & 0xf) as i32;
    let early = -((a >> 32 & 0xf) as i32);
    let expiry = early - 1 - (b >> 32 & 0xf) as i32;
    PythiaLevelReward::new(lo, hi, timely, late, early, expiry)
}

proptest! {
    #[test]
    fn gaussian_penalty_sign_tracks_the_window(raw in (any::<u64>(), any::<u64>(), any::<u64>())) {
        let g = gaussian_from(raw);
        let (lo, hi) = g.window();
        for d in lo..=hi {
            prop_assert!(g.reward(d) >= 0, "in-window reward must not be negative at {d}");
        }
        for d in (hi + 1)..(hi + 64) {
            prop_assert!(g.reward(d) <= 0, "out-of-window reward must not be positive at {d}");
        }
        prop_assert!(g.expiry() < 0);
    }

    #[test]
    fn gaussian_penalty_stable_depth_is_truly_stable(raw in (any::<u64>(), any::<u64>(), any::<u64>())) {
        let g = gaussian_from(raw);
        let stable = g.stable_depth();
        prop_assert!(stable > g.window().1);
        // The gaussian magnitude decays monotonically past the center, so
        // once it rounds to zero it stays zero forever.
        for d in stable..(stable + 64) {
            prop_assert_eq!(g.reward(d), 0, "depth {}", d);
        }
    }

    #[test]
    fn pythia_levels_partition_the_depth_axis(raw in (any::<u64>(), any::<u64>(), any::<u64>())) {
        let p = levels_from(raw);
        let (lo, hi) = p.window();
        for d in 0..(hi + 64) {
            let expected = if d < lo {
                p.late()
            } else if d <= hi {
                p.timely()
            } else {
                p.early()
            };
            prop_assert_eq!(p.reward(d), expected);
        }
        prop_assert!(p.expiry() <= p.early());
    }

    #[test]
    fn lut_tabulates_every_shape_exactly(
        raw in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        which in 0u8..4,
    ) {
        let shape: RewardShape = match which {
            0 => bell_from(raw).into(),
            1 => StepReward::paper_default().into(),
            2 => gaussian_from((raw.0, raw.1, raw.2)).into(),
            _ => levels_from((raw.0, raw.1, raw.2)).into(),
        };
        let lut = RewardLut::new(&shape);
        for d in 0..1024u32 {
            prop_assert_eq!(lut.reward(d), shape.reward(d), "{} depth {}", shape.label(), d);
        }
        prop_assert_eq!(lut.expiry(), shape.expiry());
    }
}

#[test]
fn expiry_is_negative_for_paper_default() {
    assert!(BellReward::paper_default().expiry() < 0);
}
