//! Paper-fidelity suite: pins the behaviours the ISCA'15 paper actually
//! claims — the Table 2 structural constants, the bell-shaped reward over
//! the timeliness window (Fig 5),
//! attribute deactivation under CST underload (§4.3 reducer), exploration
//! rate falling as accuracy rises (§4.4 adaptive ε-greedy), and saturating
//! link scores in the CST — against both the spec tables and the optimized
//! implementations, so a regression in either breaks loudly.

use semloc_bandit::scored::Replacement;
use semloc_bandit::{AdaptiveEpsilon, BellReward, ExplorationPolicy, RewardFunction};
use semloc_context::{ContextConfig, ContextStatesTable, FullHash, Reducer};
use semloc_spec::{SpecCst, SpecPrefetcher, SpecReducer};

// ---------------------------------------------------------------------------
// Table 2 geometry
// ---------------------------------------------------------------------------

/// The structural constants Table 2 fixes, which every experiment and doc
/// assumes: a 2K-entry CST with 4 links in both the core and the spec, a
/// 16K-entry reducer (8x the CST), a 50-entry history queue, a 128-entry
/// prefetch queue and the 18-50-access bell window, which must fit inside
/// the history queue or late hits could never be rewarded.
#[test]
fn table2_constants_match_the_paper() {
    let c = ContextConfig::default();
    assert_eq!(c.cst_entries, 2048);
    assert_eq!(c.reducer_entries, 16 * 1024);
    assert_eq!(c.reducer_entries, 8 * c.cst_entries);
    assert_eq!(c.history_len, 50);
    assert_eq!(c.pfq_len, 128);
    assert_eq!(semloc_context::cst::LINKS, 4);
    assert_eq!(semloc_spec::tables::SPEC_LINKS, 4);

    let window = BellReward::paper_default().window();
    assert_eq!(window, (18, 50));
    assert_eq!(c.reward.window(), window);
    assert!(window.1 as usize <= c.history_len);
}

// ---------------------------------------------------------------------------
// Bell reward (Fig 5)
// ---------------------------------------------------------------------------

#[test]
fn bell_is_positive_inside_window_and_peaks_at_center() {
    let bell = BellReward::paper_default();
    let (lo, hi) = bell.window();
    let center = (lo + hi) / 2;
    let peak_val = bell.reward(center);
    assert_eq!(
        peak_val,
        bell.peak(),
        "reward at center must equal the peak"
    );
    for d in lo..=hi {
        let r = bell.reward(d);
        assert!(
            r > 0,
            "reward({d}) = {r} must be positive inside the window"
        );
        assert!(r <= peak_val, "reward({d}) = {r} must not exceed the peak");
    }
}

#[test]
fn bell_is_symmetric_around_the_window_center() {
    // The Gaussian part is even around the center, so equal offsets on
    // either side earn exactly the same reward (both sides stay in the
    // `depth <= hi` regime).
    let bell = BellReward::paper_default();
    let (lo, hi) = bell.window();
    let center = (lo + hi) / 2;
    for k in 0..=(hi - center) {
        assert_eq!(
            bell.reward(center - k),
            bell.reward(center + k),
            "bell must be symmetric at offset {k}"
        );
    }
}

#[test]
fn bell_decays_monotonically_away_from_center() {
    let bell = BellReward::paper_default();
    let (lo, hi) = bell.window();
    let center = (lo + hi) / 2;
    // Toward the late side (smaller depth): non-increasing reward.
    for d in 1..=center {
        assert!(
            bell.reward(d - 1) <= bell.reward(d),
            "late-side reward must not rise as depth falls ({d})"
        );
    }
    // Toward the early edge: non-increasing as depth grows.
    for d in center..hi {
        assert!(
            bell.reward(d + 1) <= bell.reward(d),
            "early-side reward must not rise as depth grows ({d})"
        );
    }
}

#[test]
fn bell_penalizes_past_the_early_edge_then_decays_to_zero() {
    let bell = BellReward::paper_default();
    let (_, hi) = bell.window();
    assert!(
        bell.reward(hi + 1) < 0,
        "just past the early edge must be penalized"
    );
    // The penalty decays toward zero (never positive) with distance.
    let mut prev = bell.reward(hi + 1);
    for d in (hi + 2)..(hi + 200) {
        let r = bell.reward(d);
        assert!(r <= 0, "past-edge reward must never be positive ({d})");
        assert!(
            r >= prev,
            "past-edge penalty must decay with distance ({d})"
        );
        prev = r;
    }
    assert_eq!(
        bell.reward(hi + 200),
        0,
        "far past the edge the penalty vanishes"
    );
    assert!(bell.expiry() < 0, "expiry must be a strict penalty");
}

#[test]
fn spec_bell_matches_optimized_bell_bit_for_bit() {
    for cfg in [
        ContextConfig::default(),
        ContextConfig {
            reward: BellReward::new(10, 64, 20, -6, -3).into(),
            ..ContextConfig::default()
        },
    ] {
        let bell = cfg.reward.clone();
        let spec = SpecPrefetcher::new(cfg);
        for depth in 0..=512 {
            assert_eq!(
                spec.bell_reward(depth),
                bell.reward(depth),
                "spec bell diverged from BellReward at depth {depth}"
            );
        }
        assert_eq!(spec.expiry_reward(), bell.expiry());
    }
}

// ---------------------------------------------------------------------------
// Adaptive ε (§4.4)
// ---------------------------------------------------------------------------

#[test]
fn epsilon_falls_as_accuracy_rises_and_is_bounded() {
    let mut eps = AdaptiveEpsilon::paper_default();
    let (emin, emax) = (eps.eps_min(), eps.eps_max());
    assert_eq!(
        eps.epsilon(),
        emax,
        "zero accuracy must explore at the maximum rate"
    );
    let mut prev = eps.epsilon();
    for _ in 0..1500 {
        eps.observe(true);
        let e = eps.epsilon();
        assert!(
            e <= prev,
            "epsilon must not rise while accuracy improves ({e} > {prev})"
        );
        assert!((emin..=emax).contains(&e), "epsilon out of bounds: {e}");
        prev = e;
    }
    assert!(
        eps.epsilon() - emin < 1e-3,
        "sustained hits must drive epsilon to its floor (got {})",
        eps.epsilon()
    );

    // Sustained misses recover exploration.
    for _ in 0..1500 {
        eps.observe(false);
    }
    assert!(
        emax - eps.epsilon() < 1e-3,
        "sustained misses must drive epsilon back to its ceiling (got {})",
        eps.epsilon()
    );
}

#[test]
fn epsilon_matches_its_closed_form_at_every_step() {
    // ε = eps_min + (eps_max − eps_min)·(1 − accuracy), bit for bit — the
    // same restatement the spec prefetcher uses internally.
    let mut eps = AdaptiveEpsilon::new(0.05, 0.4, 0.02);
    let (emin, emax) = (eps.eps_min(), eps.eps_max());
    let mut e = 0x5eedu64;
    for i in 0..1000 {
        e = e
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        eps.observe(e >> 33 & 1 == 0);
        let expected = emin + (emax - emin) * (1.0 - eps.accuracy());
        assert_eq!(
            eps.epsilon().to_bits(),
            expected.to_bits(),
            "closed form diverged at step {i}"
        );
    }
}

// ---------------------------------------------------------------------------
// Reducer: attribute deactivation under underload (§4.3)
// ---------------------------------------------------------------------------

#[test]
fn reducer_deactivates_attributes_under_sustained_underload() {
    let mut spec = SpecReducer::new(64, 4, 3, -8, false);
    let full = FullHash(0x1234);
    assert_eq!(spec.active_count(full), 4);

    // Underload pressure must cross the threshold before anything changes,
    // then shed one attribute at a time.
    let mut shrinks = 0;
    let mut prev = 4;
    for _ in 0..40 {
        spec.report_underload(full);
        let now = spec.active_count(full);
        assert!(now <= prev, "active count must not grow under underload");
        if now < prev {
            assert_eq!(prev - now, 1, "deactivation sheds one attribute at a time");
            shrinks += 1;
        }
        prev = now;
    }
    assert!(
        shrinks >= 2,
        "sustained underload must deactivate attributes"
    );
    assert!(
        spec.active_count(full) >= 1,
        "at least one attribute always stays active"
    );
    assert_eq!(spec.deactivations(), shrinks);
    assert_eq!(spec.activations(), 0);
}

#[test]
fn reducer_spec_and_core_agree_under_random_pressure() {
    let mut spec = SpecReducer::new(128, 4, 3, -8, false);
    let mut core = Reducer::new(128, 4, 3, -8, false);
    let mut e = 0xabcdu64;
    for i in 0..20_000 {
        e = e
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let full = FullHash((e >> 16) as u16 & 0x3ff);
        match (e >> 40) % 3 {
            0 => {
                spec.report_overload(full);
                core.report_overload(full);
            }
            1 => {
                spec.report_underload(full);
                core.report_underload(full);
            }
            _ => {
                assert_eq!(
                    spec.active_count(full),
                    core.active_count(full),
                    "active_count diverged at step {i}"
                );
            }
        }
    }
    assert_eq!(spec.active_histogram(), core.active_histogram());
    assert_eq!(spec.activations(), core.activations());
    assert_eq!(spec.deactivations(), core.deactivations());
    assert!(
        spec.activations() > 0 && spec.deactivations() > 0,
        "the random stream must exercise both directions"
    );
}

#[test]
fn frozen_reducer_never_moves() {
    let mut spec = SpecReducer::new(64, 4, 3, -8, true);
    let full = FullHash(0x42);
    for _ in 0..100 {
        spec.report_underload(full);
        spec.report_overload(full);
    }
    assert_eq!(spec.active_count(full), 4);
    assert_eq!(spec.activations() + spec.deactivations(), 0);
}

// ---------------------------------------------------------------------------
// CST: link-score saturation
// ---------------------------------------------------------------------------

#[test]
fn cst_scores_saturate_instead_of_wrapping() {
    let mut spec = SpecCst::new(64, Replacement::LowestScore);
    let mut core = ContextStatesTable::new(64, Replacement::LowestScore);
    let key = semloc_context::ContextKey(0x77);

    spec.add_candidate(key, 3);
    core.add_candidate(key, 3);

    // Hammer the link with large positive rewards: the score must pin at
    // i8::MAX and stay there.
    for _ in 0..100 {
        spec.reward(key, 3, 100);
        core.reward(key, 3, 100);
    }
    let spec_score = spec.score_of(key, 3).expect("link present");
    assert_eq!(
        spec_score,
        i8::MAX,
        "positive rewards must saturate at +127"
    );
    let core_score = core
        .lookup(key)
        .and_then(|s| s.score_of(3))
        .expect("link present");
    assert_eq!(core_score, i8::MAX);

    // And back down: large penalties pin at i8::MIN without wrapping.
    for _ in 0..200 {
        spec.reward(key, 3, -100);
        core.reward(key, 3, -100);
    }
    assert_eq!(spec.score_of(key, 3), Some(i8::MIN));
    assert_eq!(core.lookup(key).and_then(|s| s.score_of(3)), Some(i8::MIN));
}

#[test]
fn cst_capped_reward_respects_the_cap_but_never_lowers_a_score() {
    let mut spec = SpecCst::new(64, Replacement::LowestScore);
    let key = semloc_context::ContextKey(0x99);
    spec.add_candidate(key, -5);

    // Capped rewards stop at the cap...
    for _ in 0..50 {
        spec.reward_capped(key, -5, 10, 32);
    }
    assert_eq!(spec.score_of(key, -5), Some(32));

    // ...but a score already above the cap is left alone, not clipped down.
    spec.reward(key, -5, 60);
    let high = spec.score_of(key, -5).unwrap();
    assert!(high > 32);
    spec.reward_capped(key, -5, 10, 32);
    assert_eq!(
        spec.score_of(key, -5),
        Some(high),
        "a capped reward must never reduce an above-cap score"
    );
}
