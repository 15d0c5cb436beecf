//! Pinned adversarial collapse kernels.
//!
//! The seeded search (`adversarial_search(42, SearchConfig::default(), …)`,
//! re-run by semloc-bench's `interference` section) discovered one
//! parameter point per family where the learned context prefetcher's tail
//! coverage collapses while a table baseline stays healthy. Those three
//! points are pinned here as named regression kernels with explicit
//! accuracy/coverage bounds:
//!
//! * `adv-straddle` @ `cold_work: 9` — the hot/cold filler alternation
//!   straddles the 18–50 cycle bell-reward window on a stride-2 scan:
//!   GHB g/dc covers ~0.80 of tail demands, learned covers under 0.10.
//! * `adv-alias` @ `nodes: 501` — four shuffled chains aliasing one PC and
//!   object type: the learner's self-reported accuracy collapses below
//!   0.10 and even SMS (~0.13) covers more than it does.
//! * `adv-phaseflip` @ its default point (`stride_b: 17, flip_every: 96`)
//!   — the stride flip re-pays training latency every 96 elements: GHB
//!   re-locks within a few accesses (~0.47 coverage), learned stays under
//!   0.25.
//!
//! Every metric is over the adversarial *tail only* (counter deltas from
//! the shared mcf warmup point) and fully deterministic, so the bounds
//! carry generous margins yet can never flake. If a learner change moves
//! one of these numbers *across* a bound, that is the signal this suite
//! exists for: either the resilience genuinely improved (tighten the
//! bound and note it in CHANGES.md) or a regression shipped.

use semloc_harness::{adversarial_search, AdvBench, AdvParams, AdvScore, SearchConfig, SimConfig};
use semloc_workloads::{pinned_collapse_points, Kernel};

fn bench() -> AdvBench {
    AdvBench::new(&SearchConfig::default(), &SimConfig::default())
}

fn check(score: &AdvScore, what: &str, learned_below: f64, baseline_above: f64, gap_above: f64) {
    assert!(
        score.learned_coverage < learned_below,
        "{what}: learned tail coverage {:.4} no longer collapses below {learned_below}",
        score.learned_coverage
    );
    assert!(
        score.best_baseline_coverage > baseline_above,
        "{what}: best baseline ({}) tail coverage {:.4} fell below {baseline_above} — \
         the pattern stopped being easy for the tables",
        score.best_baseline,
        score.best_baseline_coverage
    );
    assert!(
        score.gap > gap_above,
        "{what}: resilience gap {:.4} shrank below {gap_above}",
        score.gap
    );
}

#[test]
fn pinned_collapse_points_still_collapse() {
    let b = bench();
    // Measured at pin time (tail coverage, deterministic):
    //   straddle  learned 0.0246, ghb-g/dc 0.8047, gap 0.7801
    //   alias     learned 0.0581, sms      0.1309, gap 0.0729
    //   phaseflip learned 0.1463, ghb-g/dc 0.4746, gap 0.3283
    let (straddle, alias, flip) = pinned_collapse_points();
    let s = b.eval(&AdvParams::Straddle(straddle)).expect("bench eval");
    check(&s, "adv-straddle", 0.10, 0.70, 0.60);

    let a = b.eval(&AdvParams::Alias(alias)).expect("bench eval");
    check(&a, "adv-alias", 0.10, 0.10, 0.03);
    assert!(
        a.learned_accuracy < 0.10,
        "adv-alias: context self-accuracy {:.4} no longer collapses under aliasing",
        a.learned_accuracy
    );

    let f = b.eval(&AdvParams::Flip(flip)).expect("bench eval");
    check(&f, "adv-phaseflip", 0.25, 0.40, 0.25);
}

#[test]
fn seeded_search_reproduces_the_pinned_points() {
    // The regression points above are not hand-tuned: the fixed-seed
    // hill-climb must rediscover all three from the family defaults.
    let findings = adversarial_search(42, &SearchConfig::default(), &SimConfig::default())
        .expect("adversarial search");
    let (straddle, alias, flip) = pinned_collapse_points();
    let expected = [straddle.trace_key(), alias.trace_key(), flip.trace_key()];
    assert_eq!(findings.len(), expected.len());
    for (f, want) in findings.iter().zip(&expected) {
        assert_eq!(
            &f.params, want,
            "{}: the seeded search drifted off its pinned parameter point",
            f.family
        );
        assert!(
            f.gap > 0.0,
            "{}: searched point no longer shows a positive resilience gap",
            f.family
        );
    }
}
