//! Adversarial workload search: hill-climbing over composed schedules for
//! parameter points where the learned context prefetcher's accuracy
//! collapses while a table baseline (GHB/SMS) stays healthy.
//!
//! The driver leans on two primitives built in this PR:
//!
//! * the workload composer — every candidate is a two-phase schedule: a
//!   fixed `mcf` warmup prefix (so the learner arrives *trained*, the way
//!   it would mid-run) followed by an adversarial tail drawn from one of
//!   the [`semloc_workloads::adversarial`] families; and
//! * [`Engine::fork_onto`] — the warmup is simulated **once per prefetcher
//!   kind**, then every candidate forks that warm state onto its own
//!   composed stream, so an N-candidate search pays for one warmup, not N.
//!
//! The score a candidate hill-climbs is the *resilience gap*
//! `max(baseline tail coverage) − learned tail coverage`, computed over
//! the adversarial tail only (counter deltas from the warmup point;
//! coverage is classified by the memory system, so it compares fairly
//! across prefetcher kinds, unlike the self-reported `useful`). Search
//! is a pure function of its seed (the RNG is the in-tree `StdRng`, every
//! simulator layer is deterministic), so the parameter points it discovers
//! are reproducible — the best point per family is pinned as a named
//! regression kernel in `tests/adversarial_regressions.rs`.

use std::io;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semloc_mem::AccessClass;
use semloc_workloads::{
    capture_kernel, kernel_by_name, AliasChains, CapturedTrace, ComposedKernel, KernelBox, Phase,
    PhaseFlip, ReplayKernel, RewardStraddle,
};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::prefetchers::PrefetcherKind;
use crate::runner::RunResult;

/// Search budget and schedule shape.
#[derive(Clone, Debug)]
pub struct SearchConfig {
    /// Warmup-prefix length (instructions of `mcf` replayed first).
    pub warmup: u64,
    /// Adversarial-tail length (instructions).
    pub tail: u64,
    /// Hill-climbing proposals per family (on top of the default point).
    pub iters: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            warmup: 40_000,
            tail: 80_000,
            iters: 12,
        }
    }
}

/// A point in one adversarial family's parameter space.
#[derive(Clone, Debug)]
pub enum AdvParams {
    /// [`RewardStraddle`] parameters.
    Straddle(RewardStraddle),
    /// [`AliasChains`] parameters.
    Alias(AliasChains),
    /// [`PhaseFlip`] parameters.
    Flip(PhaseFlip),
}

impl AdvParams {
    /// The default (seed) point of every family, in search order.
    pub fn defaults() -> Vec<AdvParams> {
        vec![
            AdvParams::Straddle(RewardStraddle::default()),
            AdvParams::Alias(AliasChains::default()),
            AdvParams::Flip(PhaseFlip::default()),
        ]
    }

    /// Family label (the underlying kernel name).
    pub fn family(&self) -> &'static str {
        match self {
            AdvParams::Straddle(_) => "adv-straddle",
            AdvParams::Alias(_) => "adv-alias",
            AdvParams::Flip(_) => "adv-phaseflip",
        }
    }

    /// Instantiate the kernel at this parameter point.
    pub fn kernel(&self) -> KernelBox {
        match self {
            AdvParams::Straddle(p) => Box::new(p.clone()),
            AdvParams::Alias(p) => Box::new(p.clone()),
            AdvParams::Flip(p) => Box::new(p.clone()),
        }
    }

    /// Propose a neighbour: re-draw one parameter within its search range.
    /// Ranges keep every point adversarially *shaped* (e.g. straddle work
    /// amounts stay on opposite sides of the 18–50 cycle reward window)
    /// while leaving room for the climb to sharpen the collapse.
    pub fn mutate(&self, rng: &mut StdRng) -> AdvParams {
        match self {
            AdvParams::Straddle(p) => {
                let mut q = p.clone();
                match rng.random_range(0..4u32) {
                    0 => q.period = rng.random_range(1..13),
                    1 => q.cold_work = rng.random_range(8..49) as u32,
                    2 => q.hot_work = rng.random_range(0..5) as u32,
                    _ => q.stride = rng.random_range(1..5),
                }
                AdvParams::Straddle(q)
            }
            AdvParams::Alias(p) => {
                let mut q = p.clone();
                match rng.random_range(0..3u32) {
                    0 => q.chains = rng.random_range(2..9) as usize,
                    1 => q.nodes = rng.random_range(128..1025) as usize,
                    _ => q.work = rng.random_range(0..7) as u32,
                }
                AdvParams::Alias(q)
            }
            AdvParams::Flip(p) => {
                let mut q = p.clone();
                match rng.random_range(0..3u32) {
                    0 => q.flip_every = rng.random_range(16..257),
                    1 => q.stride_b = rng.random_range(3..32),
                    _ => q.work = rng.random_range(0..7) as u32,
                }
                AdvParams::Flip(q)
            }
        }
    }
}

/// One surviving search result: a parameter point where the learned
/// prefetcher's tail coverage collapses relative to the best table
/// baseline.
#[derive(Clone, Debug)]
pub struct AdvFinding {
    /// Family label (`adv-straddle` / `adv-alias` / `adv-phaseflip`).
    pub family: &'static str,
    /// Full parameter point (the kernel's `Debug`/trace-key rendering).
    pub params: String,
    /// Context self-reported accuracy over the adversarial tail.
    pub learned_accuracy: f64,
    /// Learned tail coverage (memory-system classified).
    pub learned_coverage: f64,
    /// Label of the baseline with the best tail coverage.
    pub best_baseline: &'static str,
    /// That baseline's tail coverage.
    pub best_baseline_coverage: f64,
    /// The hill-climbed score: `best_baseline_coverage − learned_coverage`.
    pub gap: f64,
    /// Candidate evaluations spent on this family (default + accepted +
    /// rejected proposals).
    pub evals: u32,
}

/// Prefetch coverage: the fraction of demands a prefetch fully or partially
/// hid (Fig 9's two beneficial classes). Unlike `pf.accuracy()` — whose
/// `useful` counter only the context prefetcher self-reports — coverage is
/// classified by the memory system, so it compares fairly across kinds.
pub fn coverage(r: &RunResult) -> f64 {
    r.mem.classes.fraction(AccessClass::HitPrefetchedLine)
        + r.mem.classes.fraction(AccessClass::ShorterWait)
}

/// Coverage over only the instructions simulated *after* `warm` (the
/// adversarial tail): deltas of the per-demand class counters, which are
/// monotone, so the shared warmup prefix cancels out exactly.
fn tail_coverage(warm: &RunResult, done: &RunResult) -> f64 {
    let demands = done.mem.classes.demands() - warm.mem.classes.demands();
    if demands == 0 {
        return 0.0;
    }
    let covered = (done.mem.classes.hit_prefetched - warm.mem.classes.hit_prefetched)
        + (done.mem.classes.shorter_wait - warm.mem.classes.shorter_wait);
    covered as f64 / demands as f64
}

/// Context-prefetcher self-reported accuracy over only the tail.
fn tail_accuracy(warm: &RunResult, done: &RunResult) -> f64 {
    let issued = done.pf.issued - warm.pf.issued;
    if issued == 0 {
        return 0.0;
    }
    (done.pf.useful - warm.pf.useful) as f64 / issued as f64
}

/// The fixed evaluation bench: one warmed engine per prefetcher kind over
/// the shared `mcf` warmup prefix. Building the bench simulates the warmup
/// once per kind; every subsequent [`AdvBench::eval`] only pays for its
/// own tail (via [`Engine::fork_onto`]). Shared by the search driver and
/// the pinned regression suite.
pub struct AdvBench {
    warmup_capture: Arc<CapturedTrace>,
    search: SearchConfig,
    /// Learned engine first, then the table baselines; each with its
    /// statistics snapshot at the warmup point, so candidate metrics can be
    /// computed over the tail alone.
    warm: Vec<(PrefetcherKind, Engine, RunResult)>,
}

/// The table baselines the learned prefetcher is scored against.
pub const BASELINES: [PrefetcherKind; 2] = [PrefetcherKind::GhbGdc, PrefetcherKind::Sms];

impl AdvBench {
    /// Warm one engine per kind (context + [`BASELINES`]) over the first
    /// `search.warmup` instructions of `mcf`.
    pub fn new(search: &SearchConfig, sim: &SimConfig) -> AdvBench {
        let mcf = kernel_by_name("mcf").expect("mcf is a registry kernel");
        let warmup_capture = Arc::new(capture_kernel(mcf.as_ref(), search.warmup));
        let cfg = sim.clone().with_budget(search.warmup + search.tail);
        let mut kinds = vec![PrefetcherKind::context()];
        kinds.extend(BASELINES.iter().cloned());
        let warm = kinds
            .into_iter()
            .map(|kind| {
                let mut e = Engine::new(ReplayKernel::new(warmup_capture.clone()), &kind, &cfg);
                e.run_to(search.warmup);
                // A throwaway fork's result = the statistics at the warmup
                // point (the paused engine itself stays unconsumed).
                let at_warmup = e.clone().finish();
                (kind, e, at_warmup)
            })
            .collect();
        AdvBench {
            warmup_capture: warmup_capture.clone(),
            search: search.clone(),
            warm,
        }
    }

    /// Evaluate one candidate: compose warmup + tail, fork every warmed
    /// engine onto the composed stream, run out, and score the gap.
    pub fn eval(&self, params: &AdvParams) -> io::Result<AdvScore> {
        let tail = Arc::new(capture_kernel(params.kernel().as_ref(), self.search.tail));
        let composed = ComposedKernel::new(
            "adv-candidate",
            vec![
                Phase::new(self.warmup_capture.clone(), self.search.warmup),
                Phase::new(tail.clone(), self.search.tail.min(tail.lanes.len() as u64)),
            ],
        );
        let capture = Arc::new(capture_kernel(
            &composed,
            self.search.warmup + self.search.tail,
        ));
        let mut learned = None;
        let mut best_base: Option<(&'static str, f64)> = None;
        for (kind, warm, at_warmup) in &self.warm {
            let mut e = warm.fork_onto(ReplayKernel::new(capture.clone()))?;
            e.run_to_end();
            let r = e.finish();
            let cov = tail_coverage(at_warmup, &r);
            if matches!(kind, PrefetcherKind::Context(_)) {
                learned = Some((tail_accuracy(at_warmup, &r), cov));
            } else {
                let better = match best_base {
                    None => true,
                    Some((_, b)) => cov > b,
                };
                if better {
                    best_base = Some((kind.label(), cov));
                }
            }
        }
        let (learned_accuracy, learned_coverage) = learned.expect("context engine in bench");
        let (best_baseline, best_baseline_coverage) = best_base.expect("baselines in bench");
        Ok(AdvScore {
            learned_accuracy,
            learned_coverage,
            best_baseline,
            best_baseline_coverage,
            gap: best_baseline_coverage - learned_coverage,
        })
    }
}

/// One candidate's evaluation on the bench.
#[derive(Clone, Copy, Debug)]
pub struct AdvScore {
    /// Context prefetcher self-reported accuracy over the adversarial tail.
    pub learned_accuracy: f64,
    /// Learned tail coverage (hit-prefetched + shorter-wait fraction of
    /// tail demands, classified by the memory system).
    pub learned_coverage: f64,
    /// Label of the baseline with the best tail coverage on this candidate.
    pub best_baseline: &'static str,
    /// That baseline's tail coverage.
    pub best_baseline_coverage: f64,
    /// `best_baseline_coverage − learned_coverage`: how far the learned
    /// prefetcher collapses below the best table baseline on this pattern.
    pub gap: f64,
}

/// Run the seeded adversarial search: for each family, evaluate the default
/// point, then hill-climb `search.iters` mutation proposals, keeping any
/// strict improvement of the resilience gap. Returns one finding per family
/// (≥3 distinct collapse patterns), in family order. Deterministic for a
/// fixed `(seed, search, sim)`.
pub fn adversarial_search(
    seed: u64,
    search: &SearchConfig,
    sim: &SimConfig,
) -> io::Result<Vec<AdvFinding>> {
    let bench = AdvBench::new(search, sim);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xad5e_a5c4);
    let mut findings = Vec::new();
    for start in AdvParams::defaults() {
        let mut best = start;
        let mut best_score = bench.eval(&best)?;
        let mut evals = 1u32;
        for _ in 0..search.iters {
            let cand = best.mutate(&mut rng);
            let score = bench.eval(&cand)?;
            evals += 1;
            if score.gap > best_score.gap {
                best = cand;
                best_score = score;
            }
        }
        findings.push(AdvFinding {
            family: best.family(),
            params: format!("{:?}", best.kernel()),
            learned_accuracy: best_score.learned_accuracy,
            learned_coverage: best_score.learned_coverage,
            best_baseline: best_score.best_baseline,
            best_baseline_coverage: best_score.best_baseline_coverage,
            gap: best_score.gap,
            evals,
        });
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SearchConfig {
        SearchConfig {
            warmup: 8_000,
            tail: 16_000,
            iters: 2,
        }
    }

    #[test]
    fn search_is_deterministic_under_seed() {
        let sim = SimConfig::default();
        let a = adversarial_search(7, &tiny(), &sim).expect("search runs");
        let b = adversarial_search(7, &tiny(), &sim).expect("search runs");
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.params, y.params);
            assert_eq!(x.gap.to_bits(), y.gap.to_bits());
            assert_eq!(x.evals, y.evals);
        }
    }

    #[test]
    fn search_covers_every_family_distinctly() {
        let sim = SimConfig::default();
        let f = adversarial_search(7, &tiny(), &sim).expect("search runs");
        let families: std::collections::BTreeSet<_> = f.iter().map(|x| x.family).collect();
        assert_eq!(families.len(), 3, "one finding per family");
        let params: std::collections::BTreeSet<_> = f.iter().map(|x| x.params.clone()).collect();
        assert_eq!(params.len(), 3, "three distinct parameter points");
        for x in &f {
            assert!(!x.params.is_empty());
            assert!((0.0..=1.0).contains(&x.learned_accuracy));
            assert!((0.0..=1.0).contains(&x.best_baseline_coverage));
        }
    }

    #[test]
    fn mutate_stays_in_family() {
        let mut rng = StdRng::seed_from_u64(3);
        for p in AdvParams::defaults() {
            for _ in 0..20 {
                assert_eq!(p.mutate(&mut rng).family(), p.family());
            }
        }
    }
}
