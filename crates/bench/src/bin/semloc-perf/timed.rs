//! Timed, untraced passes: the end-to-end measurement.
//!
//! Every pass builds a fresh [`TraceStore`], so no result is served from a
//! memo. Priming the store (capture + decode of every stream) is the
//! pass's set-up. Each matrix cell then runs on one thread through the
//! production [`Engine`], driven in fixed slices of instructions; one
//! slice is one timed operation. On the multi-core workload the operation
//! is one `McEngine::step_quantum` call. Operations are deterministic, so
//! op `i` of every pass is the same simulated work.

use std::time::Instant;

use semloc_harness::{mc_digest, Engine, McConfig, McEngine, RunResult, SimConfig, TraceStore};
use semloc_mem::SharedL2Stats;

use crate::workloads::{lineup, mc_scenarios, primed_kernels, McScenario, Scale, Workload};

/// One timed operation: a slice of a matrix cell, or one multi-core quantum.
#[derive(Clone, Copy, Debug)]
pub struct Op {
    pub ns: f64,
    pub instrs: u64,
    /// Index into [`Pass::groups`] of the digest that vouches for it.
    pub group: usize,
}

/// Everything one pass measured and simulated.
pub struct Pass {
    pub setup_s: f64,
    pub run_s: f64,
    pub instrs: u64,
    pub ops: Vec<Op>,
    /// Stats digest per cell (single-core) or per scenario (multi-core).
    pub groups: Vec<u64>,
    /// Digest of the whole pass.
    pub digest: u64,
    /// Every cell's (or core's) result, in op-group order for single-core.
    pub results: Vec<RunResult>,
    /// Shared-level counters per multi-core scenario.
    pub shared: Vec<SharedL2Stats>,
}

/// FNV-1a over a list of digests; over a matrix's cell digests in matrix
/// order it equals `Matrix::stats_digest`.
pub fn fold_digests(ds: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for d in ds {
        for b in d.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Run one pass of `w` against `store`, which should be fresh.
pub fn run_pass(w: Workload, seed: u64, scale: Scale, store: &TraceStore) -> Pass {
    let primed = primed_kernels(w, seed, scale);
    let t0 = Instant::now();
    for (k, budget) in &primed {
        store.replay(k.as_ref(), *budget);
    }
    if w == Workload::McSharedL2 {
        let scenarios = mc_scenarios(store, &primed, scale);
        let setup_s = t0.elapsed().as_secs_f64();
        return mc_pass(scenarios, setup_s);
    }
    let setup_s = t0.elapsed().as_secs_f64();

    // Cells kernel-major in lineup order: the evaluation matrix's order.
    let cfg = SimConfig::default().with_budget(scale.budget);
    let kinds = lineup(w);
    let mut ops = Vec::new();
    let mut results = Vec::new();
    let start = Instant::now();
    for (k, budget) in &primed {
        for kind in &kinds {
            let group = results.len();
            let mut t = Instant::now();
            let mut e = Engine::new(store.replay(k.as_ref(), *budget), kind, &cfg);
            loop {
                let before = e.cursor();
                e.run_to(before + scale.slice);
                let instrs = e.cursor() - before;
                if e.done() || instrs == 0 {
                    results.push(e.finish());
                    ops.push(Op {
                        ns: t.elapsed().as_nanos() as f64,
                        instrs,
                        group,
                    });
                    break;
                }
                let now = Instant::now();
                ops.push(Op {
                    ns: now.duration_since(t).as_nanos() as f64,
                    instrs,
                    group,
                });
                t = now;
            }
        }
    }
    let run_s = start.elapsed().as_secs_f64();
    let groups: Vec<u64> = results.iter().map(RunResult::stats_digest).collect();
    Pass {
        setup_s,
        run_s,
        instrs: results.iter().map(|r| r.cpu.instructions).sum(),
        ops,
        // Folded like `Matrix::stats_digest`, so the two agree.
        digest: fold_digests(&groups),
        groups,
        results,
        shared: Vec::new(),
    }
}

fn mc_pass(scenarios: Vec<McScenario>, setup_s: f64) -> Pass {
    // Every core runs its whole stream, with the default quantum and DRAM.
    let (cfg, mc) = (SimConfig::default().with_budget(0), McConfig::default());
    let mut ops = Vec::new();
    let mut groups = Vec::new();
    let mut results = Vec::new();
    let mut shared = Vec::new();
    let start = Instant::now();
    for (group, sc) in scenarios.into_iter().enumerate() {
        let mut e = McEngine::new(sc, &cfg, &mc);
        let consumed = |e: &McEngine| e.cores().iter().map(|c| c.cursor()).sum::<u64>();
        while !e.done() {
            let before = consumed(&e);
            let t = Instant::now();
            e.step_quantum();
            let ns = t.elapsed().as_nanos() as f64;
            ops.push(Op {
                ns,
                instrs: consumed(&e) - before,
                group,
            });
        }
        let (rs, sh) = e.finish();
        groups.push(mc_digest(&rs, &sh));
        results.extend(rs);
        shared.push(sh);
    }
    let run_s = start.elapsed().as_secs_f64();
    Pass {
        setup_s,
        run_s,
        instrs: results.iter().map(|r| r.cpu.instructions).sum(),
        ops,
        digest: fold_digests(&groups),
        groups,
        results,
        shared,
    }
}

/// Operations attempted and failed, and why.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Whether every op and every check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.notes.is_empty()
    }

    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed = (self.failed + ops).min(self.attempted);
        self.notes.push(why);
    }

    /// Count `pass`'s ops, failing every op whose group digest differs
    /// from `reference` (the warm-up pass of the same inputs), and all of
    /// them when the pass digest differs from `expected`.
    pub fn check_pass(&mut self, pass: &Pass, reference: &Pass, expected: Option<u64>) {
        self.attempted += pass.ops.len() as u64;
        if pass.ops.len() != reference.ops.len() {
            self.fail(
                pass.ops.len() as u64,
                format!(
                    "pass ran {} ops, the warm-up {}",
                    pass.ops.len(),
                    reference.ops.len()
                ),
            );
            return;
        }
        if let Some(want) = expected.filter(|&d| d != pass.digest) {
            self.fail(
                pass.ops.len() as u64,
                format!(
                    "pass digest {:#018x} differs from the pinned {want:#018x}",
                    pass.digest
                ),
            );
            return;
        }
        for (g, (got, want)) in pass.groups.iter().zip(&reference.groups).enumerate() {
            if got != want {
                let n = pass.ops.iter().filter(|o| o.group == g).count() as u64;
                self.fail(
                    n,
                    format!("group {g} digest {got:#018x} differs from the warm-up's {want:#018x}"),
                );
            }
        }
    }
}

/// The untraced measurement: a discarded warm-up pass, then a fixed number
/// of timed passes (see [`pass_count`]).
pub struct Measurement {
    pub passes: Vec<Pass>,
    pub tally: Tally,
}

impl Measurement {
    /// Each op's best (least) host ns across the timed passes, with its
    /// instruction count. Interference from other tenants of the host only
    /// ever adds time, so the best of several passes is the steadiest
    /// estimate of what the op itself costs.
    pub fn best_ops(&self) -> Vec<(f64, u64)> {
        let first = &self.passes[0].ops;
        first
            .iter()
            .enumerate()
            .map(|(i, op)| {
                // A pass that ran other ops than the warm-up already failed
                // its check; it contributes only the ops it shares.
                let best = self
                    .passes
                    .iter()
                    .filter_map(|p| p.ops.get(i).map(|o| o.ns))
                    .fold(f64::INFINITY, f64::min);
                (best, op.instrs)
            })
            .collect()
    }
}

/// Timed passes that fill `seconds` at `w`'s nominal pass time; at least one.
/// The count depends only on its arguments, never on measured speed.
pub fn pass_count(w: Workload, seconds: f64) -> usize {
    ((seconds / w.nominal_pass_s()).round() as usize).max(1)
}

/// The timed passes stop early, fewer than [`pass_count`], only once they
/// have taken this many times `seconds`: a cap that keeps a much slower
/// build inside the run's time limit.
pub const CAP_FACTOR: f64 = 2.0;

pub fn measure(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    expected: Option<u64>,
) -> Measurement {
    let warm = run_pass(w, seed, scale, &TraceStore::new());
    let mut tally = Tally::default();
    if let Some(want) = expected.filter(|&d| d != warm.digest) {
        tally.notes.push(format!(
            "warm-up digest {:#018x} differs from the pinned {want:#018x}",
            warm.digest
        ));
    }
    let mut passes = Vec::new();
    let t0 = Instant::now();
    for _ in 0..pass_count(w, seconds) {
        let pass = run_pass(w, seed, scale, &TraceStore::new());
        tally.check_pass(&pass, &warm, expected);
        passes.push(pass);
        if t0.elapsed().as_secs_f64() >= CAP_FACTOR * seconds {
            break;
        }
    }
    Measurement { passes, tally }
}
