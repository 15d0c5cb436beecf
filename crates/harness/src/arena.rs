//! `semloc-arena` — a tournament over pipeline compositions.
//!
//! The trait layers in `crates/core` (feature sets, reward shapes, table
//! geometry) open a design space the paper only samples.
//! The arena sweeps a grid of [`PipelineConfig`] cells over a shared
//! [`TraceStore`] capture set, ranks them by geometric-mean speedup over
//! the no-prefetch baseline and reports IPC, prediction accuracy and
//! coverage per kernel.
//!
//! Two harness primitives carry the run:
//!
//! * every (cell, kernel) simulation **warm-starts**: an engine warms over
//!   the shared trace prefix, then [`Engine::fork_onto`] moves the trained
//!   state onto a fresh replay handle of the same capture. The fork goes
//!   through checkpoint/restore, so every composition's CTXP v2 snapshot
//!   round-trips on every arena run — and the verification subset
//!   (`VerifyMode`) digest-asserts the forked run against a cold run
//!   before anything is ranked;
//! * the independent cells fan out over the work-stealing shard pool
//!   ([`crate::pool`]), kernel-major so a worker stays on one kernel's
//!   warm trace; results are bit-identical to a sequential sweep.

use std::fmt::Write as _;

use semloc_context::{ContextConfig, FeatureSet, PipelineConfig};
use semloc_workloads::{kernel_by_name, KernelBox};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::interfere::coverage;
use crate::knob::Knob;
use crate::prefetchers::PrefetcherKind;
use crate::report::Table;
use crate::runner::{run_kernel_with_store, RunResult};
use crate::store::TraceStore;

/// Which (cell, kernel) runs are digest-asserted against a cold
/// (non-forked) run before ranking.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// No equivalence checks (fastest; the engine's own fork tests still
    /// cover the default composition).
    Off,
    /// The first cell of every kernel (default: one warm-vs-cold proof per
    /// trace at the cost of one extra run per kernel).
    #[default]
    First,
    /// Every cell (the exhaustive snapshot-equivalence sweep; roughly
    /// doubles the arena's work).
    All,
}

impl VerifyMode {
    /// Parse the `SEMLOC_ARENA_VERIFY` knob. Unknown values are a hard
    /// error — a typo'd knob should fail loudly, not silently skip the
    /// equivalence proof.
    pub fn parse(s: &str) -> Option<VerifyMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Some(VerifyMode::Off),
            "first" => Some(VerifyMode::First),
            "all" => Some(VerifyMode::All),
            _ => None,
        }
    }
}

/// Tournament parameters.
#[derive(Clone, Debug)]
pub struct ArenaOpts {
    /// Instruction budget per run.
    pub budget: u64,
    /// Warm-prefix length: each engine warms to this cursor before
    /// [`Engine::fork_onto`] moves its state onto the scored continuation.
    /// Clamped to half the budget so the fork always has a tail to run.
    pub warm: u64,
    /// Shard-pool width (see [`crate::pool::pool_threads`]).
    pub threads: usize,
    /// Warm-vs-cold digest verification subset.
    pub verify: VerifyMode,
}

impl Default for ArenaOpts {
    fn default() -> Self {
        ArenaOpts {
            budget: 120_000,
            warm: 20_000,
            threads: crate::pool::pool_threads(),
            verify: VerifyMode::default(),
        }
    }
}

impl ArenaOpts {
    /// The `semloc-arena` binary's options and workloads, from
    /// `SEMLOC_ARENA_BUDGET` (default 120 000), `SEMLOC_ARENA_WARM`
    /// (default budget / 6), `SEMLOC_ARENA_THREADS` (default
    /// [`crate::pool::pool_threads`]), `SEMLOC_ARENA_VERIFY` (default
    /// [`VerifyMode::First`]) and `SEMLOC_ARENA_KERNELS` (comma-separated,
    /// default `array,list,mcf`).
    ///
    /// # Panics
    ///
    /// Panics on a malformed knob, an unknown workload or an empty
    /// workload list.
    pub fn from_env() -> (ArenaOpts, Vec<KernelBox>) {
        let positive = |knob: Knob, default: u64| {
            knob.int(1..=u64::MAX)
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(default)
        };
        let budget = positive(Knob::ArenaBudget, 120_000);
        let opts = ArenaOpts {
            budget,
            warm: positive(Knob::ArenaWarm, budget / 6),
            threads: Knob::ArenaThreads
                .int(1..=u64::from(u32::MAX))
                .unwrap_or_else(|e| panic!("{e}"))
                .map_or_else(crate::pool::pool_threads, |t| t as usize),
            verify: Knob::ArenaVerify
                .text()
                .map_or_else(VerifyMode::default, |v| {
                    VerifyMode::parse(&v).unwrap_or_else(|| {
                        panic!("SEMLOC_ARENA_VERIFY must be off|first|all, got {v:?}")
                    })
                }),
        };
        let names = Knob::ArenaKernels
            .text()
            .unwrap_or_else(|| "array,list,mcf".into());
        let kernels: Vec<KernelBox> = names
            .split(',')
            .map(str::trim)
            .filter(|n| !n.is_empty())
            .map(|n| kernel_by_name(n).unwrap_or_else(|| panic!("unknown kernel {n:?}")))
            .collect();
        assert!(!kernels.is_empty(), "SEMLOC_ARENA_KERNELS selected nothing");
        (opts, kernels)
    }
}

/// One kernel's metrics under one cell.
#[derive(Clone, Debug)]
pub struct KernelScore {
    /// Workload name.
    pub kernel: &'static str,
    /// Speedup over the no-prefetch baseline.
    pub speedup: f64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Context-prefetcher prediction accuracy (0 when the cell kept no
    /// learning stats).
    pub accuracy: f64,
    /// Miss coverage vs. the baseline miss count.
    pub coverage: f64,
}

/// One cell's ranked tournament entry.
#[derive(Clone, Debug)]
pub struct CellScore {
    /// Cell label, e.g. `table1+bell+cst2048`.
    pub label: String,
    /// Geometric-mean speedup across all kernels.
    pub geomean: f64,
    /// Per-kernel metrics, in kernel order.
    pub kernels: Vec<KernelScore>,
}

/// The full tournament outcome, ranked best-first.
#[derive(Clone, Debug)]
pub struct ArenaReport {
    /// Cells sorted by descending geomean (ties broken by label, so the
    /// ranking is deterministic).
    pub cells: Vec<CellScore>,
    /// Kernel display order.
    pub kernels: Vec<&'static str>,
    /// Instruction budget per run.
    pub budget: u64,
    /// Warm-prefix length actually used (post-clamp).
    pub warm: u64,
    /// How many (cell, kernel) runs were digest-asserted against a cold
    /// run.
    pub verified: usize,
}

/// The default tournament grid: every feature set crossed with the three
/// qualitatively distinct reward shapes at the paper's Table-2 geometry,
/// plus the default composition at halved and doubled CST capacity. 14
/// cells; the first is exactly [`PipelineConfig::default`], so rank tables
/// always carry the paper's own pipeline as the reference row.
pub fn default_cells() -> Vec<PipelineConfig> {
    use semloc_bandit::{BellReward, GaussianPenaltyReward, PythiaLevelReward, RewardShape};
    let features = [
        FeatureSet::FullTable1,
        FeatureSet::PcOnly,
        FeatureSet::PcDeltas,
        FeatureSet::PythiaProgram,
    ];
    let rewards: [RewardShape; 3] = [
        BellReward::paper_default().into(),
        GaussianPenaltyReward::snippet_default().into(),
        PythiaLevelReward::pythia_default().into(),
    ];
    let mut cells = Vec::new();
    for f in features {
        for r in &rewards {
            cells.push(PipelineConfig {
                features: f,
                reward: r.clone(),
                ..PipelineConfig::default()
            });
        }
    }
    for entries in [1024usize, 4096] {
        cells.push(PipelineConfig {
            cst_entries: Some(entries),
            ..PipelineConfig::default()
        });
    }
    cells
}

/// Run the tournament: every cell × kernel, warm-start forked, ranked by
/// geomean speedup over the shared no-prefetch baselines.
///
/// # Panics
///
/// Panics if a verified cell's warm-forked run diverges from its cold run
/// (a snapshot-equivalence violation — never rank on top of it), or if a
/// run produces a degenerate IPC that admits no speedup.
pub fn arena_run(
    store: &TraceStore,
    kernels: &[KernelBox],
    cells: &[PipelineConfig],
    opts: &ArenaOpts,
) -> ArenaReport {
    let cfg = SimConfig::default().with_budget(opts.budget);
    let warm = opts.warm.min(opts.budget / 2).max(1);

    // Shared baselines: one no-prefetch run per kernel (also primes the
    // store's capture for every cell of that kernel).
    let baselines: Vec<RunResult> = kernels
        .iter()
        .map(|k| run_kernel_with_store(store, k.as_ref(), &PrefetcherKind::None, &cfg))
        .collect();

    // Kernel-major job order keeps a worker's LIFO shard on one kernel's
    // trace for as long as possible (same layout as the matrix runner).
    let jobs: Vec<(usize, usize)> = (0..kernels.len())
        .flat_map(|ki| (0..cells.len()).map(move |ci| (ci, ki)))
        .collect();
    let runs = crate::pool::run_sharded(opts.threads, jobs.clone(), |(ci, ki)| {
        let kernel = kernels[ki].as_ref();
        let kind = PrefetcherKind::Context(cells[ci].apply(ContextConfig::default()));
        let mut warm_engine = Engine::new(store.replay(kernel, cfg.instr_budget), &kind, &cfg);
        warm_engine.run_to(warm);
        let mut forked = warm_engine
            .fork_onto(store.replay(kernel, cfg.instr_budget))
            .expect("the fork target replays the same capture, so the prefix matches");
        forked.run_to_end();
        let r = forked.finish();
        let verify = match opts.verify {
            VerifyMode::Off => false,
            VerifyMode::First => ci == 0,
            VerifyMode::All => true,
        };
        if verify {
            let cold = run_kernel_with_store(store, kernel, &kind, &cfg);
            assert_eq!(
                r.stats_digest(),
                cold.stats_digest(),
                "warm-forked run of {}/{} diverged from the cold run — the \
                 composition's snapshot does not round-trip",
                cells[ci].label(),
                kernel.name(),
            );
        }
        (r, verify)
    });

    let verified = runs.iter().filter(|(_, v)| *v).count();
    let mut by_cell: Vec<Vec<Option<RunResult>>> = vec![vec![None; kernels.len()]; cells.len()];
    for (&(ci, ki), (r, _)) in jobs.iter().zip(runs) {
        by_cell[ci][ki] = Some(r);
    }

    let mut scored: Vec<CellScore> = cells
        .iter()
        .zip(by_cell)
        .map(|(cell, row)| {
            let kernels: Vec<KernelScore> = row
                .into_iter()
                .zip(&baselines)
                .map(|(r, base)| {
                    let r = r.expect("every (cell, kernel) job ran exactly once");
                    let speedup = r
                        .speedup_over(base)
                        .expect("arena runs retire instructions, so IPCs are finite");
                    KernelScore {
                        kernel: r.kernel,
                        speedup,
                        ipc: r.cpu.ipc(),
                        accuracy: r.learn.as_ref().map_or(0.0, |s| s.prediction_accuracy()),
                        coverage: coverage(&r),
                    }
                })
                .collect();
            let log_sum: f64 = kernels.iter().map(|k| k.speedup.ln()).sum();
            CellScore {
                label: cell.label(),
                geomean: (log_sum / kernels.len().max(1) as f64).exp(),
                kernels,
            }
        })
        .collect();
    scored.sort_by(|a, b| {
        b.geomean
            .total_cmp(&a.geomean)
            .then_with(|| a.label.cmp(&b.label))
    });

    ArenaReport {
        cells: scored,
        kernels: kernels.iter().map(|k| k.name()).collect(),
        budget: opts.budget,
        warm,
        verified,
    }
}

impl ArenaReport {
    /// Render the leaderboard as a text table: one row per cell, best
    /// first, with per-kernel speedup / IPC / accuracy / coverage.
    pub fn render(&self) -> String {
        let mut headers = vec!["#".to_string(), "cell".to_string(), "geomean".to_string()];
        headers.extend(self.kernels.iter().map(|k| k.to_string()));
        let mut t = Table::new(headers);
        for (rank, c) in self.cells.iter().enumerate() {
            let mut row = vec![
                format!("{}", rank + 1),
                c.label.clone(),
                format!("{:.4}", c.geomean),
            ];
            row.extend(c.kernels.iter().map(|k| {
                format!(
                    "{:.3}x i{:.2} a{:.0}% c{:.0}%",
                    k.speedup,
                    k.ipc,
                    k.accuracy * 100.0,
                    k.coverage * 100.0
                )
            }));
            t.row(row);
        }
        t.render()
    }

    /// Serialize the report (`BENCH_arena.json` layout): a ranked
    /// leaderboard array plus one object per cell with per-kernel metrics.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"leaderboard\": [\n");
        for (rank, c) in self.cells.iter().enumerate() {
            let _ = writeln!(
                out,
                "    {{\"rank\": {}, \"cell\": \"{}\", \"geomean\": {:.4}}}{}",
                rank + 1,
                c.label,
                c.geomean,
                if rank + 1 == self.cells.len() {
                    ""
                } else {
                    ","
                }
            );
        }
        out.push_str("  ],\n  \"cells\": {\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(out, "    \"{}\": {{\"geomean\": {:.4}", c.label, c.geomean);
            for k in &c.kernels {
                let _ = write!(
                    out,
                    ", \"{}\": {{\"speedup\": {:.4}, \"ipc\": {:.4}, \"accuracy\": {:.4}, \
                     \"coverage\": {:.4}}}",
                    k.kernel, k.speedup, k.ipc, k.accuracy, k.coverage
                );
            }
            let _ = writeln!(
                out,
                "}}{}",
                if i + 1 == self.cells.len() { "" } else { "," }
            );
        }
        let _ = writeln!(
            out,
            "  }},\n  \"meta\": {{\"instr_budget\": {}, \"warm_prefix\": {}, \"cells\": {}, \
             \"kernels\": {}, \"verified_runs\": {}, \
             \"note\": \"cells ranked by geomean speedup over the shared no-prefetch baseline; \
             every run warm-starts via Engine::fork_onto and the verified subset is \
             digest-asserted equal to cold runs\"}}\n}}",
            self.budget,
            self.warm,
            self.cells.len(),
            self.kernels.len(),
            self.verified
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_workloads::kernel_by_name;

    #[test]
    fn default_cells_cover_the_design_space() {
        let cells = default_cells();
        assert!(cells.len() >= 12, "tournament needs at least 12 cells");
        let labels: Vec<String> = cells.iter().map(|c| c.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "cell labels must be unique");
        assert_eq!(
            labels[0],
            PipelineConfig::default().label(),
            "the first cell is the paper's own composition"
        );
    }

    #[test]
    fn verify_mode_parses_its_knob() {
        assert_eq!(VerifyMode::parse(" ALL "), Some(VerifyMode::All));
        assert_eq!(VerifyMode::parse("first"), Some(VerifyMode::First));
        assert_eq!(VerifyMode::parse("off"), Some(VerifyMode::Off));
        assert_eq!(VerifyMode::parse("sometimes"), None);
    }

    #[test]
    fn arena_is_deterministic_and_warm_equals_cold() {
        // A reduced grid with exhaustive verification: every warm-forked
        // run is digest-asserted against its cold twin inside arena_run,
        // and two independent tournaments must render identically.
        let cells = vec![
            PipelineConfig::default(),
            PipelineConfig {
                reward: semloc_bandit::GaussianPenaltyReward::snippet_default().into(),
                features: FeatureSet::PcDeltas,
                ..PipelineConfig::default()
            },
        ];
        let kernels = vec![kernel_by_name("array").expect("registered")];
        let opts = ArenaOpts {
            budget: 40_000,
            warm: 10_000,
            threads: 2,
            verify: VerifyMode::All,
        };
        let a = arena_run(&TraceStore::new(), &kernels, &cells, &opts);
        let b = arena_run(&TraceStore::new(), &kernels, &cells, &opts);
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "tournaments must be deterministic"
        );
        assert_eq!(a.verified, cells.len() * kernels.len());
        for w in a.cells.windows(2) {
            assert!(
                w[0].geomean >= w[1].geomean,
                "leaderboard must be sorted best-first"
            );
        }
        assert!(a
            .cells
            .iter()
            .any(|c| c.label == PipelineConfig::default().label()));
        assert!(a.render().contains("geomean"));
    }
}
