//! Parameter sweeps: the Fig 13 storage sweep and the DESIGN.md ablations.

use semloc_bandit::scored::Replacement;
use semloc_bandit::BellReward;
use semloc_context::ContextConfig;
use semloc_workloads::KernelBox;

use crate::config::SimConfig;
use crate::prefetchers::PrefetcherKind;
use crate::runner::{run_kernel_with_store, RunResult};
use crate::store::TraceStore;
use semloc_workloads::Kernel;

/// Simulate one kernel's (no-prefetch baseline, context) pair against the
/// store's result memo. The shared setup block of both storage sweeps and
/// the arena tournament: keeping the pair in one helper keeps the memo
/// keys — and therefore the cross-runner sharing — aligned.
pub(crate) fn baseline_context_pair(
    store: &TraceStore,
    kernel: &dyn Kernel,
    config: &SimConfig,
    ctx_cfg: &ContextConfig,
) -> (RunResult, RunResult) {
    let base = run_kernel_with_store(store, kernel, &PrefetcherKind::None, config);
    let ctx = run_kernel_with_store(
        store,
        kernel,
        &PrefetcherKind::Context(ctx_cfg.clone()),
        config,
    );
    (base, ctx)
}

/// One point of the Fig 13 storage sweep.
#[derive(Clone, Debug)]
pub struct SweepPoint {
    /// CST entries at this point.
    pub cst_entries: usize,
    /// Total prefetcher storage in bytes.
    pub storage_bytes: usize,
    /// Geometric-mean speedup over the Top-10 subset.
    pub top10: f64,
    /// Geometric-mean speedup over all kernels.
    pub all: f64,
}

/// Run the Fig 13 storage sweep: scale the CST (with the reducer at 8×)
/// over `sizes` and measure geomean speedups for all kernels and the
/// Top-10 subset (selected at the default size, as the paper does).
/// Uses the process-global [`TraceStore`].
pub fn storage_sweep(
    kernels: &[KernelBox],
    sizes: &[usize],
    config: &SimConfig,
    progress: impl FnMut(usize),
) -> Vec<SweepPoint> {
    storage_sweep_with_store(TraceStore::global(), kernels, sizes, config, progress)
}

/// [`storage_sweep`] against an explicit [`TraceStore`]. Each kernel's
/// no-prefetch baseline is simulated once and memoized in the store's
/// full-run result memo — every sweep size reuses it (and a matrix run
/// over the same store contributes its cells too, and vice versa).
pub fn storage_sweep_with_store(
    store: &TraceStore,
    kernels: &[KernelBox],
    sizes: &[usize],
    config: &SimConfig,
    mut progress: impl FnMut(usize),
) -> Vec<SweepPoint> {
    // Baselines and Top-10 selection from the default configuration.
    // Kernels with a degenerate speedup (zero/non-finite IPC) are dropped
    // from the ranking instead of poisoning the sort.
    let default_cfg = ContextConfig::default();
    let mut bases = Vec::new();
    let mut default_speedups = Vec::new();
    for k in kernels {
        let (base, ctx) = baseline_context_pair(store, k.as_ref(), config, &default_cfg);
        if let Ok(s) = ctx.speedup_over(&base) {
            default_speedups.push((k.name(), s));
        }
        bases.push(base);
    }
    let mut ranked = default_speedups;
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top10: Vec<&str> = ranked.iter().take(10).map(|&(n, _)| n).collect();

    let geomean = |vals: &[f64]| -> f64 {
        let n = vals.len();
        if n == 0 {
            return 0.0;
        }
        (vals.iter().map(|v| v.ln()).sum::<f64>() / n as f64).exp()
    };

    let mut points = Vec::new();
    for &size in sizes {
        let cfg = ContextConfig::default().with_cst_entries(size);
        let storage = cfg.storage_bytes();
        let mut all = Vec::new();
        let mut top = Vec::new();
        for (i, k) in kernels.iter().enumerate() {
            let ctx = run_kernel_with_store(
                store,
                k.as_ref(),
                &PrefetcherKind::Context(cfg.clone()),
                config,
            );
            let Ok(s) = ctx.speedup_over(&bases[i]) else {
                continue;
            };
            all.push(s);
            if top10.contains(&k.name()) {
                top.push(s);
            }
        }
        points.push(SweepPoint {
            cst_entries: size,
            storage_bytes: storage,
            top10: geomean(&top),
            all: geomean(&all),
        });
        progress(size);
    }
    points
}

/// [`storage_sweep`] fanned out over the work-stealing shard pool
/// (see [`crate::pool`]): every independent cell — per-kernel baseline +
/// default-context pair, then every (size, kernel) context run — becomes a
/// pool job. Bit-identical to the sequential sweep: cells are
/// deterministic and the aggregation below walks them in the same order.
pub fn storage_sweep_parallel(
    kernels: &[KernelBox],
    sizes: &[usize],
    config: &SimConfig,
    threads: usize,
    progress: impl Fn(usize) + Sync,
) -> Vec<SweepPoint> {
    storage_sweep_parallel_with_store(
        TraceStore::global(),
        kernels,
        sizes,
        config,
        threads,
        progress,
    )
}

/// [`storage_sweep_parallel`] against an explicit [`TraceStore`]; see
/// [`storage_sweep_with_store`] for the memoization contract (shared with
/// matrix runs over the same store).
pub fn storage_sweep_parallel_with_store(
    store: &TraceStore,
    kernels: &[KernelBox],
    sizes: &[usize],
    config: &SimConfig,
    threads: usize,
    progress: impl Fn(usize) + Sync,
) -> Vec<SweepPoint> {
    // Phase 1: per-kernel (baseline, default-context) pairs for the Top-10
    // selection. One job per kernel keeps the pair on one warm trace.
    let default_cfg = ContextConfig::default();
    let pairs = crate::pool::run_sharded(threads, (0..kernels.len()).collect(), |ki| {
        baseline_context_pair(store, kernels[ki].as_ref(), config, &default_cfg)
    });
    let mut bases = Vec::new();
    let mut ranked = Vec::new();
    for (k, (base, ctx)) in kernels.iter().zip(pairs) {
        if let Ok(s) = ctx.speedup_over(&base) {
            ranked.push((k.name(), s));
        }
        bases.push(base);
    }
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top10: Vec<&str> = ranked.iter().take(10).map(|&(n, _)| n).collect();

    // Phase 2: the full (size, kernel) grid, size-major so the aggregation
    // below can consume whole rows in job order.
    let grid: Vec<(usize, usize)> = (0..sizes.len())
        .flat_map(|si| (0..kernels.len()).map(move |ki| (si, ki)))
        .collect();
    let cells = crate::pool::run_sharded(threads, grid, |(si, ki)| {
        let cfg = ContextConfig::default().with_cst_entries(sizes[si]);
        run_kernel_with_store(
            store,
            kernels[ki].as_ref(),
            &PrefetcherKind::Context(cfg),
            config,
        )
    });

    let geomean = |vals: &[f64]| -> f64 {
        let n = vals.len();
        if n == 0 {
            return 0.0;
        }
        (vals.iter().map(|v| v.ln()).sum::<f64>() / n as f64).exp()
    };

    let mut points = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        let storage = ContextConfig::default()
            .with_cst_entries(size)
            .storage_bytes();
        let mut all = Vec::new();
        let mut top = Vec::new();
        for (ki, k) in kernels.iter().enumerate() {
            let ctx = &cells[si * kernels.len() + ki];
            let Ok(s) = ctx.speedup_over(&bases[ki]) else {
                continue;
            };
            all.push(s);
            if top10.contains(&k.name()) {
                top.push(s);
            }
        }
        points.push(SweepPoint {
            cst_entries: size,
            storage_bytes: storage,
            top10: geomean(&top),
            all: geomean(&all),
        });
        progress(size);
    }
    points
}

/// A named ablation of the context prefetcher (the design decisions
/// DESIGN.md §6 calls out).
#[derive(Clone, Debug)]
pub struct AblationVariant {
    /// Variant name.
    pub name: &'static str,
    /// What the variant changes.
    pub description: &'static str,
    /// The modified configuration.
    pub config: ContextConfig,
}

/// The ablation lineup: baseline plus one modification each.
pub fn ablation_variants() -> Vec<AblationVariant> {
    let base = ContextConfig::default();
    // The flat-reward variant removes the bell's shaping: a uniform
    // positive window with no negative edges (approximating
    // [`StepReward`] while keeping one reward type in the config).
    let mut flat = base.clone();
    flat.reward = BellReward::new(1, 127, 16, 0, -4).into();

    let mut frozen = base.clone();
    frozen.freeze_reducer = true;

    let mut no_shadow = base.clone();
    no_shadow.disable_shadow = true;

    let mut sparse = base.clone();
    sparse.sample_depths = vec![30];

    let mut fifo = base.clone();
    fifo.replacement = Replacement::Fifo;

    let mut no_split = base.clone();
    no_split.split_strength_bar = i8::MIN; // nothing ever counts as weak

    let mut wide = base.clone();
    wide.delta_bits = 16;

    vec![
        AblationVariant {
            name: "baseline",
            description: "paper configuration",
            config: base,
        },
        AblationVariant {
            name: "flat-reward",
            description: "no bell shape: uniform positive window 1..127, no negative edges",
            config: flat,
        },
        AblationVariant {
            name: "frozen-reducer",
            description: "dynamic feature selection disabled (fixed 4-attribute contexts)",
            config: frozen,
        },
        AblationVariant {
            name: "no-shadow",
            description: "no deliberate shadow prefetches (exploration off)",
            config: no_shadow,
        },
        AblationVariant {
            name: "single-depth",
            description: "history sampled at one depth instead of twelve",
            config: sparse,
        },
        AblationVariant {
            name: "fifo-replacement",
            description: "CST links replaced FIFO instead of lowest-score",
            config: fifo,
        },
        AblationVariant {
            name: "no-split-signal",
            description:
                "shared-and-weak context splitting disabled (only proven-eviction overload)",
            config: no_split,
        },
        AblationVariant {
            name: "wide-delta",
            description:
                "EXTENSION: 16-bit deltas (+-1 MB reach) relaxing the paper's +-4 kB range limit",
            config: wide,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use semloc_workloads::kernel_by_name;

    #[test]
    fn sweep_produces_monotone_storage() {
        let kernels = vec![kernel_by_name("list").unwrap()];
        let cfg = SimConfig::quick();
        let pts = storage_sweep(&kernels, &[256, 1024], &cfg, |_| {});
        assert_eq!(pts.len(), 2);
        assert!(pts[1].storage_bytes > pts[0].storage_bytes);
        assert!(pts.iter().all(|p| p.all > 0.0 && p.top10 > 0.0));
    }

    #[test]
    fn sweep_reuses_memoized_results() {
        let kernels = vec![kernel_by_name("list").unwrap()];
        let cfg = SimConfig::quick();
        let sizes = [256, 1024];
        // A fresh store: every cell the sweep needs simulates.
        let cold = TraceStore::new();
        let pts_cold = storage_sweep_with_store(&cold, &kernels, &sizes, &cfg, |_| {});
        // A store where the matrix already ran the baseline and default
        // context cells: the sweep takes both from the memo, bit for bit...
        let warm = TraceStore::new();
        Matrix::run_with_store(&warm, &kernels, &[PrefetcherKind::context()], &cfg, |_| {});
        let (hits_before, _) = warm.result_stats();
        let pts_warm = storage_sweep_with_store(&warm, &kernels, &sizes, &cfg, |_| {});
        let (hits_after, _) = warm.result_stats();
        assert_eq!(
            hits_after - hits_before,
            2,
            "the sweep must reuse the matrix's baseline and context cells"
        );
        assert_eq!(pts_cold.len(), pts_warm.len());
        for (a, b) in pts_cold.iter().zip(&pts_warm) {
            assert_eq!(
                a.all.to_bits(),
                b.all.to_bits(),
                "memoized matrix cells changed the sweep"
            );
            assert_eq!(a.top10.to_bits(), b.top10.to_bits());
        }
        // ...and a second sweep over the same store simulates nothing new.
        let (_, misses_before) = warm.result_stats();
        storage_sweep_with_store(&warm, &kernels, &sizes, &cfg, |_| {});
        let (hits, misses_after) = warm.result_stats();
        assert_eq!(
            misses_after, misses_before,
            "second sweep must be memo-only"
        );
        assert!(
            hits - hits_after >= 4,
            "baseline + context runs must hit the memo"
        );
    }

    #[test]
    fn parallel_sweep_matches_sequential_bitwise() {
        let kernels = vec![
            kernel_by_name("array").unwrap(),
            kernel_by_name("list").unwrap(),
        ];
        let cfg = SimConfig::quick();
        let seq_store = TraceStore::new();
        let seq = storage_sweep_with_store(&seq_store, &kernels, &[256, 1024], &cfg, |_| {});
        for threads in [1, 4] {
            let par_store = TraceStore::new();
            let par = storage_sweep_parallel_with_store(
                &par_store,
                &kernels,
                &[256, 1024],
                &cfg,
                threads,
                |_| {},
            );
            assert_eq!(seq.len(), par.len());
            for (a, b) in seq.iter().zip(&par) {
                assert_eq!(a.cst_entries, b.cst_entries);
                assert_eq!(a.storage_bytes, b.storage_bytes);
                assert_eq!(
                    a.all.to_bits(),
                    b.all.to_bits(),
                    "shard pool changed the sweep ({threads} threads)"
                );
                assert_eq!(a.top10.to_bits(), b.top10.to_bits());
            }
        }
    }

    #[test]
    fn ablations_are_distinct_and_valid() {
        let variants = ablation_variants();
        assert!(variants.len() >= 6);
        let names: std::collections::BTreeSet<_> = variants.iter().map(|v| v.name).collect();
        assert_eq!(names.len(), variants.len());
        for v in &variants {
            v.config.validate();
        }
        assert!(variants.iter().any(|v| v.config.freeze_reducer));
        assert!(variants.iter().any(|v| v.config.disable_shadow));
    }
}
