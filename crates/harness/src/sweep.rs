//! Parameter sweeps: the Fig 13 storage sweep and the DESIGN.md ablations.

use semloc_bandit::scored::Replacement;
use semloc_bandit::BellReward;
use semloc_context::ContextConfig;
use semloc_workloads::KernelBox;

use crate::config::SimConfig;
use crate::matrix::Matrix;
use crate::pool::{pool_threads, run_sharded};
use crate::prefetchers::PrefetcherKind;
use crate::runner::run_kernel_with_store;
use crate::store::TraceStore;

/// Geometric mean of the positive values in `vals` (0.0 if there are
/// none). Every valid speedup is finite and positive.
pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in vals.into_iter().filter(|&v| v > 0.0) {
        sum += v.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
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
/// Uses the process-global [`TraceStore`] and [`pool_threads`] workers.
pub fn storage_sweep(
    kernels: &[KernelBox],
    sizes: &[usize],
    config: &SimConfig,
) -> Vec<SweepPoint> {
    storage_sweep_with_store(TraceStore::global(), kernels, sizes, config, pool_threads())
}

/// [`storage_sweep`] against an explicit [`TraceStore`], fanned out over
/// `threads` workers of the shard pool (see [`crate::pool`]). Every cell
/// goes through the store's full-run result memo, so each kernel's
/// no-prefetch baseline is simulated once for every size, and a matrix run
/// over the same store shares its cells with the sweep both ways. Cells
/// are deterministic and aggregated in job order, so the points are
/// bit-identical for any thread count.
pub fn storage_sweep_with_store(
    store: &TraceStore,
    kernels: &[KernelBox],
    sizes: &[usize],
    config: &SimConfig,
    threads: usize,
) -> Vec<SweepPoint> {
    // Phase 1: baselines and the Top-10 selection at the default size, as
    // a (none, context) matrix over the same store. Kernels with a
    // degenerate speedup (zero/non-finite IPC) drop out of the ranking.
    let base = Matrix::run_parallel_with_store(
        store,
        kernels,
        &[PrefetcherKind::context()],
        config,
        threads,
    );
    let top10 = base.top_n("context", 10);

    // Phase 2: the full (size, kernel) grid, size-major so the aggregation
    // below can consume whole rows in job order.
    let grid: Vec<(usize, usize)> = (0..sizes.len())
        .flat_map(|si| (0..kernels.len()).map(move |ki| (si, ki)))
        .collect();
    let cells = run_sharded(threads, grid, |(si, ki)| {
        let pf = PrefetcherKind::Context(ContextConfig::default().with_cst_entries(sizes[si]));
        run_kernel_with_store(store, kernels[ki].as_ref(), &pf, config)
    });

    let n = kernels.len();
    let mut points = Vec::new();
    for (si, &size) in sizes.iter().enumerate() {
        let mut all = Vec::new();
        let mut top = Vec::new();
        for (k, ctx) in kernels.iter().zip(&cells[si * n..(si + 1) * n]) {
            let none = base.get(k.name(), "none").expect("a baseline per kernel");
            let Ok(s) = ctx.speedup_over(none) else {
                continue;
            };
            all.push(s);
            if top10.contains(&k.name()) {
                top.push(s);
            }
        }
        points.push(SweepPoint {
            cst_entries: size,
            storage_bytes: ContextConfig::default()
                .with_cst_entries(size)
                .storage_bytes(),
            top10: geomean(top),
            all: geomean(all),
        });
    }
    points
}

/// The workloads the ablations are measured on: a fixed mix of
/// prefetcher-friendly and noisy workloads.
pub const ABLATION_KERNELS: [&str; 12] = [
    "list", "mcf", "omnetpp", "hmmer", "h264ref", "ssca_lds", "astar", "milc", "bst", "hashtest",
    "KNN", "bzip2",
];

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
    // positive window with no negative edges, close to a `StepReward`.
    // It keeps the bell form because its committed numbers are for that
    // shape.
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
            description: "history sampled at depth 30 only instead of six depths",
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
    use semloc_workloads::kernel_by_name;

    #[test]
    fn sweep_produces_monotone_storage() {
        let kernels = vec![kernel_by_name("list").unwrap()];
        let cfg = SimConfig::quick();
        let pts = storage_sweep(&kernels, &[256, 1024], &cfg);
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
        let pts_cold = storage_sweep_with_store(&cold, &kernels, &sizes, &cfg, 1);
        // A store where the matrix already ran the baseline and default
        // context cells: the sweep takes both from the memo, bit for bit...
        let warm = TraceStore::new();
        Matrix::run_with_store(&warm, &kernels, &[PrefetcherKind::context()], &cfg);
        let (hits_before, _) = warm.result_stats();
        let pts_warm = storage_sweep_with_store(&warm, &kernels, &sizes, &cfg, 1);
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
        storage_sweep_with_store(&warm, &kernels, &sizes, &cfg, 1);
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
    fn sweep_is_invariant_across_thread_counts() {
        let kernels = vec![
            kernel_by_name("array").unwrap(),
            kernel_by_name("list").unwrap(),
        ];
        let cfg = SimConfig::quick();
        let sweep = |threads| {
            let store = TraceStore::new();
            storage_sweep_with_store(&store, &kernels, &[256, 1024], &cfg, threads)
        };
        let one = sweep(1);
        for threads in [2, 4] {
            let many = sweep(threads);
            assert_eq!(one.len(), many.len());
            for (a, b) in one.iter().zip(&many) {
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
    fn geomean_of_positive_values() {
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!(
            (geomean([2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12,
            "non-positive values are skipped"
        );
        assert_eq!(geomean([]), 0.0);
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
