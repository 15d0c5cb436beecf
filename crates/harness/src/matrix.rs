//! The evaluation matrix: workloads × prefetchers, with the derived
//! aggregates the paper reports (geometric-mean speedups, Top-10 subsets,
//! memory-intensive filters).

use std::collections::BTreeMap;

use semloc_workloads::KernelBox;

use crate::config::SimConfig;
use crate::prefetchers::PrefetcherKind;
use crate::runner::{run_baseline_priming_probe, run_kernel_with_store, RunResult, SpeedupError};
use crate::store::TraceStore;

/// Results of a full run matrix. Always includes a `none` column as the
/// speedup baseline.
#[derive(Clone, Debug, Default)]
pub struct Matrix {
    /// `results[kernel][prefetcher]`.
    results: BTreeMap<&'static str, BTreeMap<&'static str, RunResult>>,
    kernel_order: Vec<&'static str>,
    pf_order: Vec<&'static str>,
}

impl Matrix {
    /// Shared setup for both runners: an empty matrix with the kernel and
    /// prefetcher display orders filled in, plus the full lineup (baseline
    /// `none` prepended to the requested prefetchers).
    ///
    /// # Panics
    ///
    /// Panics if two entries in the lineup share a display
    /// [`label`](PrefetcherKind::label) (e.g. `Context` and
    /// `ContextCalibrated`, which both render as `context`). Cells are
    /// keyed by label, so a duplicate would silently overwrite the earlier
    /// column's results — a hard error beats a wrong figure.
    fn prepare(
        kernels: &[KernelBox],
        prefetchers: &[PrefetcherKind],
    ) -> (Self, Vec<PrefetcherKind>) {
        let mut m = Matrix::default();
        let mut lineup = vec![PrefetcherKind::None];
        lineup.extend(prefetchers.iter().cloned());
        for pf in &lineup {
            assert!(
                !m.pf_order.contains(&pf.label()),
                "duplicate prefetcher label {:?} in matrix lineup ({:?} collides with an \
                 earlier entry); cells are keyed by label, so one column would silently \
                 overwrite the other",
                pf.label(),
                pf,
            );
            m.pf_order.push(pf.label());
        }
        for k in kernels {
            m.kernel_order.push(k.name());
        }
        (m, lineup)
    }

    /// Whether a `none` cell should pause at the calibration-probe budget
    /// and fork the warmed engine into the probe memo (the lineup contains
    /// a calibrated context column that will want that exact probe).
    fn run_cell(
        store: &TraceStore,
        kernel: &dyn semloc_workloads::Kernel,
        pf: &PrefetcherKind,
        wants_probe: bool,
        config: &SimConfig,
    ) -> RunResult {
        if wants_probe && matches!(pf, PrefetcherKind::None) {
            run_baseline_priming_probe(store, kernel, config)
        } else {
            run_kernel_with_store(store, kernel, pf, config)
        }
    }

    /// Run every kernel under the baseline plus each given prefetcher.
    /// See [`Matrix::prepare`]'s panic contract for lineup constraints.
    pub fn run(kernels: &[KernelBox], prefetchers: &[PrefetcherKind], config: &SimConfig) -> Self {
        Self::run_with_store(TraceStore::global(), kernels, prefetchers, config)
    }

    /// [`Matrix::run`] against an explicit [`TraceStore`]. When the lineup
    /// contains [`PrefetcherKind::ContextCalibrated`], the baseline column
    /// doubles as the calibration probe: each kernel's no-prefetch run
    /// pauses at the probe budget, forks its warmed engine state into the
    /// probe memo, and continues — so the probe prefix is simulated once
    /// per kernel instead of once per column.
    pub fn run_with_store(
        store: &TraceStore,
        kernels: &[KernelBox],
        prefetchers: &[PrefetcherKind],
        config: &SimConfig,
    ) -> Self {
        let (mut m, lineup) = Self::prepare(kernels, prefetchers);
        let wants_probe = lineup
            .iter()
            .any(|pf| matches!(pf, PrefetcherKind::ContextCalibrated(_)));
        for k in kernels {
            for pf in &lineup {
                let r = Self::run_cell(store, k.as_ref(), pf, wants_probe, config);
                m.results
                    .entry(k.name())
                    .or_default()
                    .insert(r.prefetcher, r);
            }
        }
        m
    }

    /// Like [`Matrix::run`], but fans the independent (kernel, prefetcher)
    /// simulations out over a work-stealing shard pool of `threads`
    /// workers (see [`crate::pool`]). Results are bit-identical to the
    /// sequential runner (every run is deterministic and isolated); only
    /// completion order differs. Workers share the process-global
    /// [`TraceStore`](crate::TraceStore), so each kernel's stream is
    /// generated once no matter how many columns consume it.
    pub fn run_parallel(
        kernels: &[KernelBox],
        prefetchers: &[PrefetcherKind],
        config: &SimConfig,
        threads: usize,
    ) -> Self {
        Self::run_parallel_with_store(TraceStore::global(), kernels, prefetchers, config, threads)
    }

    /// [`Matrix::run_parallel`] against an explicit [`TraceStore`]; see
    /// [`Matrix::run_with_store`] for the baseline-as-probe behaviour.
    pub fn run_parallel_with_store(
        store: &TraceStore,
        kernels: &[KernelBox],
        prefetchers: &[PrefetcherKind],
        config: &SimConfig,
        threads: usize,
    ) -> Self {
        let (mut m, lineup) = Self::prepare(kernels, prefetchers);
        let wants_probe = lineup
            .iter()
            .any(|pf| matches!(pf, PrefetcherKind::ContextCalibrated(_)));
        // One job per (kernel, prefetcher) cell, kernel-major so a worker's
        // own LIFO shard keeps it on one kernel's columns (and one warm
        // trace) for as long as possible.
        let jobs: Vec<(usize, usize)> = (0..kernels.len())
            .flat_map(|ki| (0..lineup.len()).map(move |pi| (ki, pi)))
            .collect();
        let results = crate::pool::run_sharded(threads, jobs, |(ki, pi)| {
            Self::run_cell(
                store,
                kernels[ki].as_ref(),
                &lineup[pi],
                wants_probe,
                config,
            )
        });
        for r in results {
            m.results
                .entry(r.kernel)
                .or_default()
                .insert(r.prefetcher, r);
        }
        m
    }

    /// Kernels in run order.
    pub fn kernels(&self) -> &[&'static str] {
        &self.kernel_order
    }

    /// Prefetchers in run order (baseline `none` first).
    pub fn prefetchers(&self) -> &[&'static str] {
        &self.pf_order
    }

    /// The result of (kernel, prefetcher), if present.
    pub fn get(&self, kernel: &str, prefetcher: &str) -> Option<&RunResult> {
        self.results.get(kernel)?.get(prefetcher)
    }

    /// Speedup of `prefetcher` on `kernel` over the no-prefetch baseline.
    /// Missing cells and degenerate IPCs are typed [`SpeedupError`]s.
    pub fn speedup(&self, kernel: &str, prefetcher: &str) -> Result<f64, SpeedupError> {
        let base = self.get(kernel, "none").ok_or(SpeedupError::MissingCell)?;
        self.get(kernel, prefetcher)
            .ok_or(SpeedupError::MissingCell)?
            .speedup_over(base)
    }

    /// Geometric-mean speedup of `prefetcher` across `kernels`. Every cell
    /// must yield a valid speedup; the first failure propagates (an empty
    /// kernel set is a [`SpeedupError::MissingCell`]). Valid speedups are
    /// always finite and positive, so the log-mean is well defined.
    pub fn geomean_speedup(&self, prefetcher: &str, kernels: &[&str]) -> Result<f64, SpeedupError> {
        if kernels.is_empty() {
            return Err(SpeedupError::MissingCell);
        }
        let mut log_sum = 0.0;
        for k in kernels {
            log_sum += self.speedup(k, prefetcher)?.ln();
        }
        Ok((log_sum / kernels.len() as f64).exp())
    }

    /// The `n` kernels that benefit most from `prefetcher` (the paper's
    /// "Top10" selection in Fig 13). Kernels without a valid speedup are
    /// excluded from the ranking.
    pub fn top_n(&self, prefetcher: &str, n: usize) -> Vec<&'static str> {
        let mut pairs: Vec<(&'static str, f64)> = self
            .kernel_order
            .iter()
            .filter_map(|&k| self.speedup(k, prefetcher).ok().map(|s| (k, s)))
            .collect();
        pairs.sort_by(|a, b| b.1.total_cmp(&a.1));
        pairs.into_iter().take(n).map(|(k, _)| k).collect()
    }

    /// Kernels whose baseline L1 MPKI (L2 MPKI if `l2`) exceeds
    /// `threshold` (Figs 10/11 filter to the memory-intensive subset).
    pub fn memory_intensive(&self, threshold: f64, l2: bool) -> Vec<&'static str> {
        self.kernel_order
            .iter()
            .filter(|&&k| {
                self.get(k, "none")
                    .map(|r| if l2 { r.l2_mpki() } else { r.l1_mpki() } > threshold)
                    .unwrap_or(false)
            })
            .copied()
            .collect()
    }

    /// Fold every cell's [`RunResult::stats_digest`] (kernel order, then
    /// prefetcher order) into one fingerprint of the whole matrix. Equal
    /// digests mean bit-identical simulation statistics; the golden-digest
    /// test pins this value across runner variants and hot-path rewrites.
    pub fn stats_digest(&self) -> u64 {
        let mut d = crate::runner::Digest::new();
        for r in self.iter() {
            d.u64(r.stats_digest());
        }
        d.finish()
    }

    /// All results, flattened (kernel order, then prefetcher order).
    pub fn iter(&self) -> impl Iterator<Item = &RunResult> {
        self.kernel_order
            .iter()
            .flat_map(move |k| self.pf_order.iter().filter_map(move |p| self.get(k, p)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_workloads::kernel_by_name;

    fn tiny_matrix() -> Matrix {
        let kernels = vec![
            kernel_by_name("array").unwrap(),
            kernel_by_name("list").unwrap(),
        ];
        Matrix::run(&kernels, &[PrefetcherKind::Stride], &SimConfig::quick())
    }

    #[test]
    fn matrix_contains_baseline_and_lineup() {
        let m = tiny_matrix();
        assert_eq!(m.prefetchers(), &["none", "stride"]);
        assert_eq!(m.kernels(), &["array", "list"]);
        assert!(m.get("array", "none").is_some());
        assert!(m.get("array", "stride").is_some());
        assert_eq!(m.iter().count(), 4);
    }

    #[test]
    fn speedups_and_geomean() {
        let m = tiny_matrix();
        let s = m.speedup("array", "stride").unwrap();
        assert!(s > 0.5);
        let g = m.geomean_speedup("stride", &["array", "list"]).unwrap();
        assert!(g > 0.0);
        // Geomean of baseline against itself is exactly 1.
        let g_none = m.geomean_speedup("none", &["array", "list"]).unwrap();
        assert!((g_none - 1.0).abs() < 1e-12);
        // Missing cells surface as typed errors, never silent zeros.
        assert_eq!(
            m.speedup("array", "ghb-gdc"),
            Err(SpeedupError::MissingCell)
        );
        assert_eq!(
            m.geomean_speedup("stride", &["array", "no-such-kernel"]),
            Err(SpeedupError::MissingCell)
        );
        assert_eq!(
            m.geomean_speedup("stride", &[]),
            Err(SpeedupError::MissingCell)
        );
    }

    #[test]
    #[should_panic(expected = "duplicate prefetcher label")]
    fn duplicate_labels_are_a_hard_error() {
        let kernels = vec![kernel_by_name("array").unwrap()];
        // Context and ContextCalibrated both display as "context": the
        // second column would silently overwrite the first.
        Matrix::run(
            &kernels,
            &[
                PrefetcherKind::context(),
                PrefetcherKind::context_calibrated(),
            ],
            &SimConfig::quick(),
        );
    }

    #[test]
    fn top_n_ranks_by_speedup() {
        let m = tiny_matrix();
        let top = m.top_n("stride", 1);
        assert_eq!(top.len(), 1);
        // Stride must help the array more than the scattered list.
        assert_eq!(top[0], "array");
    }

    #[test]
    fn parallel_matches_sequential() {
        let kernels = vec![
            kernel_by_name("array").unwrap(),
            kernel_by_name("list").unwrap(),
        ];
        let cfg = SimConfig::quick();
        let seq = Matrix::run(&kernels, &[PrefetcherKind::Stride], &cfg);
        let par = Matrix::run_parallel(&kernels, &[PrefetcherKind::Stride], &cfg, 4);
        for k in seq.kernels() {
            for p in seq.prefetchers() {
                let a = seq.get(k, p).unwrap();
                let b = par.get(k, p).unwrap();
                assert_eq!(a.cpu, b.cpu, "{k}/{p} differs between runners");
                assert_eq!(a.mem, b.mem);
            }
        }
    }

    #[test]
    fn calibrated_matrix_matches_standalone_runs() {
        // The baseline column doubles as the calibration probe (pause,
        // fork, continue) — which must be invisible in the results: every
        // cell is bit-identical to a standalone store-less run.
        let kernels = vec![kernel_by_name("list").unwrap()];
        let cfg = SimConfig::quick();
        let store = TraceStore::new();
        let m = Matrix::run_with_store(
            &store,
            &kernels,
            &[PrefetcherKind::context_calibrated()],
            &cfg,
        );
        for pf in [PrefetcherKind::None, PrefetcherKind::context_calibrated()] {
            let standalone = crate::runner::run_kernel_uncached(kernels[0].as_ref(), &pf, &cfg);
            let cell = m.get("list", pf.label()).unwrap();
            assert_eq!(cell.cpu, standalone.cpu, "{} cpu stats differ", pf.label());
            assert_eq!(cell.mem, standalone.mem, "{} mem stats differ", pf.label());
            assert_eq!(cell.stats_digest(), standalone.stats_digest());
        }
    }

    #[test]
    fn memory_intensive_filter() {
        let m = tiny_matrix();
        let heavy = m.memory_intensive(1.0, false);
        assert!(
            heavy.contains(&"list"),
            "scattered list is memory intensive"
        );
    }
}
