//! Shared plumbing for the figure/table binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §4 for the experiment index). They all honour the
//! `SEMLOC_BUDGET` environment variable (dynamic instructions per run) and
//! print plain-text tables comparable to the paper's plots.

use semloc_harness::{Matrix, PrefetcherKind, SimConfig};
use semloc_workloads::KernelBox;

/// Print a standard figure banner: what the paper shows, what to compare.
pub fn banner(id: &str, title: &str, paper: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("paper reference: {paper}");
    println!("==============================================================");
}

/// The full comparison lineup used by most figures: the paper's competitors
/// (GHB G/DC, GHB PC/DC, SMS) plus stride and the context prefetcher.
pub fn full_lineup() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::context(),
    ]
}

/// Run a matrix on the shard pool (sized by `SEMLOC_POOL_THREADS`, else
/// one worker per available core) with progress lines on stderr.
pub fn run_matrix(kernels: &[KernelBox], lineup: &[PrefetcherKind], cfg: &SimConfig) -> Matrix {
    let total = kernels.len() * (lineup.len() + 1);
    let threads = semloc_harness::pool_threads();
    let done = std::sync::atomic::AtomicUsize::new(0);
    Matrix::run_parallel(kernels, lineup, cfg, threads, |r| {
        let d = done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        eprintln!(
            "[{d}/{total}] {} / {}: ipc {:.3}",
            r.kernel,
            r.prefetcher,
            r.cpu.ipc()
        );
    })
}

/// Geometric mean helper.
pub fn geomean(vals: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in vals {
        if v > 0.0 {
            sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_ones_is_one() {
        assert!((geomean([1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }

    #[test]
    fn lineup_has_five_prefetchers() {
        assert_eq!(full_lineup().len(), 5);
    }
}
