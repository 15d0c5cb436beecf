//! Single-run driver: workload × prefetcher × configuration → statistics.

use std::io;

use semloc_context::{ContextConfig, ContextPrefetcher, ContextStats};
use semloc_cpu::{Cpu, CpuStats};
use semloc_mem::{Fork, Hierarchy, MemStats, Prefetcher, PrefetcherStats};
use semloc_trace::{fnv1a, snap_err, SnapReader, SnapWriter, Snapshot, FNV_OFFSET};
use semloc_workloads::Kernel;

use crate::config::SimConfig;
use crate::engine::{fingerprint, Engine};
use crate::prefetchers::PrefetcherKind;
use crate::store::TraceStore;

/// Version of the `RRES` frame: a finished cell's engine fingerprint and
/// result.
const RESULT_VERSION: u32 = 2;

/// Everything measured in one simulated run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunResult {
    /// Workload name.
    pub kernel: &'static str,
    /// Prefetcher name.
    pub prefetcher: &'static str,
    /// Core statistics (IPC, CPI, instruction mix).
    pub cpu: CpuStats,
    /// Memory-system statistics (MPKI, access classes).
    pub mem: MemStats,
    /// Generic prefetcher counters.
    pub pf: PrefetcherStats,
    /// Context-prefetcher learning statistics (hit-depth CDF, convergence),
    /// when the context prefetcher ran.
    pub learn: Option<ContextStats>,
    /// Prefetcher storage budget in bytes.
    pub storage_bytes: usize,
}

/// Why a speedup could not be computed. Speedups are IPC ratios; a zero or
/// non-finite IPC would silently poison every aggregate built on top
/// (geomeans, Top-N rankings), so the accessors surface the
/// degenerate cases as typed errors instead of returning `0.0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpeedupError {
    /// The baseline run's IPC is zero — the ratio is undefined.
    ZeroBaselineIpc,
    /// An IPC involved is NaN, infinite, or zero, so no meaningful ratio
    /// exists (e.g. a run that retired no instructions).
    NonFiniteIpc,
    /// The matrix holds no result for the requested (kernel, prefetcher)
    /// cell.
    MissingCell,
}

impl std::fmt::Display for SpeedupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpeedupError::ZeroBaselineIpc => write!(f, "baseline IPC is zero"),
            SpeedupError::NonFiniteIpc => write!(f, "IPC is zero or non-finite"),
            SpeedupError::MissingCell => write!(f, "no result for the requested matrix cell"),
        }
    }
}

impl std::error::Error for SpeedupError {}

impl RunResult {
    /// Speedup of this run relative to `baseline` (same kernel, usually
    /// the no-prefetch run): ratio of IPCs. Degenerate IPCs (zero or
    /// non-finite on either side) are a typed [`SpeedupError`], never a
    /// silent `0.0`.
    pub fn speedup_over(&self, baseline: &RunResult) -> Result<f64, SpeedupError> {
        let b = baseline.cpu.ipc();
        let s = self.cpu.ipc();
        if !b.is_finite() || !s.is_finite() || s == 0.0 {
            return Err(SpeedupError::NonFiniteIpc);
        }
        if b == 0.0 {
            return Err(SpeedupError::ZeroBaselineIpc);
        }
        Ok(s / b)
    }

    /// L1 misses per kilo-instruction.
    pub fn l1_mpki(&self) -> f64 {
        self.mem.l1_mpki(self.cpu.instructions)
    }

    /// L2 misses per kilo-instruction.
    pub fn l2_mpki(&self) -> f64 {
        self.mem.l2_mpki(self.cpu.instructions)
    }

    /// Order-independent fingerprint of every observable counter of this
    /// run (`cpu` and `mem`, field by field). Two runs with the same digest
    /// produced bit-identical simulation results; the golden-digest tests
    /// pin these across runner variants and hot-path rewrites.
    pub fn stats_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.str(self.kernel);
        d.str(self.prefetcher);
        let c = &self.cpu;
        for v in [
            c.instructions,
            c.cycles,
            c.loads,
            c.stores,
            c.branches,
            c.mispredicts,
        ] {
            d.u64(v);
        }
        let m = &self.mem;
        for v in [
            m.demand_accesses,
            m.l1_misses,
            m.l1_mshr_merges,
            m.l2_misses,
            m.prefetches_issued,
            m.prefetches_rejected,
            m.prefetches_filtered,
            m.writebacks,
        ] {
            d.u64(v);
        }
        let k = &m.classes;
        for v in [
            k.hit_prefetched,
            k.shorter_wait,
            k.non_timely,
            k.miss_not_prefetched,
            k.hit_older_demand,
            k.prefetch_never_hit,
        ] {
            d.u64(v);
        }
        d.finish()
    }

    /// Serialize this result as an `RRES` frame, the on-disk record of the
    /// finished cell whose engine has `fingerprint` (see [`TraceStore`]).
    pub(crate) fn to_frame(&self, fingerprint: u64) -> Vec<u8> {
        let mut w = SnapWriter::framed(*b"RRES", RESULT_VERSION);
        w.put_u64(fingerprint);
        w.put_len(self.kernel.len());
        w.put_bytes(self.kernel.as_bytes());
        w.put_len(self.prefetcher.len());
        w.put_bytes(self.prefetcher.as_bytes());
        self.cpu.save(&mut w);
        self.mem.save(&mut w);
        self.pf.save(&mut w);
        w.put_bool(self.learn.is_some());
        if let Some(l) = &self.learn {
            l.save(&mut w);
        }
        w.put_u64(self.storage_bytes as u64);
        w.into_frame()
    }

    /// Parse an `RRES` frame written by [`RunResult::to_frame`]. The
    /// embedded fingerprint, kernel and prefetcher names must match the
    /// expected cell (names live in the registry as `&'static str`s, so the
    /// caller supplies the identities it is looking up and the frame merely
    /// confirms them).
    pub(crate) fn from_frame(
        bytes: &[u8],
        fingerprint: u64,
        kernel: &'static str,
        prefetcher: &'static str,
    ) -> io::Result<RunResult> {
        let mut r = SnapReader::framed(bytes, *b"RRES", RESULT_VERSION)?;
        let fp = r.get_u64()?;
        if fp != fingerprint {
            return Err(snap_err(format!(
                "result frame is for engine {fp:#018x}, not {fingerprint:#018x}"
            )));
        }
        let n = r.get_len()?;
        if r.get_bytes(n)? != kernel.as_bytes() {
            return Err(snap_err(format!(
                "result snapshot is not for kernel {kernel}"
            )));
        }
        let n = r.get_len()?;
        if r.get_bytes(n)? != prefetcher.as_bytes() {
            return Err(snap_err(format!(
                "result snapshot is not for prefetcher {prefetcher}"
            )));
        }
        let mut cpu = CpuStats::default();
        cpu.restore(&mut r)?;
        let mut mem = MemStats::default();
        mem.restore(&mut r)?;
        let mut pf = PrefetcherStats::default();
        pf.restore(&mut r)?;
        let learn = if r.get_bool()? {
            let mut l = ContextStats::default();
            l.restore(&mut r)?;
            Some(l)
        } else {
            None
        };
        let storage_bytes = r.get_u64()? as usize;
        r.expect_end()?;
        Ok(RunResult {
            kernel,
            prefetcher,
            cpu,
            mem,
            pf,
            learn,
            storage_bytes,
        })
    }
}

/// FNV-1a accumulator used for stats digests (stable across platforms —
/// no dependence on `Hash` implementations or struct layout).
pub(crate) struct Digest(u64);

impl Digest {
    pub(crate) fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.0 = fnv1a(self.0, &v.to_le_bytes());
    }

    /// Fold `s` plus a `0xff` terminator (never a UTF-8 byte), so adjacent
    /// strings cannot run together.
    pub(crate) fn str(&mut self, s: &str) {
        self.0 = fnv1a(fnv1a(self.0, s.as_bytes()), &[0xff]);
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Run `kernel` under `prefetcher` with `config`, through the process-global
/// [`TraceStore`]: the kernel's instruction stream is captured on first use
/// and replayed (bit-identically — see the golden-digest test) for every
/// subsequent run of the same configuration.
/// ```rust
/// use semloc_harness::{run_kernel, PrefetcherKind, SimConfig};
/// use semloc_workloads::kernel_by_name;
///
/// let cfg = SimConfig::default().with_budget(20_000);
/// let kernel = kernel_by_name("array").expect("registered");
/// let result = run_kernel(kernel.as_ref(), &PrefetcherKind::Stride, &cfg);
/// assert!(result.cpu.ipc() > 0.0);
/// ```
pub fn run_kernel(
    kernel: &dyn Kernel,
    prefetcher: &PrefetcherKind,
    config: &SimConfig,
) -> RunResult {
    run_kernel_with_store(TraceStore::global(), kernel, prefetcher, config)
}

/// [`run_kernel`] against an explicit [`TraceStore`] (the global store is
/// just a shared instance of this). Useful for benchmarks and tests that
/// need an isolated store.
///
/// The store answers a cell it holds: from memory, else from the cell's
/// `RRES` file, looked up by the engine fingerprint before anything is
/// captured. Otherwise the cell runs through the [`Engine`] to the end, and
/// its result goes into the store, in memory and on disk when the store
/// has a result directory. Runs are deterministic, so a stored result is
/// bit-identical to recomputation.
pub fn run_kernel_with_store(
    store: &TraceStore,
    kernel: &dyn Kernel,
    prefetcher: &PrefetcherKind,
    config: &SimConfig,
) -> RunResult {
    let fp = fingerprint(&kernel.trace_key(), prefetcher, config);
    if let Some(r) = store.result(fp, kernel.name(), prefetcher.label()) {
        return r;
    }
    let mut engine = Engine::new(
        store.replay(kernel, config.instr_budget),
        prefetcher,
        config,
    );
    engine.run_to_end();
    let r = engine.finish();
    store.save_result(fp, &r);
    r
}

/// `base` with its reward window calibrated to `kernel`'s target prefetch
/// distance (§4.3): `L1 miss penalty × IPC × Prob(mem op)`, measured by a
/// no-prefetch probe over a quarter of `config`'s budget (clamped to a
/// useful measurement window), then applied with
/// [`ContextConfig::calibrated`]. The probe is an ordinary `none` cell
/// through [`run_kernel`], so the result memo serves every later request
/// for it.
pub fn calibrated_context(
    kernel: &dyn Kernel,
    base: ContextConfig,
    config: &SimConfig,
) -> ContextConfig {
    let probe_cfg = SimConfig {
        instr_budget: (config.instr_budget / 4).clamp(40_000, 150_000),
        ..config.clone()
    };
    let probe = run_kernel(kernel, &PrefetcherKind::None, &probe_cfg);
    let penalty = config.mem.l1_miss_penalty(probe.mem.l2_miss_rate());
    base.calibrated(penalty * probe.cpu.ipc() * probe.cpu.mem_fraction())
}

/// [`run_kernel`] without the trace store: drives the workload generator
/// directly, with no capture, replay or stored result. Tests use
/// it as the reference that every store-backed path must reproduce bit for
/// bit.
pub fn run_kernel_uncached(
    kernel: &dyn Kernel,
    prefetcher: &PrefetcherKind,
    config: &SimConfig,
) -> RunResult {
    let hierarchy = Hierarchy::new(config.mem.clone(), prefetcher.build());
    let mut cpu = Cpu::new(config.cpu.clone(), hierarchy, config.instr_budget);
    kernel.run(&mut cpu);
    collect_result(kernel.name(), prefetcher.label(), cpu)
}

/// Finalize a driven simulator into a [`RunResult`]: drain in-flight
/// prefetcher state, then harvest CPU, memory, prefetcher, and (for the
/// context prefetcher) learning statistics. Shared by
/// [`run_kernel_uncached`] and [`Engine::finish`] so both paths produce
/// bit-identical results.
pub(crate) fn collect_result(
    kernel: &'static str,
    prefetcher: &'static str,
    cpu: Cpu<Box<dyn Fork>>,
) -> RunResult {
    let (cpu_stats, mut mem) = cpu.finish();
    let learn = mem
        .prefetcher()
        .as_any()
        .and_then(|a| a.downcast_ref::<ContextPrefetcher>())
        .map(|p| p.learn_stats().clone());
    let pf = mem.prefetcher().stats();
    let storage = mem.prefetcher().storage_bytes();
    let mem_stats = *mem.stats();
    let _ = mem.prefetcher_mut();
    RunResult {
        kernel,
        prefetcher,
        cpu: cpu_stats,
        mem: mem_stats,
        pf,
        learn,
        storage_bytes: storage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_workloads::kernel_by_name;

    fn quick() -> SimConfig {
        SimConfig::quick()
    }

    #[test]
    fn baseline_run_produces_sane_stats() {
        let k = kernel_by_name("array").unwrap();
        let r = run_kernel(k.as_ref(), &PrefetcherKind::None, &quick());
        assert_eq!(r.kernel, "array");
        assert_eq!(r.prefetcher, "none");
        assert!(r.cpu.instructions >= quick().instr_budget);
        assert!(r.cpu.ipc() > 0.0);
        assert!(r.l1_mpki() > 0.0, "a cold array scan must miss");
        assert!(r.learn.is_none());
    }

    #[test]
    fn context_run_exposes_learning_stats() {
        let k = kernel_by_name("list").unwrap();
        let r = run_kernel(k.as_ref(), &PrefetcherKind::context(), &quick());
        let learn = r
            .learn
            .expect("context prefetcher must expose learning stats");
        assert!(learn.collected > 0, "collection unit never fired");
        assert!(r.storage_bytes > 0);
    }

    #[test]
    fn context_speeds_up_linked_list_traversal() {
        let k = kernel_by_name("list").unwrap();
        let cfg = SimConfig::default().with_budget(300_000);
        let base = run_kernel(k.as_ref(), &PrefetcherKind::None, &cfg);
        let ctx = run_kernel(k.as_ref(), &PrefetcherKind::context(), &cfg);
        let speedup = ctx.speedup_over(&base).expect("both IPCs are finite");
        assert!(
            speedup > 1.05,
            "context prefetcher should accelerate the scattered list (got {speedup:.3}x)"
        );
    }

    #[test]
    fn stride_covers_array_streaming_misses() {
        // The array scan is DRAM-bandwidth-bound in steady state, so IPC
        // barely moves for any prefetcher; what stride must do is convert
        // essentially every demand miss into a prefetch hit or an in-flight
        // merge.
        let k = kernel_by_name("array").unwrap();
        let cfg = SimConfig::default().with_budget(200_000);
        let base = run_kernel(k.as_ref(), &PrefetcherKind::None, &cfg);
        let stride = run_kernel(k.as_ref(), &PrefetcherKind::Stride, &cfg);
        assert!(
            stride.l1_mpki() < base.l1_mpki() / 5.0,
            "stride must eliminate stream misses ({} vs {})",
            stride.l1_mpki(),
            base.l1_mpki()
        );
        assert!(
            stride.speedup_over(&base).expect("finite IPCs") > 0.98,
            "and must not hurt"
        );
        let covered = stride.mem.classes.shorter_wait + stride.mem.classes.hit_prefetched;
        assert!(
            covered > 10_000,
            "stream accesses must ride prefetches (covered {covered})"
        );
    }

    #[test]
    fn store_backed_runs_match_uncached() {
        // The trace store must be invisible in the results: every prefetcher
        // kind produces bit-identical statistics with and without it.
        let k = kernel_by_name("list").unwrap();
        let cfg = SimConfig::default().with_budget(60_000);
        for pf in [PrefetcherKind::Stride, PrefetcherKind::context()] {
            let store = TraceStore::new();
            let cached = run_kernel_with_store(&store, k.as_ref(), &pf, &cfg);
            let uncached = run_kernel_uncached(k.as_ref(), &pf, &cfg);
            assert_eq!(cached.cpu, uncached.cpu, "{} cpu stats differ", pf.label());
            assert_eq!(cached.mem, uncached.mem, "{} mem stats differ", pf.label());
            assert_eq!(cached.stats_digest(), uncached.stats_digest());
        }
    }

    #[test]
    fn calibrated_context_matches_the_distance_formula() {
        // §4.3 by hand: a store-less no-prefetch run over a quarter of the
        // budget, then `penalty × IPC × Prob(mem op)`.
        let k = kernel_by_name("list").unwrap();
        let cfg = SimConfig::default().with_budget(200_000);
        let probe_cfg = cfg.clone().with_budget(50_000);
        let probe = run_kernel_uncached(k.as_ref(), &PrefetcherKind::None, &probe_cfg);
        let penalty = cfg.mem.l1_miss_penalty(probe.mem.l2_miss_rate());
        let target = penalty * probe.cpu.ipc() * probe.cpu.mem_fraction();
        let expected = ContextConfig::default().calibrated(target);
        let got = calibrated_context(k.as_ref(), ContextConfig::default(), &cfg);
        assert_eq!(format!("{got:?}"), format!("{expected:?}"));
        assert_ne!(
            format!("{got:?}"),
            format!("{:?}", ContextConfig::default()),
            "the probe must move the reward window"
        );
    }

    #[test]
    fn speedup_errors_are_typed() {
        let k = kernel_by_name("array").unwrap();
        let r = run_kernel(k.as_ref(), &PrefetcherKind::None, &quick());
        let mut idle = r.clone();
        idle.cpu.instructions = 0; // IPC becomes zero
        assert_eq!(r.speedup_over(&idle), Err(SpeedupError::ZeroBaselineIpc));
        assert_eq!(idle.speedup_over(&r), Err(SpeedupError::NonFiniteIpc));
        assert!(r.speedup_over(&r).is_ok());
    }

    #[test]
    fn runs_are_deterministic() {
        let k = kernel_by_name("mcf").unwrap();
        let a = run_kernel(k.as_ref(), &PrefetcherKind::context(), &quick());
        let b = run_kernel(k.as_ref(), &PrefetcherKind::context(), &quick());
        assert_eq!(a.cpu, b.cpu);
        assert_eq!(a.mem, b.mem);
    }
}
