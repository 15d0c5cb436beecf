//! The shared trace store: record each kernel's instruction stream once,
//! replay it for every prefetcher column, sweep point, and paper section.
//!
//! Every run funneled through [`run_kernel`](crate::run_kernel) consults the
//! process-global store ([`TraceStore::global`]), so the whole experiment
//! matrix — `Matrix::run`, `Matrix::run_parallel` workers, the calibration
//! probe, and every section of `all_experiments` — pays each kernel's
//! generation cost once per process instead of once per cell. With
//! `SEMLOC_TRACE_DIR` set, captures also persist as `TRCE` frames (the
//! capture's varint buffer, see [`semloc_trace::TraceBuffer::to_frame`]) so
//! separate processes (e.g. two `all_experiments --only <id>` runs) reuse
//! each other's traces.
//!
//! Correctness rests on the prefix property documented in
//! [`semloc_workloads::replay`]: a capture at budget `B` replays
//! bit-identically to generation at any budget ≤ `B`, so one capture at the
//! largest budget needed serves the probe and the main run alike. The
//! golden-digest test pins generated == replayed == the published digest.

#[expect(
    clippy::disallowed_types,
    reason = "keyed caches that are never iterated, so their order cannot reach simulator output"
)]
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use semloc_trace::{write_atomic, FaultPlan, SaveFaults, TraceBuffer};
use semloc_workloads::{capture_kernel, CapturedTrace, Kernel, ReplayKernel};

use crate::knob::Knob;
use crate::runner::{Digest, RunResult};

type Slot = Arc<Mutex<Option<Arc<CapturedTrace>>>>;

/// A lazily-populated, thread-safe cache of captured kernel traces, keyed by
/// [`Kernel::trace_key`] (the kernel's full configuration — name, placement,
/// sizes, seed) and covering budgets per the prefix property.
#[derive(Debug, Default)]
#[expect(
    clippy::disallowed_types,
    reason = "keyed-only memo maps, never iterated (see the reason on the `use`)"
)]
pub struct TraceStore {
    /// Two-level locking: the outer map lock is held only to find/insert a
    /// slot, the per-key slot lock is held across capture — so the same
    /// kernel is captured exactly once while *different* kernels capture
    /// concurrently (the `run_parallel` workers hammer this).
    slots: Mutex<HashMap<String, Slot>>,
    /// Memoized full-run results, keyed by
    /// `trace_key + prefetcher kind + config` (see [`TraceStore::result`]).
    /// Runs are deterministic, so a memoized clone is bit-identical to
    /// recomputation; the matrix, the storage sweep, and the figure
    /// binaries share repeated cells (every sweep re-runs the no-prefetch
    /// baseline and the default-context column) through this map.
    results: Mutex<HashMap<String, RunResult>>,
    /// On-disk cache directory (`SEMLOC_TRACE_DIR`), if configured.
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    /// On-disk captures that were found but rejected as unreadable, corrupt,
    /// or inconsistent with their file-name metadata. Every injected storage
    /// fault must either land here (detected) or provably leave no cache
    /// file behind (tolerated) — the fault-injection suite asserts both.
    disk_rejects: AtomicU64,
    /// Faults the next save injects (testing only).
    save_faults: Mutex<SaveFaults>,
}

impl TraceStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that also persists captures under `dir` (created on first
    /// write) as `TRCE` frames.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        TraceStore {
            dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// A store configured from the environment: on-disk caching under
    /// `SEMLOC_TRACE_DIR` when set, in-memory only otherwise.
    pub fn from_env() -> Self {
        Knob::TraceDir.os().map_or_else(Self::new, Self::with_dir)
    }

    /// The process-global store every [`run_kernel`](crate::run_kernel)
    /// call goes through. Initialized from the environment on first use.
    pub fn global() -> &'static TraceStore {
        static GLOBAL: OnceLock<TraceStore> = OnceLock::new();
        GLOBAL.get_or_init(TraceStore::from_env)
    }

    /// `(hits, misses)` — replays served from a previous capture vs.
    /// captures that had to run the generator.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// On-disk captures that were found but rejected (unreadable, corrupt,
    /// or inconsistent with their file-name metadata) and therefore
    /// regenerated. Nonzero means a storage fault was *detected*.
    pub fn disk_rejects(&self) -> u64 {
        self.disk_rejects.load(Ordering::Relaxed)
    }

    /// Corrupt the next capture save with `plan` (fault-injection harness
    /// only): the serialized bytes are mutated in memory just before they
    /// reach disk, modelling silent media/tooling corruption.
    pub fn inject_save_faults(&self, plan: FaultPlan) {
        self.save_faults
            .lock()
            .expect("no panics hold the lock")
            .plan = plan;
    }

    /// Make the next capture save fail after `budget` bytes
    /// (fault-injection harness only), modelling a full disk or a process
    /// killed mid-write. The interrupted temp file is cleaned up, so no
    /// cache entry appears — the fault is *tolerated* by regeneration.
    pub fn inject_short_write(&self, budget: usize) {
        self.save_faults
            .lock()
            .expect("no panics hold the lock")
            .short_write = Some(budget);
    }

    /// A replayable stand-in for `kernel` whose stream covers `budget`
    /// instructions (0 = the kernel's complete stream). Captures the kernel
    /// on first use (checking the on-disk cache first, when configured) and
    /// serves every later request for the same configuration from memory.
    /// Every capture carries its decoded lanes, so replay never decodes.
    pub fn replay(&self, kernel: &dyn Kernel, budget: u64) -> ReplayKernel {
        let key = kernel.trace_key();
        let slot = {
            let mut slots = self.slots.lock().expect("no panics hold the lock");
            slots.entry(key.clone()).or_default().clone()
        };
        let mut guard = slot.lock().expect("no panics hold the lock");
        if let Some(trace) = guard.as_ref() {
            if trace.covers(budget) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return ReplayKernel::new(Arc::clone(trace));
            }
        }
        // A stale (smaller) capture is superseded by one covering both the
        // old and the new budget, so earlier replays stay valid.
        let capture_budget = match guard.as_ref() {
            Some(prev) if budget != 0 && prev.budget != 0 => budget.max(prev.budget),
            _ => budget,
        };
        let trace = Arc::new(
            self.load_from_disk(kernel, &key, capture_budget)
                .unwrap_or_else(|| {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let t = capture_kernel(kernel, capture_budget);
                    self.save_to_disk(&t);
                    t
                }),
        );
        *guard = Some(Arc::clone(&trace));
        ReplayKernel::new(trace)
    }

    /// Memoized full-run result for `key` (built by the runner from the
    /// kernel's trace key, the prefetcher kind, and the config — the same
    /// identity the golden digest pins), if one was stored. Counts a result
    /// hit or miss either way.
    pub fn result(&self, key: &str) -> Option<RunResult> {
        let r = self
            .results
            .lock()
            .expect("no panics hold the lock")
            .get(key)
            .cloned();
        match r {
            Some(_) => self.result_hits.fetch_add(1, Ordering::Relaxed),
            None => self.result_misses.fetch_add(1, Ordering::Relaxed),
        };
        r
    }

    /// Memoize a computed full-run result under `key`. A racing worker may
    /// insert first; determinism makes either copy correct, so the first
    /// insertion wins.
    pub fn memoize_result(&self, key: &str, r: &RunResult) {
        self.results
            .lock()
            .expect("no panics hold the lock")
            .entry(key.to_string())
            .or_insert_with(|| r.clone());
    }

    /// `(hits, misses)` of the full-run result memo — runs served from a
    /// previous identical run vs. cells that had to simulate.
    pub fn result_stats(&self) -> (u64, u64) {
        (
            self.result_hits.load(Ordering::Relaxed),
            self.result_misses.load(Ordering::Relaxed),
        )
    }

    /// Stable file name for a capture: kernel name (sanitized), FNV-1a of
    /// the full trace key, capture budget, and an `f`(ull)/`p`(artial)
    /// completeness flag.
    fn file_name(name: &str, key: &str, budget: u64, complete: bool) -> String {
        let sane: String = name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let mut d = Digest::new();
        d.str(key);
        format!(
            "{sane}-{:016x}-{budget}-{}.trace",
            d.finish(),
            if complete { 'f' } else { 'p' }
        )
    }

    /// Look for an on-disk capture of `key` covering `budget`. Any
    /// unreadable or corrupt file is ignored (the caller regenerates), and
    /// so is one whose content disagrees with its name: each file carries
    /// its own name as its label, and a partial capture holds exactly its
    /// named budget.
    fn load_from_disk(&self, kernel: &dyn Kernel, key: &str, budget: u64) -> Option<CapturedTrace> {
        let dir = self.dir.as_deref()?;
        let prefix = Self::file_name(kernel.name(), key, 0, true);
        let prefix = &prefix[..prefix.len() - "0-f.trace".len()];
        let mut best: Option<(u64, bool, String)> = None;
        for entry in fs::read_dir(dir).ok()?.flatten() {
            let fname = entry.file_name();
            let fname = fname.to_string_lossy();
            let Some(rest) = fname.strip_prefix(prefix) else {
                continue;
            };
            let Some(rest) = rest.strip_suffix(".trace") else {
                continue;
            };
            let (b, complete) = match rest.rsplit_once('-') {
                Some((b, "f")) => (b, true),
                Some((b, "p")) => (b, false),
                _ => continue,
            };
            let Ok(file_budget) = b.parse::<u64>() else {
                continue;
            };
            let covers = complete || (budget != 0 && file_budget != 0 && file_budget >= budget);
            let better = match best.as_ref() {
                Some((bb, bc, _)) => (complete, file_budget) > (*bc, *bb),
                None => true,
            };
            if covers && better {
                best = Some((file_budget, complete, fname.into_owned()));
            }
        }
        let (file_budget, complete, name) = best?;
        let loaded = fs::read(dir.join(&name)).and_then(|bytes| TraceBuffer::from_frame(&bytes));
        match loaded {
            Ok((label, buf)) if label == name && (complete || buf.len() as u64 == file_budget) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(CapturedTrace::from_buffer(
                    kernel,
                    file_budget,
                    complete,
                    buf,
                ))
            }
            _ => {
                self.disk_rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist a capture atomically, labelled with its own file name.
    /// Failures are silent — the disk cache is an optimization, never a
    /// correctness dependency.
    fn save_to_disk(&self, trace: &CapturedTrace) {
        let Some(dir) = self.dir.as_deref() else {
            return;
        };
        let name = Self::file_name(trace.name, &trace.key, trace.budget, trace.complete);
        let faults =
            std::mem::take(&mut *self.save_faults.lock().expect("no panics hold the lock"));
        let _ = write_atomic(&dir.join(&name), &trace.buf.to_frame(&name), faults);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::RecordingSink;
    use semloc_workloads::kernel_by_name;

    #[test]
    fn second_replay_is_a_hit() {
        let store = TraceStore::new();
        let k = kernel_by_name("list").unwrap();
        store.replay(k.as_ref(), 10_000);
        store.replay(k.as_ref(), 10_000);
        store.replay(k.as_ref(), 5_000); // covered by the 10k capture
        assert_eq!(store.stats(), (2, 1));
    }

    #[test]
    fn larger_budget_recaptures_and_supersedes() {
        let store = TraceStore::new();
        let k = kernel_by_name("list").unwrap();
        store.replay(k.as_ref(), 5_000);
        let big = store.replay(k.as_ref(), 20_000);
        assert!(big.trace().covers(20_000));
        assert_eq!(store.stats(), (0, 2));
        // And the superseding capture now serves the original budget too.
        store.replay(k.as_ref(), 5_000);
        assert_eq!(store.stats(), (1, 2));
    }

    #[test]
    fn replay_stream_matches_generation() {
        let store = TraceStore::new();
        let k = kernel_by_name("mcf").unwrap();
        let replay = store.replay(k.as_ref(), 8_000);
        let mut a = RecordingSink::with_limit(8_000);
        k.run(&mut a);
        let mut b = RecordingSink::with_limit(8_000);
        replay.run(&mut b);
        assert_eq!(a.instrs(), b.instrs());
    }

    #[test]
    fn disk_cache_roundtrips_across_stores() {
        let dir = std::env::temp_dir().join(format!("semloc-store-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let k = kernel_by_name("list").unwrap();

        let writer = TraceStore::with_dir(&dir);
        writer.replay(k.as_ref(), 12_000);
        assert_eq!(writer.stats(), (0, 1));
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "one .trace file");

        // A fresh store (as another process would create) loads from disk
        // instead of regenerating.
        let reader = TraceStore::with_dir(&dir);
        let replay = reader.replay(k.as_ref(), 12_000);
        assert_eq!(reader.stats(), (1, 0), "disk load must count as a hit");
        let mut a = RecordingSink::with_limit(12_000);
        k.run(&mut a);
        let mut b = RecordingSink::with_limit(12_000);
        replay.run(&mut b);
        assert_eq!(a.instrs(), b.instrs(), "disk roundtrip must be bit-exact");

        // A request the on-disk capture cannot cover regenerates.
        let reader2 = TraceStore::with_dir(&dir);
        reader2.replay(k.as_ref(), 50_000);
        assert_eq!(reader2.stats(), (0, 1));

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_file_falls_back_to_generation() {
        let dir = std::env::temp_dir().join(format!("semloc-store-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let k = kernel_by_name("list").unwrap();
        let fname = TraceStore::file_name(k.name(), &k.trace_key(), 6_000, false);
        fs::write(dir.join(fname), b"SEMLOCFRgarbage").unwrap();

        let store = TraceStore::with_dir(&dir);
        let replay = store.replay(k.as_ref(), 6_000);
        assert_eq!(store.stats(), (0, 1), "corrupt file must not be a hit");
        let mut a = RecordingSink::with_limit(6_000);
        k.run(&mut a);
        let mut b = RecordingSink::with_limit(6_000);
        replay.run(&mut b);
        assert_eq!(a.instrs(), b.instrs());

        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_replays_capture_once_per_kernel() {
        let store = TraceStore::new();
        let kernels: Vec<_> = ["list", "array", "mcf"]
            .iter()
            .map(|n| kernel_by_name(n).unwrap())
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in &kernels {
                        store.replay(k.as_ref(), 10_000);
                    }
                });
            }
        });
        let (hits, misses) = store.stats();
        assert_eq!(misses, 3, "each kernel captured exactly once");
        assert_eq!(hits, 9);
    }
}
