//! The one store: each kernel's capture and each finished cell's result.
//!
//! Every run funneled through [`run_kernel`](crate::run_kernel) consults the
//! process-global store ([`TraceStore::global`]), so the whole experiment
//! matrix — `Matrix::run`, `Matrix::run_parallel` workers, the calibration
//! probe, and every section of `all_experiments` — pays each kernel's
//! generation cost once per process instead of once per cell, and
//! simulates each distinct cell once. Both halves live in memory, and on
//! disk when a directory is configured:
//!
//! * captures as decoded lanes in memory, and as `TRCE` frames under
//!   `SEMLOC_TRACE_DIR` (the lanes varint-encoded into a temporary, see
//!   [`semloc_trace::TraceBuffer::encode`]), so separate processes (e.g.
//!   two `all_experiments --only <id>` runs) reuse each other's traces; a
//!   loaded frame keeps only the lanes it decodes;
//! * finished cells as `RRES` frames (the [`RunResult`] and its engine
//!   fingerprint) under `SEMLOC_CKPT_DIR`, one file per cell, so a killed
//!   run resumes: finished cells load from their files, and the cells that
//!   were in flight rerun from instruction 0.
//!
//! A file that fails to load — corrupt, renamed, foreign, or from an older
//! layout — is never an error: the store counts a reject
//! ([`TraceStore::disk_rejects`]), and the caller regenerates or reruns and
//! overwrites it. Writes go through [`write_atomic`], so a kill mid-save
//! leaves the previous file intact.
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

/// A lazily-populated, thread-safe store of captured kernel traces, keyed
/// by [`Kernel::trace_key`] (the kernel's full configuration — name,
/// placement, sizes, seed) and covering budgets per the prefix property,
/// and of finished cells' results, keyed by the engine fingerprint.
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
    /// Finished cells, keyed by the engine fingerprint (see
    /// [`TraceStore::result`]). Runs are deterministic, so a stored result
    /// is bit-identical to recomputation; the matrix, the storage sweep,
    /// the calibration probe and the generator's sections share repeated
    /// cells (every sweep re-runs the no-prefetch baseline and the
    /// default-context column) through this map.
    results: Mutex<HashMap<u64, RunResult>>,
    /// Where captures persist (`SEMLOC_TRACE_DIR`), if anywhere.
    trace_dir: Option<PathBuf>,
    /// Where finished cells persist (`SEMLOC_CKPT_DIR`), if anywhere.
    result_dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
    result_hits: AtomicU64,
    result_misses: AtomicU64,
    /// On-disk captures and results that were found but rejected as
    /// unreadable, corrupt, or inconsistent with their file name or cell.
    /// Every injected storage fault must either land here (detected) or
    /// provably leave no file behind (tolerated) — the fault-injection
    /// suite asserts both.
    disk_rejects: AtomicU64,
    /// Faults the next save injects (testing only).
    save_faults: Mutex<SaveFaults>,
}

impl TraceStore {
    /// An empty in-memory store: it reads and writes no file, whatever the
    /// environment says.
    pub fn new() -> Self {
        Self::default()
    }

    /// A store that also persists captures under `dir` (created on first
    /// write) as `TRCE` frames.
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        TraceStore {
            trace_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// A store that also persists finished cells under `dir` (created on
    /// first write) as `RRES` frames.
    pub fn with_result_dir(dir: impl Into<PathBuf>) -> Self {
        TraceStore {
            result_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// A store configured from the environment: captures persist under
    /// `SEMLOC_TRACE_DIR` and finished cells under `SEMLOC_CKPT_DIR`, each
    /// when set (the two may name one directory).
    pub fn from_env() -> Self {
        TraceStore {
            trace_dir: Knob::TraceDir.os().map(PathBuf::from),
            result_dir: Knob::CkptDir.os().map(PathBuf::from),
            ..Self::default()
        }
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

    /// On-disk captures and results that were found but rejected
    /// (unreadable, corrupt, or inconsistent with their file name or cell)
    /// and therefore regenerated or rerun. Nonzero means a storage fault
    /// was *detected*.
    pub fn disk_rejects(&self) -> u64 {
        self.disk_rejects.load(Ordering::Relaxed)
    }

    /// Corrupt the next save — a capture or a result — with `plan`
    /// (fault-injection harness only): the serialized bytes are mutated in
    /// memory just before they reach disk, modelling silent media/tooling
    /// corruption.
    pub fn inject_save_faults(&self, plan: FaultPlan) {
        self.save_faults
            .lock()
            .expect("no panics hold the lock")
            .plan = plan;
    }

    /// Make the next save fail after `budget` bytes (fault-injection
    /// harness only), modelling a full disk or a process killed mid-write.
    /// The interrupted temp file is cleaned up and any previous file stays,
    /// so the fault is *tolerated*.
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

    /// The finished result of the cell whose engine fingerprint is
    /// `fingerprint` (see [`Engine::fingerprint`](crate::Engine::fingerprint)),
    /// for `kernel` under `prefetcher`: from memory, else from the cell's
    /// `RRES` file when the store has a result directory. Counts a result
    /// hit or miss either way; a file that does not parse as this cell's
    /// result also counts a reject.
    pub fn result(
        &self,
        fingerprint: u64,
        kernel: &'static str,
        prefetcher: &'static str,
    ) -> Option<RunResult> {
        let memo = self
            .results
            .lock()
            .expect("no panics hold the lock")
            .get(&fingerprint)
            .cloned();
        let r = memo.or_else(|| {
            let bytes = fs::read(self.result_path(kernel, fingerprint)?).ok()?;
            match RunResult::from_frame(&bytes, fingerprint, kernel, prefetcher) {
                Ok(r) => {
                    self.memoize(fingerprint, &r);
                    Some(r)
                }
                Err(_) => {
                    self.disk_rejects.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
        });
        match r {
            Some(_) => self.result_hits.fetch_add(1, Ordering::Relaxed),
            None => self.result_misses.fetch_add(1, Ordering::Relaxed),
        };
        r
    }

    /// Store the finished result of the cell whose engine fingerprint is
    /// `fingerprint`: in memory, and as its `RRES` file when the store has
    /// a result directory. A racing worker may store first; determinism
    /// makes either copy correct, so the first one wins in memory. A failed
    /// write is silent — it costs resumability, never correctness.
    pub(crate) fn save_result(&self, fingerprint: u64, r: &RunResult) {
        self.memoize(fingerprint, r);
        if let Some(path) = self.result_path(r.kernel, fingerprint) {
            let _ = write_atomic(&path, &r.to_frame(fingerprint), self.take_faults());
        }
    }

    /// `(hits, misses)` of the finished-cell results — cells answered from
    /// memory or from their file vs. cells that had to simulate.
    pub fn result_stats(&self) -> (u64, u64) {
        (
            self.result_hits.load(Ordering::Relaxed),
            self.result_misses.load(Ordering::Relaxed),
        )
    }

    /// Keep `r` in memory unless a result for `fingerprint` is already
    /// there.
    fn memoize(&self, fingerprint: u64, r: &RunResult) {
        self.results
            .lock()
            .expect("no panics hold the lock")
            .entry(fingerprint)
            .or_insert_with(|| r.clone());
    }

    /// The file that holds the finished cell `fingerprint` of `kernel`.
    fn result_path(&self, kernel: &str, fingerprint: u64) -> Option<PathBuf> {
        let dir = self.result_dir.as_deref()?;
        Some(dir.join(format!("{}-{fingerprint:016x}.ckpt", sanitize(kernel))))
    }

    /// The one-shot faults the next save injects, leaving none behind.
    fn take_faults(&self) -> SaveFaults {
        std::mem::take(&mut *self.save_faults.lock().expect("no panics hold the lock"))
    }

    /// Stable file name for a capture: kernel name (sanitized), FNV-1a of
    /// the full trace key, capture budget, and an `f`(ull)/`p`(artial)
    /// completeness flag.
    fn file_name(name: &str, key: &str, budget: u64, complete: bool) -> String {
        let mut d = Digest::new();
        d.str(key);
        format!(
            "{}-{:016x}-{budget}-{}.trace",
            sanitize(name),
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
        let dir = self.trace_dir.as_deref()?;
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
        let Some(dir) = self.trace_dir.as_deref() else {
            return;
        };
        let name = Self::file_name(trace.name, &trace.key, trace.budget, trace.complete);
        let _ = write_atomic(
            &dir.join(&name),
            &TraceBuffer::encode(&trace.lanes).to_frame(&name),
            self.take_faults(),
        );
    }
}

/// `name` with every character but ASCII letters and digits replaced by
/// `_`, for a file name.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_kernel_with_store, Engine, PrefetcherKind, SimConfig};
    use semloc_trace::{Fault, RecordingSink};
    use semloc_workloads::{kernel_by_name, Composer, Phase};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("semloc-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A small finished cell: `array` under stride at 5 000 instructions.
    fn finished_cell() -> RunResult {
        let k = kernel_by_name("array").unwrap();
        let cfg = SimConfig::default().with_budget(5_000);
        run_kernel_with_store(
            &TraceStore::new(),
            k.as_ref(),
            &PrefetcherKind::Stride,
            &cfg,
        )
    }

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
    fn simulating_never_builds_the_varint_form() {
        let k = kernel_by_name("mcf").unwrap();
        let store = TraceStore::new();
        let cfg = SimConfig::default().with_budget(6_000);
        run_kernel_with_store(&store, k.as_ref(), &PrefetcherKind::context(), &cfg);
        let replay = store.replay(k.as_ref(), 6_000);
        assert_eq!(store.stats(), (1, 1), "the run captured, the replay hit");
        assert!(
            !replay.trace().buf.is_encoded(),
            "a run encoded its capture"
        );

        // Unbudgeted, the engine stops at the end of the stream.
        let unbounded = SimConfig::default().with_budget(0);
        let mut e = Engine::new(replay.clone(), &PrefetcherKind::Stride, &unbounded);
        e.run_to_end();
        assert_eq!(e.cursor(), 6_000);
        assert!(e.done());
        // Forking and composing read the stream's length from its lanes too.
        e.fork_onto(replay.clone()).unwrap();
        let menu = [Arc::clone(replay.trace())];
        Composer::new(1).phase_shift("t", &menu, 2, 1_000, 9_000);
        Phase::new(Arc::clone(replay.trace()), 6_000);
        assert!(
            !replay.trace().buf.is_encoded(),
            "the engine or a schedule encoded its stream"
        );

        // Writing a trace file and loading it back encode into temporaries.
        let dir = temp_dir("lanes-only");
        let written = TraceStore::with_dir(&dir).replay(k.as_ref(), 6_000);
        let reader = TraceStore::with_dir(&dir);
        let loaded = reader.replay(k.as_ref(), 6_000);
        assert_eq!(reader.stats(), (1, 0), "a disk load");
        assert!(
            !written.trace().buf.is_encoded(),
            "the writer kept its encoding"
        );
        assert!(!loaded.trace().buf.is_encoded(), "the load kept its buffer");

        // Control: the view encodes on first use, to what the file holds.
        let file = fs::read_dir(&dir).unwrap().next().unwrap().unwrap();
        let name = file.file_name().into_string().unwrap();
        assert_eq!(
            loaded.trace().buf.to_frame(&name),
            fs::read(file.path()).unwrap()
        );
        assert!(loaded.trace().buf.is_encoded());
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

    #[test]
    fn results_without_a_directory_stay_in_memory() {
        let r = finished_cell();
        let store = TraceStore::new();
        store.save_result(7, &r);
        assert_eq!(store.result(7, "array", "stride"), Some(r));
        assert_eq!(TraceStore::new().result(7, "array", "stride"), None);
        assert_eq!(store.result_stats(), (1, 0));
        assert_eq!(store.disk_rejects(), 0);
    }

    #[test]
    fn results_round_trip_through_their_files() {
        let dir = temp_dir("results");
        let r = finished_cell();
        TraceStore::with_result_dir(&dir).save_result(0xDEAD_BEEF, &r);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "one file per cell");
        // A fresh store, as another process would create, loads the file.
        let reader = TraceStore::with_result_dir(&dir);
        assert_eq!(reader.result(0xDEAD_BEEF, "array", "stride"), Some(r));
        assert_eq!(reader.result_stats(), (1, 0), "a file load is a hit");
        // Another fingerprint or kernel names no file, and the file refuses
        // to be another prefetcher's result.
        let fresh = || TraceStore::with_result_dir(&dir);
        assert_eq!(fresh().result(0xDEAD_BEEE, "array", "stride"), None);
        assert_eq!(fresh().result(0xDEAD_BEEF, "list", "stride"), None);
        let other = fresh();
        assert_eq!(other.result(0xDEAD_BEEF, "array", "none"), None);
        assert_eq!(other.result_stats(), (0, 1));
        assert_eq!(other.disk_rejects(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_result_saves_are_rejected_on_load() {
        let dir = temp_dir("result-faults");
        let r = finished_cell();
        let faults = [
            Fault::BitFlip { offset: 15, bit: 2 },
            Fault::Truncate { keep: 12 },
            Fault::BadMagic,
            Fault::LengthSkew { delta: 1 },
            Fault::Garbage { len: 80 },
        ];
        for fault in faults {
            let writer = TraceStore::with_result_dir(&dir);
            writer.inject_save_faults(FaultPlan::with(fault.clone()));
            writer.save_result(3, &r);
            let reader = TraceStore::with_result_dir(&dir);
            assert_eq!(
                reader.result(3, "array", "stride"),
                None,
                "{fault:?} was accepted"
            );
            assert_eq!(reader.disk_rejects(), 1, "{fault:?} was not counted");
        }
        // A clean save afterwards works (injection is one-shot).
        let writer = TraceStore::with_result_dir(&dir);
        writer.inject_save_faults(FaultPlan::with(Fault::BadMagic));
        writer.save_result(3, &r);
        writer.save_result(3, &r);
        assert_eq!(
            TraceStore::with_result_dir(&dir).result(3, "array", "stride"),
            Some(r)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_result_write_is_dropped_not_renamed() {
        let dir = temp_dir("result-short");
        let r = finished_cell();
        let mut other = r.clone();
        other.cpu.cycles += 1;
        let writer = TraceStore::with_result_dir(&dir);
        writer.save_result(4, &r);
        writer.inject_short_write(10);
        writer.save_result(4, &other);
        assert_eq!(
            TraceStore::with_result_dir(&dir).result(4, "array", "stride"),
            Some(r),
            "the interrupted save leaves the previous file"
        );
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names.len(), 1, "no temp file survives: {names:?}");
        let _ = fs::remove_dir_all(&dir);
    }
}
