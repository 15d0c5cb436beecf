//! On-disk checkpoint store.
//!
//! A long experiment run such as `all_experiments` can be killed
//! mid-run; with a checkpoint directory configured
//! (`SEMLOC_CKPT_DIR`) every simulation cell periodically persists its
//! complete engine state and, on completion, its final result. A restarted
//! process finds the valid checkpoint for each cell and resumes from it —
//! bit-identically, which the golden-digest checkpoint suite pins.
//!
//! Each file is one frame (see [`semloc_trace::snap`]): a mid-run
//! [`SimCheckpoint`](crate::SimCheckpoint) (`SIMC`) or a finished
//! [`RunResult`](crate::RunResult) (`RRES`), both carrying the cell's
//! fingerprint. The store does not know the kinds: [`CkptStore::save`]
//! writes a frame through [`write_atomic`], and [`CkptStore::load`] hands
//! the bytes to the caller's parser. A file that fails to parse — corrupt,
//! foreign, or from an older layout — is never an error: the store counts
//! it as a reject and the cell simply runs from scratch.
//!
//! Writes are atomic (temp file + rename) so a kill mid-save leaves the
//! previous checkpoint intact. The same fault-injection machinery the
//! trace store uses (`FaultPlan`, short writes) exercises these paths.

use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use semloc_trace::{write_atomic, FaultPlan, SaveFaults};

use crate::knob::Knob;

/// Instructions between a resumable cell's mid-run checkpoint saves.
pub(crate) const SAVE_INTERVAL: u64 = 100_000;

/// Persistent checkpoint store for resumable simulation cells.
///
/// Disabled (in-memory no-op) unless constructed with a directory; the
/// process-global instance enables itself when `SEMLOC_CKPT_DIR` is set.
pub struct CkptStore {
    dir: Option<PathBuf>,
    saves: AtomicU64,
    loads: AtomicU64,
    rejects: AtomicU64,
    faults: Mutex<SaveFaults>,
}

impl Default for CkptStore {
    fn default() -> Self {
        Self::new()
    }
}

impl CkptStore {
    /// A disabled store: checkpointing is a no-op, loads always miss.
    pub fn new() -> Self {
        CkptStore {
            dir: None,
            saves: AtomicU64::new(0),
            loads: AtomicU64::new(0),
            rejects: AtomicU64::new(0),
            faults: Mutex::new(SaveFaults::default()),
        }
    }

    /// A store persisting checkpoints under `dir` (created on first save).
    pub fn with_dir(dir: impl Into<PathBuf>) -> Self {
        CkptStore {
            dir: Some(dir.into()),
            ..Self::new()
        }
    }

    /// Build from the environment: enabled iff `SEMLOC_CKPT_DIR` is set.
    pub fn from_env() -> Self {
        Knob::CkptDir.os().map_or_else(Self::new, Self::with_dir)
    }

    /// The process-global store used by [`run_kernel`](crate::run_kernel)
    /// and everything built on it. Environment-configured once.
    pub fn global() -> &'static CkptStore {
        static GLOBAL: OnceLock<CkptStore> = OnceLock::new();
        GLOBAL.get_or_init(CkptStore::from_env)
    }

    /// Whether checkpoints are persisted at all.
    pub fn enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// (saves, loads, rejects) counters. A *reject* is a checkpoint that
    /// existed but failed to parse — frame, fingerprint, or restore — and
    /// was discarded.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.saves.load(Ordering::Relaxed),
            self.loads.load(Ordering::Relaxed),
            self.rejects.load(Ordering::Relaxed),
        )
    }

    /// Corrupt the next save's bytes with `plan` before they hit disk —
    /// the written checkpoint must then fail validation on load.
    pub fn inject_save_faults(&self, plan: FaultPlan) {
        self.faults.lock().expect("no panics hold the lock").plan = plan;
    }

    /// Fail the next save after `bytes` bytes, before the rename —
    /// simulating a kill mid-write.
    pub fn inject_short_write(&self, bytes: usize) {
        self.faults
            .lock()
            .expect("no panics hold the lock")
            .short_write = Some(bytes);
    }

    fn path_for(&self, kernel: &str, fingerprint: u64) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let sane: String = kernel
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(dir.join(format!("{sane}-{fingerprint:016x}.ckpt")))
    }

    /// Persist `frame` as the cell's current checkpoint, atomically
    /// replacing any previous one. Failures (injected or real I/O errors)
    /// are swallowed — a checkpoint that fails to save costs resumability,
    /// never correctness.
    pub fn save(&self, kernel: &str, fingerprint: u64, frame: &[u8]) {
        let Some(path) = self.path_for(kernel, fingerprint) else {
            return;
        };
        let faults = std::mem::take(&mut *self.faults.lock().expect("no panics hold the lock"));
        if write_atomic(&path, frame, faults).is_ok() {
            self.saves.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Read the cell's checkpoint, if one exists, and `parse` it. A parse
    /// failure counts as a reject and behaves like a miss.
    pub fn load<T>(
        &self,
        kernel: &str,
        fingerprint: u64,
        parse: impl FnOnce(&[u8]) -> io::Result<T>,
    ) -> Option<T> {
        let path = self.path_for(kernel, fingerprint)?;
        let bytes = fs::read(&path).ok()?;
        match parse(&bytes) {
            Ok(v) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            Err(_) => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::{Fault, SnapReader, SnapWriter};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("semloc-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A frame of kind `tag` holding `body`.
    fn frame(tag: [u8; 4], body: &[u8]) -> Vec<u8> {
        let mut w = SnapWriter::framed(tag, 1);
        w.put_len(body.len());
        w.put_bytes(body);
        w.into_frame()
    }

    fn parse(tag: [u8; 4]) -> impl Fn(&[u8]) -> io::Result<Vec<u8>> {
        move |bytes| {
            let mut r = SnapReader::framed(bytes, tag, 1)?;
            let n = r.get_len()?;
            let body = r.get_bytes(n)?.to_vec();
            r.expect_end()?;
            Ok(body)
        }
    }

    #[test]
    fn disabled_store_is_a_no_op() {
        let store = CkptStore::new();
        assert!(!store.enabled());
        store.save("k", 7, &frame(*b"MIDK", &[1, 2, 3]));
        assert_eq!(store.load("k", 7, parse(*b"MIDK")), None);
        assert_eq!(store.stats(), (0, 0, 0));
    }

    #[test]
    fn save_load_round_trips_both_kinds() {
        let dir = temp_dir("roundtrip");
        let store = CkptStore::with_dir(&dir);
        for (tag, body) in [
            (*b"MIDK", vec![0xAB; 64]),
            (*b"FINL", vec![0x17; 9]),
            (*b"MIDK", Vec::new()),
        ] {
            store.save("mcf-spec", 0xDEAD_BEEF, &frame(tag, &body));
            assert_eq!(store.load("mcf-spec", 0xDEAD_BEEF, parse(tag)), Some(body));
        }
        assert_eq!(store.stats(), (3, 3, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_save_is_rejected_on_load() {
        let dir = temp_dir("faults");
        let store = CkptStore::with_dir(&dir);
        let faults = [
            Fault::BitFlip { offset: 15, bit: 2 },
            Fault::Truncate { keep: 12 },
            Fault::BadMagic,
            Fault::LengthSkew { delta: 1 },
            Fault::Garbage { len: 80 },
        ];
        for fault in faults {
            store.inject_save_faults(FaultPlan::with(fault.clone()));
            store.save("k", 3, &frame(*b"MIDK", &[7; 48]));
            let rejects_before = store.stats().2;
            assert_eq!(
                store.load("k", 3, parse(*b"MIDK")),
                None,
                "{fault:?} was accepted"
            );
            assert_eq!(store.stats().2, rejects_before + 1);
        }
        // A clean save afterwards works (injection is one-shot).
        store.save("k", 3, &frame(*b"MIDK", &[2]));
        assert_eq!(store.load("k", 3, parse(*b"MIDK")), Some(vec![2]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_is_dropped_not_renamed() {
        let dir = temp_dir("short");
        let store = CkptStore::with_dir(&dir);
        store.save("k", 4, &frame(*b"FINL", &[9; 32]));
        store.inject_short_write(10);
        store.save("k", 4, &frame(*b"FINL", &[8; 32]));
        assert_eq!(store.load("k", 4, parse(*b"FINL")), Some(vec![9; 32]));
        assert_eq!(store.stats().0, 1, "the interrupted save is not counted");
        // No stray temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "ckpt"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }
}
