//! On-disk checkpoint store: the `SEMLOC-CKPT` format.
//!
//! Long experiment drivers (`all_experiments`, the figure binaries) can be
//! killed mid-run; with a checkpoint directory configured
//! (`SEMLOC_CKPT_DIR`) every simulation cell periodically persists its
//! complete engine state and, on completion, its final result. A restarted
//! process finds the newest valid checkpoint for each cell and resumes from
//! it — bit-identically, which the golden-digest checkpoint suite pins.
//!
//! # File format
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SEMLOCKP"
//! 8       4     format version (u32 LE, currently 1)
//! 12      1     kind: 0 = mid-run engine snapshot, 1 = final result
//! 13      8     cell fingerprint (u64 LE, must match the engine's)
//! 21      n     payload (a `SIMC` or `RRES` snapshot section)
//! 21+n    1     trailer marker 0xFF
//! 22+n    8     payload length n (u64 LE)
//! 30+n    8     FNV-1a checksum (u64 LE) of bytes [0, 30+n)
//! ```
//!
//! The checksum covers everything before it, including the trailer marker
//! and length field, with the same per-byte FNV-1a fold the `SEMLOC02`
//! trace format uses. The fold is bijective per byte, so any single-bit
//! corruption anywhere in the file changes the checksum; the corruption
//! matrix test flips every bit of a real checkpoint and requires 100%
//! rejection. A rejected or foreign checkpoint is never an error — the
//! store counts it and the cell simply runs from scratch.
//!
//! Writes are atomic (temp file + rename) so a kill mid-save leaves the
//! previous checkpoint intact. The same fault-injection machinery the
//! trace store uses (`FaultPlan`, short writes) exercises these paths.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use semloc_trace::{fnv1a, FaultPlan, FNV_OFFSET};

use crate::knob::env_knob;

/// Magic bytes opening every checkpoint file.
pub const CKPT_MAGIC: [u8; 8] = *b"SEMLOCKP";

/// Current `SEMLOC-CKPT` format version.
pub const CKPT_VERSION: u32 = 1;

/// What a checkpoint file holds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CkptPayload {
    /// A mid-run engine snapshot (a serialized
    /// [`SimCheckpoint`](crate::SimCheckpoint)): restore and continue.
    Mid(Vec<u8>),
    /// The finished cell's serialized
    /// [`RunResult`](crate::RunResult): no simulation needed at all.
    Final(Vec<u8>),
}

impl CkptPayload {
    fn kind_byte(&self) -> u8 {
        match self {
            CkptPayload::Mid(_) => 0,
            CkptPayload::Final(_) => 1,
        }
    }

    fn bytes(&self) -> &[u8] {
        match self {
            CkptPayload::Mid(b) | CkptPayload::Final(b) => b,
        }
    }
}

/// Encode one checkpoint as `SEMLOC-CKPT` bytes.
pub fn encode_ckpt(kind: &CkptPayload, fingerprint: u64) -> Vec<u8> {
    let payload = kind.bytes();
    let mut out = Vec::with_capacity(payload.len() + 38);
    out.extend_from_slice(&CKPT_MAGIC);
    out.extend_from_slice(&CKPT_VERSION.to_le_bytes());
    out.push(kind.kind_byte());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(payload);
    out.push(0xFF);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    let checksum = fnv1a(FNV_OFFSET, &out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decode and fully validate `SEMLOC-CKPT` bytes for the cell identified by
/// `fingerprint`. Returns `None` on *any* inconsistency — wrong magic or
/// version, foreign fingerprint, bad trailer, checksum mismatch, or a
/// length that disagrees with the file size.
pub fn decode_ckpt(bytes: &[u8], fingerprint: u64) -> Option<CkptPayload> {
    const HEADER: usize = 8 + 4 + 1 + 8;
    const TRAILER: usize = 1 + 8 + 8;
    if bytes.len() < HEADER + TRAILER {
        return None;
    }
    if bytes[..8] != CKPT_MAGIC {
        return None;
    }
    if u32::from_le_bytes(bytes[8..12].try_into().unwrap()) != CKPT_VERSION {
        return None;
    }
    let kind = bytes[12];
    if u64::from_le_bytes(bytes[13..21].try_into().unwrap()) != fingerprint {
        return None;
    }
    let checksum_at = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[checksum_at..].try_into().unwrap());
    if fnv1a(FNV_OFFSET, &bytes[..checksum_at]) != stored {
        return None;
    }
    let len_at = checksum_at - 8;
    let payload_len = u64::from_le_bytes(bytes[len_at..checksum_at].try_into().unwrap());
    if payload_len != (bytes.len() - HEADER - TRAILER) as u64 {
        return None;
    }
    if bytes[len_at - 1] != 0xFF {
        return None;
    }
    let payload = bytes[HEADER..HEADER + payload_len as usize].to_vec();
    match kind {
        0 => Some(CkptPayload::Mid(payload)),
        1 => Some(CkptPayload::Final(payload)),
        _ => None,
    }
}

#[derive(Default)]
struct SaveFaults {
    /// Corrupt the next save's bytes with this plan before they reach
    /// disk (bit flips, truncation, garbage — the `SEMLOC02` vocabulary).
    plan: Option<FaultPlan>,
    /// Truncate the next save to this many bytes and *abandon* the temp
    /// file before the atomic rename, simulating a kill mid-write.
    short_write: Option<usize>,
}

/// Persistent checkpoint store for resumable simulation cells.
///
/// Disabled (in-memory no-op) unless constructed with a directory; the
/// process-global instance enables itself when `SEMLOC_CKPT_DIR` is set.
/// Checkpoint cadence (instructions between mid-run saves) comes from
/// `SEMLOC_CKPT_INTERVAL` (default 100 000).
pub struct CkptStore {
    dir: Option<PathBuf>,
    interval: u64,
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
            interval: 100_000,
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

    /// Build from the environment: enabled iff `SEMLOC_CKPT_DIR` is set;
    /// `SEMLOC_CKPT_INTERVAL` overrides the mid-run save cadence.
    ///
    /// # Panics
    ///
    /// Panics if `SEMLOC_CKPT_INTERVAL` is set but not a non-negative
    /// integer.
    pub fn from_env() -> Self {
        let mut store = match std::env::var_os("SEMLOC_CKPT_DIR") {
            Some(dir) if !dir.is_empty() => Self::with_dir(PathBuf::from(dir)),
            _ => Self::new(),
        };
        if let Some(v) =
            env_knob("SEMLOC_CKPT_INTERVAL", 0..=u64::MAX).unwrap_or_else(|e| panic!("{e}"))
        {
            store.interval = v.max(1);
        }
        store
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

    /// Instructions between mid-run checkpoint saves.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Override the save cadence (for tests and the smoke binary).
    pub fn set_interval(&mut self, interval: u64) {
        self.interval = interval.max(1);
    }

    /// (saves, loads, rejects) counters. A *reject* is a checkpoint that
    /// existed but failed validation at any level — file, envelope, or
    /// payload — and was discarded.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.saves.load(Ordering::Relaxed),
            self.loads.load(Ordering::Relaxed),
            self.rejects.load(Ordering::Relaxed),
        )
    }

    /// Record a payload-level rejection (the envelope validated but the
    /// snapshot inside did not parse). Called by the resumable runner.
    pub fn note_reject(&self) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
    }

    /// Corrupt the next save's bytes with `plan` before they hit disk —
    /// the written checkpoint must then fail validation on load.
    pub fn inject_save_faults(&self, plan: FaultPlan) {
        self.faults.lock().unwrap().plan = Some(plan);
    }

    /// Truncate the next save's temp file to `bytes` before the rename,
    /// then drop it — simulating a kill mid-write.
    pub fn inject_short_write(&self, bytes: usize) {
        self.faults.lock().unwrap().short_write = Some(bytes);
    }

    fn path_for(&self, kernel: &str, fingerprint: u64) -> Option<PathBuf> {
        let dir = self.dir.as_ref()?;
        let sane: String = kernel
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        Some(dir.join(format!("{sane}-{fingerprint:016x}.ckpt")))
    }

    /// Persist `payload` as the cell's current checkpoint, atomically
    /// replacing any previous one. Failures (injected or real I/O errors)
    /// are swallowed — a checkpoint that fails to save costs resumability,
    /// never correctness.
    pub fn save(&self, kernel: &str, fingerprint: u64, payload: &CkptPayload) {
        let Some(path) = self.path_for(kernel, fingerprint) else {
            return;
        };
        if self.try_save(&path, fingerprint, payload).is_some() {
            self.saves.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_save(&self, path: &Path, fingerprint: u64, payload: &CkptPayload) -> Option<()> {
        let dir = path.parent()?;
        fs::create_dir_all(dir).ok()?;
        let mut bytes = encode_ckpt(payload, fingerprint);
        let mut drop_tmp = false;
        {
            let mut faults = self.faults.lock().unwrap();
            if let Some(plan) = faults.plan.take() {
                plan.corrupt(&mut bytes);
            }
            if let Some(n) = faults.short_write.take() {
                bytes.truncate(n);
                drop_tmp = true;
            }
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let mut f = fs::File::create(&tmp).ok()?;
        let wrote = f.write_all(&bytes).and_then(|()| f.sync_all());
        drop(f);
        if wrote.is_err() || drop_tmp {
            let _ = fs::remove_file(&tmp);
            return None;
        }
        if fs::rename(&tmp, path).is_err() {
            let _ = fs::remove_file(&tmp);
            return None;
        }
        Some(())
    }

    /// Load and validate the cell's checkpoint, if one exists. Any
    /// validation failure counts as a reject and behaves like a miss.
    pub fn load(&self, kernel: &str, fingerprint: u64) -> Option<CkptPayload> {
        let path = self.path_for(kernel, fingerprint)?;
        let bytes = fs::read(&path).ok()?;
        match decode_ckpt(&bytes, fingerprint) {
            Some(p) => {
                self.loads.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.rejects.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Delete the cell's checkpoint (e.g. after its result is consumed by
    /// a completed experiment).
    pub fn clear(&self, kernel: &str, fingerprint: u64) {
        if let Some(path) = self.path_for(kernel, fingerprint) {
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("semloc-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn disabled_store_is_a_no_op() {
        let store = CkptStore::new();
        assert!(!store.enabled());
        store.save("k", 7, &CkptPayload::Mid(vec![1, 2, 3]));
        assert_eq!(store.load("k", 7), None);
        assert_eq!(store.stats(), (0, 0, 0));
    }

    #[test]
    fn save_load_round_trips_both_kinds() {
        let dir = temp_dir("roundtrip");
        let store = CkptStore::with_dir(&dir);
        for payload in [
            CkptPayload::Mid(vec![0xAB; 64]),
            CkptPayload::Final(vec![0x17; 9]),
            CkptPayload::Mid(Vec::new()),
        ] {
            store.save("mcf-spec", 0xDEAD_BEEF, &payload);
            assert_eq!(store.load("mcf-spec", 0xDEAD_BEEF), Some(payload));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_fingerprint_is_rejected() {
        let dir = temp_dir("foreign");
        let store = CkptStore::with_dir(&dir);
        store.save("k", 1, &CkptPayload::Final(vec![5]));
        assert_eq!(store.load("k", 1), Some(CkptPayload::Final(vec![5])));
        // Same file contents presented under a different fingerprint: the
        // file name differs so this is a plain miss...
        assert_eq!(store.load("k", 2), None);
        // ...but even a renamed file fails envelope validation.
        let from = store.path_for("k", 1).unwrap();
        let to = store.path_for("k", 2).unwrap();
        fs::copy(&from, &to).unwrap();
        let rejects_before = store.stats().2;
        assert_eq!(store.load("k", 2), None);
        assert_eq!(store.stats().2, rejects_before + 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_save_is_rejected_on_load() {
        use semloc_trace::Fault;
        let dir = temp_dir("faults");
        let store = CkptStore::with_dir(&dir);
        let faults = [
            Fault::BitFlip { offset: 15, bit: 2 },
            Fault::Truncate { keep: 12 },
            Fault::BadMagic,
            Fault::Garbage { len: 80 },
        ];
        for fault in faults {
            store.inject_save_faults(FaultPlan::with(fault.clone()));
            store.save("k", 3, &CkptPayload::Mid(vec![7; 48]));
            let rejects_before = store.stats().2;
            assert_eq!(store.load("k", 3), None, "{fault:?} was accepted");
            assert_eq!(store.stats().2, rejects_before + 1);
        }
        // A clean save afterwards works (injection is one-shot).
        store.save("k", 3, &CkptPayload::Mid(vec![2]));
        assert_eq!(store.load("k", 3), Some(CkptPayload::Mid(vec![2])));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_write_is_dropped_not_renamed() {
        let dir = temp_dir("short");
        let store = CkptStore::with_dir(&dir);
        store.save("k", 4, &CkptPayload::Final(vec![9; 32]));
        store.inject_short_write(10);
        store.save("k", 4, &CkptPayload::Final(vec![8; 32]));
        assert_eq!(store.load("k", 4), Some(CkptPayload::Final(vec![9; 32])));
        // No stray temp files left behind.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x != "ckpt"))
            .collect();
        assert!(leftovers.is_empty(), "temp files must be cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_rejected() {
        let dir = temp_dir("trunc");
        let store = CkptStore::with_dir(&dir);
        store.save("k", 5, &CkptPayload::Mid(vec![3; 40]));
        let path = store.path_for("k", 5).unwrap();
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 7, 20, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            assert_eq!(store.load("k", 5), None, "truncation to {keep} accepted");
        }
        fs::write(&path, &bytes).unwrap();
        assert!(store.load("k", 5).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn every_bit_flip_is_rejected() {
        // The decode-level corruption matrix; the harness integration test
        // repeats this against a real engine checkpoint on disk.
        let payload = CkptPayload::Mid((0u8..=47).collect());
        let good = encode_ckpt(&payload, 0x1234_5678_9ABC_DEF0);
        assert_eq!(
            decode_ckpt(&good, 0x1234_5678_9ABC_DEF0),
            Some(payload),
            "canonical bytes must decode"
        );
        for bit in 0..good.len() * 8 {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(
                decode_ckpt(&bad, 0x1234_5678_9ABC_DEF0),
                None,
                "flip of bit {bit} was accepted"
            );
        }
    }
}
