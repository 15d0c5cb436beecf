//! Checkpoint/restore fidelity against the pinned golden matrix.
//!
//! The checkpointable engine is only trustworthy if interrupting a run is
//! *invisible*: for every cell of the golden quick matrix (the same
//! kernels × prefetchers the golden-digest suite pins), pausing mid-run,
//! serializing the checkpoint to bytes, restoring it into a cold engine,
//! and continuing must reproduce the uninterrupted statistics bit for bit.
//! The per-cell digests are folded with the same FNV-1a scheme
//! `Matrix::stats_digest` uses and compared against the pinned golden
//! fingerprint, so a checkpoint-path regression fails against the same
//! constant as a simulator regression.
//!
//! The second half exercises on-disk checkpoints end to end: a killed
//! run's mid-run `SIMC` frame resumes from disk, a finished cell's final
//! `RRES` frame short-circuits simulation, and corrupted or foreign files
//! are rejected in favour of a fresh (still bit-identical) run.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use semloc_harness::{
    run_kernel_uncached, run_resumable, CkptStore, Engine, PrefetcherKind, SimCheckpoint, SimConfig,
};
use semloc_trace::{Fault, FaultPlan};
use semloc_workloads::{capture_kernel, kernel_by_name, ReplayKernel};

/// Same pinned fingerprint as `golden_digest.rs`.
const GOLDEN: u64 = 0xe1cb_22f1_96f5_5582;

const KERNELS: [&str; 3] = ["array", "list", "mcf"];

fn lineup() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::context(),
    ]
}

fn replay_of(name: &str, budget: u64) -> ReplayKernel {
    let k = kernel_by_name(name).unwrap();
    ReplayKernel::new(Arc::new(capture_kernel(k.as_ref(), budget)))
}

/// FNV-1a fold of per-cell digests, mirroring `Matrix::stats_digest`
/// (kernel order, then prefetcher order).
fn fold(digests: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in digests {
        for b in d.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[test]
fn every_golden_cell_survives_checkpoint_restore_continue() {
    let cfg = SimConfig::quick();
    let mut digests = Vec::new();
    for kernel in KERNELS {
        let replay = replay_of(kernel, cfg.instr_budget);
        for kind in lineup() {
            // Uninterrupted reference for this cell.
            let reference = {
                let mut e = Engine::new(replay.clone(), &kind, &cfg);
                e.run_to_end();
                e.finish()
            };
            // Interrupt at several points through the run; each pause
            // round-trips the checkpoint through its byte encoding and a
            // cold engine before continuing.
            for pause in [1, cfg.instr_budget / 3, cfg.instr_budget / 2] {
                let mut first = Engine::new(replay.clone(), &kind, &cfg);
                first.run_to(pause);
                let bytes = first.checkpoint().to_bytes();
                drop(first); // the "killed" process

                let ckpt = SimCheckpoint::from_bytes(&bytes).unwrap();
                let mut resumed = Engine::new(replay.clone(), &kind, &cfg);
                resumed.restore(&ckpt).unwrap();
                assert_eq!(resumed.cursor(), pause);
                resumed.run_to_end();
                let r = resumed.finish();
                assert_eq!(
                    r.stats_digest(),
                    reference.stats_digest(),
                    "{kernel}/{}: resume from pause at {pause} diverged",
                    kind.label()
                );
            }
            digests.push(reference.stats_digest());
        }
    }
    assert_eq!(
        fold(&digests),
        GOLDEN,
        "checkpoint suite ran against different cells than the golden matrix"
    );
}

#[test]
fn disk_checkpoints_resume_and_short_circuit() {
    let cfg = SimConfig::quick();
    let kind = PrefetcherKind::context();
    let replay = replay_of("list", cfg.instr_budget);
    let reference = {
        let mut e = Engine::new(replay.clone(), &kind, &cfg);
        e.run_to_end();
        e.finish()
    };

    let dir = std::env::temp_dir().join(format!("semloc-ckpt-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CkptStore::with_dir(&dir);

    // "Kill" a run partway: persist its mid-run checkpoint exactly as the
    // resumable runner would have.
    let mut victim = Engine::new(replay.clone(), &kind, &cfg);
    victim.run_to(cfg.instr_budget / 2);
    let fp = victim.fingerprint();
    store.save("list", fp, &victim.checkpoint().to_bytes());
    drop(victim);

    // A restarted process resumes from disk and matches bit for bit.
    let resumed = run_resumable(&store, replay.clone(), &kind, &cfg);
    assert_eq!(resumed.stats_digest(), reference.stats_digest());
    let (_, loads, rejects) = store.stats();
    assert!(loads >= 1, "the mid-run checkpoint must have been loaded");
    assert_eq!(rejects, 0);

    // The finished run left a final checkpoint (the frame's kind tag sits
    // after the 8-byte magic): the next invocation short-circuits
    // simulation entirely and still matches.
    let file = std::fs::read(new_file(&dir, &[])).unwrap();
    assert_eq!(&file[8..12], b"RRES", "expected a final checkpoint on disk");
    let (_, loads, _) = store.stats();
    let shortcut = run_resumable(&store, replay.clone(), &kind, &cfg);
    assert_eq!(store.stats().1, loads + 1, "the final checkpoint must load");
    assert_eq!(shortcut.stats_digest(), reference.stats_digest());
    assert_eq!(shortcut.cpu, reference.cpu);
    assert_eq!(shortcut.mem, reference.mem);
    assert_eq!(shortcut.pf, reference.pf);
    assert_eq!(shortcut.learn, reference.learn);
    assert_eq!(shortcut.storage_bytes, reference.storage_bytes);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_disk_checkpoints_fall_back_to_a_fresh_run() {
    let cfg = SimConfig::default().with_budget(30_000);
    let kind = PrefetcherKind::Stride;
    let replay = replay_of("array", cfg.instr_budget);
    let reference = run_kernel_uncached(kernel_by_name("array").unwrap().as_ref(), &kind, &cfg);

    let dir = std::env::temp_dir().join(format!("semloc-ckpt-corrupt-{}", std::process::id()));
    let faults = [
        Fault::BitFlip { offset: 3, bit: 1 },
        Fault::BitFlip { offset: 25, bit: 7 },
        Fault::Truncate { keep: 30 },
        Fault::BadMagic,
        Fault::Garbage { len: 512 },
    ];
    for fault in faults {
        let _ = std::fs::remove_dir_all(&dir);
        let store = CkptStore::with_dir(&dir);
        let mut victim = Engine::new(replay.clone(), &kind, &cfg);
        victim.run_to(10_000);
        let fp = victim.fingerprint();
        store.inject_save_faults(FaultPlan::with(fault.clone()));
        store.save("array", fp, &victim.checkpoint().to_bytes());
        let r = run_resumable(&store, replay.clone(), &kind, &cfg);
        assert_eq!(
            r.stats_digest(),
            reference.stats_digest(),
            "{fault:?}: fresh run after rejection diverged"
        );
        assert!(
            store.stats().2 >= 1,
            "{fault:?}: corruption must be counted as a reject"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn on_disk_corruption_matrix_is_rejected() {
    // A real engine checkpoint on disk, bits flipped one at a time: each
    // mutation must fail validation (magic, length, or FNV-1a checksum —
    // the per-byte fold is bijective, so no flip can cancel). The frame
    // matrix in `crates/trace/tests/corruption_matrix.rs` flips literally
    // every bit of a trace frame; here a real multi-kilobyte `SIMC` frame
    // gets the exhaustive treatment on its header and trailer plus a dense
    // sample of the payload, through the store. Caches are shrunk so the
    // snapshot stays small enough to hammer.
    let mut cfg = SimConfig::default().with_budget(2_000);
    cfg.mem.l1 = semloc_mem::CacheConfig {
        size_bytes: 2048,
        ways: 2,
        line_bytes: 64,
        latency: 2,
        mshrs: 4,
    };
    cfg.mem.l2 = semloc_mem::CacheConfig {
        size_bytes: 8192,
        ways: 4,
        line_bytes: 64,
        latency: 20,
        mshrs: 8,
    };
    let kind = PrefetcherKind::None;
    let replay = replay_of("array", cfg.instr_budget);
    let mut e = Engine::new(replay, &kind, &cfg);
    e.run_to(1_000);
    let fp = e.fingerprint();

    let dir = std::env::temp_dir().join(format!("semloc-ckpt-matrix-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CkptStore::with_dir(&dir);
    store.save("array", fp, &e.checkpoint().to_bytes());

    // Locate the file the store wrote and take its canonical bytes.
    let entries: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(entries.len(), 1);
    let path = &entries[0];
    let good = std::fs::read(path).unwrap();
    let load = || store.load("array", fp, SimCheckpoint::from_bytes);
    assert!(load().is_some(), "canonical file loads");

    // Exhaustive over the header and trailer; dense coprime-stride sample
    // through the payload so the test stays fast while touching every
    // byte region.
    let total_bits = good.len() * 8;
    // Header: magic, kind tag, version. Trailer: body length, checksum.
    let header_bits = 16 * 8;
    let trailer_bits = 16 * 8;
    let mut bits: Vec<usize> = (0..header_bits.min(total_bits)).collect();
    bits.extend(total_bits.saturating_sub(trailer_bits)..total_bits);
    bits.extend((header_bits..total_bits.saturating_sub(trailer_bits)).step_by(7));
    for bit in bits {
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(path, &bad).unwrap();
        assert!(load().is_none(), "flip of bit {bit} was accepted");
    }
    std::fs::write(path, &good).unwrap();
    assert!(load().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one file in `dir` that `files_before` does not list.
fn new_file(dir: &Path, files_before: &[PathBuf]) -> PathBuf {
    let mut new: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| !files_before.contains(p))
        .collect();
    assert_eq!(new.len(), 1, "expected exactly one new checkpoint file");
    new.remove(0)
}

#[test]
fn final_checkpoint_of_another_cell_is_rejected() {
    // Two cells of the same kernel and prefetcher that differ only in
    // budget: each RRES frame names the same kernel and prefetcher, so only
    // its engine fingerprint tells them apart. A final checkpoint copied
    // under the other cell's fingerprint must be rejected and the cell
    // rerun to its own result.
    let long = SimConfig::quick();
    let short = SimConfig::quick().with_budget(long.instr_budget / 2);
    let kind = PrefetcherKind::Stride;
    let replay = replay_of("list", long.instr_budget);
    let reference = run_kernel_uncached(kernel_by_name("list").unwrap().as_ref(), &kind, &short);

    let dir = std::env::temp_dir().join(format!("semloc-ckpt-foreign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CkptStore::with_dir(&dir);
    run_resumable(&store, replay.clone(), &kind, &long);
    let long_file = new_file(&dir, &[]);
    let r = run_resumable(&store, replay.clone(), &kind, &short);
    assert_eq!(r.stats_digest(), reference.stats_digest());
    let short_file = new_file(&dir, std::slice::from_ref(&long_file));

    std::fs::copy(&long_file, &short_file).unwrap();
    let rejects = store.stats().2;
    let rerun = run_resumable(&store, replay, &kind, &short);
    assert_eq!(
        store.stats().2,
        rejects + 1,
        "foreign RRES must be rejected"
    );
    assert_eq!(
        rerun.stats_digest(),
        reference.stats_digest(),
        "the cell must rerun to its own result"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
