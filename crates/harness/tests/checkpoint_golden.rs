//! Fork fidelity against the pinned golden matrix, and the store's
//! finished-cell files.
//!
//! Forking a warm engine is only trustworthy if it is *invisible*: for
//! every cell of the golden quick matrix (the same kernels × prefetchers
//! the golden-digest suite pins), pausing mid-run, forking, and continuing
//! the fork must reproduce the uninterrupted statistics bit for bit. The
//! per-cell digests are folded with the same FNV-1a scheme
//! `Matrix::stats_digest` uses and compared against the pinned golden
//! fingerprint, so a fork regression fails against the same constant as a
//! simulator regression.
//!
//! The second half exercises the files a killed run resumes from: a
//! finished cell's `RRES` frame answers the cell in a fresh store without a
//! capture or a simulation, its bytes are pinned so files that older
//! builds wrote keep loading, and corrupted, foreign or older files are
//! rejected in favour of a fresh (still bit-identical) run that overwrites
//! them.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use semloc_harness::{
    run_kernel_uncached, run_kernel_with_store, Engine, PrefetcherKind, RunResult, SimConfig,
    TraceStore,
};
use semloc_trace::{fnv1a, Fault, FaultPlan, SnapWriter, FNV_OFFSET};
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
fn every_golden_cell_survives_a_fork() {
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
            // forks the engine and continues the fork alone.
            for pause in [1, cfg.instr_budget / 3, cfg.instr_budget / 2] {
                let mut first = Engine::new(replay.clone(), &kind, &cfg);
                first.run_to(pause);
                let mut fork = first.clone();
                drop(first);
                assert_eq!(fork.cursor(), pause);
                fork.run_to_end();
                let r = fork.finish();
                assert_eq!(
                    r.stats_digest(),
                    reference.stats_digest(),
                    "{kernel}/{}: fork at pause {pause} diverged",
                    kind.label()
                );
            }
            digests.push(reference.stats_digest());
        }
    }
    assert_eq!(
        fold(&digests),
        GOLDEN,
        "fork suite ran against different cells than the golden matrix"
    );
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("semloc-results-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The one file in `dir`.
fn only_file(dir: &Path) -> PathBuf {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "expected exactly one result file");
    files.remove(0)
}

/// The frame kind of a file (the tag sits after the 8-byte magic).
fn kind_of(path: &Path) -> [u8; 4] {
    std::fs::read(path).unwrap()[8..12].try_into().unwrap()
}

/// Run `kernel` under `kind` through a fresh store over `dir`, as a
/// restarted process would, and return the result with that store.
fn run_fresh(
    dir: &Path,
    kernel: &str,
    kind: &PrefetcherKind,
    cfg: &SimConfig,
) -> (RunResult, TraceStore) {
    let store = TraceStore::with_result_dir(dir);
    let k = kernel_by_name(kernel).unwrap();
    (run_kernel_with_store(&store, k.as_ref(), kind, cfg), store)
}

#[test]
fn finished_cells_load_from_their_files() {
    let cfg = SimConfig::quick();
    let kind = PrefetcherKind::context();
    let reference = run_kernel_uncached(kernel_by_name("list").unwrap().as_ref(), &kind, &cfg);
    let dir = temp_dir("load");

    let (first, store) = run_fresh(&dir, "list", &kind, &cfg);
    assert_eq!(first, reference);
    assert_eq!(store.result_stats(), (0, 1), "the first run simulates");
    assert_eq!(&kind_of(&only_file(&dir)), b"RRES");

    // A restarted process answers the cell from its file, before any
    // capture, with every statistic intact.
    let (loaded, store) = run_fresh(&dir, "list", &kind, &cfg);
    assert_eq!(loaded, reference);
    assert_eq!(
        store.result_stats(),
        (1, 0),
        "the file must answer the cell"
    );
    assert_eq!(store.stats(), (0, 0), "nothing may be captured");
    assert_eq!(store.disk_rejects(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_frames_keep_their_bytes() {
    // The bytes older builds wrote: a change here stops every result
    // directory they filled from loading. A context cell's frame carries
    // its learning statistics; a stride cell's has none.
    let cfg = SimConfig::quick();
    for (kernel, kind, len, hash) in [
        (
            "list",
            PrefetcherKind::context(),
            1_428,
            0x153a_e8b7_974b_bc0c,
        ),
        ("mcf", PrefetcherKind::Stride, 290, 0x2ece_6cec_cf76_f610),
    ] {
        let dir = temp_dir(&format!("bytes-{kernel}"));
        run_fresh(&dir, kernel, &kind, &cfg);
        let bytes = std::fs::read(only_file(&dir)).unwrap();
        assert_eq!(
            (bytes.len(), fnv1a(FNV_OFFSET, &bytes)),
            (len, hash),
            "{kernel} x {}: the RRES frame changed",
            kind.label()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn corrupted_result_files_fall_back_to_a_fresh_run() {
    let cfg = SimConfig::default().with_budget(30_000);
    let kind = PrefetcherKind::Stride;
    let reference = run_kernel_uncached(kernel_by_name("array").unwrap().as_ref(), &kind, &cfg);
    let dir = temp_dir("corrupt");
    let faults = [
        Fault::BitFlip { offset: 3, bit: 1 },
        Fault::BitFlip { offset: 25, bit: 7 },
        Fault::Truncate { keep: 30 },
        Fault::BadMagic,
        Fault::Garbage { len: 512 },
    ];
    for fault in faults {
        let _ = std::fs::remove_dir_all(&dir);
        let writer = TraceStore::with_result_dir(&dir);
        writer.inject_save_faults(FaultPlan::with(fault.clone()));
        let k = kernel_by_name("array").unwrap();
        run_kernel_with_store(&writer, k.as_ref(), &kind, &cfg);

        let (r, store) = run_fresh(&dir, "array", &kind, &cfg);
        assert_eq!(
            r, reference,
            "{fault:?}: fresh run after rejection diverged"
        );
        assert_eq!(
            store.disk_rejects(),
            1,
            "{fault:?}: corruption must count as a reject"
        );
        // The rerun overwrote the corrupt file with the cell's result.
        let (again, store) = run_fresh(&dir, "array", &kind, &cfg);
        assert_eq!(again, reference);
        assert_eq!(
            store.result_stats(),
            (1, 0),
            "{fault:?}: the file was not replaced"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn on_disk_corruption_matrix_is_rejected() {
    // A real result file, bits flipped one at a time: each mutation must
    // fail validation (magic, length, or FNV-1a checksum — the per-byte
    // fold is bijective, so no flip can cancel). The frame matrix in
    // `crates/trace/tests/corruption_matrix.rs` flips every bit of a trace
    // frame; a context cell's `RRES` frame is about a kilobyte, so it gets
    // the same exhaustive treatment here, through the store, along with
    // every truncation and a few extensions.
    let cfg = SimConfig::default().with_budget(5_000);
    let kind = PrefetcherKind::context();
    let fp = Engine::new(replay_of("list", cfg.instr_budget), &kind, &cfg).fingerprint();
    let dir = temp_dir("matrix");
    run_fresh(&dir, "list", &kind, &cfg);
    let path = only_file(&dir);
    let good = std::fs::read(&path).unwrap();
    let load = || TraceStore::with_result_dir(&dir).result(fp, "list", "context");
    assert!(load().is_some(), "canonical file loads");
    assert!(
        good.len() > 500,
        "a context cell's frame holds its learning stats"
    );

    for bit in 0..good.len() * 8 {
        let mut bad = good.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &bad).unwrap();
        assert!(load().is_none(), "flip of bit {bit} was accepted");
    }
    // Every strict prefix, and the frame with bytes appended, too.
    for keep in 0..good.len() {
        std::fs::write(&path, &good[..keep]).unwrap();
        assert!(load().is_none(), "a prefix of {keep} bytes was accepted");
    }
    for extra in 1..=16 {
        let mut long = good.clone();
        long.resize(good.len() + extra, 0xA5);
        std::fs::write(&path, &long).unwrap();
        assert!(load().is_none(), "{extra} appended bytes were accepted");
    }
    std::fs::write(&path, &good).unwrap();
    assert!(load().is_some());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn result_file_of_another_cell_is_rejected() {
    // Two cells of the same kernel and prefetcher that differ only in
    // budget: each RRES frame names the same kernel and prefetcher, so only
    // its engine fingerprint tells them apart. A result file copied under
    // the other cell's name must be rejected and the cell rerun to its own
    // result.
    let long = SimConfig::quick();
    let short = SimConfig::quick().with_budget(long.instr_budget / 2);
    let kind = PrefetcherKind::Stride;
    let reference = run_kernel_uncached(kernel_by_name("list").unwrap().as_ref(), &kind, &short);

    let long_dir = temp_dir("foreign-long");
    let short_dir = temp_dir("foreign-short");
    run_fresh(&long_dir, "list", &kind, &long);
    run_fresh(&short_dir, "list", &kind, &short);
    let short_file = only_file(&short_dir);
    std::fs::copy(only_file(&long_dir), &short_file).unwrap();

    let (rerun, store) = run_fresh(&short_dir, "list", &kind, &short);
    assert_eq!(store.disk_rejects(), 1, "foreign RRES must be rejected");
    assert_eq!(rerun, reference, "the cell must rerun to its own result");
    let _ = std::fs::remove_dir_all(&long_dir);
    let _ = std::fs::remove_dir_all(&short_dir);
}

#[test]
fn older_mid_run_checkpoint_is_rejected_and_replaced() {
    // Builds that saved mid-run checkpoints left a `SIMC` frame (the
    // engine fingerprint, the cursor and the snapshot payload) under the
    // cell's file name until the cell finished. A killed run of such a
    // build leaves one behind: it counts as a reject, the cell reruns from
    // instruction 0, and its result replaces the file. The store refuses
    // the frame by its kind, whatever its payload holds.
    let cfg = SimConfig::default().with_budget(30_000);
    let kind = PrefetcherKind::context();
    let reference = run_kernel_uncached(kernel_by_name("mcf").unwrap().as_ref(), &kind, &cfg);
    let fp = Engine::new(replay_of("mcf", cfg.instr_budget), &kind, &cfg).fingerprint();
    let mut w = SnapWriter::framed(*b"SIMC", 3);
    w.put_u64(fp);
    w.put_u64(10_000);
    w.put_len(0);
    let dir = temp_dir("simc");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("mcf-{fp:016x}.ckpt"));
    std::fs::write(&path, w.into_frame()).unwrap();

    let (r, store) = run_fresh(&dir, "mcf", &kind, &cfg);
    assert_eq!(
        store.disk_rejects(),
        1,
        "the mid-run frame must be rejected"
    );
    assert_eq!(store.result_stats(), (0, 1));
    assert_eq!(r, reference, "the cell must rerun to its own result");
    assert_eq!(
        only_file(&dir),
        path,
        "the result keeps the cell's file name"
    );
    assert_eq!(&kind_of(&path), b"RRES");
    let (loaded, store) = run_fresh(&dir, "mcf", &kind, &cfg);
    assert_eq!(loaded, reference);
    assert_eq!(store.result_stats(), (1, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
