//! Fault-injection suite: every deterministic failure mode of trace
//! storage must be either *detected* (the store rejects the poisoned file
//! with a typed error at the trace layer and regenerates) or *tolerated*
//! (the fault provably leaves no cache entry behind, so nothing poisoned
//! can ever be replayed) — never silently replayed as a wrong stream.
//!
//! Each case runs the full record → corrupt → reload pipeline through a
//! real [`TraceStore`] pair (a writer that saves under injected faults, a
//! fresh reader as a second process would see the cache) and then asserts
//! the recovered stream is bit-identical to direct generation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use semloc_harness::TraceStore;
use semloc_trace::{BufferSink, Fault, FaultPlan, RecordingSink, TraceBuffer};
use semloc_workloads::{kernel_by_name, Kernel};

const BUDGET: u64 = 6_000;

/// How an injected fault must be handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    /// The reader store finds the poisoned file, rejects it with a typed
    /// error (counted in `disk_rejects`), and regenerates.
    Detected,
    /// The fault prevents a cache file from ever existing; the reader
    /// regenerates without having anything to reject.
    Tolerated,
}

struct Case {
    name: &'static str,
    plan: FaultPlan,
    short_write: Option<usize>,
    expect: Expect,
}

fn cases() -> Vec<Case> {
    vec![
        Case {
            name: "bad-magic",
            plan: FaultPlan::with(Fault::BadMagic),
            short_write: None,
            expect: Expect::Detected,
        },
        Case {
            name: "bit-flip-payload",
            // Offset lands mid-payload for any realistically-sized trace
            // (the checksum makes every single-bit payload flip fatal).
            plan: FaultPlan::with(Fault::BitFlip {
                offset: 1_000,
                bit: 5,
            }),
            short_write: None,
            expect: Expect::Detected,
        },
        Case {
            name: "truncate",
            plan: FaultPlan::with(Fault::Truncate { keep: 900 }),
            short_write: None,
            expect: Expect::Detected,
        },
        Case {
            name: "length-skew",
            plan: FaultPlan::with(Fault::LengthSkew { delta: 3 }),
            short_write: None,
            expect: Expect::Detected,
        },
        Case {
            name: "garbage-file",
            plan: FaultPlan::with(Fault::Garbage { len: 512 }),
            short_write: None,
            expect: Expect::Detected,
        },
        Case {
            name: "short-write",
            plan: FaultPlan::new(),
            short_write: Some(700),
            expect: Expect::Tolerated,
        },
    ]
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("semloc-fault-{tag}-{}", std::process::id()))
}

fn generated_stream(kernel: &str, budget: u64) -> Vec<semloc_trace::Instr> {
    let k = kernel_by_name(kernel).unwrap();
    let mut sink = RecordingSink::with_limit(budget as usize);
    k.run(&mut sink);
    sink.instrs().to_vec()
}

#[test]
fn every_fault_kind_is_detected_or_tolerated() {
    let reference = generated_stream("list", BUDGET);
    for case in cases() {
        let dir = temp_dir(case.name);
        let _ = fs::remove_dir_all(&dir);
        let k = kernel_by_name("list").unwrap();

        // Writer: capture once, saving under the injected fault.
        let writer = TraceStore::with_dir(&dir);
        writer.inject_save_faults(case.plan.clone());
        if let Some(budget) = case.short_write {
            writer.inject_short_write(budget);
        }
        writer.replay(k.as_ref(), BUDGET);

        let files = fs::read_dir(&dir).map(|d| d.flatten().count()).unwrap_or(0);
        match case.expect {
            Expect::Detected => {
                assert_eq!(
                    files, 1,
                    "{}: the poisoned file must exist on disk",
                    case.name
                )
            }
            Expect::Tolerated => {
                assert_eq!(
                    files, 0,
                    "{}: no cache file may survive the fault",
                    case.name
                )
            }
        }

        // Reader: a fresh store (second process) must never replay the
        // poisoned bytes.
        let reader = TraceStore::with_dir(&dir);
        let replay = reader.replay(k.as_ref(), BUDGET);
        match case.expect {
            Expect::Detected => assert_eq!(
                reader.disk_rejects(),
                1,
                "{}: the poisoned file must be rejected, not ignored",
                case.name
            ),
            Expect::Tolerated => assert_eq!(
                reader.disk_rejects(),
                0,
                "{}: nothing on disk, nothing to reject",
                case.name
            ),
        }
        let (hits, misses) = reader.stats();
        assert_eq!(
            (hits, misses),
            (0, 1),
            "{}: the reader must regenerate, not hit the cache",
            case.name
        );

        // Recovery must be bit-exact.
        let mut sink = RecordingSink::with_limit(BUDGET as usize);
        replay.run(&mut sink);
        assert_eq!(
            sink.instrs(),
            &reference[..],
            "{}: regenerated stream must match direct generation",
            case.name
        );

        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn metadata_lie_is_detected() {
    // Seventh failure mode: a *valid* trace file whose name lies about its
    // content (renamed or mixed-up cache entries). The frame checksum
    // cannot catch this; the label check (every file carries its own name)
    // must. Each lie renames `list`'s 2,000-instruction capture.
    let dir = temp_dir("metadata-lie");
    let honest = capture_file(&dir, "list", 2_000);
    let mcf = capture_file(&temp_dir("metadata-lie-mcf"), "mcf", 2_000);
    let _ = fs::remove_dir_all(temp_dir("metadata-lie-mcf"));
    let lies = [
        (
            "more budget",
            honest.replace("-2000-p.trace", "-8000-p.trace"),
            "list",
            8_000,
        ),
        (
            "partial claiming complete",
            honest.replace("-2000-p.trace", "-2000-f.trace"),
            "list",
            8_000,
        ),
        ("another kernel", mcf, "mcf", 2_000),
    ];
    for (what, lying_name, kernel, budget) in lies {
        assert_ne!(
            honest, lying_name,
            "{what}: test premise, the name must change"
        );
        capture_file(&dir, "list", 2_000);
        fs::rename(dir.join(&honest), dir.join(&lying_name)).unwrap();

        let reader = TraceStore::with_dir(&dir);
        let replay = reader.replay(kernel_by_name(kernel).unwrap().as_ref(), budget);
        assert_eq!(reader.disk_rejects(), 1, "{what}: the lie must be rejected");
        assert_eq!(reader.stats(), (0, 1), "{what}: the reader must regenerate");
        let mut sink = RecordingSink::with_limit(budget as usize);
        replay.run(&mut sink);
        assert_eq!(
            sink.instrs(),
            &generated_stream(kernel, budget)[..],
            "{what}: regenerated stream must match generation"
        );
    }
    let _ = fs::remove_dir_all(&dir);
}

/// The name of the one cache file a fresh store writes for `kernel` at
/// `budget` into the emptied `dir`.
fn capture_file(dir: &Path, kernel: &str, budget: u64) -> String {
    let _ = fs::remove_dir_all(dir);
    TraceStore::with_dir(dir).replay(kernel_by_name(kernel).unwrap().as_ref(), budget);
    let entries: Vec<_> = fs::read_dir(dir).unwrap().flatten().collect();
    assert_eq!(entries.len(), 1);
    entries[0].file_name().to_string_lossy().into_owned()
}

#[test]
fn empty_fault_plan_leaves_the_cache_fully_functional() {
    // Oracle-sensitivity control: with no fault injected, the very same
    // pipeline produces a clean cache hit and zero rejects — proving the
    // detections above come from the faults, not from the harness.
    let dir = temp_dir("control");
    let _ = fs::remove_dir_all(&dir);
    let k = kernel_by_name("list").unwrap();

    let writer = TraceStore::with_dir(&dir);
    writer.inject_save_faults(FaultPlan::new());
    writer.replay(k.as_ref(), BUDGET);

    let reader = TraceStore::with_dir(&dir);
    let replay = reader.replay(k.as_ref(), BUDGET);
    assert_eq!(reader.disk_rejects(), 0);
    assert_eq!(reader.stats(), (1, 0), "clean file must be a cache hit");
    let mut sink = RecordingSink::with_limit(BUDGET as usize);
    replay.run(&mut sink);
    assert_eq!(sink.instrs(), &generated_stream("list", BUDGET)[..]);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn detection_errors_are_typed_at_the_trace_layer() {
    // The store swallows read errors (by design — it regenerates); this
    // pins the *typed* errors the trace layer hands it for each fault.
    let k = kernel_by_name("list").unwrap();
    let mut sink = BufferSink::with_limit(500);
    k.run(&mut sink);
    let clean = TraceBuffer::encode(&sink.into_lanes()).to_frame("list");

    let kind_of = |plan: FaultPlan| {
        let mut bytes = clean.clone();
        plan.corrupt(&mut bytes);
        TraceBuffer::from_frame(&bytes)
            .expect_err("corrupted trace must not parse")
            .kind()
    };

    assert_eq!(
        kind_of(FaultPlan::with(Fault::BadMagic)),
        io::ErrorKind::InvalidData
    );
    assert_eq!(
        kind_of(FaultPlan::with(Fault::BitFlip {
            offset: 1_000,
            bit: 5
        })),
        io::ErrorKind::InvalidData,
        "payload flip must fail the trailer checksum"
    );
    assert_eq!(
        kind_of(FaultPlan::with(Fault::LengthSkew { delta: 1 })),
        io::ErrorKind::InvalidData
    );
    assert_eq!(
        kind_of(FaultPlan::with(Fault::Garbage { len: 256 })),
        io::ErrorKind::InvalidData
    );
    assert_eq!(
        kind_of(FaultPlan::with(Fault::Truncate { keep: 600 })),
        io::ErrorKind::InvalidData
    );
}
