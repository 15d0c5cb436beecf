//! Before/after measurement of the hot-path rewrites (written to
//! `BENCH_hotpath.json`), of the record-once/replay-many trace store
//! (written to `BENCH_trace.json`), and of the checkpointable engine +
//! result memo (written to `BENCH_ckpt.json`).
//!
//! "Before" numbers come from the legacy replicas in
//! [`semloc_bench::legacy`] (linear-scan prefetch queue, nested-`Vec`
//! cache, two-pass hashing, the original `on_access` pipeline) and — for
//! the trace rows — from [`run_kernel_uncached`], which regenerates the
//! workload for every matrix cell as the harness did before the store.
//! For the checkpoint rows, "before" is the pre-checkpoint harness
//! behaviour: every figure pipeline re-simulates cells it shares with
//! other figures ([`TraceStore::without_result_memo`]), and a killed run
//! restarts from instruction zero. "After" numbers come from the shipped
//! implementations. Run with `cargo run --release -p semloc-bench --bin
//! bench_compare [hotpath.json] [trace.json] [ckpt.json]`.

// Wall-clock timing is this binary's purpose (semloc-lint rule D2 exempts the bench crate).
#![allow(clippy::disallowed_methods)]

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use semloc_bench::legacy::{LegacyContextPrefetcher, LinearPrefetchQueue, NestedCache};
use semloc_context::attrs::{ContextKey, FeatureVec, FullHash};
use semloc_context::pfq::{PfqHit, PrefetchQueue};
use semloc_context::{ContextConfig, ContextPrefetcher};
use semloc_cpu::Cpu;
use semloc_harness::{
    run_kernel_uncached, run_kernel_with_store, run_resumable, storage_sweep_with_store,
    CkptPayload, CkptStore, Engine, PrefetcherKind, SimCheckpoint, SimConfig, TraceStore,
};
use semloc_mem::{Cache, CacheConfig, Hierarchy, MemPressure, Prefetcher};
use semloc_trace::{AccessContext, CountingSink, SemanticHints};
use semloc_workloads::graph500::{Graph500, Layout};
use semloc_workloads::ukernels::{HashTest, ListTraversal};
use semloc_workloads::{capture_kernel, kernel_by_name, Kernel, KernelBox, ReplayKernel};

fn pressure() -> MemPressure {
    MemPressure {
        l1_mshr_free: 4,
        l2_mshr_free: 20,
    }
}

/// xorshift64 — deterministic input streams.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Best-of-`reps` ns/element for `f` (each run processing `elems`
/// elements). The minimum is the standard microbenchmark statistic: every
/// source of interference (scheduler, frequency, cache pollution) only
/// adds time, so the fastest observation is closest to the true cost.
fn time_per(reps: usize, elems: u64, mut f: impl FnMut() -> u64) -> f64 {
    black_box(f()); // warm-up
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64 / elems as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// A mixed access stream exercising every attribute and phase behaviour.
fn stream(n: u64) -> Vec<AccessContext> {
    let mut rng = Rng(0xfeed_5eed);
    (0..n)
        .map(|seq| {
            let r = rng.next();
            let addr = match seq % 3 {
                0 => 0x10_0000 + seq * 64,
                1 => 0x80_0000 + (seq % 97) * 160,
                _ => 0x100_0000 + (r % (1 << 22)),
            };
            let mut c = AccessContext::bare(seq, 0x400 + (seq % 3) * 0x10, addr, seq % 7 == 0);
            c.reg1 = addr >> 5;
            c.branch_history = r as u16;
            c.last_loaded = r;
            if seq % 3 == 1 {
                c.hints = Some(SemanticHints::link(2, 8));
            }
            c
        })
        .collect()
}

fn bench_hashing(ctxs: &[AccessContext]) -> (f64, f64) {
    let two_pass = time_per(15, ctxs.len() as u64, || {
        let mut acc = 0u64;
        for c in ctxs {
            let full = FullHash::of(c, 5);
            let key = ContextKey::of(c, 4, 5);
            acc = acc.wrapping_add(full.0 as u64).wrapping_add(key.0 as u64);
        }
        acc
    });
    let single_pass = time_per(15, ctxs.len() as u64, || {
        let mut acc = 0u64;
        for c in ctxs {
            let fv = FeatureVec::extract(c, 5);
            acc = acc
                .wrapping_add(fv.full_hash().0 as u64)
                .wrapping_add(fv.key(4).0 as u64);
        }
        acc
    });
    (two_pass, single_pass)
}

/// One op per element: the per-access queue traffic of the prediction
/// loop (record_access + predicts/predicts_real + pushes), on a full
/// 128-entry queue.
fn bench_pfq(n: u64) -> (f64, f64) {
    let ops: Vec<(u64, u64)> = {
        let mut rng = Rng(0xabcd);
        (0..n).map(|_| (rng.next() % 6, rng.next() % 512)).collect()
    };
    let key = ContextKey(1);
    let full = FullHash(2);
    let linear = time_per(15, n, || {
        let mut q = LinearPrefetchQueue::new(128);
        let mut hits: Vec<PfqHit> = Vec::new();
        let mut acc = 0u64;
        for (seq, &(op, block)) in ops.iter().enumerate() {
            match op {
                0..=2 => {
                    let (id, _) = q.push(block, key, full, 1, seq as u64, op == 2);
                    acc = acc.wrapping_add(id);
                }
                3 => {
                    hits.clear();
                    q.record_access(block, seq as u64, &mut hits);
                    acc = acc.wrapping_add(hits.len() as u64);
                }
                4 => acc = acc.wrapping_add(q.predicts(block) as u64),
                _ => acc = acc.wrapping_add(q.predicts_real(block) as u64),
            }
        }
        acc
    });
    let indexed = time_per(15, n, || {
        let mut q = PrefetchQueue::new(128);
        let mut hits: Vec<PfqHit> = Vec::new();
        let mut acc = 0u64;
        for (seq, &(op, block)) in ops.iter().enumerate() {
            match op {
                0..=2 => {
                    let (id, _) = q.push(block, key, full, 1, seq as u64, op == 2);
                    acc = acc.wrapping_add(id);
                }
                3 => {
                    hits.clear();
                    q.record_access(block, seq as u64, &mut hits);
                    acc = acc.wrapping_add(hits.len() as u64);
                }
                4 => acc = acc.wrapping_add(q.predicts(block) as u64),
                _ => acc = acc.wrapping_add(q.predicts_real(block) as u64),
            }
        }
        acc
    });
    (linear, indexed)
}

fn bench_cache(n: u64) -> (f64, f64) {
    let addrs: Vec<(u64, u64)> = {
        let mut rng = Rng(0x77);
        (0..n)
            .map(|_| (rng.next() % 4, (rng.next() % (1 << 21)) & !0x3f))
            .collect()
    };
    let nested = time_per(15, n, || {
        let mut c = NestedCache::new(&CacheConfig::l1d());
        let mut acc = 0u64;
        for (now, &(op, addr)) in addrs.iter().enumerate() {
            if op == 0 {
                acc = acc.wrapping_add(c.fill(addr, now as u64 + 20, op == 0, false) as u64);
            } else {
                acc = acc.wrapping_add(matches!(
                    c.lookup_demand(addr, now as u64, op == 1),
                    semloc_bench::legacy::NestedLookup::Hit { .. }
                ) as u64);
            }
        }
        acc
    });
    let flat = time_per(15, n, || {
        let mut c = Cache::new(CacheConfig::l1d());
        let mut acc = 0u64;
        for (now, &(op, addr)) in addrs.iter().enumerate() {
            if op == 0 {
                acc = acc.wrapping_add(c.fill(addr, now as u64 + 20, op == 0, false).valid as u64);
            } else {
                acc = acc.wrapping_add(matches!(
                    c.lookup_demand(addr, now as u64, op == 1),
                    semloc_mem::LookupResult::Hit { .. }
                ) as u64);
            }
        }
        acc
    });
    (nested, flat)
}

fn bench_on_access(ctxs: &[AccessContext]) -> (f64, f64) {
    let legacy = time_per(9, ctxs.len() as u64, || {
        let mut p = LegacyContextPrefetcher::new(ContextConfig::default());
        let mut out = Vec::new();
        let mut acc = 0u64;
        for c in ctxs {
            out.clear();
            p.on_access(c, pressure(), &mut out);
            acc = acc.wrapping_add(out.len() as u64);
        }
        acc
    });
    let new = time_per(9, ctxs.len() as u64, || {
        let mut p = ContextPrefetcher::new(ContextConfig::default());
        let mut out = Vec::new();
        let mut acc = 0u64;
        for c in ctxs {
            out.clear();
            Prefetcher::on_access(&mut p, c, pressure(), &mut out);
            acc = acc.wrapping_add(out.len() as u64);
        }
        acc
    });
    (legacy, new)
}

/// Wall-clock of one full 50k-instruction simulated run of the `mcf`
/// kernel under prefetcher `P` — the `simulator_throughput/run_50k_instr/
/// context` scenario. Returns median ns per run.
fn bench_sim<P: Prefetcher, F: FnMut() -> P>(cfg: &SimConfig, mut build: F) -> f64 {
    let kernel = kernel_by_name("mcf").expect("registered");
    time_per(9, 1, || {
        let hierarchy = Hierarchy::new(cfg.mem.clone(), build());
        let mut cpu = Cpu::new(cfg.cpu.clone(), hierarchy, cfg.instr_budget);
        kernel.run(&mut cpu);
        let (stats, _mem) = cpu.finish();
        stats.instructions
    })
}

/// Production-scale kernel instances for the trace-store rows. At the
/// ROADMAP's target scales, per-run data-structure construction (graph
/// generation, list/table allocation) is a substantial share of each matrix
/// cell — exactly the cost the record-once/replay-many store amortizes
/// across prefetcher columns.
fn big_kernels() -> Vec<KernelBox> {
    vec![
        Box::new(Graph500 {
            layout: Layout::Csr,
            vertices: 131_072,
            degree: 16,
            seed: 71,
        }),
        Box::new(ListTraversal {
            nodes: 524_288,
            work: 3,
            seed: 11,
        }),
        Box::new(HashTest {
            buckets: 131_072,
            elems: 262_144,
            seed: 41,
        }),
    ]
}

/// The multi-column lineup of the end-to-end row: baseline plus the four
/// table-driven competitors (the Fig 12 set minus the context prefetcher,
/// whose training cost would dilute what this row isolates).
fn trace_lineup() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
    ]
}

/// ns/instruction to *produce* the workload stream: running the generator
/// (graph construction + BFS) vs replaying a captured [`TraceBuffer`].
fn bench_stream_production(kernel: &dyn Kernel, budget: u64) -> (f64, f64) {
    let generate = time_per(9, budget, || {
        let mut sink = CountingSink::with_limit(budget);
        kernel.run(&mut sink);
        sink.total
    });
    let trace = std::sync::Arc::new(capture_kernel(kernel, budget));
    let replayer = ReplayKernel::new(trace);
    let replay = time_per(9, budget, || {
        let mut sink = CountingSink::with_limit(budget);
        replayer.run(&mut sink);
        sink.total
    });
    (generate, replay)
}

/// Wall-clock ns for the full kernels × lineup matrix: regenerating the
/// workload per cell (the pre-store harness behaviour, kept as
/// [`run_kernel_uncached`]) vs a fresh [`TraceStore`] capturing each kernel
/// once and replaying it for every column.
fn bench_trace_matrix(
    kernels: &[KernelBox],
    lineup: &[PrefetcherKind],
    cfg: &SimConfig,
) -> (f64, f64) {
    let regenerate = time_per(3, 1, || {
        let mut acc = 0u64;
        for k in kernels {
            for pf in lineup {
                acc = acc.wrapping_add(run_kernel_uncached(k.as_ref(), pf, cfg).cpu.cycles);
            }
        }
        acc
    });
    let replay = time_per(3, 1, || {
        let store = TraceStore::new();
        let mut acc = 0u64;
        for k in kernels {
            for pf in lineup {
                acc = acc.wrapping_add(
                    run_kernel_with_store(&store, k.as_ref(), pf, cfg)
                        .cpu
                        .cycles,
                );
            }
        }
        acc
    });
    (regenerate, replay)
}

/// One calibrated-context cell on a warm store vs uncached: the store
/// memoizes the no-prefetch probe and the captured stream, so a calibrated
/// re-run pays only the calibrated simulation itself.
fn bench_calibrated_rerun(kernel: &dyn Kernel, cfg: &SimConfig) -> (f64, f64) {
    let pf = PrefetcherKind::context_calibrated();
    let uncached = time_per(3, 1, || run_kernel_uncached(kernel, &pf, cfg).cpu.cycles);
    let store = TraceStore::new();
    run_kernel_with_store(&store, kernel, &pf, cfg); // warm capture + probe memo
    let warm = time_per(3, 1, || {
        run_kernel_with_store(&store, kernel, &pf, cfg).cpu.cycles
    });
    (uncached, warm)
}

/// The cells an `all_experiments`-style figure pipeline simulates: the
/// quick matrix (baseline + default context) followed by the Fig 13
/// storage sweep over `[512, 2048]`. The sweep's per-kernel baseline, its
/// ranking run at the default configuration, and its 2048-entry point all
/// duplicate matrix cells — exactly the overlap the result memo collapses.
/// Returns a digest over every statistic so before/after can assert
/// bit-identity.
fn figure_pipeline(store: &TraceStore, kernels: &[KernelBox], cfg: &SimConfig) -> u64 {
    let lineup = [PrefetcherKind::None, PrefetcherKind::context()];
    let mut acc = 0u64;
    for k in kernels {
        for pf in &lineup {
            acc ^= run_kernel_with_store(store, k.as_ref(), pf, cfg).stats_digest();
        }
    }
    for p in storage_sweep_with_store(store, kernels, &[512, 2048], cfg, |_| {}) {
        acc ^= p.all.to_bits() ^ p.top10.to_bits().rotate_left(17);
    }
    acc
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_hotpath.json".into());
    let trace_out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_trace.json".into());
    let ctxs = stream(100_000);

    println!("component                       before (ns)   after (ns)   speedup");
    println!("-----------------------------------------------------------------");
    let mut json = String::from("{\n");
    let mut row = |name: &str, bench: &str, before: f64, after: f64| {
        let speedup = before / after;
        println!("{name:<30} {before:>12.2} {after:>12.2} {speedup:>8.2}x");
        let _ = writeln!(
            json,
            "  \"{bench}\": {{\"before_ns\": {before:.2}, \"after_ns\": {after:.2}, \"speedup\": {speedup:.3}}},"
        );
        speedup
    };

    let (two_pass, single_pass) = bench_hashing(&ctxs);
    row(
        "context hashing (per access)",
        "context_hashing/two_pass_vs_single_pass",
        two_pass,
        single_pass,
    );

    let (linear, indexed) = bench_pfq(200_000);
    row(
        "prefetch queue (per op)",
        "prefetch_queue/linear_vs_indexed",
        linear,
        indexed,
    );

    let (nested, flat) = bench_cache(400_000);
    row(
        "cache array (per access)",
        "cache/nested_vs_flat",
        nested,
        flat,
    );

    let (legacy_oa, new_oa) = bench_on_access(&ctxs);
    row(
        "prefetcher on_access",
        "context_prefetcher/on_access_mixed",
        legacy_oa,
        new_oa,
    );

    let cfg = SimConfig::default().with_budget(50_000);
    let sim_before = bench_sim(&cfg, || {
        LegacyContextPrefetcher::new(ContextConfig::default())
    });
    let sim_after = bench_sim(&cfg, || ContextPrefetcher::new(ContextConfig::default()));
    let sim_speedup = row(
        "simulator run_50k_instr/context",
        "simulator_throughput/run_50k_instr/context",
        sim_before,
        sim_after,
    );
    let _ = write!(
        json,
        "  \"meta\": {{\"kernel\": \"mcf\", \"instr_budget\": {}, \"note\": \"before = legacy replicas (linear PFQ, two-pass hashing, original on_access pipeline); cache comparison is component-level\"}}\n}}\n",
        cfg.instr_budget
    );
    std::fs::write(&out_path, &json).expect("write BENCH_hotpath.json");
    println!("\nwrote {out_path}");

    // ---- trace store: record-once / replay-many ------------------------
    let kernels = big_kernels();
    let lineup = trace_lineup();
    let cfg = SimConfig::default().with_budget(60_000);

    // Correctness first (untimed): the store must be invisible in the
    // results — every cell's statistics digest must match the uncached run.
    {
        let store = TraceStore::new();
        for k in &kernels {
            for pf in &lineup {
                let cached = run_kernel_with_store(&store, k.as_ref(), pf, &cfg);
                let uncached = run_kernel_uncached(k.as_ref(), pf, &cfg);
                assert_eq!(
                    cached.stats_digest(),
                    uncached.stats_digest(),
                    "{}/{}: replay-backed stats diverged from regeneration",
                    k.name(),
                    pf.label()
                );
            }
        }
    }

    println!();
    println!("trace store                     before (ns)   after (ns)   speedup");
    println!("-----------------------------------------------------------------");
    let mut trace_json = String::from("{\n");
    let mut trace_row = |name: &str, bench: &str, before: f64, after: f64| {
        let speedup = before / after;
        println!("{name:<30} {before:>12.2} {after:>12.2} {speedup:>8.2}x");
        let _ = writeln!(
            trace_json,
            "  \"{bench}\": {{\"before_ns\": {before:.2}, \"after_ns\": {after:.2}, \"speedup\": {speedup:.3}}},"
        );
        speedup
    };

    let (generate, replay) = bench_stream_production(kernels[0].as_ref(), cfg.instr_budget);
    trace_row(
        "stream production (per instr)",
        "trace_store/replay_vs_generate",
        generate,
        replay,
    );

    let (regen_matrix, replay_matrix) = bench_trace_matrix(&kernels, &lineup, &cfg);
    let matrix_speedup = trace_row(
        "matrix end-to-end (3k x 5pf)",
        "trace_store/matrix_end_to_end",
        regen_matrix,
        replay_matrix,
    );

    let (cal_uncached, cal_warm) = bench_calibrated_rerun(kernels[1].as_ref(), &cfg);
    let cal_speedup = trace_row(
        "calibrated cell, warm store",
        "trace_store/calibrated_rerun",
        cal_uncached,
        cal_warm,
    );

    let _ = write!(
        trace_json,
        "  \"meta\": {{\"kernels\": [\"graph500 32768v x16\", \"list 131072n\", \"hashtest 32768b/65536e\"], \"lineup\": [\"none\", \"stride\", \"ghb-g/dc\", \"ghb-pc/dc\", \"sms\"], \"instr_budget\": {}, \"note\": \"before = run_kernel_uncached (regenerate per cell); after = shared TraceStore (capture once, replay per column); per-cell stats digests asserted equal before timing\"}}\n}}\n",
        cfg.instr_budget
    );
    std::fs::write(&trace_out_path, &trace_json).expect("write BENCH_trace.json");
    println!("\nwrote {trace_out_path}");

    // ---- checkpointable engine + full-run result memo ------------------
    let ckpt_out_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_ckpt.json".into());
    let small: Vec<KernelBox> = ["array", "list", "mcf"]
        .iter()
        .map(|n| kernel_by_name(n).expect("registered"))
        .collect();
    let cfg = SimConfig::quick();

    // Correctness first (untimed): sharing warm state across the matrix
    // and the sweep must be invisible in every statistic.
    let pipeline_digest = figure_pipeline(&TraceStore::without_result_memo(), &small, &cfg);
    assert_eq!(
        figure_pipeline(&TraceStore::new(), &small, &cfg),
        pipeline_digest,
        "result memo changed the figure pipeline's statistics"
    );

    println!();
    println!("checkpoint engine               before (ns)   after (ns)   speedup");
    println!("-----------------------------------------------------------------");
    let mut ckpt_json = String::from("{\n");
    let mut ckpt_row = |name: &str, bench: &str, before: f64, after: f64| {
        let speedup = before / after;
        println!("{name:<30} {before:>12.2} {after:>12.2} {speedup:>8.2}x");
        let _ = writeln!(
            ckpt_json,
            "  \"{bench}\": {{\"before_ns\": {before:.2}, \"after_ns\": {after:.2}, \"speedup\": {speedup:.3}}},"
        );
        speedup
    };

    let pipe_before = time_per(2, 1, || {
        figure_pipeline(&TraceStore::without_result_memo(), &small, &cfg)
    });
    let pipe_after = time_per(2, 1, || figure_pipeline(&TraceStore::new(), &small, &cfg));
    let pipeline_speedup = ckpt_row(
        "matrix+sweep pipeline",
        "checkpoint/matrix_sweep_pipeline",
        pipe_before,
        pipe_after,
    );

    let kind = PrefetcherKind::context();
    let replay = ReplayKernel::new(std::sync::Arc::new(capture_kernel(
        kernel_by_name("list").expect("registered").as_ref(),
        cfg.instr_budget,
    )));
    let ckpt_bytes = {
        let mut e = Engine::new(replay.clone(), &kind, &cfg);
        e.run_to(cfg.instr_budget / 2);
        e.checkpoint().to_bytes()
    };
    let restart = time_per(5, 1, || {
        let mut e = Engine::new(replay.clone(), &kind, &cfg);
        e.run_to_end();
        e.finish().cpu.cycles
    });
    let resume = time_per(5, 1, || {
        let ckpt = SimCheckpoint::from_bytes(&ckpt_bytes).expect("own checkpoint decodes");
        let mut e = Engine::new(replay.clone(), &kind, &cfg);
        e.restore(&ckpt).expect("own checkpoint restores");
        e.run_to_end();
        e.finish().cpu.cycles
    });
    let resume_speedup = ckpt_row(
        "kill at 50%: restart vs resume",
        "checkpoint/kill_resume_half",
        restart,
        resume,
    );

    let dir = std::env::temp_dir().join(format!("semloc-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = CkptStore::with_dir(&dir);
    let warm = run_resumable(&store, replay.clone(), &kind, &cfg);
    match store.load(
        "list",
        Engine::new(replay.clone(), &kind, &cfg).fingerprint(),
    ) {
        Some(CkptPayload::Final(_)) => {}
        other => panic!("expected a final checkpoint on disk, got {other:?}"),
    }
    let disabled = CkptStore::new();
    let fresh_once = run_resumable(&disabled, replay.clone(), &kind, &cfg);
    assert_eq!(
        warm.stats_digest(),
        fresh_once.stats_digest(),
        "resumable run diverged from the checkpoint-free run"
    );
    let fresh = time_per(5, 1, || {
        run_resumable(&disabled, replay.clone(), &kind, &cfg)
            .cpu
            .cycles
    });
    let shortcut = time_per(5, 1, || {
        run_resumable(&store, replay.clone(), &kind, &cfg)
            .cpu
            .cycles
    });
    let _ = std::fs::remove_dir_all(&dir);
    let shortcut_speedup = ckpt_row(
        "finished cell, final ckpt",
        "checkpoint/final_short_circuit",
        fresh,
        shortcut,
    );

    let _ = write!(
        ckpt_json,
        "  \"meta\": {{\"kernels\": [\"array\", \"list\", \"mcf\"], \"instr_budget\": {}, \"sweep_sizes\": [512, 2048], \"note\": \"before = pre-checkpoint harness (no shared result memo, killed runs restart from zero, finished cells re-simulate); after = warm-state pipeline + SEMLOC-CKPT resume; pipeline digests asserted bit-identical before timing\"}}\n}}\n",
        cfg.instr_budget
    );
    std::fs::write(&ckpt_out_path, &ckpt_json).expect("write BENCH_ckpt.json");
    println!("\nwrote {ckpt_out_path}");

    assert!(
        sim_speedup > 1.0,
        "end-to-end simulation must not regress (got {sim_speedup:.2}x)"
    );
    assert!(
        matrix_speedup >= 1.5,
        "trace store must deliver >= 1.5x on the multi-column matrix (got {matrix_speedup:.2}x)"
    );
    assert!(
        cal_speedup > 1.0,
        "warm-store calibrated rerun must not regress (got {cal_speedup:.2}x)"
    );
    assert!(
        pipeline_speedup >= 1.3,
        "warm-state pipeline must deliver >= 1.3x on matrix+sweep (got {pipeline_speedup:.2}x)"
    );
    assert!(
        resume_speedup > 1.2,
        "resuming from a 50% checkpoint must beat restarting (got {resume_speedup:.2}x)"
    );
    assert!(
        shortcut_speedup > 2.0,
        "a final checkpoint must short-circuit simulation (got {shortcut_speedup:.2}x)"
    );
}
