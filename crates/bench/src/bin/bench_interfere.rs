//! Interference-mode measurement (written to `BENCH_interfere.json`):
//! learned-context vs GHB/SMS resilience under phase changes and shared-L2
//! multi-core contention, plus the seeded adversarial search.
//!
//! Scenarios:
//!
//! * `phase-shift-1core` — a composed mcf→lbm→hashtest schedule on a
//!   single core, one run per prefetcher kind;
//! * `2core-antagonist` — the same schedule co-running against a streaming
//!   `array` antagonist through the shared L2 + DRAM model, one run per
//!   victim prefetcher kind;
//! * `4core-mix` — two composed schedules + two µkernels on four cores;
//! * `regression/*` — the three pinned adversarial collapse kernels
//!   evaluated on the warm-prefix [`AdvBench`];
//! * `search` — the full seeded hill-climb, reproducing the collapse
//!   points from scratch.
//!
//! Run with `cargo run --release -p semloc-bench --bin bench_interfere
//! [out.json]`; `SEMLOC_BUDGET` scales the composed-schedule length. CI
//! runs the default budget and diffs the output against the committed
//! file, which has no timing fields.

use std::fmt::Write as _;
use std::sync::Arc;

use semloc_harness::{
    adversarial_search, coverage, mc_digest, AdvBench, AdvParams, Engine, McConfig, McEngine,
    PrefetcherKind, RunResult, SearchConfig, SimConfig,
};
use semloc_workloads::{
    capture_kernel, kernel_by_name, pinned_collapse_points, CapturedTrace, Composer, ReplayKernel,
};

/// Fixed seed for every composed draw and the adversarial search; the
/// regression suite pins the parameter points this seed discovers.
const SEED: u64 = 42;

fn budget() -> u64 {
    let b = SimConfig::env_budget().unwrap_or(120_000);
    assert!(b > 0, "SEMLOC_BUDGET must be an integer >= 1, got \"0\"");
    b
}

fn capture(name: &str, b: u64) -> Arc<CapturedTrace> {
    let k = kernel_by_name(name).expect("registry kernel");
    Arc::new(capture_kernel(k.as_ref(), b))
}

fn kinds() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::context(),
        PrefetcherKind::GhbGdc,
        PrefetcherKind::Sms,
    ]
}

fn row(out: &mut String, key: &str, r: &RunResult) {
    let ipc = r.cpu.instructions as f64 / r.cpu.cycles.max(1) as f64;
    let _ = writeln!(
        out,
        "  \"{key}\": {{\"accuracy\": {:.4}, \"coverage\": {:.4}, \"l1_mpki\": {:.3}, \"ipc\": {:.4}}},",
        r.pf.accuracy(),
        coverage(r),
        r.mem.l1_mpki(r.cpu.instructions),
        ipc
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_interfere.json".into());
    let b = budget();
    let mut out = String::from("{\n");

    // Shared schedule: mcf→lbm→hashtest phase changes, scaled to budget.
    let menu: Vec<_> = ["mcf", "lbm", "hashtest"]
        .iter()
        .map(|n| capture(n, b / 2))
        .collect();
    let sched = Composer::new(SEED).phase_shift("bench-sched", &menu, 4, b / 8, b / 3);
    let sched_capture = Arc::new(capture_kernel(&sched, 0));
    let cfg = SimConfig::default().with_budget(0);

    // ---- phase-shift, single core --------------------------------------
    for kind in kinds() {
        let mut e = Engine::new(ReplayKernel::new(sched_capture.clone()), &kind, &cfg);
        e.run_to_end();
        let r = e.finish();
        row(
            &mut out,
            &format!("scenario/phase-shift-1core/{}", kind.label()),
            &r,
        );
    }

    // ---- 2-core: schedule vs streaming antagonist ----------------------
    let antagonist = capture("array", b / 2);
    let mut digest2 = 0u64;
    for kind in kinds() {
        let mut e = McEngine::new(
            vec![
                (ReplayKernel::new(sched_capture.clone()), kind.clone()),
                (
                    ReplayKernel::new(antagonist.clone()),
                    PrefetcherKind::Stride,
                ),
            ],
            &cfg,
            &McConfig::default(),
        );
        e.run_to_end();
        let (results, shared) = e.finish();
        if matches!(kind, PrefetcherKind::Context(_)) {
            digest2 = mc_digest(&results, &shared);
        }
        row(
            &mut out,
            &format!("scenario/2core-antagonist/{}", kind.label()),
            &results[0],
        );
    }

    // ---- 4-core mix ----------------------------------------------------
    let mut composer = Composer::new(SEED ^ 0x4c);
    let sched_b = composer.phase_shift("bench-sched-b", &menu, 3, b / 8, b / 4);
    let mut e4 = McEngine::new(
        vec![
            (
                ReplayKernel::new(sched_capture.clone()),
                PrefetcherKind::context(),
            ),
            (
                ReplayKernel::new(Arc::new(capture_kernel(&sched_b, 0))),
                PrefetcherKind::GhbGdc,
            ),
            (
                ReplayKernel::new(capture("list", b / 4)),
                PrefetcherKind::Sms,
            ),
            (
                ReplayKernel::new(capture("array", b / 4)),
                PrefetcherKind::Stride,
            ),
        ],
        &cfg,
        &McConfig::default(),
    );
    e4.run_to_end();
    let (results4, shared4) = e4.finish();
    let digest4 = mc_digest(&results4, &shared4);
    for r in &results4 {
        row(
            &mut out,
            &format!("scenario/4core-mix/{}/{}", r.kernel, r.prefetcher),
            r,
        );
    }
    let _ = writeln!(
        out,
        "  \"scenario/4core-mix/shared\": {{\"demand_lookups\": {}, \"demand_hits\": {}, \
         \"prefetch_fills\": {}, \"dram_queue_cycles\": {}}},",
        shared4.demand_lookups,
        shared4.demand_hits,
        shared4.prefetch_fills,
        shared4.dram_queue_cycles
    );

    // ---- pinned regression kernels on the warm-prefix bench ------------
    let search_cfg = SearchConfig {
        warmup: b / 3,
        tail: (b * 2) / 3,
        iters: 12,
    };
    let bench = AdvBench::new(&search_cfg, &SimConfig::default());
    let (straddle, alias, flip) = pinned_collapse_points();
    let pinned = [
        AdvParams::Straddle(straddle),
        AdvParams::Alias(alias),
        AdvParams::Flip(flip),
    ];
    for p in &pinned {
        let s = bench.eval(p).expect("bench eval");
        let _ = writeln!(
            out,
            "  \"regression/{}\": {{\"learned_accuracy\": {:.4}, \"learned_coverage\": {:.4}, \
             \"best_baseline\": \"{}\", \"baseline_coverage\": {:.4}, \"gap\": {:.4}}},",
            p.family(),
            s.learned_accuracy,
            s.learned_coverage,
            s.best_baseline,
            s.best_baseline_coverage,
            s.gap
        );
    }

    // ---- the seeded search itself --------------------------------------
    let findings =
        adversarial_search(SEED, &search_cfg, &SimConfig::default()).expect("adversarial search");
    for f in &findings {
        let _ = writeln!(
            out,
            "  \"search/{}\": {{\"params\": \"{}\", \"learned_accuracy\": {:.4}, \
             \"learned_coverage\": {:.4}, \"best_baseline\": \"{}\", \
             \"baseline_coverage\": {:.4}, \"gap\": {:.4}, \"evals\": {}}},",
            f.family,
            f.params.replace('"', "'"),
            f.learned_accuracy,
            f.learned_coverage,
            f.best_baseline,
            f.best_baseline_coverage,
            f.gap,
            f.evals
        );
    }

    let _ = writeln!(
        out,
        "  \"meta\": {{\"instr_budget\": {b}, \"seed\": {SEED}, \
         \"mc_digest_2core_context\": \"{digest2:#018x}\", \
         \"mc_digest_4core\": \"{digest4:#018x}\", \
         \"note\": \"schedule = seeded mcf/lbm/hashtest phase shifts; antagonist = streaming array on stride; \
         regression rows evaluate the pinned adversarial points on the warm-prefix bench; \
         search rows rerun the seeded hill-climb from scratch\"}}\n}}"
    );

    std::fs::write(&out_path, &out).expect("write bench json");
    println!("{out}");
    println!("wrote {out_path}");
}
