//! `semloc-arena` — rank pipeline compositions (written to
//! `BENCH_arena.json`): the default tournament grid (feature sets × reward
//! shapes × CST geometry, 14 cells) over the shared trace captures, ranked
//! by geomean speedup over the no-prefetch baseline.
//!
//! Run with `cargo run --release -p semloc-bench --bin semloc-arena
//! [out.json]`. Knobs:
//!
//! * `SEMLOC_ARENA_BUDGET`  — instructions per run (default 120000);
//! * `SEMLOC_ARENA_WARM`    — warm-prefix length before the fork
//!   (default budget/6);
//! * `SEMLOC_ARENA_KERNELS` — comma-separated workloads
//!   (default `array,list,mcf`);
//! * `SEMLOC_ARENA_THREADS` — shard-pool width (default: host parallelism);
//! * `SEMLOC_ARENA_VERIFY`  — `off`/`first`/`all` warm-vs-cold digest
//!   verification subset (default `first`).

use semloc_harness::{arena_run, default_cells, env_knob, ArenaOpts, TraceStore, VerifyMode};
use semloc_workloads::{kernel_by_name, KernelBox};

/// A positive integer knob, `default` when unset; panics on anything else.
fn env_u64(name: &str, default: u64) -> u64 {
    env_knob(name, 1..=u64::MAX)
        .unwrap_or_else(|e| panic!("{e}"))
        .unwrap_or(default)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_arena.json".into());
    let budget = env_u64("SEMLOC_ARENA_BUDGET", 120_000);
    let opts = ArenaOpts {
        budget,
        warm: env_u64("SEMLOC_ARENA_WARM", budget / 6),
        threads: env_knob("SEMLOC_ARENA_THREADS", 1..=u64::from(u32::MAX))
            .unwrap_or_else(|e| panic!("{e}"))
            .map_or_else(semloc_harness::pool_threads, |t| t as usize),
        verify: match std::env::var("SEMLOC_ARENA_VERIFY") {
            Ok(v) => VerifyMode::parse(&v)
                .unwrap_or_else(|| panic!("SEMLOC_ARENA_VERIFY must be off|first|all, got {v:?}")),
            Err(_) => VerifyMode::default(),
        },
    };
    let names = std::env::var("SEMLOC_ARENA_KERNELS").unwrap_or_else(|_| "array,list,mcf".into());
    let kernels: Vec<KernelBox> = names
        .split(',')
        .map(str::trim)
        .filter(|n| !n.is_empty())
        .map(|n| kernel_by_name(n).unwrap_or_else(|| panic!("unknown kernel {n:?}")))
        .collect();
    assert!(!kernels.is_empty(), "SEMLOC_ARENA_KERNELS selected nothing");

    let cells = default_cells();
    println!(
        "semloc-arena: {} cells x {} kernels, budget {}, warm {}, verify {:?}",
        cells.len(),
        kernels.len(),
        opts.budget,
        opts.warm,
        opts.verify
    );
    let report = arena_run(TraceStore::global(), &kernels, &cells, &opts);
    println!("{}", report.render());
    let json = report.to_json();
    std::fs::write(&out_path, &json).expect("write arena json");
    println!(
        "wrote {out_path} ({} verified warm-vs-cold runs)",
        report.verified
    );
}
