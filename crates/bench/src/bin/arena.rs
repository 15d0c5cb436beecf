//! `semloc-arena` — rank pipeline compositions (written to
//! `BENCH_arena.json`): the default tournament grid (feature sets × reward
//! shapes × CST geometry, 14 cells) over the shared trace captures, ranked
//! by geomean speedup over the no-prefetch baseline.
//!
//! Run with `cargo run --release -p semloc-bench --bin semloc-arena
//! [out.json]`. The `SEMLOC_ARENA_*` knobs set the budget, warm prefix,
//! workloads, pool width and verification subset (see
//! [`ArenaOpts::from_env`]).

use semloc_harness::{arena_run, default_cells, ArenaOpts, TraceStore};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_arena.json".into());
    let (opts, kernels) = ArenaOpts::from_env();

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
