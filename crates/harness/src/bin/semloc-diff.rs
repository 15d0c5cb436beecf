//! Differential-oracle smoke runner for CI: drives the optimized and spec
//! prefetchers in lockstep over several kernels × configurations and fails
//! (exit 1) on the first divergence, writing both state dumps to
//! `$DIFF_DUMP_DIR` (default `./diff-dumps`) for the artifact upload.
//!
//! Usage: `semloc-diff [instr_budget]` (default 60 000 per cell). A
//! malformed budget exits 2 before anything runs.

use std::fs;
use std::process::ExitCode;

use semloc_context::ContextConfig;
use semloc_harness::{diff_dump_dir, diff_kernel, parse_knob, SimConfig, TraceStore};
use semloc_workloads::kernel_by_name;

fn variant_config() -> ContextConfig {
    // A second operating point: different seed (different exploration
    // stream), smaller active prefix, wide deltas.
    ContextConfig {
        seed: 0xd1ff,
        initial_active: 3,
        delta_bits: 16,
        ..ContextConfig::default()
    }
}

fn main() -> ExitCode {
    let budget = match std::env::args().nth(1) {
        None => 60_000,
        // 0 would mean unbounded, and every registered kernel runs until
        // its budget.
        Some(arg) => match parse_knob("budget", &arg, 1..=u64::MAX) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        },
    };
    let dump_dir = diff_dump_dir();

    let store = TraceStore::new();
    let sim = SimConfig::default().with_budget(budget);
    let kernels = ["array", "list", "mcf"];
    let configs: [(&str, ContextConfig); 2] = [
        ("default", ContextConfig::default()),
        ("variant", variant_config()),
    ];

    let mut total_accesses = 0u64;
    let mut failures = 0u32;
    println!("differential oracle: optimized core vs spec, {budget} instructions per cell");
    for name in kernels {
        let kernel = kernel_by_name(name).expect("kernel registered");
        for (label, cfg) in &configs {
            let report = diff_kernel(&store, kernel.as_ref(), label, cfg.clone(), &sim);
            total_accesses += report.accesses;
            match &report.divergence {
                None => println!(
                    "  {name:>8} × {label:<8} {:>8} accesses in lockstep — clean",
                    report.accesses
                ),
                Some(d) => {
                    failures += 1;
                    println!(
                        "  {name:>8} × {label:<8} DIVERGED at access {} ({})",
                        d.access, d.field
                    );
                    let _ = fs::create_dir_all(&dump_dir);
                    let path = dump_dir.join(format!("{name}-{label}.txt"));
                    if let Err(e) = fs::write(&path, format!("{d}")) {
                        eprintln!("  (failed to write dump {}: {e})", path.display());
                    } else {
                        println!("  dump written to {}", path.display());
                    }
                }
            }
        }
    }

    println!("total: {total_accesses} lockstep accesses, {failures} divergences");
    if total_accesses < 50_000 {
        eprintln!("FAIL: expected at least 50 000 lockstep accesses");
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
