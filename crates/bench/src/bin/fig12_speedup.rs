//! Fig 12 — speedups over a no-prefetching baseline, per workload and
//! prefetcher, plus the paper's headline aggregates: average speedup over
//! the full set (paper: 32%, max 4.3×), over SPEC2006 alone (paper: 20%,
//! max 2.8×), and the context prefetcher's margin over the best competitor
//! (paper: ~76% higher average speedup, SMS the runner-up).

use semloc_bench::{banner, full_lineup, run_matrix};
use semloc_harness::{report, SimConfig, Table};
use semloc_workloads::{all_kernels, Suite};

fn main() {
    banner(
        "Fig 12",
        "Speedups delivered by the different prefetchers (baseline: no prefetching)",
        "up to 4.3x overall / 2.8x SPEC; averages 32% overall / 20% SPEC; context ~76% above best competitor",
    );
    let cfg = SimConfig::default();
    let kernels = all_kernels();
    let suites: Vec<Suite> = kernels.iter().map(|k| k.suite()).collect();
    let lineup = full_lineup();
    let m = run_matrix(&kernels, &lineup, &cfg);

    let mut table = Table::new(
        ["workload", "suite"]
            .into_iter()
            .map(String::from)
            .chain(m.prefetchers().iter().skip(1).map(|p| p.to_string())),
    );
    for (k, suite) in m.kernels().to_vec().iter().zip(&suites) {
        let mut row = vec![k.to_string(), suite.label().to_string()];
        for p in m.prefetchers().iter().skip(1) {
            row.push(match m.speedup(k, p) {
                Ok(s) => report::ratio(s),
                Err(_) => "n/a".to_string(),
            });
        }
        table.row(row);
    }
    println!("{}", table.render());

    let all: Vec<&str> = m.kernels().to_vec();
    let spec: Vec<&str> = m
        .kernels()
        .iter()
        .zip(&suites)
        .filter(|&(_, s)| *s == Suite::Spec)
        .map(|(&k, _)| k)
        .collect();

    println!("\naggregates (geometric mean of speedups):");
    let mut agg = Table::new(["prefetcher", "all", "spec2006", "max(all)"]);
    for p in m.prefetchers().iter().skip(1) {
        let max = all
            .iter()
            .filter_map(|k| m.speedup(k, p).ok())
            .fold(0.0f64, f64::max);
        agg.row([
            p.to_string(),
            report::ratio(m.geomean_speedup(p, &all).unwrap_or(f64::NAN)),
            report::ratio(m.geomean_speedup(p, &spec).unwrap_or(f64::NAN)),
            report::ratio(max),
        ]);
    }
    println!("{}", agg.render());

    let ctx_gain = m.geomean_speedup("context", &all).unwrap_or(f64::NAN) - 1.0;
    let best_other = m
        .prefetchers()
        .iter()
        .filter(|&&p| p != "none" && p != "context")
        .filter_map(|p| m.geomean_speedup(p, &all).ok())
        .fold(0.0f64, f64::max)
        - 1.0;
    println!(
        "\ncontext speedup vs best competitor's speedup: {} vs {} ({}% higher; paper: ~76%)",
        report::pct(ctx_gain),
        report::pct(best_other),
        if best_other > 0.0 {
            format!("{:.0}", (ctx_gain / best_other - 1.0) * 100.0)
        } else {
            "n/a".into()
        },
    );

    if let Some(path) = std::env::var("SEMLOC_CSV").ok().filter(|p| !p.is_empty()) {
        if let Err(e) = std::fs::write(&path, m.to_csv()) {
            eprintln!("fig12_speedup: cannot write SEMLOC_CSV={path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote raw matrix CSV to {path}");
    }
}
