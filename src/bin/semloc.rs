//! The `semloc` command-line tool: run, compare, trace and inspect the
//! simulator without writing code.
//!
//! ```text
//! semloc list                         workloads and prefetchers
//! semloc run <kernel> [pf] [budget]   one simulation, full statistics
//! semloc compare <kernel> [budget]    every prefetcher on one workload
//! (run/compare take --json: machine-readable report)
//! semloc record <kernel> <file> [n]   write a binary trace
//! semloc replay <file> [pf]           simulate from a recorded trace
//! semloc inspect <kernel> [budget]    dump the trained prefetcher state
//! semloc table2                       print the machine configuration
//! ```
//!
//! A budget defaults to `SEMLOC_BUDGET`, else 400 000 instructions;
//! `record` captures 200 000 by default.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use semloc::context::{Attr, ContextConfig, ContextPrefetcher};
use semloc::cpu::{Cpu, CpuConfig};
use semloc::harness::{
    calibrated_context, parse_knob, run_kernel, PrefetcherKind, RunResult, SimConfig,
};
use semloc::mem::{AccessClass, Hierarchy, MemConfig};
use semloc::trace::{write_atomic, SaveFaults, TraceBuffer, TraceSink};
use semloc::workloads::{all_kernels, capture_kernel, kernel_by_name, Kernel};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  semloc list\n  semloc run <kernel> [prefetcher] [budget] [--json]\n  semloc compare <kernel> [budget] [--json]\n  semloc record <kernel> <file> [instructions]\n  semloc replay <file> [prefetcher]\n  semloc inspect <kernel> [budget]\n  semloc table2"
    );
    ExitCode::from(2)
}

/// The prefetcher called `name`. `workload` is the kernel and configuration
/// the run simulates: `context-calibrated` probes it to derive its reward
/// window (§4.3), so a trace file, which names no workload, cannot run it.
fn prefetcher_by_name(
    name: &str,
    workload: Option<(&dyn Kernel, &SimConfig)>,
) -> Result<PrefetcherKind, String> {
    Ok(match name {
        "none" => PrefetcherKind::None,
        "stride" => PrefetcherKind::Stride,
        "ghb-g/dc" | "ghb" => PrefetcherKind::GhbGdc,
        "ghb-pc/dc" => PrefetcherKind::GhbPcdc,
        "ghb-g/ac" => PrefetcherKind::GhbGac,
        "sms" => PrefetcherKind::Sms,
        "markov" => PrefetcherKind::Markov,
        "next-line" => PrefetcherKind::NextLine,
        "context" => PrefetcherKind::context(),
        "context-calibrated" => {
            let Some((kernel, cfg)) = workload else {
                return Err("`context-calibrated` probes a workload, and a trace file \
                            names none: use `semloc run <kernel> context-calibrated`"
                    .into());
            };
            PrefetcherKind::Context(calibrated_context(kernel, ContextConfig::default(), cfg))
        }
        _ => return Err(format!("unknown prefetcher `{name}` (see `semloc list`)")),
    })
}

const PREFETCHERS: [&str; 10] = [
    "none",
    "stride",
    "ghb-g/dc",
    "ghb-pc/dc",
    "ghb-g/ac",
    "sms",
    "markov",
    "next-line",
    "context",
    "context-calibrated",
];

fn print_result(r: &RunResult, baseline: Option<&RunResult>) {
    println!("workload:        {}", r.kernel);
    println!(
        "prefetcher:      {} ({:.1} kB)",
        r.prefetcher,
        r.storage_bytes as f64 / 1024.0
    );
    println!("instructions:    {}", r.cpu.instructions);
    println!("cycles:          {}", r.cpu.cycles);
    println!("IPC:             {:.3}", r.cpu.ipc());
    if let Some(b) = baseline {
        match r.speedup_over(b) {
            Ok(s) => println!("speedup:         {s:.2}x over no prefetching"),
            Err(e) => println!("speedup:         n/a ({e})"),
        }
    }
    println!(
        "L1 MPKI:         {:.2}   L2 MPKI: {:.2}",
        r.l1_mpki(),
        r.l2_mpki()
    );
    println!(
        "branches:        {} ({:.1}% mispredicted)",
        r.cpu.branches,
        if r.cpu.branches > 0 {
            r.cpu.mispredicts as f64 / r.cpu.branches as f64 * 100.0
        } else {
            0.0
        }
    );
    let c = &r.mem.classes;
    println!(
        "access classes:  hit-pf {:.1}% | shorter {:.1}% | non-timely {:.1}% | miss {:.1}% | hit-old {:.1}% | wrong {:.1}%",
        c.fraction(AccessClass::HitPrefetchedLine) * 100.0,
        c.fraction(AccessClass::ShorterWait) * 100.0,
        c.fraction(AccessClass::NonTimely) * 100.0,
        c.fraction(AccessClass::MissNotPrefetched) * 100.0,
        c.fraction(AccessClass::HitOlderDemand) * 100.0,
        c.wrong_fraction() * 100.0,
    );
    if let Some(l) = &r.learn {
        println!(
            "learning:        {} real + {} shadow, accuracy {:.0}%, {:.0}% of hits in the reward window",
            l.real_issued,
            l.shadow_issued,
            l.prediction_accuracy() * 100.0,
            if l.hits > 0 { l.timely_hits as f64 / l.hits as f64 * 100.0 } else { 0.0 },
        );
    }
}

fn cmd_list() -> ExitCode {
    println!("workloads (Table 3):");
    for k in all_kernels() {
        println!("  {:<14} {}", k.name(), k.suite().label());
    }
    println!("\nprefetchers:");
    for p in PREFETCHERS {
        println!("  {p}");
    }
    ExitCode::SUCCESS
}

/// The `--json` report for one run of the prefetcher `semloc list` calls
/// `name`: flat metrics. Keys are stable — CI and downstream tooling parse
/// this shape.
fn run_json(name: &str, r: &RunResult, baseline: &RunResult) -> String {
    let speedup = match r.speedup_over(baseline) {
        Ok(s) => format!("{s:.6}"),
        Err(_) => "null".to_string(),
    };
    format!(
        concat!(
            "{{\"workload\":\"{}\",\"prefetcher\":\"{}\",",
            "\"instructions\":{},\"cycles\":{},\"ipc\":{:.6},",
            "\"speedup\":{},\"l1_mpki\":{:.6},\"l2_mpki\":{:.6},",
            "\"storage_bytes\":{}}}"
        ),
        r.kernel,
        name,
        r.cpu.instructions,
        r.cpu.cycles,
        r.cpu.ipc(),
        speedup,
        r.l1_mpki(),
        r.l2_mpki(),
        r.storage_bytes,
    )
}

fn cmd_run(kernel: &str, pf: &str, budget: u64, json: bool) -> ExitCode {
    let Some(k) = kernel_by_name(kernel) else {
        eprintln!("unknown workload `{kernel}` (see `semloc list`)");
        return ExitCode::FAILURE;
    };
    let cfg = SimConfig::default().with_budget(budget);
    let kind = match prefetcher_by_name(pf, Some((k.as_ref(), &cfg))) {
        Ok(kind) => kind,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let base = run_kernel(k.as_ref(), &PrefetcherKind::None, &cfg);
    let r = if matches!(kind, PrefetcherKind::None) {
        base.clone()
    } else {
        run_kernel(k.as_ref(), &kind, &cfg)
    };
    if json {
        // An alias (`ghb`) reports its kind's label, which is the listed name.
        let name = PREFETCHERS
            .into_iter()
            .find(|&listed| listed == pf)
            .unwrap_or(r.prefetcher);
        println!("{}", run_json(name, &r, &base));
    } else {
        print_result(&r, Some(&base));
    }
    ExitCode::SUCCESS
}

fn cmd_compare(kernel: &str, budget: u64, json: bool) -> ExitCode {
    let Some(k) = kernel_by_name(kernel) else {
        eprintln!("unknown workload `{kernel}`");
        return ExitCode::FAILURE;
    };
    let cfg = SimConfig::default().with_budget(budget);
    let base = run_kernel(k.as_ref(), &PrefetcherKind::None, &cfg);
    if json {
        let rows: Vec<String> = PREFETCHERS
            .iter()
            .map(|name| {
                let pf = prefetcher_by_name(name, Some((k.as_ref(), &cfg)))
                    .expect("listed prefetchers exist");
                let r = if *name == "none" {
                    base.clone()
                } else {
                    run_kernel(k.as_ref(), &pf, &cfg)
                };
                run_json(name, &r, &base)
            })
            .collect();
        println!(
            "{{\"workload\":\"{}\",\"rows\":[{}]}}",
            kernel,
            rows.join(","),
        );
        return ExitCode::SUCCESS;
    }
    println!(
        "{:<20} {:>8} {:>9} {:>9} {:>9}",
        "prefetcher", "IPC", "speedup", "L1 MPKI", "L2 MPKI"
    );
    for name in PREFETCHERS {
        let pf =
            prefetcher_by_name(name, Some((k.as_ref(), &cfg))).expect("listed prefetchers exist");
        let r = if name == "none" {
            base.clone()
        } else {
            run_kernel(k.as_ref(), &pf, &cfg)
        };
        println!(
            "{:<20} {:>8.3} {:>8.2}x {:>9.2} {:>9.2}",
            name,
            r.cpu.ipc(),
            r.speedup_over(&base).unwrap_or(f64::NAN),
            r.l1_mpki(),
            r.l2_mpki()
        );
    }
    ExitCode::SUCCESS
}

fn cmd_record(kernel: &str, path: &str, instrs: u64) -> ExitCode {
    let Some(k) = kernel_by_name(kernel) else {
        eprintln!("unknown workload `{kernel}`");
        return ExitCode::FAILURE;
    };
    let trace = capture_kernel(k.as_ref(), instrs);
    let frame = TraceBuffer::encode(&trace.lanes).to_frame(&trace.key);
    match write_atomic(Path::new(path), &frame, SaveFaults::default()) {
        Ok(()) => {
            let n = trace.lanes.len();
            println!("recorded {n} instructions of `{kernel}` to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_replay(path: &str, pf: &str) -> ExitCode {
    let pf = match prefetcher_by_name(pf, None) {
        Ok(pf) => pf,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let bytes = match fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let buf = match TraceBuffer::from_frame(&bytes) {
        Ok((_, buf)) => buf,
        Err(e) => {
            eprintln!("not a semloc trace: {e}");
            return ExitCode::FAILURE;
        }
    };
    let hierarchy = Hierarchy::new(MemConfig::default(), pf.build());
    let mut cpu = Cpu::new(CpuConfig::default(), hierarchy, 0);
    for i in buf.iter() {
        cpu.instr(i);
    }
    let (stats, mem) = cpu.finish();
    println!("replayed {} instructions from {path}", buf.len());
    println!(
        "IPC: {:.3}   L1 MPKI: {:.2}   L2 MPKI: {:.2}",
        stats.ipc(),
        mem.stats().l1_mpki(stats.instructions),
        mem.stats().l2_mpki(stats.instructions)
    );
    ExitCode::SUCCESS
}

fn cmd_inspect(kernel: &str, budget: u64) -> ExitCode {
    let Some(k) = kernel_by_name(kernel) else {
        eprintln!("unknown workload `{kernel}`");
        return ExitCode::FAILURE;
    };
    let prefetcher = ContextPrefetcher::new(ContextConfig::default());
    let hierarchy = Hierarchy::new(MemConfig::default(), prefetcher);
    let mut cpu = Cpu::new(CpuConfig::default(), hierarchy, budget);
    k.run(&mut cpu);
    let (_, mem) = cpu.finish();
    let p = mem.prefetcher();
    println!("trained on `{kernel}` for {budget} instructions");
    println!("attribute order: {:?}", Attr::ORDER);
    let hist = p.reducer().active_histogram();
    println!("reducer active-attribute distribution:");
    for (count, n) in hist.iter().enumerate() {
        if *n > 0 {
            println!("  {count} attrs: {n} entries");
        }
    }
    println!(
        "splits: {}  merges: {}",
        p.reducer().activations(),
        p.reducer().deactivations()
    );
    println!("CST occupancy: {}/{}", p.cst().occupancy(), p.cst().len());
    let mut entries: Vec<(usize, Vec<(i16, i8)>)> = p.cst().dump().collect();
    entries.sort_by_key(|(_, l)| std::cmp::Reverse(l.first().map(|&(_, s)| s).unwrap_or(i8::MIN)));
    println!("strongest contexts:");
    for (idx, links) in entries.iter().take(8) {
        let shown: Vec<String> = links.iter().map(|(d, s)| format!("{d:+}@{s}")).collect();
        println!("  [{idx:>4}] {}", shown.join("  "));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    let arg = |i: usize| args.get(i).map(String::as_str);
    // A budget of 0 would mean unbounded, and every registered kernel runs
    // until its budget, so it is refused like any other bad value.
    let budget = |i: usize| match arg(i).map(|s| parse_knob("budget", s, 1..=u64::MAX)) {
        None => None,
        Some(Ok(b)) => Some(b),
        Some(Err(e)) => {
            eprintln!("{e}");
            std::process::exit(1)
        }
    };
    let sim_budget = || SimConfig::default().instr_budget;
    match arg(0) {
        Some("list") => cmd_list(),
        Some("run") => match arg(1) {
            Some(k) => cmd_run(
                k,
                arg(2).unwrap_or("context"),
                budget(3).unwrap_or_else(sim_budget),
                json,
            ),
            None => usage(),
        },
        Some("compare") => match arg(1) {
            Some(k) => cmd_compare(k, budget(2).unwrap_or_else(sim_budget), json),
            None => usage(),
        },
        Some("record") => match (arg(1), arg(2)) {
            (Some(k), Some(path)) => cmd_record(k, path, budget(3).unwrap_or(200_000)),
            _ => usage(),
        },
        Some("replay") => match arg(1) {
            Some(path) => cmd_replay(path, arg(2).unwrap_or("context")),
            None => usage(),
        },
        Some("inspect") => match arg(1) {
            Some(k) => cmd_inspect(k, budget(2).unwrap_or_else(sim_budget)),
            None => usage(),
        },
        Some("table2") => {
            println!("{}", SimConfig::default().table2());
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
