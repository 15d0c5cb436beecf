//! The paper's evaluation (§7), one section per table or figure.
//!
//! Each section is a `fn(&SimConfig) -> String` listed in [`SECTIONS`]. It
//! simulates the cells it needs through [`run_kernel`] or a run [`Matrix`]
//! and returns a banner (id, title, the paper's reference line) followed by
//! its measurements, rendered with [`Table`]. A section prints measurements
//! only: verdicts belong to `EXPERIMENTS.md`'s prose. Sections share no
//! state, but every cell goes through the process-global trace store's
//! result memo, so the 31 × 6 matrix is simulated once however many
//! sections read it.
//!
//! `all_experiments` prints the sections, or writes each one into a
//! markdown file between `<!-- semloc:begin <id> -->` and
//! `<!-- semloc:end <id> -->` markers ([`splice`]). `EXPERIMENTS.md` is the
//! one committed copy of the numbers; CI regenerates it and fails on any
//! diff. `SEMLOC_BUDGET` sets the instruction budget per run
//! ([`SimConfig::default`]); only `convergence` and `interference` fix
//! their own.

use std::collections::BTreeMap;
use std::fmt::{self, Write};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semloc_bandit::{
    BellReward, GaussianPenaltyReward, PythiaLevelReward, RewardFunction, RewardShape, StepReward,
};
use semloc_context::{ContextConfig, FeatureExtractor, FeatureSet};
use semloc_cpu::CpuConfig;
use semloc_harness::{
    ablation_variants, adversarial_search, calibrated_context, coverage, geomean, mc_digest,
    pool_threads, run_kernel, run_sharded, storage_sweep, Engine, Matrix, McConfig, McEngine,
    PrefetcherKind, RunResult, SearchConfig, SimConfig, SpeedupError, Table, ABLATION_KERNELS,
};
use semloc_mem::AccessClass;
use semloc_trace::{AddressSpace, Placement};
use semloc_workloads::registry::table3 as table3_workloads;
use semloc_workloads::{
    all_kernels, capture_kernel, kernel_by_name, CapturedTrace, Composer, KernelBox, ReplayKernel,
    Suite,
};

/// A section generator: the section's text at one configuration.
pub type Section = fn(&SimConfig) -> String;

/// Every section by id, in the order `all_experiments` prints them.
pub const SECTIONS: [(&str, Section); 16] = [
    ("table2", table2),
    ("table3", table3),
    ("fig01", fig01),
    ("fig05", fig05),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("ablation", ablation),
    ("convergence", convergence),
    ("core-sensitivity", in_order_core),
    ("arena", arena),
    ("interference", interference),
];

const BEGIN: &str = "<!-- semloc:begin ";
const END: &str = "<!-- semloc:end ";
const CLOSE: &str = " -->";

/// A section's text as it sits between its markers: one fenced text block.
pub fn fenced(text: &str) -> String {
    format!("```text\n{text}```\n")
}

/// A section's whole block: its markers around its `body`.
pub fn block(id: &str, body: &str) -> String {
    format!("{BEGIN}{id}{CLOSE}\n{body}{END}{id}{CLOSE}\n")
}

/// Why [`splice`] refused a document.
#[derive(Debug, PartialEq, Eq)]
pub enum SpliceError {
    /// A section to write has no markers in the document.
    Missing(String),
    /// A marker names no section.
    Unknown(String),
    /// A block has no end marker, or an end marker no open block.
    Unterminated(String),
}

impl fmt::Display for SpliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpliceError::Missing(id) => write!(f, "no markers for section {id:?}"),
            SpliceError::Unknown(id) => write!(f, "a marker names no section: {id:?}"),
            SpliceError::Unterminated(id) => write!(f, "unterminated block {id:?}"),
        }
    }
}

/// `doc` with the text between the markers of each `(id, body)` replaced
/// by `body`. Everything else, the markers included, is kept byte for
/// byte, and blocks of sections not in `bodies` keep their text. Fails if
/// a body's markers are missing, a marker names no id of [`SECTIONS`], or
/// a block is unterminated.
pub fn splice(doc: &str, bodies: &[(&str, String)]) -> Result<String, SpliceError> {
    let marker = |line: &str, prefix: &str| {
        let id = line.trim_end().strip_prefix(prefix)?.strip_suffix(CLOSE)?;
        Some(id.to_string())
    };
    let mut out = String::with_capacity(doc.len());
    // The open block's id, and whether its old text is being replaced.
    let mut open: Option<(String, bool)> = None;
    let mut seen = Vec::new();
    for line in doc.split_inclusive('\n') {
        let (begin, end) = (marker(line, BEGIN), marker(line, END));
        if let Some(id) = begin.iter().chain(&end).find(|id| section(id).is_none()) {
            return Err(SpliceError::Unknown(id.clone()));
        }
        if let Some(id) = begin {
            if let Some((open_id, _)) = open {
                return Err(SpliceError::Unterminated(open_id));
            }
            out.push_str(line);
            let body = bodies.iter().find(|(b, _)| *b == id).map(|(_, t)| t);
            out.push_str(body.map_or("", String::as_str));
            open = Some((id.clone(), body.is_some()));
            seen.push(id);
        } else if let Some(id) = end {
            match open.take() {
                Some((open_id, _)) if open_id == id => out.push_str(line),
                Some((open_id, _)) => return Err(SpliceError::Unterminated(open_id)),
                None => return Err(SpliceError::Unterminated(id)),
            }
        } else if !matches!(open, Some((_, true))) {
            out.push_str(line);
        }
    }
    if let Some((id, _)) = open {
        return Err(SpliceError::Unterminated(id));
    }
    match bodies.iter().find(|(id, _)| !seen.iter().any(|s| s == id)) {
        Some((id, _)) => Err(SpliceError::Missing(id.to_string())),
        None => Ok(out),
    }
}

/// The generator of section `id`.
pub fn section(id: &str) -> Option<Section> {
    SECTIONS.iter().find(|(s, _)| *s == id).map(|&(_, f)| f)
}

/// A standard section banner: what the paper shows, what to compare.
fn banner(id: &str, title: &str, paper: &str) -> String {
    let rule = "=".repeat(62);
    format!("{rule}\n{id}: {title}\npaper reference: {paper}\n{rule}\n")
}

/// The comparison lineup of most figures: the paper's competitors
/// (GHB G/DC, GHB PC/DC, SMS) plus stride and the context prefetcher.
fn full_lineup() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::context(),
    ]
}

/// `kernels` under the baseline and [`full_lineup`], on the shard pool
/// (sized by `SEMLOC_POOL_THREADS`).
fn run_matrix(kernels: &[KernelBox], cfg: &SimConfig) -> Matrix {
    Matrix::run_parallel(kernels, &full_lineup(), cfg, pool_threads())
}

/// Each `(kernel, prefetcher, config)` cell through [`run_kernel`] on the
/// shard pool; results in cell order.
fn run_cells(cells: Vec<(&str, PrefetcherKind, SimConfig)>) -> Vec<RunResult> {
    run_sharded(pool_threads(), cells, |(name, pf, cfg)| {
        let kernel = kernel_by_name(name).expect("registered workload");
        run_kernel(kernel.as_ref(), &pf, &cfg)
    })
}

/// `"1.23x"`, or `"n/a"` for a speedup that cannot be computed.
fn ratio(speedup: Result<f64, SpeedupError>) -> String {
    speedup.map_or("n/a".to_string(), |s| format!("{s:.2}x"))
}

/// A fraction as a percentage with one decimal.
fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

/// Table 2: simulator and prefetcher parameters as configured.
fn table2(cfg: &SimConfig) -> String {
    let mut out = banner(
        "Table 2",
        "Simulator parameters",
        "must match the paper's configuration",
    );
    let ctx = ContextConfig::default();
    out += &cfg.table2();
    out += &format!(
        "\nRun length        {} instructions per run (SEMLOC_BUDGET)\n\n\
         Context prefetcher\n\
         CST               {} entries x 4 links, direct-mapped\n\
         Reducer           {} entries, direct-mapped\n\
         History queue     {} entries\n\
         Prefetch queue    {} entries\n\
         Block granularity {} bytes\n\
         Overall size      ~{:.1} kB (paper: ~31 kB)\n\n\
         Competing prefetchers (storage scaled to the context budget)\n",
        cfg.instr_budget,
        ctx.cst_entries,
        ctx.reducer_entries,
        ctx.history_len,
        ctx.pfq_len,
        1u64 << ctx.block_shift,
        ctx.storage_bytes() as f64 / 1024.0
    );
    let mut t = Table::new(["prefetcher", "storage"]);
    for kind in [
        PrefetcherKind::Stride,
        PrefetcherKind::GhbGdc,
        PrefetcherKind::GhbPcdc,
        PrefetcherKind::Sms,
        PrefetcherKind::Markov,
    ] {
        let p = kind.build();
        t.row([
            p.name().to_string(),
            format!("{:.1} kB", p.storage_bytes() as f64 / 1024.0),
        ]);
    }
    out + &t.render() + "\n"
}

/// Table 3: the workloads and benchmark suites.
fn table3(_: &SimConfig) -> String {
    let out = banner(
        "Table 3",
        "Workloads and benchmarks used",
        "SPEC2006 (16), PBBS (3), Graph500, HPCS SSCA2, ukernels",
    );
    let mut by_suite: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for info in table3_workloads() {
        by_suite
            .entry(info.suite.label())
            .or_default()
            .push(info.name);
    }
    let mut t = Table::new(["suite", "workloads"]);
    for (suite, names) in by_suite {
        t.row([suite.to_string(), names.join(", ")]);
    }
    out + &t.render() + "\n"
}

/// Fig 1: a linked-list insertion sort of 100 random elements, its
/// accesses mapped by node address and by logical list index.
fn fig01(_: &SimConfig) -> String {
    let mut rng = StdRng::seed_from_u64(42);
    let mut heap = AddressSpace::new(42, Placement::Scatter);
    // The sorted list as (addr, value) pairs in list order.
    let mut list: Vec<(u64, u64)> = Vec::new();
    // Every access as (access number, node address, logical index).
    let mut log: Vec<(usize, u64, usize)> = Vec::new();
    for _ in 0..100 {
        let value: u64 = rng.random_range(0..1_000_000);
        let node = heap.alloc(32);
        let mut pos = 0;
        while pos < list.len() && list[pos].1 < value {
            log.push((log.len(), list[pos].0, pos));
            pos += 1;
        }
        list.insert(pos, (node, value));
        log.push((log.len(), node, pos));
    }
    let min_addr = log.iter().map(|a| a.1).min().unwrap_or(0);
    let max_addr = log.iter().map(|a| a.1).max().unwrap_or(0);
    // A 16 x 100 character scatter plot of `y` over the time axis.
    let scatter = |y: &dyn Fn(&(usize, u64, usize)) -> f64, y_max: f64| {
        let (rows, cols) = (16, 100);
        let mut grid = vec![vec![' '; cols]; rows];
        let t_max = log.len().max(1) as f64;
        for a in &log {
            let c = ((a.0 as f64 / t_max) * cols as f64) as usize;
            let r = ((y(a) / y_max) * (rows - 1) as f64) as usize;
            grid[rows - 1 - r.min(rows - 1)][c.min(cols - 1)] = '*';
        }
        let lines: Vec<String> = grid
            .into_iter()
            .map(|row| row.into_iter().collect::<String>().trim_end().to_string())
            .collect();
        lines.join("\n")
    };
    let steps = |f: &dyn Fn(&(usize, u64, usize)) -> i64, keep: &dyn Fn(i64) -> bool| {
        let n = log.windows(2).filter(|w| keep(f(&w[1]) - f(&w[0]))).count();
        n as f64 / (log.len() - 1) as f64
    };
    let addr_small = steps(&|a| a.1 as i64, &|d| (0..=64).contains(&d));
    let logical_next = steps(&|a| a.2 as i64, &|d| d == 1);
    let span = (max_addr - min_addr) as f64;
    format!(
        "{}-- accesses by real memory address (offset from heap base, bytes) --\n{}\n\n\
         -- accesses by logical list index --\n{}\n\n\
         consecutive-step linearity:\n  \
         physical addresses: {:5.1}% of steps are small forward strides\n  \
         logical indices:    {:5.1}% of steps are exactly +1\n",
        banner(
            "Fig 1",
            "Memory accesses for list insertion sort (100 random elements)",
            "top: real addresses look random; bottom: logical indices form recurring linear ramps",
        ),
        scatter(&|a| (a.1 - min_addr) as f64, span),
        scatter(&|a| a.2 as f64, 100.0),
        addr_small * 100.0,
        logical_next * 100.0,
    )
}

/// Fig 5: the bell-shaped reward over prediction hit depth, beside the
/// flat step reward.
fn fig05(_: &SimConfig) -> String {
    let mut out = banner(
        "Fig 5",
        "Reward function for the context-based prefetcher",
        "bell over the 18-50-access window, negative edges outside, graceful degradation inside",
    );
    let bell = BellReward::paper_default();
    let step = StepReward::paper_default();
    let (lo, hi) = bell.window();
    let _ = writeln!(
        out,
        "positive window: {lo}..={hi} accesses; expiry penalty: {}\n",
        bell.expiry()
    );
    let mut t = Table::new(["depth", "bell", "step", "plot (bell)"]);
    for depth in (0..=96).step_by(2) {
        let r = bell.reward(depth);
        let marker = if (lo..=hi).contains(&depth) { "#" } else { "-" };
        t.row([
            depth.to_string(),
            r.to_string(),
            step.reward(depth).to_string(),
            marker.repeat(((r + 8).max(0) as usize).min(30)),
        ]);
    }
    out + &t.render() + "\n"
}

/// Fig 8: the cumulative distribution of prediction hit depths (context
/// prefetcher, real + shadow predictions), with the reward window.
fn fig08(cfg: &SimConfig) -> String {
    const DEPTHS: [u32; 12] = [4, 8, 12, 17, 18, 24, 30, 38, 44, 50, 64, 96];
    let mut out = banner(
        "Fig 8",
        "Cumulative distribution of prediction hit depths (context prefetcher, real + shadow)",
        "step starting at depth 18; <=25-35% late; early fraction splits workloads into groups",
    );
    let micro = [
        "array", "list", "listsort", "bst", "prim", "hashtest", "maptest", "ssca_lds",
    ];
    let regular = ["mcf", "omnetpp", "hmmer", "lbm", "graph500", "suffixArray"];
    for (title, set) in [
        ("ubenchmarks", &micro[..]),
        ("regular benchmarks", &regular[..]),
    ] {
        let cells = set
            .iter()
            .map(|&k| (k, PrefetcherKind::context(), cfg.clone()))
            .collect();
        let mut headers = vec!["workload".to_string()];
        headers.extend(DEPTHS.iter().map(u32::to_string));
        headers.extend(["late<18", "window", "early>50"].map(String::from));
        let mut t = Table::new(headers);
        for (name, r) in set.iter().zip(run_cells(cells)) {
            let cdf = r.learn.expect("context stats").depth_cdf;
            let mut row = vec![name.to_string()];
            row.extend(DEPTHS.iter().map(|&d| format!("{:.2}", cdf.cdf_at(d))));
            row.push(pct(cdf.cdf_at(17)));
            row.push(pct(cdf.fraction_in_window(18, 50)));
            row.push(pct(1.0 - cdf.cdf_at(50)));
            t.row(row);
        }
        let _ = writeln!(out, "-- {title} --\n{}\n", t.render());
    }
    out + "(reward window 18..=50 accesses; CDF values are P[hit depth <= d])\n"
}

/// Fig 9: every demand access classified, per workload and prefetcher,
/// then averaged over all workloads.
fn fig09(cfg: &SimConfig) -> String {
    let out = banner(
        "Fig 9",
        "Accuracy and timeliness of the evaluated prefetchers (fractions of demand accesses)",
        "context shows the largest 'hit prefetched'+'shorter wait' share on irregular and u-benchmarks",
    );
    let m = run_matrix(&all_kernels(), cfg);
    let classes = |r: &RunResult| {
        let c = &r.mem.classes;
        [
            c.fraction(AccessClass::HitPrefetchedLine),
            c.fraction(AccessClass::ShorterWait),
            c.fraction(AccessClass::NonTimely),
            c.fraction(AccessClass::MissNotPrefetched),
            c.fraction(AccessClass::HitOlderDemand),
            c.wrong_fraction(),
        ]
    };
    let heads = ["hit-pf", "shorter", "nontimely", "miss", "hit-old", "wrong"];
    let mut rows = Table::new(["workload", "prefetcher"].into_iter().chain(heads));
    for k in m.kernels() {
        for p in &m.prefetchers()[1..] {
            let r = m.get(k, p).expect("run present");
            rows.row(
                [k.to_string(), p.to_string()]
                    .into_iter()
                    .chain(classes(r).map(pct)),
            );
        }
    }
    let mut avg = Table::new(["prefetcher"].into_iter().chain(heads).chain(["useful"]));
    for p in &m.prefetchers()[1..] {
        let runs: Vec<_> = m.kernels().iter().filter_map(|k| m.get(k, p)).collect();
        let mut acc = [0.0f64; 6];
        let mut useful = 0.0;
        for r in &runs {
            let c = classes(r);
            acc.iter_mut().zip(c).for_each(|(a, v)| *a += v);
            useful += c[0] + c[1];
        }
        let n = runs.len() as f64;
        avg.row(
            [p.to_string()]
                .into_iter()
                .chain(acc.map(|v| pct(v / n)))
                .chain([pct(useful / n)]),
        );
    }
    format!(
        "{out}{}\n\nall-workload averages (useful = hit-pf + shorter):\n{}\n",
        rows.render(),
        avg.render()
    )
}

fn fig10(cfg: &SimConfig) -> String {
    mpki(cfg, false)
}

fn fig11(cfg: &SimConfig) -> String {
    mpki(cfg, true)
}

/// Figs 10/11: L1 or L2 MPKI of the memory-intensive workloads (baseline
/// MPKI above 5 for L1, above 1 for L2), plus the all-workload average.
fn mpki(cfg: &SimConfig, l2: bool) -> String {
    let mut out = if l2 {
        banner(
            "Fig 11",
            "L2 MPKI per prefetcher (workloads with baseline L2 MPKI > 1, plus all-workload average)",
            "average L2 MPKI ~4x lower than no-prefetch, ~2x lower than the best competitor",
        )
    } else {
        banner(
            "Fig 10",
            "L1 MPKI per prefetcher (workloads with baseline MPKI > 5, plus all-workload average)",
            "context delivers consistently the lowest MPKI; average reduced ~4x vs no prefetching",
        )
    };
    let m = run_matrix(&all_kernels(), cfg);
    let level = |r: &RunResult| if l2 { r.l2_mpki() } else { r.l1_mpki() };
    let pfs = m.prefetchers();
    let mut t = Table::new(["workload"].into_iter().chain(pfs.iter().copied()));
    for k in m.memory_intensive(if l2 { 1.0 } else { 5.0 }, l2) {
        let cells = pfs.iter().map(|p| m.get(k, p).map_or(0.0, level));
        t.row(
            [k.to_string()]
                .into_iter()
                .chain(cells.map(|v| format!("{v:.2}"))),
        );
    }
    let avgs: Vec<f64> = pfs
        .iter()
        .map(|p| {
            let sum: f64 = m
                .kernels()
                .iter()
                .filter_map(|k| m.get(k, p))
                .map(level)
                .sum();
            sum / m.kernels().len() as f64
        })
        .collect();
    t.row(
        ["AVERAGE(all)".to_string()]
            .into_iter()
            .chain(avgs.iter().map(|v| format!("{v:.2}"))),
    );
    out += &t.render();
    out.push('\n');
    if l2 {
        let (base, ctx) = (avgs[0], avgs[pfs.len() - 1]);
        let best = avgs[1..pfs.len() - 1]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let _ = writeln!(
            out,
            "\naverage L2 MPKI: none {base:.2} -> context {ctx:.2} ({:.1}x reduction); \
             best competitor {best:.2} ({:.1}x over context)",
            base / ctx,
            best / ctx
        );
    }
    out
}

/// Fig 12: speedups over no prefetching per workload, their geometric
/// means over all workloads and over SPEC, and context's margin over the
/// best competitor.
fn fig12(cfg: &SimConfig) -> String {
    let out = banner(
        "Fig 12",
        "Speedups delivered by the different prefetchers (baseline: no prefetching)",
        "up to 4.3x overall / 2.8x SPEC; averages 32% overall / 20% SPEC; context ~76% above best competitor",
    );
    let kernels = all_kernels();
    let m = run_matrix(&kernels, cfg);
    let pfs = &m.prefetchers()[1..];
    let mut t = Table::new(["workload", "suite"].into_iter().chain(pfs.iter().copied()));
    for k in &kernels {
        let cells = pfs.iter().map(|p| ratio(m.speedup(k.name(), p)));
        t.row(
            [k.name().to_string(), k.suite().label().to_string()]
                .into_iter()
                .chain(cells),
        );
    }
    let all = m.kernels();
    let spec: Vec<&str> = kernels
        .iter()
        .filter(|k| k.suite() == Suite::Spec)
        .map(|k| k.name())
        .collect();
    let mut agg = Table::new(["prefetcher", "all", "spec2006", "max(all)"]);
    for p in pfs {
        let max = all
            .iter()
            .filter_map(|k| m.speedup(k, p).ok())
            .fold(0.0f64, f64::max);
        agg.row([
            p.to_string(),
            ratio(m.geomean_speedup(p, all)),
            ratio(m.geomean_speedup(p, &spec)),
            ratio(Ok(max)),
        ]);
    }
    let gain = |p: &str| m.geomean_speedup(p, all).map_or(f64::NAN, |g| g - 1.0);
    let (best, best_gain) = pfs[..pfs.len() - 1]
        .iter()
        .map(|&p| (p, gain(p)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", f64::NAN));
    let ctx_gain = gain("context");
    format!(
        "{out}{}\n\naggregates (geometric mean of speedups):\n{}\n\n\
         context's speedup vs the best competitor's ({best}): {} vs {} ({:.0}% higher)\n",
        t.render(),
        agg.render(),
        pct(ctx_gain),
        pct(best_gain),
        (ctx_gain / best_gain - 1.0) * 100.0,
    )
}

/// Fig 13: geomean speedup of the Top-10 subset and of all workloads as
/// the CST grows (reducer at 8x).
fn fig13(cfg: &SimConfig) -> String {
    let out = banner(
        "Fig 13",
        "Impact of CST size on overall speedup (Top10 and All geomeans)",
        "benefit peaks at a moderate size and does not grow monotonically",
    );
    let sizes = [256, 512, 1024, 2048, 4096, 8192];
    let points = storage_sweep(&all_kernels(), &sizes, cfg);
    let mut t = Table::new(["CST", "storage", "Top10", "All"]);
    for p in &points {
        t.row([
            p.cst_entries.to_string(),
            format!("{:.1}k", p.storage_bytes as f64 / 1024.0),
            format!("{:.2}x", p.top10),
            format!("{:.2}x", p.all),
        ]);
    }
    out + &t.render() + "\n"
}

/// Fig 14: CPI of SSCA2 and Graph500 in the spatially optimized (CSR) and
/// the naive linked layout, under every prefetcher.
fn fig14(cfg: &SimConfig) -> String {
    let mut out = banner(
        "Fig 14",
        "Prefetcher performance (CPI) on naive linked vs spatially optimized layouts",
        "context gives linked layouts performance comparable to optimized code",
    );
    let mut lineup = vec![PrefetcherKind::None];
    lineup.extend(full_lineup());
    for (fig, csr, linked) in [
        ("a) SSCA2", "ssca2", "ssca2-list"),
        ("b) Graph500", "graph500", "graph500-list"),
    ] {
        let mut cells = Vec::new();
        for pf in &lineup {
            cells.push((csr, pf.clone(), cfg.clone()));
            cells.push((linked, pf.clone(), cfg.clone()));
        }
        let runs = run_cells(cells);
        let mut t = Table::new(["prefetcher", "CSR cpi", "linked cpi", "linked/CSR"]);
        for (pf, pair) in lineup.iter().zip(runs.chunks(2)) {
            let (c, l) = (pair[0].cpu.cpi(), pair[1].cpu.cpi());
            t.row([
                pf.label().to_string(),
                format!("{c:.2}"),
                format!("{l:.2}"),
                format!("{:.2}", l / c),
            ]);
        }
        let _ = writeln!(out, "-- {fig} --\n{}\n", t.render());
    }
    out.pop();
    out
}

/// The design-decision ablations of the context prefetcher (DESIGN.md §6)
/// and the §4.3 calibration extension, as geomean speedups over
/// [`ABLATION_KERNELS`].
fn ablation(cfg: &SimConfig) -> String {
    let out = banner(
        "Ablation",
        "Design-decision ablations of the context prefetcher",
        "bell reward, dynamic feature selection, shadow prefetches, sampling, replacement (DESIGN.md #6)",
    );
    let names = ABLATION_KERNELS;
    // The paper default first, then each ablation, then the extension; each
    // row holds one prefetcher per workload.
    let mut rows: Vec<(&str, String, Vec<PrefetcherKind>)> = ablation_variants()
        .into_iter()
        .map(|v| {
            let kind = PrefetcherKind::Context(v.config);
            (v.name, v.description.to_string(), vec![kind; names.len()])
        })
        .collect();
    rows.push((
        "calibrated",
        "EXTENSION: reward window derived per workload from the #4.3 distance formula".into(),
        run_sharded(pool_threads(), names.to_vec(), |name| {
            let kernel = kernel_by_name(name).expect("registered workload");
            let tuned = calibrated_context(kernel.as_ref(), ContextConfig::default(), cfg);
            PrefetcherKind::Context(tuned)
        }),
    ));
    let mut cells: Vec<_> = names
        .iter()
        .map(|&k| (k, PrefetcherKind::None, cfg.clone()))
        .collect();
    for (_, _, kinds) in &rows {
        let row = names.iter().zip(kinds);
        cells.extend(row.map(|(&k, pf)| (k, pf.clone(), cfg.clone())));
    }
    let runs = run_cells(cells);
    let (bases, variants) = runs.split_at(names.len());
    let mut t = Table::new([
        "variant",
        "geomean speedup",
        "delta vs baseline",
        "description",
    ]);
    let mut base_geo = None;
    for ((name, description, _), runs) in rows.iter().zip(variants.chunks(names.len())) {
        let geo = geomean(
            runs.iter()
                .zip(bases)
                .filter_map(|(r, b)| r.speedup_over(b).ok()),
        );
        let base = *base_geo.get_or_insert(geo);
        t.row([
            name.to_string(),
            format!("{geo:.2}x"),
            format!("{:+.1}%", (geo / base - 1.0) * 100.0),
            description.clone(),
        ]);
    }
    out + &t.render() + "\n"
}

/// §7.1 convergence: interval IPC and cumulative prediction accuracy over
/// training time, from prefix runs at growing budgets (the workloads are
/// deterministic, so each prefix re-run is exact).
fn convergence(cfg: &SimConfig) -> String {
    let mut out = banner(
        "Convergence",
        "Interval IPC and prediction accuracy over training time (context prefetcher)",
        "the learning process converges within the first phases; exploration anneals with accuracy",
    );
    let budgets: Vec<u64> = (1..=8).map(|i| i * 50_000).collect();
    let names = ["list", "mcf", "hmmer", "bst"];
    let mut cells = Vec::new();
    for k in names {
        cells.extend(
            budgets
                .iter()
                .map(|&b| (k, PrefetcherKind::context(), cfg.clone().with_budget(b))),
        );
    }
    let runs = run_cells(cells);
    for (name, runs) in names.iter().zip(runs.chunks(budgets.len())) {
        let mut t = Table::new([
            "instrs",
            "IPC(int)",
            "acc(cum)",
            "hits(cum)",
            "expired(cum)",
        ]);
        let (mut prev_instr, mut prev_cycles) = (0, 0);
        for r in runs {
            let d_i = r.cpu.instructions - prev_instr;
            let d_c = r.cpu.cycles.saturating_sub(prev_cycles).max(1);
            let learn = r.learn.as_ref().expect("learning stats");
            t.row([
                r.cpu.instructions.to_string(),
                format!("{:.3}", d_i as f64 / d_c as f64),
                pct(learn.prediction_accuracy()),
                learn.hits.to_string(),
                learn.expired.to_string(),
            ]);
            (prev_instr, prev_cycles) = (r.cpu.instructions, r.cpu.cycles);
        }
        let _ = writeln!(out, "-- {name} --\n{}\n", t.render());
    }
    out.pop();
    out
}

/// Extension: stride and context speedups on the Table-2 out-of-order core
/// and on a scoreboarded in-order pipeline.
fn in_order_core(cfg: &SimConfig) -> String {
    let out = banner(
        "Core sensitivity",
        "Prefetcher speedups on out-of-order vs in-order cores (extension)",
        "prefetching matters more as the core hides less latency itself",
    );
    let names = ["mcf", "list", "hmmer", "array", "bst"];
    let lineup = [
        PrefetcherKind::None,
        PrefetcherKind::Stride,
        PrefetcherKind::context(),
    ];
    let cores = [false, true].map(|in_order| SimConfig {
        cpu: CpuConfig {
            in_order,
            ..cfg.cpu.clone()
        },
        ..cfg.clone()
    });
    let mut cells = Vec::new();
    for k in names {
        for core in &cores {
            cells.extend(lineup.iter().map(|pf| (k, pf.clone(), core.clone())));
        }
    }
    let runs = run_cells(cells);
    let mut t = Table::new([
        "workload",
        "ooo/stride",
        "ooo/context",
        "ino/stride",
        "ino/context",
    ]);
    for (name, runs) in names.iter().zip(runs.chunks(2 * lineup.len())) {
        let mut row = vec![name.to_string()];
        for core in runs.chunks(lineup.len()) {
            row.extend(core[1..].iter().map(|r| ratio(r.speedup_over(&core[0]))));
        }
        t.row(row);
    }
    out + &t.render() + "\n"
}

/// The arena's grid: every feature set crossed with the three
/// qualitatively distinct reward shapes at the paper's Table-2 geometry,
/// plus the default configuration at halved and doubled CST capacity. 14
/// cells; the first is exactly [`ContextConfig::default`], so the ranking
/// always carries the paper's own pipeline as the reference row.
fn default_cells() -> Vec<ContextConfig> {
    let features = [
        FeatureSet::FullTable1,
        FeatureSet::PcOnly,
        FeatureSet::PcDeltas,
        FeatureSet::PythiaProgram,
    ];
    let rewards: [RewardShape; 3] = [
        BellReward::paper_default().into(),
        GaussianPenaltyReward::snippet_default().into(),
        PythiaLevelReward::pythia_default().into(),
    ];
    let mut cells = Vec::new();
    for features in features {
        for reward in &rewards {
            cells.push(ContextConfig {
                features,
                reward: reward.clone(),
                ..ContextConfig::default()
            });
        }
    }
    for entries in [1024, 4096] {
        cells.push(ContextConfig::default().with_cst_entries(entries));
    }
    cells
}

/// An arena cell's name over the axes the arena varies, e.g.
/// `table1+bell+cst2048`.
fn cell_label(cell: &ContextConfig) -> String {
    format!(
        "{}+{}+cst{}",
        cell.features.name(),
        cell.reward.label(),
        cell.cst_entries
    )
}

/// Extension: every [`default_cells`] composition on every workload,
/// ranked by geomean speedup over no prefetching (ties broken by label),
/// then each workload's speedup, accuracy and coverage under each cell.
fn arena(cfg: &SimConfig) -> String {
    let mut out = banner(
        "Arena",
        "Pipeline compositions ranked by geomean speedup over no prefetching (extension)",
        "the paper's pipeline is one cell: Table 1 features, the Fig 5 bell, a 2K-entry CST",
    );
    let kernels = all_kernels();
    let cells = default_cells();
    let kinds = std::iter::once(PrefetcherKind::None)
        .chain(cells.iter().cloned().map(PrefetcherKind::Context));
    let mut jobs = Vec::new();
    for pf in kinds {
        jobs.extend(kernels.iter().map(|k| (k.name(), pf.clone(), cfg.clone())));
    }
    let runs = run_cells(jobs);
    let (bases, runs) = runs.split_at(kernels.len());
    // Per cell: its label and each kernel's (speedup, accuracy, coverage).
    let mut scored: Vec<(String, Vec<[f64; 3]>)> = cells
        .iter()
        .zip(runs.chunks(kernels.len()))
        .map(|(cell, runs)| {
            let metrics = runs
                .iter()
                .zip(bases)
                .map(|(r, base)| {
                    [
                        r.speedup_over(base)
                            .expect("every workload retires instructions, so IPCs are finite"),
                        r.learn.as_ref().map_or(0.0, |s| s.prediction_accuracy()),
                        coverage(r),
                    ]
                })
                .collect();
            (cell_label(cell), metrics)
        })
        .collect();
    let geo = |m: &[[f64; 3]]| geomean(m.iter().map(|k| k[0]));
    scored.sort_by(|a, b| geo(&b.1).total_cmp(&geo(&a.1)).then_with(|| a.0.cmp(&b.0)));

    let mean = |m: &[[f64; 3]], i: usize| m.iter().map(|k| k[i]).sum::<f64>() / m.len() as f64;
    let mut board = Table::new([
        "rank",
        "cell",
        "geomean speedup",
        "mean accuracy",
        "mean coverage",
    ]);
    for (rank, (label, m)) in scored.iter().enumerate() {
        board.row([
            (rank + 1).to_string(),
            label.clone(),
            format!("{:.4}x", geo(m)),
            format!("{:.4}", mean(m, 1)),
            format!("{:.4}", mean(m, 2)),
        ]);
    }
    let _ = writeln!(out, "{}\n", board.render());
    for (i, metric) in ["speedup", "accuracy", "coverage"].into_iter().enumerate() {
        let ranks = (1..=scored.len()).map(|r| r.to_string());
        let mut t = Table::new(std::iter::once("workload".to_string()).chain(ranks));
        for (k, kernel) in kernels.iter().enumerate() {
            let cells = scored.iter().map(|(_, m)| format!("{:.4}", m[k][i]));
            t.row(std::iter::once(kernel.name().to_string()).chain(cells));
        }
        let _ = writeln!(
            out,
            "-- {metric} per workload (columns: rank) --\n{}\n",
            t.render()
        );
    }
    out.pop();
    out
}

/// The interference schedules' scale: phases of `scale/8` to `scale/3`
/// instructions drawn from `scale/2`-instruction captures. Fixed, like
/// `convergence`'s budgets, rather than read from the section's config.
const INTERFERENCE_SCALE: u64 = 120_000;

/// Seed of every composed schedule and of the adversarial search. The
/// collapse points `tests/adversarial_regressions.rs` pins are the ones
/// this seed finds at [`SearchConfig::default`].
const INTERFERENCE_SEED: u64 = 42;

/// Extension (DESIGN §15): context against GHB G/DC and SMS on a seeded
/// mcf/lbm/hashtest phase-shift schedule, alone, beside a streaming
/// antagonist and in a 4-core mix over the shared L2 and DRAM queue; then
/// the seeded search for schedules on which context's coverage collapses.
fn interference(cfg: &SimConfig) -> String {
    let mut out = banner(
        "Interference",
        "Learned vs table prefetchers under phase shifts, shared-L2 contention and adversarial tails (extension)",
        "the paper simulates one core on stationary phases",
    );
    let (b, seed) = (INTERFERENCE_SCALE, INTERFERENCE_SEED);
    let capture = |name: &str, budget: u64| {
        let k = kernel_by_name(name).expect("registered workload");
        Arc::new(capture_kernel(k.as_ref(), budget))
    };
    let menu: Vec<Arc<CapturedTrace>> = ["mcf", "lbm", "hashtest"]
        .iter()
        .map(|n| capture(n, b / 2))
        .collect();
    let sched = Composer::new(seed).phase_shift("bench-sched", &menu, 4, b / 8, b / 3);
    let sched = Arc::new(capture_kernel(&sched, 0));
    let sched_b = Composer::new(seed ^ 0x4c).phase_shift("bench-sched-b", &menu, 3, b / 8, b / 4);
    let antagonist = capture("array", b / 2);
    // Every schedule runs to its end.
    let cfg = cfg.clone().with_budget(0);
    let kinds = [
        PrefetcherKind::context(),
        PrefetcherKind::GhbGdc,
        PrefetcherKind::Sms,
    ];

    let mut rows: Vec<(&str, RunResult)> = Vec::new();
    for kind in &kinds {
        let mut e = Engine::new(ReplayKernel::new(sched.clone()), kind, &cfg);
        e.run_to_end();
        rows.push(("phase-shift-1core", e.finish()));
    }
    let mut digest2 = 0;
    for kind in &kinds {
        let mut e = McEngine::new(
            vec![
                (ReplayKernel::new(sched.clone()), kind.clone()),
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
        let victim = results.into_iter().next().expect("two cores");
        rows.push(("2core-antagonist", victim));
    }
    let mut e4 = McEngine::new(
        vec![
            (ReplayKernel::new(sched), PrefetcherKind::context()),
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
    rows.extend(results4.into_iter().map(|r| ("4core-mix", r)));

    let mut t = Table::new([
        "scenario",
        "workload",
        "prefetcher",
        "accuracy",
        "coverage",
        "L1 MPKI",
        "IPC",
    ]);
    for (scenario, r) in &rows {
        t.row([
            scenario.to_string(),
            r.kernel.to_string(),
            r.prefetcher.to_string(),
            format!("{:.4}", r.pf.accuracy()),
            format!("{:.4}", coverage(r)),
            format!("{:.3}", r.l1_mpki()),
            format!("{:.4}", r.cpu.ipc()),
        ]);
    }
    let _ = writeln!(
        out,
        "schedule: mcf/lbm/hashtest phase shifts drawn with seed {seed} at scale {b}; \
         the 2-core antagonist is array on stride\n{}\n\n\
         4core-mix shared L2: {} demand lookups, {} demand hits, {} prefetch fills, \
         {} DRAM queue cycles\n\
         multi-core digests: 2-core with context {digest2:#018x}, 4-core {digest4:#018x}\n",
        t.render(),
        shared4.demand_lookups,
        shared4.demand_hits,
        shared4.prefetch_fills,
        shared4.dram_queue_cycles,
    );

    let search = SearchConfig::default();
    let findings = adversarial_search(seed, &search, &cfg).expect("adversarial search");
    let mut t = Table::new([
        "family",
        "context acc",
        "context cov",
        "best baseline",
        "baseline cov",
        "gap",
        "evals",
        "collapse point",
    ]);
    for f in &findings {
        t.row([
            f.family.to_string(),
            format!("{:.4}", f.learned_accuracy),
            format!("{:.4}", f.learned_coverage),
            f.best_baseline.to_string(),
            format!("{:.4}", f.best_baseline_coverage),
            format!("{:.4}", f.gap),
            f.evals.to_string(),
            f.params.clone(),
        ]);
    }
    let _ = writeln!(
        out,
        "seeded search (seed {seed}): {} instructions of mcf warmup, then {} of an \
         adversarial tail; {} proposals per family; metrics over the tail only\n{}",
        search.warmup,
        search.tail,
        search.iters,
        t.render(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_harness::TraceStore;

    const DOC: &str = "# title\n\
        <!-- semloc:begin fig05 -->\nold five\n<!-- semloc:end fig05 -->\n\
        between\n\
        <!-- semloc:begin fig12 -->\nold twelve\nmore\n<!-- semloc:end fig12 -->\n\
        tail\n";

    #[test]
    fn section_ids_are_unique() {
        for (i, (id, _)) in SECTIONS.iter().enumerate() {
            assert!(SECTIONS[..i].iter().all(|(other, _)| other != id), "{id}");
            assert!(section(id).is_some());
        }
        assert!(section("fig02").is_none());
    }

    #[test]
    fn splice_replaces_only_between_markers() {
        let out = splice(DOC, &[("fig12", "new\n".to_string())]).expect("well formed");
        assert_eq!(
            out,
            "# title\n\
             <!-- semloc:begin fig05 -->\nold five\n<!-- semloc:end fig05 -->\n\
             between\n\
             <!-- semloc:begin fig12 -->\nnew\n<!-- semloc:end fig12 -->\n\
             tail\n"
        );
        // A whole block as printed splices into an empty pair of markers.
        let printed = block("fig05", &fenced("x\n"));
        let out = splice(&printed, &[("fig05", fenced("y\n"))]).expect("well formed");
        assert_eq!(out, block("fig05", &fenced("y\n")));
    }

    #[test]
    fn splice_is_idempotent() {
        let bodies = [("fig05", "a\nb\n".to_string()), ("fig12", String::new())];
        let once = splice(DOC, &bodies).expect("well formed");
        assert_eq!(splice(&once, &bodies).expect("well formed"), once);
    }

    #[test]
    fn splice_refuses_malformed_documents() {
        let body = |id: &'static str| [(id, "new\n".to_string())];
        let cases = [
            (DOC, body("fig08"), SpliceError::Missing("fig08".into())),
            (
                "<!-- semloc:begin fig99 -->\n<!-- semloc:end fig99 -->\n",
                body("fig05"),
                SpliceError::Unknown("fig99".into()),
            ),
            (
                "<!-- semloc:begin fig05 -->\nold\n",
                body("fig05"),
                SpliceError::Unterminated("fig05".into()),
            ),
            (
                "<!-- semloc:begin fig05 -->\n<!-- semloc:begin fig12 -->\n",
                body("fig05"),
                SpliceError::Unterminated("fig05".into()),
            ),
            (
                "old\n<!-- semloc:end fig05 -->\n",
                body("fig05"),
                SpliceError::Unterminated("fig05".into()),
            ),
        ];
        for (doc, bodies, want) in cases {
            let before = doc.to_string();
            assert_eq!(splice(doc, &bodies), Err(want));
            assert_eq!(doc, before, "a refused splice leaves its input as it was");
        }
    }

    #[test]
    fn experiments_md_has_a_block_for_every_section() {
        let doc = include_str!("../../../EXPERIMENTS.md");
        let bodies: Vec<_> = SECTIONS
            .iter()
            .map(|(id, _)| (*id, String::new()))
            .collect();
        splice(doc, &bodies).expect("EXPERIMENTS.md holds one well-formed block per section");
    }

    #[test]
    fn lineup_has_five_prefetchers() {
        assert_eq!(full_lineup().len(), 5);
    }

    #[test]
    fn default_cells_cover_the_design_space() {
        let cells = default_cells();
        let labels: Vec<String> = cells.iter().map(cell_label).collect();
        assert_eq!(labels.len(), 14);
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "cell labels must be unique");
        assert_eq!(
            format!("{:?}", cells[0]),
            format!("{:?}", ContextConfig::default()),
            "the first cell is the paper's own configuration"
        );
        assert_eq!(labels[0], "table1+bell+cst2048");
        let cell = ContextConfig {
            features: FeatureSet::PcDeltas,
            reward: GaussianPenaltyReward::snippet_default().into(),
            ..ContextConfig::default().with_cst_entries(4096)
        };
        assert_eq!(cell_label(&cell), "pc+deltas+gauss-pen+cst4096");
    }

    /// Every composition forks bit-identically: a run warmed for 20k
    /// instructions and moved onto a fresh replay by [`Engine::fork_onto`]
    /// ends with the digest of a cold run.
    #[test]
    fn every_cell_forks_warm_state_bit_identically() {
        let cfg = SimConfig::default().with_budget(120_000);
        let store = TraceStore::new();
        let mut jobs = Vec::new();
        for cell in default_cells() {
            jobs.extend(["array", "list", "mcf"].map(|k| (cell.clone(), k)));
        }
        let checked = run_sharded(pool_threads(), jobs, |(cell, name)| {
            let kernel = kernel_by_name(name).expect("registered workload");
            let kind = PrefetcherKind::Context(cell.clone());
            let replay = || store.replay(kernel.as_ref(), cfg.instr_budget);
            let mut warm = Engine::new(replay(), &kind, &cfg);
            warm.run_to(20_000);
            let mut forked = warm
                .fork_onto(replay())
                .expect("the fork target replays the same capture");
            forked.run_to_end();
            let mut cold = Engine::new(replay(), &kind, &cfg);
            cold.run_to_end();
            assert_eq!(
                forked.finish().stats_digest(),
                cold.finish().stats_digest(),
                "{}/{name}: the warm fork diverged from the cold run",
                cell_label(&cell)
            );
        });
        assert_eq!(checked.len(), 42);
    }
}
