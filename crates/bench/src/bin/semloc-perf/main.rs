//! `semloc-perf`: host performance of the simulator, end to end and layer
//! by layer, on four workloads (see `README.md` beside this file).
//!
//! ```text
//! semloc-perf --workload W [--seed S] [--seconds N] [--trace [0|1]] [--out F]
//! semloc-perf --calibrate W [--seed S] [--seconds N]
//! ```
//!
//! Untraced, it times as many passes of `W` as fill `N` seconds on a quiet
//! host (a count fixed per workload, so every build takes the same number)
//! and prints every end-to-end metric by name with its unit. `--trace` instead makes one
//! traced run that prints the per-layer metrics. `--calibrate` measures
//! two sets of untraced passes and prints each metric's spread between the
//! sets next to its bound. The last line of standard output is always one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`; `--out`
//! also writes it to `F`.
//!
//! Only public functions of the simulator crates are called and timed;
//! nothing inside the simulation reads the clock.

// Wall-clock timing is this binary's purpose (semloc-lint rule D2 exempts the bench crate).
#![allow(clippy::disallowed_methods)]

mod layers;
mod report;
mod stats;
mod timed;
mod workloads;

#[cfg(test)]
mod smoke;

use std::fmt;
use std::process::ExitCode;

use report::{Value, END_TO_END};
use timed::Tally;
use workloads::{Scale, Workload};

const USAGE: &str =
    "usage: semloc-perf --workload W [--seed S] [--seconds N] [--trace [0|1]] [--out F]\n       \
                     semloc-perf --calibrate W [--seed S] [--seconds N]\n\
                     workloads: spec-matrix, lds-context, spec-baseline, mc-shared-l2";

/// Why the benchmark refused to run.
#[derive(Debug)]
enum Refusal {
    Usage(String),
    /// An environment variable that would let the simulator skip the work
    /// being timed.
    Env {
        var: &'static str,
        why: &'static str,
    },
}

impl fmt::Display for Refusal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Refusal::Usage(msg) => write!(f, "{msg}\n{USAGE}"),
            Refusal::Env { var, why } => write!(f, "{var} is set: {why}; unset it to measure"),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
    out: Option<String>,
}

fn next_value(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, Refusal> {
    it.next()
        .ok_or_else(|| Refusal::Usage(format!("{flag} needs a value")))
}

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, Refusal> {
    let mut it = it.peekable();
    let mut args = Args {
        workload: Workload::SpecMatrix,
        seed: 0,
        seconds: 10.0,
        trace: false,
        calibrate: false,
        out: None,
    };
    let mut workload = None;
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workload" | "--calibrate" => {
                args.calibrate = a == "--calibrate";
                let name = next_value(&mut it, &a)?;
                workload = Some(
                    Workload::parse(&name)
                        .ok_or_else(|| Refusal::Usage(format!("unknown workload {name:?}")))?,
                );
            }
            "--seed" => {
                let v = next_value(&mut it, &a)?;
                args.seed = v
                    .parse()
                    .map_err(|_| Refusal::Usage(format!("--seed wants an integer, got {v:?}")))?;
            }
            "--seconds" => {
                let v = next_value(&mut it, &a)?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| {
                        Refusal::Usage(format!("--seconds wants a number, got {v:?}"))
                    })?;
            }
            // A bare `--trace`, or `--trace 0` / `--trace 1`.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some(v @ ("0" | "1")) => {
                        let on = v == "1";
                        it.next();
                        on
                    }
                    _ => true,
                };
            }
            "--out" => args.out = Some(next_value(&mut it, &a)?),
            other => return Err(Refusal::Usage(format!("unexpected argument {other:?}"))),
        }
    }
    args.workload = workload.ok_or_else(|| Refusal::Usage("no workload given".into()))?;
    Ok(args)
}

/// Refuse to run where the simulator could skip the work being timed:
/// final checkpoints return finished cells without simulating, and an
/// on-disk trace cache skips the capture that set-up measures.
fn guard_env() -> Result<(), Refusal> {
    if std::env::var_os("SEMLOC_CKPT_DIR").is_some() {
        return Err(Refusal::Env {
            var: "SEMLOC_CKPT_DIR",
            why: "final checkpoints would return cells without simulating them",
        });
    }
    if std::env::var_os("SEMLOC_TRACE_DIR").is_some() {
        return Err(Refusal::Env {
            var: "SEMLOC_TRACE_DIR",
            why: "on-disk traces would skip the capture that set-up measures",
        });
    }
    Ok(())
}

/// Where and how the numbers were taken.
fn provenance(args: &Args) -> Vec<String> {
    let mut env: Vec<String> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("SEMLOC_")
                .then(|| format!("{k}={}", v.to_string_lossy()))
        })
        .collect();
    env.sort();
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        format!(
            "# semloc-perf workload={} seed={} seconds={} mode={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            if args.calibrate {
                "calibrate"
            } else if args.trace {
                "trace"
            } else {
                "end-to-end"
            }
        ),
        format!(
            "# env {}",
            if env.is_empty() {
                "(no SEMLOC_* variables)".to_string()
            } else {
                env.join(" ")
            }
        ),
        format!(
            "# accel tier {:?}, nproc {nproc}, cpu {cpu}",
            semloc_accel::tier()
        ),
    ]
}

/// A finished run: its checks, its metrics and its report lines.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Vec<(String, &'static str, f64)>,
    pub lines: Vec<String>,
}

impl Outcome {
    fn new(tally: Tally) -> Self {
        Outcome {
            tally,
            metrics: Vec::new(),
            lines: Vec::new(),
        }
    }

    fn push(&mut self, name: String, unit: &'static str, v: &Value) {
        self.lines.push(report::line(&name, unit, v));
        if !v.value.is_finite() {
            self.tally.notes.push(format!("{name} is not a number"));
        }
        self.metrics
            .push((name, unit, if v.value.is_finite() { v.value } else { 0.0 }));
    }

    /// Append every distinct failure note, with how often it occurred.
    fn finish(mut self) -> Self {
        let mut counted: Vec<(&String, usize)> = Vec::new();
        for n in &self.tally.notes {
            match counted.iter_mut().find(|(seen, _)| *seen == n) {
                Some(entry) => entry.1 += 1,
                None => counted.push((n, 1)),
            }
        }
        for (n, times) in counted {
            self.lines.push(match times {
                1 => format!("! {n}"),
                _ => format!("! {n} (x{times})"),
            });
        }
        self
    }
}

fn digest_line(w: Workload, seed: u64, got: u64, expected: Option<u64>) -> String {
    match expected {
        Some(want) => format!("# digest {got:#018x} (pinned {want:#018x})"),
        None => format!(
            "# digest {got:#018x} (none pinned for {} at seed {seed})",
            w.name()
        ),
    }
}

/// Untraced passes for `seconds`: the end-to-end metrics.
pub fn run_untraced(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    expected: Option<u64>,
) -> Outcome {
    let mut m = timed::measure(w, seed, scale, seconds, expected);
    let rss = report::peak_rss_mb().unwrap_or(f64::NAN);
    let values = report::end_to_end(&mut m, rss);
    let mut o = Outcome::new(std::mem::take(&mut m.tally));
    o.lines.push(format!(
        "# {} of {} timed passes after 1 warm-up (capped at {}x --seconds); {} ops",
        m.passes.len(),
        timed::pass_count(w, seconds),
        timed::CAP_FACTOR,
        o.tally.attempted
    ));
    o.lines
        .push(digest_line(w, seed, m.passes[0].digest, expected));
    o.lines.push(format!(
        "# per-pass Minstr/s: {}",
        m.passes
            .iter()
            .map(|p| format!("{:.3}", p.instrs as f64 / p.run_s / 1e6))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    for (def, v) in END_TO_END.iter().zip(&values) {
        o.push(def.name.to_string(), def.unit, v);
    }
    o.finish()
}

/// One traced run: the per-layer metrics.
pub fn run_traced(w: Workload, seed: u64, scale: Scale, expected: Option<u64>) -> Outcome {
    let t = layers::trace(w, seed, scale, expected);
    let mut o = Outcome::new(t.tally);
    for (name, unit, _) in report::per_layer() {
        let value = t
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v);
        o.push(
            name,
            unit,
            &Value {
                value,
                detail: String::new(),
            },
        );
    }
    o.lines.push(match t.closure {
        Some(c) if stats::closure_trusted(c) => {
            format!("# closure {c:.3}: the layers account for the measured cell time")
        }
        Some(c) => format!(
            "# closure {c:.3} lies outside [{}, {}]: the per-layer breakdown is untrustworthy",
            stats::CLOSURE_BAND.0,
            stats::CLOSURE_BAND.1
        ),
        None => "# no single-core cells: layers without cells report 0".into(),
    });
    o.finish()
}

/// Two sets of untraced passes; each metric's spread between the sets
/// against its bound.
fn run_calibrate(w: Workload, seed: u64, seconds: f64, expected: Option<u64>) -> Outcome {
    let sets: Vec<Outcome> = (0..2)
        .map(|_| run_untraced(w, seed, Scale::PRODUCTION, seconds, expected))
        .collect();
    let mut tally = Tally::default();
    for s in &sets {
        tally.attempted += s.tally.attempted;
        tally.failed += s.tally.failed;
        tally.notes.extend(s.tally.notes.iter().cloned());
    }
    let mut o = Outcome::new(tally);
    o.lines.push(format!(
        "{:<20} {:>14} {:>14} {:>8} {:>7} {:>7}",
        "metric", "set A", "set B", "spread", "bound", "better"
    ));
    for (def, ((name, unit, a), (_, _, b))) in END_TO_END
        .iter()
        .zip(sets[0].metrics.iter().zip(&sets[1].metrics))
    {
        let spread = (a - b).abs() / ((a + b) / 2.0);
        let bound = def.bound;
        o.lines.push(format!(
            "{name:<20} {a:>14.6} {b:>14.6} {:>7.2}% {:>6.1}% {:>7} {}",
            spread * 100.0,
            bound * 100.0,
            def.better,
            if spread <= bound {
                "ok"
            } else {
                "WIDER THAN BOUND"
            }
        ));
        o.metrics.push((name.clone(), unit, *b));
    }
    o.lines
        .push("# peak_rss_mb is process-wide: set B reports the peak of both sets".into());
    o.finish()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)).and_then(|a| guard_env().map(|()| a)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("semloc-perf: {e}");
            return ExitCode::from(2);
        }
    };
    for l in provenance(&args) {
        println!("{l}");
    }
    let (w, seed) = (args.workload, args.seed);
    let expected = w.expected_digest(seed, Scale::PRODUCTION);
    let outcome = if args.calibrate {
        run_calibrate(w, seed, args.seconds, expected)
    } else if args.trace {
        run_traced(w, seed, Scale::PRODUCTION, expected)
    } else {
        run_untraced(w, seed, Scale::PRODUCTION, args.seconds, expected)
    };
    for l in &outcome.lines {
        println!("{l}");
    }
    let json = report::result_json(&outcome.tally, &outcome.metrics);
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{json}\n")) {
            eprintln!("semloc-perf: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{json}");
    ExitCode::SUCCESS
}
