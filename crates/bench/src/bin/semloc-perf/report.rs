//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result line.

use std::fmt::Write as _;

use crate::stats::{geomean, percentile, quartiles};
use crate::timed::{Measurement, Tally};
use crate::workloads::{pf_key, PF_LABELS, PREFETCHING_LABELS};

/// One end-to-end metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// End-to-end metrics of the untraced run.
pub const END_TO_END: [MetricDef; 6] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("sim_minstr_per_s", "Minstr/s", "higher", 0.25),
    e2e("ns_per_instr_p50", "ns", "lower", 0.25),
    e2e("ns_per_instr_p90", "ns", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
    e2e("sim_ipc_geomean", "instr/cycle", "higher", 0.05),
];

/// Per-layer metrics of the traced run, in report order.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| v.push((name.to_string(), unit, better));
    add("workloads.capture_ns_per_instr", "ns", "lower");
    add("trace.decode_ns_per_instr", "ns", "lower");
    add("trace.decoded_mb", "MB", "lower");
    add("trace.stream_ns_per_instr", "ns", "lower");
    for label in PF_LABELS {
        let key = pf_key(label);
        add(&format!("pf.{key}.ns_per_access"), "ns", "lower");
        add(&format!("pf.{key}.host_share"), "frac", "lower");
    }
    add("context.hash_ns_per_access", "ns", "lower");
    add("context.learn_ns_per_access", "ns", "lower");
    add("cpu_mem.ns_per_instr", "ns", "lower");
    add("mem.demand_ns_per_access", "ns", "lower");
    add("cpu.ns_per_instr", "ns", "lower");
    add("mem.prefetch_ns_per_issue", "ns", "lower");
    add("closure_ratio", "ratio", "lower");
    add("record_overhead_frac", "frac", "lower");
    add("mc.quantum_us_p50", "us", "lower");
    add("mc.quantum_us_p90", "us", "lower");
    add("mem.l1_mpki", "1/kinstr", "lower");
    add("mem.l2_mpki", "1/kinstr", "lower");
    add("mem.l1_mshr_merge_pki", "1/kinstr", "lower");
    add("mem.prefetch_issued_pki", "1/kinstr", "lower");
    add("mem.prefetch_rejected_frac", "frac", "lower");
    for label in PREFETCHING_LABELS {
        let key = pf_key(label);
        add(&format!("pf.{key}.accuracy"), "frac", "higher");
        add(&format!("pf.{key}.coverage"), "frac", "higher");
    }
    add("mem.shared.demand_hit_frac", "frac", "higher");
    add("mem.shared.dram_queue_cycles_pki", "cycles/kinstr", "lower");
    v
}

/// A metric value, with how it was taken.
pub struct Value {
    pub value: f64,
    pub detail: String,
}

/// The end-to-end metrics of a measurement, in [`END_TO_END`] order.
pub fn end_to_end(m: &mut Measurement, peak_rss_mb: f64) -> Vec<Value> {
    let passes = m.passes.len();
    let setups: Vec<f64> = m.passes.iter().map(|p| p.setup_s).collect();
    let (q1, setup, q3) = quartiles(&setups);
    let best = m.best_ops();
    let instrs: u64 = best.iter().map(|&(_, n)| n).sum();
    let best_ns: f64 = best.iter().map(|&(ns, _)| ns).sum();
    let per_instr: Vec<f64> = best
        .iter()
        .filter(|&&(_, n)| n > 0)
        .map(|&(ns, n)| ns / n as f64)
        .collect();
    let notes = &mut m.tally.notes;
    let mut pct = |p: u32| {
        let value = percentile(&per_instr, p).unwrap_or_else(|e| {
            notes.push(format!("ns_per_instr: {e}"));
            f64::NAN
        });
        Value {
            value,
            detail: format!(
                "over {} ops, each its best of {passes} passes",
                per_instr.len()
            ),
        }
    };
    let (p50, p90) = (pct(50), pct(90));
    let ipcs: Vec<f64> = m.passes[0].results.iter().map(|r| r.cpu.ipc()).collect();
    vec![
        Value {
            value: setup,
            detail: format!("median of {passes} passes, q1 {q1:.6}, q3 {q3:.6}"),
        },
        Value {
            value: instrs as f64 / best_ns * 1e3,
            detail: format!("{} ops, each its best of {passes} passes", best.len()),
        },
        p50,
        p90,
        Value {
            value: peak_rss_mb,
            detail: "VmHWM at exit".into(),
        },
        Value {
            value: geomean(&ipcs),
            detail: format!("over {} cells or cores", ipcs.len()),
        },
    ]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One human-readable metric line.
pub fn line(name: &str, unit: &str, v: &Value) -> String {
    let mut s = format!("{name:<36} {:>14.6} {unit}", v.value);
    if !v.detail.is_empty() {
        let _ = write!(s, "  ({})", v.detail);
    }
    s
}

/// The result object the benchmark prints as its last line.
pub fn result_json(tally: &Tally, metrics: &[(String, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.correct(),
        tally.attempted,
        tally.failed
    );
    for (i, (name, unit, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}
