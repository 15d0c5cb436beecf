//! The traced run: per-layer host time by boundary replay.
//!
//! No timer sits inside the simulation crates. Instead each matrix cell is
//! re-run through `Cpu::new` + `Hierarchy::new` + `Cpu::step_block` with a
//! [`Recorder`] between the hierarchy and the prefetcher, which logs every
//! call that crosses that boundary. The log is then replayed:
//!
//! * into a fresh prefetcher alone (the prefetcher's host time), checking
//!   that every answer equals the recording;
//! * into the core and hierarchy with a [`Script`] prefetcher that returns
//!   the recorded answers (core + memory with no prefetcher compute),
//!   checking that every simulated statistic equals the matrix cell's;
//! * for the `none` cell, its demand stream into a bare hierarchy on a
//!   synthetic clock (memory alone), checking its L1 and L2 miss counts.
//!
//! The untraced cell and these replays run in alternating rounds, so that
//! the closure check compares times taken under the same conditions.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use semloc_context::{ContextConfig, FeatureExtractor};
use semloc_cpu::Cpu;
use semloc_harness::{coverage, Engine, PrefetcherKind, RunResult, SimConfig, TraceStore};
use semloc_mem::{
    Hierarchy, MemConfig, MemPressure, NoPrefetch, PrefetchReq, Prefetcher, PrefetcherStats,
};
use semloc_trace::{AccessContext, Addr, Cycle, DecodedTrace, BLOCK_LEN};
use semloc_workloads::{capture_kernel, Kernel, ReplayKernel};

use crate::stats::{closure_ratio, percentile};
use crate::timed::{run_pass, Pass, Tally};
use crate::workloads::{
    lineup, pf_key, primed_kernels, Scale, Workload, PF_LABELS, PREFETCHING_LABELS,
};

/// Cycles between demands in the memory-only replay: longer than any fill,
/// so no demand waits on or merges into another.
const DEMAND_GAP: Cycle = 4_096;

/// One call across the hierarchy → prefetcher boundary. Kept small: the
/// scripted run streams these, and must not pay for the contexts.
#[derive(Clone, Copy)]
enum Step {
    Predicted {
        addr: Addr,
        hit: bool,
    },
    /// `on_access` with the next of [`CallLog::contexts`]; it returned the
    /// next `reqs` of [`CallLog::reqs`].
    Access {
        pressure: MemPressure,
        reqs: u32,
    },
    Issued {
        tag: u64,
        issued: bool,
    },
}

#[derive(Default)]
struct CallLog {
    steps: Vec<Step>,
    contexts: Vec<AccessContext>,
    reqs: Vec<PrefetchReq>,
}

/// A prefetcher that forwards to `inner` and logs every call.
struct Recorder {
    inner: Box<dyn Prefetcher>,
    log: RefCell<CallLog>,
}

impl Prefetcher for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        self.inner.on_access(ctx, pressure, out);
        let log = self.log.get_mut();
        log.reqs.extend_from_slice(out);
        log.contexts.push(ctx.clone());
        log.steps.push(Step::Access {
            pressure,
            reqs: out.len() as u32,
        });
    }

    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        self.inner.on_issue_result(tag, issued);
        self.log.get_mut().steps.push(Step::Issued { tag, issued });
    }

    fn was_predicted(&self, addr: Addr) -> bool {
        let hit = self.inner.was_predicted(addr);
        self.log
            .borrow_mut()
            .steps
            .push(Step::Predicted { addr, hit });
        hit
    }

    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }

    fn stats(&self) -> PrefetcherStats {
        self.inner.stats()
    }

    fn finish(&mut self) {
        self.inner.finish();
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// A prefetcher that answers from a recorded log and counts every call
/// that does not match it.
struct Script {
    log: Rc<CallLog>,
    next: Cell<usize>,
    next_req: usize,
    accesses: u64,
    mismatches: Cell<u64>,
}

impl Script {
    fn new(log: Rc<CallLog>) -> Self {
        Script {
            log,
            next: Cell::new(0),
            next_req: 0,
            accesses: 0,
            mismatches: Cell::new(0),
        }
    }

    fn take(&self) -> Option<Step> {
        let i = self.next.get();
        self.next.set(i + 1);
        self.log.steps.get(i).copied()
    }

    fn mismatch(&self) {
        self.mismatches.set(self.mismatches.get() + 1);
    }

    /// Whether every recorded call was replayed, in order.
    fn exact(&self) -> bool {
        self.mismatches.get() == 0 && self.next.get() == self.log.steps.len()
    }
}

impl Prefetcher for Script {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn on_access(&mut self, ctx: &AccessContext, _: MemPressure, out: &mut Vec<PrefetchReq>) {
        match self.take() {
            Some(Step::Access { reqs, .. }) if ctx.seq == self.accesses => {
                let end = self.next_req + reqs as usize;
                out.extend_from_slice(&self.log.reqs[self.next_req..end]);
                self.next_req = end;
            }
            _ => self.mismatch(),
        }
        self.accesses += 1;
    }

    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        match self.take() {
            Some(Step::Issued { tag: t, issued: i }) if t == tag && i == issued => {}
            _ => self.mismatch(),
        }
    }

    fn was_predicted(&self, addr: Addr) -> bool {
        match self.take() {
            Some(Step::Predicted { addr: a, hit }) if a == addr => hit,
            _ => {
                self.mismatch();
                false
            }
        }
    }

    fn storage_bytes(&self) -> usize {
        0
    }

    fn as_any(&self) -> Option<&dyn Any> {
        Some(self)
    }
}

/// The wrapper or script behind a simulated hierarchy's prefetcher.
fn inner<T: 'static>(p: &dyn Prefetcher) -> &T {
    p.as_any()
        .and_then(|a| a.downcast_ref())
        .expect("the hierarchy holds the prefetcher it was built with")
}

/// A core over the production hierarchy type, so that every replay runs the
/// same core and memory code as the untraced cell.
fn core(budget: u64, prefetcher: Box<dyn Prefetcher>) -> Cpu<Box<dyn Prefetcher>> {
    let cfg = SimConfig::default().with_budget(budget);
    Cpu::new(cfg.cpu, Hierarchy::new(cfg.mem, prefetcher), budget)
}

/// Step `replay` through `cpu` exactly as `Engine::run_to` does: whole
/// decoded blocks when the store decoded the stream, else one streamed
/// instruction at a time.
fn drive(cpu: &mut Cpu<Box<dyn Prefetcher>>, replay: &ReplayKernel, budget: u64) {
    let Some(d) = replay.decoded() else {
        replay.run(cpu);
        return;
    };
    let end = if budget == 0 {
        d.len()
    } else {
        d.len().min(budget as usize)
    };
    let mut cur = 0;
    while cur < end {
        let block_end = ((cur / BLOCK_LEN + 1) * BLOCK_LEN).min(end);
        d.prefetch_block(block_end);
        cpu.step_block(&d.block(cur, block_end));
        cur = block_end;
    }
}

fn elapsed_ns(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Host times and checks of one traced matrix cell.
struct CellTrace {
    label: &'static str,
    kernel: &'static str,
    instrs: u64,
    accesses: u64,
    issued: u64,
    measured_ns: f64,
    record_ns: f64,
    pf_ns: f64,
    scripted_ns: f64,
    /// Memory-only replay (the `none` cell only).
    mem_ns: Option<f64>,
    /// Context hashing alone (context cells only).
    hash_ns: Option<f64>,
    failures: Vec<String>,
}

/// Rounds of the untraced cell and its replays, run back to back so they
/// see the same interference from other tenants; each keeps its best time,
/// and every run must pass its checks.
const ROUNDS: usize = 3;

/// The cell itself, untraced, through the production engine.
fn untraced(
    replay: &ReplayKernel,
    kind: &PrefetcherKind,
    cell: &RunResult,
    budget: u64,
) -> (f64, Option<String>) {
    let cfg = SimConfig::default().with_budget(budget);
    let t = Instant::now();
    let mut e = Engine::new(replay.clone(), kind, &cfg);
    e.run_to_end();
    let r = e.finish();
    let ns = elapsed_ns(t);
    let ok = r.stats_digest() == cell.stats_digest();
    (
        ns,
        (!ok).then(|| "untraced rerun differs from the matrix cell".to_string()),
    )
}

/// Feed the recorded calls to a fresh prefetcher, checking its answers.
fn prefetcher_alone(
    kind: &PrefetcherKind,
    log: &CallLog,
    cell: &RunResult,
) -> (f64, Option<String>) {
    let t = Instant::now();
    let mut pf = kind.build();
    let mut out = Vec::with_capacity(8);
    let (mut contexts, mut next_req) = (log.contexts.iter(), 0);
    let mut mismatches = 0u64;
    for step in &log.steps {
        match *step {
            Step::Predicted { addr, hit } => mismatches += u64::from(pf.was_predicted(addr) != hit),
            Step::Access { pressure, reqs } => {
                let ctx = contexts.next().expect("one context per recorded access");
                out.clear();
                pf.on_access(ctx, pressure, &mut out);
                let end = next_req + reqs as usize;
                mismatches += u64::from(out[..] != log.reqs[next_req..end]);
                next_req = end;
            }
            Step::Issued { tag, issued } => pf.on_issue_result(tag, issued),
        }
    }
    pf.finish();
    let ns = elapsed_ns(t);
    let ok = mismatches == 0 && pf.stats() == cell.pf;
    (
        ns,
        (!ok).then(|| format!("prefetcher replay: {mismatches} answers differ from the recording")),
    )
}

/// Core + memory with every prefetcher answer taken from the log.
fn core_and_memory(
    replay: &ReplayKernel,
    log: &Rc<CallLog>,
    cell: &RunResult,
    budget: u64,
) -> (f64, Option<String>) {
    let t = Instant::now();
    let mut cpu = core(budget, Box::new(Script::new(Rc::clone(log))));
    drive(&mut cpu, replay, budget);
    let (cpu_stats, mem) = cpu.finish();
    let ns = elapsed_ns(t);
    let script: &Script = inner(mem.prefetcher().as_ref());
    let ok = cpu_stats == cell.cpu && *mem.stats() == cell.mem && script.exact();
    (
        ns,
        (!ok).then(|| "scripted run differs from the matrix cell".to_string()),
    )
}

/// The demand stream alone through a bare hierarchy on a synthetic clock.
fn memory_alone(log: &CallLog, cell: &RunResult) -> (f64, Option<String>) {
    let mut h = Hierarchy::new(MemConfig::default(), NoPrefetch);
    let t = Instant::now();
    for (i, ctx) in log.contexts.iter().enumerate() {
        black_box(h.demand_access(ctx, i as Cycle * DEMAND_GAP));
    }
    let ns = elapsed_ns(t);
    let (s, c) = (h.stats(), &cell.mem);
    let ok = (s.l1_misses, s.l2_misses) == (c.l1_misses, c.l2_misses);
    (
        ns,
        (!ok).then(|| {
            format!(
                "memory-only replay misses L1 {} L2 {}, the cell {} / {}",
                s.l1_misses, s.l2_misses, c.l1_misses, c.l2_misses
            )
        }),
    )
}

/// The context prefetcher's feature extraction and hashing alone.
fn hashing_alone(c: &ContextConfig, log: &CallLog) -> (f64, Option<String>) {
    let active = usize::from(c.initial_active);
    let t = Instant::now();
    for ctx in &log.contexts {
        let f = c.features.extract(ctx, c.block_shift);
        black_box(f.full_hash());
        black_box(f.key(active));
    }
    (elapsed_ns(t), None)
}

fn trace_cell(
    replay: &ReplayKernel,
    kind: &PrefetcherKind,
    cell: &RunResult,
    budget: u64,
) -> CellTrace {
    let mut failures = Vec::new();

    // Recording run: must reproduce the matrix cell exactly.
    let t = Instant::now();
    let recorder = Recorder {
        inner: kind.build(),
        log: RefCell::default(),
    };
    let mut cpu = core(budget, Box::new(recorder));
    drive(&mut cpu, replay, budget);
    let (cpu_stats, mem) = cpu.finish();
    let record_ns = elapsed_ns(t);
    if cpu_stats != cell.cpu || *mem.stats() != cell.mem || mem.prefetcher().stats() != cell.pf {
        failures.push("recording run differs from the matrix cell".to_string());
    }
    let log = Rc::new(inner::<Recorder>(mem.prefetcher().as_ref()).log.take());
    drop(mem);

    let (is_none, context) = match kind {
        PrefetcherKind::None => (true, None),
        PrefetcherKind::Context(c) => (false, Some(c)),
        _ => (false, None),
    };
    // measured, prefetcher, core + memory, memory, hashing
    let mut best = [f64::INFINITY; 5];
    for _ in 0..ROUNDS {
        let runs = [
            Some(untraced(replay, kind, cell, budget)),
            Some(prefetcher_alone(kind, &log, cell)),
            Some(core_and_memory(replay, &log, cell, budget)),
            is_none.then(|| memory_alone(&log, cell)),
            context.map(|c| hashing_alone(c, &log)),
        ];
        for (slot, run) in best.iter_mut().zip(runs) {
            if let Some((ns, failure)) = run {
                *slot = slot.min(ns);
                failures.extend(failure);
            }
        }
    }
    failures.sort();
    failures.dedup();
    let [measured_ns, pf_ns, scripted_ns, mem_ns, hash_ns] = best;

    CellTrace {
        label: kind.label(),
        kernel: cell.kernel,
        instrs: cell.cpu.instructions,
        accesses: log.contexts.len() as u64,
        issued: cell.mem.prefetches_issued,
        measured_ns,
        record_ns,
        pf_ns,
        scripted_ns,
        mem_ns: is_none.then_some(mem_ns),
        hash_ns: context.map(|_| hash_ns),
        failures,
    }
}

/// Ratio with an empty denominator reported as 0 (a layer the workload
/// does not exercise).
fn ratio(num: f64, den: f64) -> f64 {
    if num == 0.0 || den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of one traced run, in report order.
pub struct Traced {
    pub metrics: Vec<(String, f64)>,
    pub tally: Tally,
    pub closure: Option<f64>,
}

/// Capture, decode and stream every primed kernel once, timing each stage.
fn stream_layers(w: Workload, seed: u64, scale: Scale, m: &mut Vec<(String, f64)>) {
    let (mut instrs, mut capture_ns, mut decode_ns, mut stream_ns, mut bytes) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    for (k, budget) in primed_kernels(w, seed, scale) {
        let t = Instant::now();
        let cap = capture_kernel(k.as_ref(), budget);
        capture_ns += elapsed_ns(t);
        let t = Instant::now();
        let d = DecodedTrace::decode(&cap.buf);
        decode_ns += elapsed_ns(t);
        let t = Instant::now();
        for i in cap.buf.iter() {
            black_box(i);
        }
        stream_ns += elapsed_ns(t);
        instrs += cap.buf.len() as f64;
        bytes += d.bytes() as f64;
    }
    m.push(("workloads.capture_ns_per_instr".into(), capture_ns / instrs));
    m.push(("trace.decode_ns_per_instr".into(), decode_ns / instrs));
    m.push(("trace.decoded_mb".into(), bytes / f64::from(1u32 << 20)));
    m.push(("trace.stream_ns_per_instr".into(), stream_ns / instrs));
}

/// Share of issued prefetches whose line a demand touched, counted by the
/// memory system: one minus Fig 9's wrong prefetches (lines evicted or left
/// at the end untouched) over prefetches issued. Only the context
/// prefetcher counts its own useful prefetches, so
/// `PrefetcherStats::accuracy` would read 0 for every baseline; and
/// [`coverage`]'s demand classes count every demand that merges into one
/// in-flight prefetch, so they can exceed the prefetches issued.
fn accuracy(r: &RunResult) -> f64 {
    let issued = r.mem.prefetches_issued;
    let wrong = r.mem.classes.prefetch_never_hit;
    ratio(issued.saturating_sub(wrong) as f64, issued as f64)
}

/// Simulated counts of the measured pass (no host time involved).
fn sim_counts(pass: &Pass, m: &mut Vec<(String, f64)>) {
    let sum = |f: fn(&RunResult) -> u64| pass.results.iter().map(f).sum::<u64>() as f64;
    let kinstr = sum(|r| r.cpu.instructions) / 1_000.0;
    let issued = sum(|r| r.mem.prefetches_issued);
    let rejected = sum(|r| r.mem.prefetches_rejected);
    m.push(("mem.l1_mpki".into(), sum(|r| r.mem.l1_misses) / kinstr));
    m.push(("mem.l2_mpki".into(), sum(|r| r.mem.l2_misses) / kinstr));
    m.push((
        "mem.l1_mshr_merge_pki".into(),
        sum(|r| r.mem.l1_mshr_merges) / kinstr,
    ));
    m.push(("mem.prefetch_issued_pki".into(), issued / kinstr));
    m.push((
        "mem.prefetch_rejected_frac".into(),
        ratio(rejected, issued + rejected),
    ));
    for label in PREFETCHING_LABELS {
        let cells: Vec<&RunResult> = pass
            .results
            .iter()
            .filter(|r| r.prefetcher == label)
            .collect();
        let mean =
            |f: fn(&RunResult) -> f64| ratio(cells.iter().map(|&r| f(r)).sum(), cells.len() as f64);
        let key = pf_key(label);
        m.push((format!("pf.{key}.accuracy"), mean(accuracy)));
        m.push((format!("pf.{key}.coverage"), mean(coverage)));
    }
    let shared =
        |f: fn(&semloc_mem::SharedL2Stats) -> u64| pass.shared.iter().map(f).sum::<u64>() as f64;
    m.push((
        "mem.shared.demand_hit_frac".into(),
        ratio(shared(|s| s.demand_hits), shared(|s| s.demand_lookups)),
    ));
    m.push((
        "mem.shared.dram_queue_cycles_pki".into(),
        ratio(shared(|s| s.dram_queue_cycles), kinstr),
    ));
}

/// Host-time layers of the single-core cells.
fn cell_layers(cells: &[CellTrace], m: &mut Vec<(String, f64)>) -> Option<f64> {
    let sum = |f: &dyn Fn(&CellTrace) -> Option<f64>| cells.iter().filter_map(f).sum::<f64>();
    let measured = sum(&|c| Some(c.measured_ns));
    for label in PF_LABELS {
        let of = |c: &CellTrace| c.label == label;
        let pf_ns = sum(&|c| of(c).then_some(c.pf_ns));
        let key = pf_key(label);
        m.push((
            format!("pf.{key}.ns_per_access"),
            ratio(pf_ns, sum(&|c| of(c).then_some(c.accesses as f64))),
        ));
        m.push((format!("pf.{key}.host_share"), ratio(pf_ns, measured)));
    }
    let ctx_accesses = sum(&|c| c.hash_ns.map(|_| c.accesses as f64));
    let hash = ratio(sum(&|c| c.hash_ns), ctx_accesses);
    let ctx_pf = ratio(sum(&|c| c.hash_ns.map(|_| c.pf_ns)), ctx_accesses);
    m.push(("context.hash_ns_per_access".into(), hash));
    m.push((
        "context.learn_ns_per_access".into(),
        if ctx_accesses > 0.0 {
            ctx_pf - hash
        } else {
            0.0
        },
    ));

    let none = |c: &CellTrace| c.mem_ns.is_some();
    let scripted_none = sum(&|c| none(c).then_some(c.scripted_ns));
    let mem_none = sum(&|c| c.mem_ns);
    m.push((
        "cpu_mem.ns_per_instr".into(),
        ratio(
            sum(&|c| Some(c.scripted_ns)),
            sum(&|c| Some(c.instrs as f64)),
        ),
    ));
    m.push((
        "mem.demand_ns_per_access".into(),
        ratio(mem_none, sum(&|c| none(c).then_some(c.accesses as f64))),
    ));
    m.push((
        "cpu.ns_per_instr".into(),
        ratio(
            scripted_none - mem_none,
            sum(&|c| none(c).then_some(c.instrs as f64)),
        ),
    ));
    // Extra core + memory time of a prefetching cell over its kernel's
    // `none` cell, per prefetch the hierarchy dispatched.
    let none_scripted = |kernel: &str| {
        cells
            .iter()
            .find(|c| c.kernel == kernel && none(c))
            .map_or(0.0, |c| c.scripted_ns)
    };
    let extra = sum(&|c| (!none(c)).then(|| c.scripted_ns - none_scripted(c.kernel)));
    let issued = sum(&|c| (!none(c)).then_some(c.issued as f64));
    m.push(("mem.prefetch_ns_per_issue".into(), ratio(extra, issued)));

    if cells.is_empty() {
        return None;
    }
    let closure = closure_ratio(sum(&|c| Some(c.pf_ns + c.scripted_ns)), measured);
    m.push(("closure_ratio".into(), closure));
    m.push((
        "record_overhead_frac".into(),
        sum(&|c| Some(c.record_ns)) / measured - 1.0,
    ));
    Some(closure)
}

/// The traced run of `w`: set-up stages, one untraced pass (checked against
/// the pinned digest), then the boundary replays of every cell of it.
pub fn trace(w: Workload, seed: u64, scale: Scale, expected: Option<u64>) -> Traced {
    let mut m = Vec::new();
    stream_layers(w, seed, scale, &mut m);

    let store = TraceStore::new();
    let pass = run_pass(w, seed, scale, &store);
    let mut tally = Tally::default();
    tally.check_pass(&pass, &pass, expected);

    let mut cells = Vec::new();
    if w != Workload::McSharedL2 {
        let kinds = lineup(w);
        let kernels = primed_kernels(w, seed, scale);
        for (i, result) in pass.results.iter().enumerate() {
            let (k, budget) = &kernels[i / kinds.len()];
            let kind = &kinds[i % kinds.len()];
            let n_ops = pass.ops.iter().filter(|o| o.group == i).count() as u64;
            let replay = store.replay(k.as_ref(), *budget);
            let cell = trace_cell(&replay, kind, result, *budget);
            if !cell.failures.is_empty() {
                tally.fail(
                    n_ops,
                    format!(
                        "{}/{}: {}",
                        cell.kernel,
                        cell.label,
                        cell.failures.join("; ")
                    ),
                );
            }
            cells.push(cell);
        }
    }
    let closure = cell_layers(&cells, &mut m);
    if closure.is_none() {
        m.push(("closure_ratio".into(), 0.0));
        m.push(("record_overhead_frac".into(), 0.0));
    }

    let quantum_us: Vec<f64> = if w == Workload::McSharedL2 {
        pass.ops.iter().map(|o| o.ns / 1_000.0).collect()
    } else {
        Vec::new()
    };
    for (pct, name) in [(50, "mc.quantum_us_p50"), (90, "mc.quantum_us_p90")] {
        let v = match percentile(&quantum_us, pct) {
            Ok(v) => v,
            Err(e) if !quantum_us.is_empty() => {
                tally.notes.push(format!("{name}: {e}"));
                0.0
            }
            Err(_) => 0.0,
        };
        m.push((name.into(), v));
    }
    sim_counts(&pass, &mut m);
    Traced {
        metrics: m,
        tally,
        closure,
    }
}
