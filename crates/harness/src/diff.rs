//! Differential oracle: drive the optimized [`ContextPrefetcher`] and the
//! naive [`SpecPrefetcher`] in lockstep over a replayed workload and report
//! the *first* access at which any observable diverges.
//!
//! Observables compared on **every** access: the emitted prefetch requests
//! (address, shadow flag, tag), every learning counter, the memory-side
//! counters, the exploration accuracy (bit-for-bit as f64), and
//! `was_predicted` probes issued by the cache hierarchy. Every
//! [`TeePrefetcher::DEEP_EVERY`] accesses — and once more at the end of the
//! run — the full table state is compared too: CST contents, reducer
//! histogram and activation counters, hit-depth CDF.
//!
//! On divergence the tee records a [`Divergence`] carrying both
//! implementations' full state dumps and lets the optimized side finish the
//! run alone (the simulation stays valid; the report is inspected
//! afterwards).

use std::cell::Cell;
use std::fmt;
use std::path::PathBuf;

use semloc_context::{ContextConfig, ContextPrefetcher, ContextStats};
use semloc_cpu::Cpu;
use semloc_mem::{Hierarchy, MemPressure, PrefetchReq, Prefetcher, PrefetcherStats};
use semloc_spec::SpecPrefetcher;
use semloc_trace::{AccessContext, Addr};
use semloc_workloads::Kernel;

use crate::config::SimConfig;
use crate::knob::Knob;
use crate::store::TraceStore;

/// The first observable difference between the two implementations.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Demand-access ordinal (1-based) at which the divergence appeared.
    pub access: u64,
    /// Sequence number of the offending access.
    pub seq: u64,
    /// Which observable diverged (e.g. `request[0].addr`, `stats.hits`).
    pub field: String,
    /// The optimized implementation's value, rendered.
    pub core_value: String,
    /// The spec implementation's value, rendered.
    pub spec_value: String,
    /// The access context that triggered the divergence.
    pub context: String,
    /// Full state dump of the optimized prefetcher at the divergence.
    pub core_dump: String,
    /// Full state dump of the spec prefetcher at the divergence.
    pub spec_dump: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "divergence at access {} (seq {}): {}",
            self.access, self.seq, self.field
        )?;
        writeln!(f, "  core: {}", self.core_value)?;
        writeln!(f, "  spec: {}", self.spec_value)?;
        writeln!(f, "  context: {}", self.context)?;
        writeln!(f, "--- core state ---")?;
        writeln!(f, "{}", self.core_dump)?;
        writeln!(f, "--- spec state ---")?;
        write!(f, "{}", self.spec_dump)
    }
}

/// Outcome of one lockstep run.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Workload name.
    pub kernel: &'static str,
    /// Configuration label (for the report line).
    pub label: String,
    /// Demand accesses compared in lockstep.
    pub accesses: u64,
    /// First divergence, if any.
    pub divergence: Option<Divergence>,
}

impl DiffReport {
    /// True when the whole run stayed in lockstep.
    pub fn clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Flatten `ContextStats` into labelled counters (it has no `PartialEq`,
/// by design — comparisons must name the field that moved).
fn stats_fields(s: &ContextStats) -> [(&'static str, u64); 10] {
    [
        ("real_issued", s.real_issued),
        ("shadow_issued", s.shadow_issued),
        ("demoted", s.demoted),
        ("hits", s.hits),
        ("expired", s.expired),
        ("timely_hits", s.timely_hits),
        ("late_hits", s.late_hits),
        ("early_hits", s.early_hits),
        ("collected", s.collected),
        ("delta_overflow", s.delta_overflow),
    ]
}

fn mem_fields(s: &PrefetcherStats) -> [(&'static str, u64); 4] {
    [
        ("issued", s.issued),
        ("rejected", s.rejected),
        ("shadow", s.shadow),
        ("useful", s.useful),
    ]
}

fn core_dump_state(core: &ContextPrefetcher) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "core state:");
    let _ = writeln!(
        s,
        "  accuracy={:.6} epsilon={:.6}",
        core.config().exploration.accuracy(),
        core.config().exploration.epsilon()
    );
    let _ = writeln!(s, "  stats={:?}", core.learn_stats());
    let _ = writeln!(s, "  mem_stats={:?}", core.stats());
    let _ = writeln!(
        s,
        "  reducer: hist={:?} act={} deact={}",
        core.reducer().active_histogram(),
        core.reducer().activations(),
        core.reducer().deactivations()
    );
    let dump: Vec<_> = core.cst().dump().collect();
    let _ = writeln!(s, "  cst: occupancy={}", dump.len());
    for (i, links) in dump.iter().take(64) {
        let _ = writeln!(s, "    [{i}] {links:?}");
    }
    if dump.len() > 64 {
        let _ = writeln!(s, "    ... {} more entries", dump.len() - 64);
    }
    s
}

/// A [`Prefetcher`] that drives the optimized and spec implementations in
/// lockstep, forwarding the optimized side's behaviour to the hierarchy.
pub struct TeePrefetcher {
    core: ContextPrefetcher,
    spec: SpecPrefetcher,
    accesses: u64,
    divergence: Option<Divergence>,
    spec_out: Vec<PrefetchReq>,
    // `was_predicted` takes `&self`; a mismatch is stashed here and
    // promoted to a divergence on the next `&mut self` entry point.
    was_pred_mismatch: Cell<Option<Addr>>,
}

impl TeePrefetcher {
    /// Accesses between full table-state comparisons.
    pub const DEEP_EVERY: u64 = 4096;

    /// Build both implementations from the same configuration.
    pub fn new(cfg: ContextConfig) -> Self {
        TeePrefetcher {
            core: ContextPrefetcher::new(cfg.clone()),
            spec: SpecPrefetcher::new(cfg),
            accesses: 0,
            divergence: None,
            spec_out: Vec::new(),
            was_pred_mismatch: Cell::new(None),
        }
    }

    /// Demand accesses processed in lockstep so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// The first recorded divergence.
    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    fn diverge(
        &mut self,
        seq: u64,
        field: String,
        core_value: String,
        spec_value: String,
        context: String,
    ) {
        if self.divergence.is_some() {
            return;
        }
        self.divergence = Some(Divergence {
            access: self.accesses,
            seq,
            field,
            core_value,
            spec_value,
            context,
            core_dump: core_dump_state(&self.core),
            spec_dump: self.spec.dump_state(),
        });
    }

    fn promote_was_pred_mismatch(&mut self, seq: u64) {
        if let Some(addr) = self.was_pred_mismatch.take() {
            let c = self.core.was_predicted(addr);
            let s = self.spec.was_predicted(addr);
            self.diverge(
                seq,
                format!("was_predicted({addr:#x})"),
                c.to_string(),
                s.to_string(),
                "probe from the cache hierarchy".into(),
            );
        }
    }

    /// Per-access shallow comparison: emitted requests + counters.
    fn compare_access(&mut self, ctx: &AccessContext, out: &[PrefetchReq]) {
        let seq = ctx.seq;
        if out.len() != self.spec_out.len() {
            self.diverge(
                seq,
                "request count".into(),
                format!("{:?}", out),
                format!("{:?}", self.spec_out),
                format!("{ctx:?}"),
            );
            return;
        }
        for (i, (c, s)) in out.iter().zip(self.spec_out.iter()).enumerate() {
            if (c.addr, c.shadow, c.tag) != (s.addr, s.shadow, s.tag) {
                self.diverge(
                    seq,
                    format!("request[{i}]"),
                    format!("{c:?}"),
                    format!("{s:?}"),
                    format!("{ctx:?}"),
                );
                return;
            }
        }
        let cs = stats_fields(self.core.learn_stats());
        let ss = stats_fields(self.spec.learn_stats());
        for (&(name, c), &(_, s)) in cs.iter().zip(ss.iter()) {
            if c != s {
                self.diverge(
                    seq,
                    format!("stats.{name}"),
                    c.to_string(),
                    s.to_string(),
                    format!("{ctx:?}"),
                );
                return;
            }
        }
        let cm = mem_fields(&self.core.stats());
        let sm = mem_fields(&Prefetcher::stats(&self.spec));
        for (&(name, c), &(_, s)) in cm.iter().zip(sm.iter()) {
            if c != s {
                self.diverge(
                    seq,
                    format!("mem_stats.{name}"),
                    c.to_string(),
                    s.to_string(),
                    format!("{ctx:?}"),
                );
                return;
            }
        }
        let ca = self.core.config().exploration.accuracy();
        let sa = self.spec.accuracy();
        if ca.to_bits() != sa.to_bits() {
            self.diverge(
                seq,
                "exploration.accuracy".into(),
                format!("{ca:?}"),
                format!("{sa:?}"),
                format!("{ctx:?}"),
            );
        }
    }

    /// Full table-state comparison (CST, reducer, hit-depth CDF).
    fn compare_deep(&mut self, seq: u64) {
        if self.divergence.is_some() {
            return;
        }
        let core_occ = self.core.cst().occupancy();
        let spec_occ = self.spec.cst_occupancy();
        if core_occ != spec_occ {
            self.diverge(
                seq,
                "cst.occupancy".into(),
                core_occ.to_string(),
                spec_occ.to_string(),
                "deep state comparison".into(),
            );
            return;
        }
        let core_dump: Vec<_> = self.core.cst().dump().collect();
        let spec_dump = self.spec.cst_dump();
        if core_dump != spec_dump {
            let (idx, (c, s)) = core_dump
                .iter()
                .zip(spec_dump.iter())
                .enumerate()
                .find(|(_, (c, s))| c != s)
                .expect("unequal dumps differ somewhere");
            self.diverge(
                seq,
                format!("cst.entry[{idx}]"),
                format!("{c:?}"),
                format!("{s:?}"),
                "deep state comparison".into(),
            );
            return;
        }
        let ch = self.core.reducer().active_histogram();
        let sh = self.spec.reducer_histogram();
        if ch != sh {
            self.diverge(
                seq,
                "reducer.active_histogram".into(),
                format!("{ch:?}"),
                format!("{sh:?}"),
                "deep state comparison".into(),
            );
            return;
        }
        let c = (
            self.core.reducer().activations(),
            self.core.reducer().deactivations(),
        );
        let s = (
            self.spec.reducer_activations(),
            self.spec.reducer_deactivations(),
        );
        if c != s {
            self.diverge(
                seq,
                "reducer.(activations, deactivations)".into(),
                format!("{c:?}"),
                format!("{s:?}"),
                "deep state comparison".into(),
            );
            return;
        }
        let cp = self.core.learn_stats().depth_cdf.points();
        let sp = self.spec.learn_stats().depth_cdf.points();
        if cp != sp {
            self.diverge(
                seq,
                "depth_cdf.points".into(),
                format!("{cp:?}"),
                format!("{sp:?}"),
                "deep state comparison".into(),
            );
        }
    }
}

impl Prefetcher for TeePrefetcher {
    fn name(&self) -> &'static str {
        "diff-tee"
    }

    fn on_access(
        &mut self,
        ctx: &AccessContext,
        pressure: MemPressure,
        out: &mut Vec<PrefetchReq>,
    ) {
        if self.divergence.is_some() {
            // After a divergence only the optimized side keeps running;
            // comparing further accesses would just cascade.
            self.core.on_access(ctx, pressure, out);
            return;
        }
        self.accesses += 1;
        self.promote_was_pred_mismatch(ctx.seq);
        let start = out.len();
        self.spec_out.clear();
        self.core.on_access(ctx, pressure, out);
        self.spec.on_access(ctx, pressure, &mut self.spec_out);
        let core_out = out[start..].to_vec();
        self.compare_access(ctx, &core_out);
        if self.accesses.is_multiple_of(Self::DEEP_EVERY) {
            self.compare_deep(ctx.seq);
        }
    }

    fn on_issue_result(&mut self, tag: u64, issued: bool) {
        self.core.on_issue_result(tag, issued);
        if self.divergence.is_none() {
            self.spec.on_issue_result(tag, issued);
        }
    }

    fn was_predicted(&self, addr: Addr) -> bool {
        let c = self.core.was_predicted(addr);
        if self.divergence.is_none() {
            let s = self.spec.was_predicted(addr);
            if c != s && self.was_pred_mismatch.get().is_none() {
                self.was_pred_mismatch.set(Some(addr));
            }
        }
        c
    }

    fn storage_bytes(&self) -> usize {
        self.core.storage_bytes()
    }

    fn stats(&self) -> PrefetcherStats {
        self.core.stats()
    }

    fn finish(&mut self) {
        self.core.finish();
        if self.divergence.is_none() {
            self.spec.finish();
            let last_seq = u64::MAX;
            self.promote_was_pred_mismatch(last_seq);
            // End-of-run: final counters + full table state must agree.
            let cs = stats_fields(self.core.learn_stats());
            let ss = stats_fields(self.spec.learn_stats());
            for (&(name, c), &(_, s)) in cs.iter().zip(ss.iter()) {
                if c != s {
                    self.diverge(
                        last_seq,
                        format!("final stats.{name}"),
                        c.to_string(),
                        s.to_string(),
                        "end-of-run drain".into(),
                    );
                    return;
                }
            }
            self.compare_deep(last_seq);
        }
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }
}

/// Where `semloc-diff` writes divergence dumps: `DIFF_DUMP_DIR`, default
/// `diff-dumps`.
pub fn diff_dump_dir() -> PathBuf {
    Knob::DiffDumpDir
        .os()
        .map_or_else(|| PathBuf::from("diff-dumps"), PathBuf::from)
}

/// Run `kernel` through the store-replayed simulator with both prefetcher
/// implementations in lockstep; returns how far they agreed.
pub fn diff_kernel(
    store: &TraceStore,
    kernel: &dyn Kernel,
    label: &str,
    ctx_cfg: ContextConfig,
    sim: &SimConfig,
) -> DiffReport {
    let replay = store.replay(kernel, sim.instr_budget);
    let tee = TeePrefetcher::new(ctx_cfg);
    let hierarchy = Hierarchy::new(sim.mem.clone(), tee);
    let mut cpu = Cpu::new(sim.cpu.clone(), hierarchy, sim.instr_budget);
    replay.run(&mut cpu);
    let (_, mem) = cpu.finish();
    let tee = mem.prefetcher();
    DiffReport {
        kernel: kernel.name(),
        label: label.to_string(),
        accesses: tee.accesses(),
        divergence: tee.divergence().cloned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_workloads::kernel_by_name;

    #[test]
    fn diff_runner_stays_clean_on_real_workloads() {
        let store = TraceStore::new();
        let sim = SimConfig::default().with_budget(30_000);
        for name in ["array", "list"] {
            let k = kernel_by_name(name).unwrap();
            let report = diff_kernel(
                &store,
                k.as_ref(),
                "default",
                ContextConfig::default(),
                &sim,
            );
            assert!(report.accesses > 1_000, "{name}: too few accesses compared");
            if let Some(d) = &report.divergence {
                panic!("{name}: {d}");
            }
        }
    }

    #[test]
    fn diff_runner_covers_a_non_default_composition() {
        // The trait pipeline (PR 9) composes reward shapes the spec must
        // restate independently: a gaussian-with-penalty cell has to stay
        // clean through the tee, and — oracle sensitivity — a seeded
        // discrepancy inside that same composition must still be caught.
        let store = TraceStore::new();
        let sim = SimConfig::default().with_budget(30_000);
        let k = kernel_by_name("list").expect("registered kernel");
        let cfg = ContextConfig {
            reward: semloc_bandit::GaussianPenaltyReward::snippet_default().into(),
            ..ContextConfig::default()
        };
        let report = diff_kernel(&store, k.as_ref(), "gauss-pen", cfg.clone(), &sim);
        assert!(report.accesses > 1_000, "too few accesses compared");
        if let Some(d) = &report.divergence {
            panic!("gauss-pen composition diverged: {d}");
        }

        let mut cfg_spec = cfg.clone();
        cfg_spec.seed ^= 1;
        let tee = TeePrefetcher {
            core: ContextPrefetcher::new(cfg),
            spec: SpecPrefetcher::new(cfg_spec),
            accesses: 0,
            divergence: None,
            spec_out: Vec::new(),
            was_pred_mismatch: Cell::new(None),
        };
        let replay = store.replay(k.as_ref(), sim.instr_budget);
        let hierarchy = Hierarchy::new(sim.mem.clone(), tee);
        let mut cpu = Cpu::new(sim.cpu.clone(), hierarchy, sim.instr_budget);
        replay.run(&mut cpu);
        let (_, mem) = cpu.finish();
        let d = mem
            .prefetcher()
            .divergence()
            .cloned()
            .expect("a seeded discrepancy under gauss-pen must be detected");
        assert!(d.access > 0);
    }

    #[test]
    fn diff_runner_catches_a_seeded_discrepancy() {
        // Oracle sensitivity: run the two implementations with *different*
        // seeds — the RNG streams part ways, so the tee must report a
        // divergence (if it stayed \"clean\" the oracle is blind).
        let store = TraceStore::new();
        let sim = SimConfig::default().with_budget(30_000);
        let k = kernel_by_name("list").unwrap();
        let replay = store.replay(k.as_ref(), sim.instr_budget);
        let mut cfg_spec = ContextConfig::default();
        cfg_spec.seed ^= 1;
        let tee = TeePrefetcher {
            core: ContextPrefetcher::new(ContextConfig::default()),
            spec: SpecPrefetcher::new(cfg_spec),
            accesses: 0,
            divergence: None,
            spec_out: Vec::new(),
            was_pred_mismatch: Cell::new(None),
        };
        let hierarchy = Hierarchy::new(sim.mem.clone(), tee);
        let mut cpu = Cpu::new(sim.cpu.clone(), hierarchy, sim.instr_budget);
        replay.run(&mut cpu);
        let (_, mem) = cpu.finish();
        let d = mem
            .prefetcher()
            .divergence()
            .cloned()
            .expect("mismatched seeds must be detected");
        assert!(d.access > 0);
        assert!(!d.core_dump.is_empty() && !d.spec_dump.is_empty());
    }
}
