//! Top-level simulation configuration (Table 2).

use semloc_cpu::CpuConfig;
use semloc_mem::MemConfig;

use crate::knob::Knob;

/// Everything needed to reproduce one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Core parameters (Table 2: OoO, 4-wide fetch, 192 ROB, ...).
    pub cpu: CpuConfig,
    /// Memory-system parameters (Table 2: 64 kB L1 / 2 MB L2 / 300-cycle
    /// DRAM).
    pub mem: MemConfig,
    /// Dynamic-instruction budget per run. The paper simulates 50–100M
    /// instruction phases and validates that longer phases change nothing;
    /// we default to a scaled-down steady-state phase (override with the
    /// `SEMLOC_BUDGET` environment variable).
    pub instr_budget: u64,
}

impl Default for SimConfig {
    /// Table 2 with the default 400k budget, or `SEMLOC_BUDGET` when set.
    ///
    /// # Panics
    ///
    /// Panics if `SEMLOC_BUDGET` is set but not a positive integer. A
    /// budget of 0 means unbounded, and every registered kernel runs until
    /// its budget, so 0 from outside the program is refused; only a finite
    /// stream may run unbounded, through [`SimConfig::with_budget`].
    fn default() -> Self {
        SimConfig {
            cpu: CpuConfig::default(),
            mem: MemConfig::default(),
            instr_budget: Knob::Budget
                .int(1..=u64::MAX)
                .unwrap_or_else(|e| panic!("{e}"))
                .unwrap_or(400_000),
        }
    }
}

impl SimConfig {
    /// A fast configuration for tests (small instruction budget).
    pub fn quick() -> Self {
        SimConfig {
            instr_budget: 120_000,
            ..SimConfig::default()
        }
    }

    /// Set the instruction budget; 0 runs until the stream ends, which
    /// only a finite stream (a composed schedule) does.
    pub fn with_budget(mut self, budget: u64) -> Self {
        self.instr_budget = budget;
        self
    }

    /// Render the Table 2 parameter block as text.
    pub fn table2(&self) -> String {
        let c = &self.cpu;
        let m = &self.mem;
        format!(
            "Simulation mode   trace-driven OoO timing model\n\
             Core type         OoO, {fw}-wide fetch\n\
             Queue sizes       {rob} ROB, {iq} IQ, {prf} PRF, {lq} LQ/SQ\n\
             MSHRs             L1: {m1}, L2: {m2}\n\
             L1 cache          {l1}kB Data, {l1w} ways, {l1l} cycles access, private\n\
             L2 cache          {l2}MB, {l2w} ways, {l2l} cycles access, shared\n\
             Main memory       {dram} cycles access",
            fw = c.fetch_width,
            rob = c.rob_size,
            iq = c.iq_size,
            prf = c.prf_size,
            lq = c.lq_size,
            m1 = m.l1.mshrs,
            m2 = m.l2.mshrs,
            l1 = m.l1.size_bytes / 1024,
            l1w = m.l1.ways,
            l1l = m.l1.latency,
            l2 = m.l2.size_bytes / (1024 * 1024),
            l2w = m.l2.ways,
            l2l = m.l2.latency,
            dram = m.dram_latency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table2() {
        let c = SimConfig::default();
        let t = c.table2();
        assert!(t.contains("4-wide fetch"));
        assert!(t.contains("192 ROB, 64 IQ, 256 PRF, 32 LQ/SQ"));
        assert!(t.contains("L1: 4, L2: 20"));
        assert!(t.contains("64kB Data, 8 ways, 2 cycles"));
        assert!(t.contains("2MB, 16 ways, 20 cycles"));
        assert!(t.contains("300 cycles"));
    }

    #[test]
    fn quick_is_smaller() {
        assert!(
            SimConfig::quick().instr_budget
                < SimConfig::default().with_budget(400_000).instr_budget
        );
    }
}
