//! Core performance counters.

use semloc_trace::{SnapReader, SnapWriter, Snapshot};

/// Counters maintained by the [`Cpu`](crate::Cpu).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CpuStats {
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// Total cycles (retirement cycle of the last instruction).
    pub cycles: u64,
    /// Dynamic loads.
    pub loads: u64,
    /// Dynamic stores.
    pub stores: u64,
    /// Dynamic branches.
    pub branches: u64,
    /// Branch mispredictions.
    pub mispredicts: u64,
}

impl CpuStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }

    /// Fraction of instructions that access memory (the `Prob(mem op)` term
    /// of the §4.3 prefetch-distance formula).
    pub fn mem_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.instructions as f64
        }
    }
}

impl Snapshot for CpuStats {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            instructions,
            cycles,
            loads,
            stores,
            branches,
            mispredicts,
        } = self;
        w.section(*b"CPUS", 1);
        w.put_u64(*instructions);
        w.put_u64(*cycles);
        w.put_u64(*loads);
        w.put_u64(*stores);
        w.put_u64(*branches);
        w.put_u64(*mispredicts);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
        let Self {
            instructions,
            cycles,
            loads,
            stores,
            branches,
            mispredicts,
        } = self;
        r.section(*b"CPUS", 1)?;
        *instructions = r.get_u64()?;
        *cycles = r.get_u64()?;
        *loads = r.get_u64()?;
        *stores = r.get_u64()?;
        *branches = r.get_u64()?;
        *mispredicts = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = CpuStats {
            instructions: 1000,
            cycles: 500,
            loads: 200,
            stores: 100,
            ..Default::default()
        };
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        assert!((s.cpi() - 0.5).abs() < 1e-12);
        assert!((s.mem_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn zero_safe() {
        let s = CpuStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.cpi(), 0.0);
        assert_eq!(s.mem_fraction(), 0.0);
    }
}
