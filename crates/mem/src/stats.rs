//! Memory-system statistics.

use crate::classify::ClassCounts;
use semloc_trace::{SnapReader, SnapWriter, Snapshot};

/// Counters maintained by the [`Hierarchy`](crate::Hierarchy).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand accesses presented to the L1.
    pub demand_accesses: u64,
    /// Demand accesses that missed the L1 and initiated a new fill.
    pub l1_misses: u64,
    /// Demand accesses that missed the L1 but merged into an already
    /// outstanding fill (MSHR hits; not counted in `l1_misses`, matching
    /// how MPKI is conventionally reported).
    pub l1_mshr_merges: u64,
    /// Demand accesses that missed the L2.
    pub l2_misses: u64,
    /// Real prefetch requests dispatched.
    pub prefetches_issued: u64,
    /// Prefetch requests rejected for MSHR pressure.
    pub prefetches_rejected: u64,
    /// Prefetch requests dropped because the line was already present or in
    /// flight.
    pub prefetches_filtered: u64,
    /// Dirty evictions (write-backs) from either level.
    pub writebacks: u64,
    /// Per-class demand categorization (Fig 9).
    pub classes: ClassCounts,
}

impl MemStats {
    /// L1 misses per kilo-instruction.
    pub fn l1_mpki(&self, instructions: u64) -> f64 {
        mpki(self.l1_misses, instructions)
    }

    /// L2 misses per kilo-instruction.
    pub fn l2_mpki(&self, instructions: u64) -> f64 {
        mpki(self.l2_misses, instructions)
    }

    /// Demand L1 miss rate.
    pub fn l1_miss_rate(&self) -> f64 {
        rate(self.l1_misses, self.demand_accesses)
    }

    /// L2 miss rate over L1 misses (feeds the §4.3 miss-penalty formula).
    pub fn l2_miss_rate(&self) -> f64 {
        rate(self.l2_misses, self.l1_misses)
    }
}

impl Snapshot for MemStats {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            demand_accesses,
            l1_misses,
            l1_mshr_merges,
            l2_misses,
            prefetches_issued,
            prefetches_rejected,
            prefetches_filtered,
            writebacks,
            classes:
                ClassCounts {
                    hit_prefetched,
                    shorter_wait,
                    non_timely,
                    miss_not_prefetched,
                    hit_older_demand,
                    prefetch_never_hit,
                },
        } = self;
        w.section(*b"MEMS", 1);
        w.put_u64(*demand_accesses);
        w.put_u64(*l1_misses);
        w.put_u64(*l1_mshr_merges);
        w.put_u64(*l2_misses);
        w.put_u64(*prefetches_issued);
        w.put_u64(*prefetches_rejected);
        w.put_u64(*prefetches_filtered);
        w.put_u64(*writebacks);
        w.put_u64(*hit_prefetched);
        w.put_u64(*shorter_wait);
        w.put_u64(*non_timely);
        w.put_u64(*miss_not_prefetched);
        w.put_u64(*hit_older_demand);
        w.put_u64(*prefetch_never_hit);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
        let Self {
            demand_accesses,
            l1_misses,
            l1_mshr_merges,
            l2_misses,
            prefetches_issued,
            prefetches_rejected,
            prefetches_filtered,
            writebacks,
            classes:
                ClassCounts {
                    hit_prefetched,
                    shorter_wait,
                    non_timely,
                    miss_not_prefetched,
                    hit_older_demand,
                    prefetch_never_hit,
                },
        } = self;
        r.section(*b"MEMS", 1)?;
        *demand_accesses = r.get_u64()?;
        *l1_misses = r.get_u64()?;
        *l1_mshr_merges = r.get_u64()?;
        *l2_misses = r.get_u64()?;
        *prefetches_issued = r.get_u64()?;
        *prefetches_rejected = r.get_u64()?;
        *prefetches_filtered = r.get_u64()?;
        *writebacks = r.get_u64()?;
        *hit_prefetched = r.get_u64()?;
        *shorter_wait = r.get_u64()?;
        *non_timely = r.get_u64()?;
        *miss_not_prefetched = r.get_u64()?;
        *hit_older_demand = r.get_u64()?;
        *prefetch_never_hit = r.get_u64()?;
        Ok(())
    }
}

fn mpki(misses: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        misses as f64 * 1000.0 / instructions as f64
    }
}

fn rate(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_math() {
        let s = MemStats {
            l1_misses: 50,
            l2_misses: 10,
            ..Default::default()
        };
        assert!((s.l1_mpki(10_000) - 5.0).abs() < 1e-12);
        assert!((s.l2_mpki(10_000) - 1.0).abs() < 1e-12);
        assert_eq!(s.l1_mpki(0), 0.0);
    }

    #[test]
    fn rates() {
        let s = MemStats {
            demand_accesses: 200,
            l1_misses: 50,
            l2_misses: 25,
            ..Default::default()
        };
        assert!((s.l1_miss_rate() - 0.25).abs() < 1e-12);
        assert!((s.l2_miss_rate() - 0.5).abs() < 1e-12);
        assert_eq!(MemStats::default().l2_miss_rate(), 0.0);
    }
}
