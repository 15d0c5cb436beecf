//! The level below the L1: one L2 array, its MSHR file and a DRAM model.
//!
//! Every [`crate::Hierarchy`] reaches the L2 and DRAM only through a
//! [`SharedL2`]'s two legs, [`SharedL2::demand_leg`] and
//! [`SharedL2::prefetch_leg`]. A single-core hierarchy builds its own level
//! with [`SharedL2::private`]: Table 2's L2 over a flat-latency DRAM. The
//! multi-core interference mode instead passes one level built with
//! [`SharedL2::new`] from hierarchy to hierarchy, whose DRAM leg goes
//! through a finite-bandwidth channel model, so co-running cores contend
//! for capacity (evicting each other's lines), for L2 MSHRs (throttling
//! each other's prefetchers) and for DRAM service slots (queueing each
//! other's misses). Cores step one at a time, so the level is owned, never
//! shared: the engine attaches it to the core that is stepping
//! ([`crate::Hierarchy::attach_shared`]) and takes it back after.
//!
//! The model stays latency-computed and event-free like the rest of the
//! memory system: cores hand in *arrival cycles* and get back completion
//! cycles. Because the caches use tick-counter LRU (no wall-clock), the
//! shared array is well-defined even though the contending cores' clocks
//! drift within the round-robin quantum.

use crate::cache::{Cache, LookupResult};
use crate::config::CacheConfig;
use crate::mshr::{MshrFile, MshrKind};
use semloc_trace::{Addr, Cycle};

/// DRAM bandwidth model configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DramConfig {
    /// Access latency of one request (cycles), as in Table 2.
    pub latency: Cycle,
    /// Independent channels servicing requests in parallel.
    pub channels: u32,
    /// Cycles a channel is occupied per line transfer (1/bandwidth).
    pub service_interval: Cycle,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            latency: 300,
            channels: 2,
            service_interval: 8,
        }
    }
}

/// Finite-bandwidth DRAM: each channel serves one line per
/// `service_interval` cycles; a request picks the earliest-free channel and
/// queues behind its outstanding transfers.
#[derive(Clone, Debug)]
pub struct DramModel {
    cfg: DramConfig,
    next_free: Vec<Cycle>,
}

impl DramModel {
    /// A DRAM model with all channels idle.
    pub fn new(cfg: DramConfig) -> Self {
        let channels = cfg.channels.max(1) as usize;
        DramModel {
            cfg,
            next_free: vec![0; channels],
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Schedule a line request arriving at cycle `t`. Returns the completion
    /// cycle (`service start + latency`) and the cycles it queued, and
    /// advances the chosen channel. Deterministic: the earliest-free channel
    /// wins, first index on ties. A zero `service_interval` is flat DRAM:
    /// every request starts on arrival, in whatever order requests arrive.
    pub fn schedule(&mut self, t: Cycle) -> (Cycle, Cycle) {
        if self.cfg.service_interval == 0 {
            return (t + self.cfg.latency, 0);
        }
        let mut best = 0usize;
        for (i, &free) in self.next_free.iter().enumerate() {
            if free < self.next_free[best] {
                best = i;
            }
        }
        let start = t.max(self.next_free[best]);
        self.next_free[best] = start + self.cfg.service_interval;
        (start + self.cfg.latency, start - t)
    }
}

/// Aggregate counters for the shared level (per-core counters stay in each
/// core's [`crate::MemStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharedL2Stats {
    /// Demand lookups from any core.
    pub demand_lookups: u64,
    /// Demand lookups that hit the shared array or merged in flight.
    pub demand_hits: u64,
    /// Demand lookups that went to DRAM.
    pub demand_misses: u64,
    /// Prefetch fills installed in the shared array.
    pub prefetch_fills: u64,
    /// Dirty lines written back on eviction from the shared array.
    pub writebacks: u64,
    /// Total cycles demand misses spent queued behind busy DRAM channels.
    pub dram_queue_cycles: u64,
}

/// One L2 + MSHR file + DRAM: a hierarchy's own level, or the one every
/// core of a multi-core engine shares.
///
/// A miss's DRAM leg goes through [`DramModel::schedule`], so on a shared
/// level a miss behind a saturated channel completes later than an
/// identical miss on an idle machine; a private level's DRAM is flat.
#[derive(Clone)]
pub struct SharedL2 {
    cfg: CacheConfig,
    l2: Cache,
    mshrs: MshrFile,
    dram: DramModel,
    stats: SharedL2Stats,
    /// A hierarchy's own level: the core bills its dirty evictions as its
    /// own writebacks instead of [`SharedL2Stats::writebacks`].
    private: bool,
}

impl SharedL2 {
    /// Build the shared level from an L2 geometry and a DRAM model.
    pub fn new(l2: CacheConfig, dram: DramConfig) -> Self {
        SharedL2 {
            l2: Cache::new(l2.clone()),
            mshrs: MshrFile::new(l2.mshrs, l2.line_bytes),
            dram: DramModel::new(dram),
            cfg: l2,
            stats: SharedL2Stats::default(),
            private: false,
        }
    }

    /// A hierarchy's own level: the L2 over a flat DRAM, where every miss
    /// costs `dram_latency` and never queues.
    pub fn private(l2: CacheConfig, dram_latency: Cycle) -> Self {
        let flat = DramConfig {
            latency: dram_latency,
            channels: 1,
            service_interval: 0,
        };
        SharedL2 {
            private: true,
            ..SharedL2::new(l2, flat)
        }
    }

    /// Accumulated shared-level statistics.
    pub fn stats(&self) -> &SharedL2Stats {
        &self.stats
    }

    /// Free shared MSHRs at cycle `now` (feeds per-core prefetch pressure).
    pub fn mshr_free(&mut self, now: Cycle) -> u32 {
        self.mshrs.free(now)
    }

    /// The demand leg of a core's L1 miss arriving at cycle `arrive`
    /// (already past that core's L1 latency + MSHR backpressure). Returns
    /// the cycle the line reaches the core's L1 boundary, whether the array
    /// missed, and whether the fill evicted a dirty line the core bills as
    /// its own writeback (only on a private level).
    pub fn demand_leg(
        &mut self,
        addr: Addr,
        arrive: Cycle,
        kind: MshrKind,
        dirty: bool,
    ) -> (Cycle, bool, bool) {
        let l2_lat = self.cfg.latency;
        self.stats.demand_lookups += 1;
        match self.l2.lookup_demand(addr, arrive, dirty) {
            LookupResult::Hit { .. } => {
                self.stats.demand_hits += 1;
                (arrive + l2_lat, false, false)
            }
            LookupResult::InFlight { ready_at, .. } => {
                self.stats.demand_hits += 1;
                (ready_at.max(arrive) + l2_lat, false, false)
            }
            LookupResult::Miss => {
                self.stats.demand_misses += 1;
                // Shared-MSHR backpressure (reservation-counted for demands),
                // then the finite-bandwidth DRAM leg.
                let mut l2_start = arrive + l2_lat;
                while kind == MshrKind::Demand && self.mshrs.free_for_demand(l2_start) == 0 {
                    match self.mshrs.earliest_demand_fill() {
                        Some(t) if t > l2_start => l2_start = t,
                        _ => break,
                    }
                }
                let (fill, queued) = self.dram.schedule(l2_start);
                self.stats.dram_queue_cycles += queued;
                let _ = self.mshrs.try_allocate(addr, fill, kind, l2_start);
                (fill, true, self.install(addr, fill))
            }
        }
    }

    /// The L2 leg of a core's prefetch arriving at cycle `arrive` (`now` is
    /// the core's current cycle, used for MSHR occupancy). Returns the L1
    /// fill cycle, the L1 MSHR window start and, as for
    /// [`SharedL2::demand_leg`], whether the core bills a writeback; `None`
    /// when rejected by L2-MSHR pressure.
    pub fn prefetch_leg(
        &mut self,
        addr: Addr,
        arrive: Cycle,
        now: Cycle,
    ) -> Option<(Cycle, Cycle, bool)> {
        let l2_lat = self.cfg.latency;
        match self.l2.lookup_demand(addr, arrive, false) {
            LookupResult::Hit { .. } => Some((arrive + l2_lat, now, false)),
            LookupResult::InFlight { ready_at, .. } => {
                let fill = ready_at.max(arrive) + l2_lat;
                Some((fill, fill.saturating_sub(l2_lat), false))
            }
            LookupResult::Miss => {
                if self.mshrs.free(now) == 0 {
                    return None;
                }
                let (fill, _queued) = self.dram.schedule(arrive + l2_lat);
                let _ = self.mshrs.try_allocate(addr, fill, MshrKind::Prefetch, now);
                self.stats.prefetch_fills += 1;
                Some((fill, fill.saturating_sub(l2_lat), self.install(addr, fill)))
            }
        }
    }

    /// Install `addr`'s line, complete at `fill`. A dirty victim is the
    /// core's writeback on a private level (returns `true`) and the shared
    /// level's otherwise.
    fn install(&mut self, addr: Addr, fill: Cycle) -> bool {
        let dirty = self.l2.fill(addr, fill, false, false).dirty;
        if dirty && !self.private {
            self.stats.writebacks += 1;
        }
        dirty && self.private
    }
}

impl std::fmt::Debug for SharedL2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedL2")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MemConfig;

    #[test]
    fn idle_dram_matches_flat_latency() {
        let mut d = DramModel::new(DramConfig::default());
        let (done, queued) = d.schedule(100);
        assert_eq!(done, 400);
        assert_eq!(queued, 0);
    }

    #[test]
    fn zero_interval_dram_is_flat_in_any_arrival_order() {
        let mut d = DramModel::new(DramConfig {
            latency: 300,
            channels: 1,
            service_interval: 0,
        });
        assert_eq!(d.schedule(100), (400, 0));
        // An earlier arrival after a later one does not wait for it.
        assert_eq!(d.schedule(50), (350, 0));
    }

    #[test]
    fn saturated_channels_queue_requests() {
        let cfg = DramConfig {
            latency: 300,
            channels: 2,
            service_interval: 8,
        };
        let mut d = DramModel::new(cfg);
        // Four simultaneous requests on two channels: two start at t, two
        // queue one service interval behind.
        let done: Vec<Cycle> = (0..4).map(|_| d.schedule(0).0).collect();
        assert_eq!(done, vec![300, 300, 308, 308]);
    }

    #[test]
    fn dram_schedule_is_deterministic() {
        let mk = || DramModel::new(DramConfig::default());
        let (mut a, mut b) = (mk(), mk());
        for t in [0u64, 5, 5, 300, 301, 301, 900] {
            assert_eq!(a.schedule(t), b.schedule(t));
        }
    }

    #[test]
    fn demand_leg_mirrors_private_path_when_idle() {
        let mem = MemConfig::default();
        let mut sh = SharedL2::new(mem.l2.clone(), DramConfig::default());
        let mut own = SharedL2::private(mem.l2.clone(), mem.dram_latency);
        // Cold miss arriving at the L2 boundary at cycle 2 (past a 2-cycle
        // L1): 2 + 20 (L2) + 300 (DRAM) = 322, as on a private level.
        let cold = sh.demand_leg(0x10000, 2, MshrKind::Demand, false);
        assert_eq!(cold, (322, true, false));
        assert_eq!(own.demand_leg(0x10000, 2, MshrKind::Demand, false), cold);
        // Second core touching the same line merges in flight.
        let (ready2, missed2, _) = sh.demand_leg(0x10020, 10, MshrKind::Demand, false);
        assert_eq!(ready2, 322 + 20);
        assert!(!missed2);
        assert_eq!(sh.stats().demand_misses, 1);
        assert_eq!(sh.stats().demand_hits, 1);
    }

    #[test]
    fn capacity_contention_evicts_across_cores() {
        // A tiny 2-way shared L2: core B's streaming evicts core A's line.
        let l2 = CacheConfig {
            size_bytes: 2 * 64,
            ways: 2,
            line_bytes: 64,
            latency: 20,
            mshrs: 20,
        };
        let mut sh = SharedL2::new(l2, DramConfig::default());
        sh.demand_leg(0x0000, 0, MshrKind::Demand, false);
        // Refetch after the fill completes: hit.
        let (_, missed, _) = sh.demand_leg(0x0000, 1000, MshrKind::Demand, false);
        assert!(!missed);
        // Another core floods the set.
        sh.demand_leg(0x1000, 2000, MshrKind::Demand, false);
        sh.demand_leg(0x2000, 3000, MshrKind::Demand, false);
        let (_, missed, _) = sh.demand_leg(0x0000, 10_000, MshrKind::Demand, false);
        assert!(missed, "victim line must have been evicted by the flood");
    }
}
