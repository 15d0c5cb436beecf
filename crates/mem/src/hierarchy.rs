//! The two-level cache hierarchy with a prefetch-to-L1 port.
//!
//! [`Hierarchy::demand_access`] is the single entry point used by the core
//! model: it performs the L1/L2/DRAM lookup chain, merges into in-flight
//! fills through the MSHR files, classifies the access (Fig 9), invokes the
//! attached [`Prefetcher`] and dispatches whatever requests survive MSHR
//! pressure. Everything below the L1 goes through one [`SharedL2`] level.

use crate::cache::{Cache, LookupResult};
use crate::classify::AccessClass;
use crate::config::MemConfig;
use crate::mshr::{MshrFile, MshrKind};
use crate::prefetcher::{MemPressure, PrefetchReq, Prefetcher};
use crate::shared_l2::SharedL2;
use crate::stats::MemStats;
use semloc_trace::{AccessContext, Addr, Cycle};

/// Result of a demand access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DemandResult {
    /// Cycle at which the loaded data is available to dependents.
    pub ready_at: Cycle,
    /// Fig 9 class of the access.
    pub class: AccessClass,
}

/// The simulated memory system: L1D + L2 + DRAM, with an attached
/// prefetcher.
///
/// The L2 and DRAM are one [`SharedL2`] level: the hierarchy's own private
/// level over a flat-latency DRAM, built by [`Hierarchy::new`], or a
/// multi-core engine's shared level while the engine lends it
/// ([`Hierarchy::attach_shared`]).
///
/// ```rust
/// use semloc_mem::{Hierarchy, MemConfig, NoPrefetch};
/// use semloc_trace::AccessContext;
///
/// let mut mem = Hierarchy::new(MemConfig::default(), NoPrefetch);
/// let cold = mem.demand_access(&AccessContext::bare(0, 0x400, 0x1000, false), 0);
/// assert_eq!(cold.ready_at, 322); // L1 2 + L2 20 + DRAM 300
/// let warm = mem.demand_access(&AccessContext::bare(1, 0x400, 0x1000, false), 400);
/// assert_eq!(warm.ready_at, 402); // L1 hit
/// ```
#[derive(Clone)]
pub struct Hierarchy<P: Prefetcher> {
    cfg: MemConfig,
    l1: Cache,
    l1_mshrs: MshrFile,
    /// The level below the L1. A multi-core core holds none between its
    /// slices; its engine holds the shared level.
    l2: Option<Box<SharedL2>>,
    prefetcher: P,
    stats: MemStats,
    req_buf: Vec<PrefetchReq>,
}

impl<P: Prefetcher> Hierarchy<P> {
    /// Build the hierarchy described by `cfg` with `prefetcher` attached to
    /// the L1, over its own private L2 and flat-latency DRAM.
    pub fn new(cfg: MemConfig, prefetcher: P) -> Self {
        Hierarchy {
            l1: Cache::new(cfg.l1.clone()),
            l1_mshrs: MshrFile::new(cfg.l1.mshrs, cfg.l1.line_bytes),
            l2: Some(Box::new(SharedL2::private(
                cfg.l2.clone(),
                cfg.dram_latency,
            ))),
            cfg,
            prefetcher,
            stats: MemStats::default(),
            req_buf: Vec::with_capacity(8),
        }
    }

    /// Route the L2/DRAM legs through `shared` until
    /// [`Hierarchy::detach_shared`]: this core's slice of a multi-core
    /// quantum. The shared level carries its own geometry, so only the L1
    /// and `prefetch_mshr_reserve` fields of the configuration matter.
    pub fn attach_shared(&mut self, shared: Box<SharedL2>) {
        self.l2 = Some(shared);
    }

    /// Take the level below the L1 away (`None` if none is held): a
    /// multi-core engine drops each fresh core's private level this way,
    /// and takes its shared level back after every slice.
    pub fn detach_shared(&mut self) -> Option<Box<SharedL2>> {
        self.l2.take()
    }

    /// The level below the L1.
    #[expect(
        clippy::expect_used,
        reason = "a hierarchy always holds a level while it runs: its own, or a lent shared one"
    )]
    fn level(&mut self) -> &mut SharedL2 {
        self.l2
            .as_deref_mut()
            .expect("an L2 level is attached while the hierarchy runs")
    }

    /// The attached prefetcher.
    pub fn prefetcher(&self) -> &P {
        &self.prefetcher
    }

    /// Mutable access to the attached prefetcher (for end-of-run accounting).
    pub fn prefetcher_mut(&mut self) -> &mut P {
        &mut self.prefetcher
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// The configuration in use.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Current memory pressure (free MSHRs). In shared mode the L2 figure
    /// reflects the contended shared file, so prefetchers back off when
    /// *other* cores saturate it.
    pub fn pressure(&mut self, now: Cycle) -> MemPressure {
        MemPressure {
            l1_mshr_free: self.l1_mshrs.free(now),
            l2_mshr_free: self.level().mshr_free(now),
        }
    }

    /// Perform one demand access at cycle `now`, train the prefetcher, and
    /// dispatch its requests.
    pub fn demand_access(&mut self, ctx: &AccessContext, now: Cycle) -> DemandResult {
        self.stats.demand_accesses += 1;
        let result = self.demand_lookup(ctx.addr, ctx.is_write, now);

        // Train the prefetcher and dispatch what it asks for.
        let pressure = self.pressure(now);
        let mut reqs = std::mem::take(&mut self.req_buf);
        reqs.clear();
        self.prefetcher.on_access(ctx, pressure, &mut reqs);
        for req in &reqs {
            if req.shadow {
                continue;
            }
            let issued = self.try_issue_prefetch(req.addr, now);
            self.prefetcher.on_issue_result(req.tag, issued);
        }
        self.req_buf = reqs;
        result
    }

    /// The cache-lookup half of a demand access (no prefetcher involvement).
    fn demand_lookup(&mut self, addr: Addr, is_write: bool, now: Cycle) -> DemandResult {
        let l1_lat = self.cfg.l1.latency;
        match self.l1.lookup_demand(addr, now, is_write) {
            LookupResult::Hit {
                first_touch_of_prefetch: true,
            } => {
                self.stats.classes.record(AccessClass::HitPrefetchedLine);
                DemandResult {
                    ready_at: now + l1_lat,
                    class: AccessClass::HitPrefetchedLine,
                }
            }
            LookupResult::Hit {
                first_touch_of_prefetch: false,
            } => {
                self.stats.classes.record(AccessClass::HitOlderDemand);
                DemandResult {
                    ready_at: now + l1_lat,
                    class: AccessClass::HitOlderDemand,
                }
            }
            LookupResult::InFlight { ready_at, prefetch } => {
                // Missed the array but merged into an outstanding fill (an
                // MSHR hit — not a new miss).
                self.stats.l1_mshr_merges += 1;
                let class = if prefetch {
                    AccessClass::ShorterWait
                } else {
                    AccessClass::MissNotPrefetched
                };
                self.stats.classes.record(class);
                DemandResult {
                    ready_at: ready_at.max(now + l1_lat),
                    class,
                }
            }
            LookupResult::Miss => {
                self.stats.l1_misses += 1;
                let class = if self.prefetcher.was_predicted(addr) {
                    AccessClass::NonTimely
                } else {
                    AccessClass::MissNotPrefetched
                };
                self.stats.classes.record(class);
                let fill = self.fetch_line(addr, now, MshrKind::Demand, is_write);
                DemandResult {
                    ready_at: fill,
                    class,
                }
            }
        }
    }

    /// Bring `addr`'s line into the L1 (and L2 if needed), honouring MSHR
    /// capacity as backpressure. Returns the fill-completion cycle.
    fn fetch_line(&mut self, addr: Addr, now: Cycle, kind: MshrKind, dirty: bool) -> Cycle {
        let l1_lat = self.cfg.l1.latency;

        // When the L1 MSHR file is full of demand reservations, the miss
        // waits for the earliest outstanding demand fill before its own
        // request can be tracked (demands are FIFO among themselves;
        // prefetches riding the L2's registers do not stall them).
        let mut start = now;
        while kind == MshrKind::Demand && self.l1_mshrs.free_for_demand(start) == 0 {
            match self.l1_mshrs.earliest_demand_fill() {
                Some(t) if t > start => start = t,
                _ => break,
            }
        }

        let (l2_ready, missed, writeback) =
            self.level().demand_leg(addr, start + l1_lat, kind, dirty);
        self.stats.l2_misses += u64::from(missed);
        self.stats.writebacks += u64::from(writeback);

        let _ = self.l1_mshrs.try_allocate(addr, l2_ready, kind, start);
        let ev = self
            .l1
            .fill(addr, l2_ready, kind == MshrKind::Prefetch, dirty);
        if ev.dirty {
            self.stats.writebacks += 1;
        }
        if ev.useless_prefetch {
            self.stats.classes.prefetch_never_hit += 1;
        }
        l2_ready
    }

    /// Attempt to dispatch a real prefetch for `addr` at cycle `now`.
    /// Returns `false` if it was filtered (already present/in flight) or
    /// rejected (MSHR pressure).
    fn try_issue_prefetch(&mut self, addr: Addr, now: Cycle) -> bool {
        if !matches!(self.l1.probe(addr, now), LookupResult::Miss) {
            self.stats.prefetches_filtered += 1;
            return false;
        }
        // Prefetches are second-class citizens: leave headroom for demands.
        if self.l1_mshrs.free(now) <= self.cfg.prefetch_mshr_reserve {
            self.stats.prefetches_rejected += 1;
            return false;
        }
        let l1_lat = self.cfg.l1.latency;
        // Prefetches that miss the L2 ride the L2's MSHRs for the DRAM leg;
        // the L1 MSHR is only held for the final L2→L1 transfer window, so
        // the 4-entry L1 file does not serialize deep prefetching.
        let Some((fill, l1_window_start, writeback)) =
            self.level().prefetch_leg(addr, now + l1_lat, now)
        else {
            self.stats.prefetches_rejected += 1;
            return false;
        };
        self.stats.writebacks += u64::from(writeback);
        let _ =
            self.l1_mshrs
                .try_allocate_window(addr, l1_window_start, fill, MshrKind::Prefetch, now);
        let ev = self.l1.fill(addr, fill, true, false);
        if ev.dirty {
            self.stats.writebacks += 1;
        }
        if ev.useless_prefetch {
            self.stats.classes.prefetch_never_hit += 1;
        }
        self.stats.prefetches_issued += 1;
        true
    }

    /// Finish the run: flush the prefetcher's end-of-run feedback and count
    /// prefetched-but-never-touched lines still resident in the L1 as wrong
    /// predictions.
    pub fn finish(&mut self) {
        self.prefetcher.finish();
        self.stats.classes.prefetch_never_hit += self.l1.count_untouched_prefetches();
    }
}

impl<P: Prefetcher> std::fmt::Debug for Hierarchy<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hierarchy")
            .field("prefetcher", &self.prefetcher.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::NoPrefetch;
    use semloc_trace::AccessContext;

    fn ctx(seq: u64, addr: Addr) -> AccessContext {
        AccessContext::bare(seq, 0x400000, addr, false)
    }

    fn h() -> Hierarchy<NoPrefetch> {
        Hierarchy::new(MemConfig::default(), NoPrefetch)
    }

    #[test]
    fn cold_miss_pays_full_chain() {
        let mut m = h();
        let r = m.demand_access(&ctx(0, 0x10000), 0);
        // 2 (L1) + 20 (L2) + 300 (DRAM) = 322.
        assert_eq!(r.ready_at, 322);
        assert_eq!(r.class, AccessClass::MissNotPrefetched);
        assert_eq!(m.stats().l1_misses, 1);
        assert_eq!(m.stats().l2_misses, 1);
    }

    #[test]
    fn second_access_hits_after_fill() {
        let mut m = h();
        m.demand_access(&ctx(0, 0x10000), 0);
        let r = m.demand_access(&ctx(1, 0x10008), 400);
        assert_eq!(r.ready_at, 402);
        assert_eq!(r.class, AccessClass::HitOlderDemand);
        assert_eq!(m.stats().l1_misses, 1);
    }

    #[test]
    fn merge_into_inflight_demand() {
        let mut m = h();
        m.demand_access(&ctx(0, 0x10000), 0);
        // Same line, while the first fill is outstanding.
        let r = m.demand_access(&ctx(1, 0x10020), 10);
        assert_eq!(r.ready_at, 322);
        assert_eq!(m.stats().l1_misses, 1, "MSHR hit is not a new miss");
        assert_eq!(m.stats().l1_mshr_merges, 1);
        assert_eq!(
            m.stats().l2_misses,
            1,
            "merged access must not refetch from DRAM"
        );
    }

    #[test]
    fn l2_hit_after_l1_eviction_costs_l2_latency_only() {
        let mut m = h();
        // Fill a line, then flood the L1 set with conflicting lines to evict it.
        m.demand_access(&ctx(0, 0x10000), 0);
        // L1: 128 sets * 64B lines -> same set every 8 KiB. 8 ways.
        for i in 1..=8u64 {
            m.demand_access(&ctx(i, 0x10000 + i * 8192), 1000 + i * 1000);
        }
        let r = m.demand_access(&ctx(9, 0x10000), 100_000);
        // L1 miss, L2 hit: 2 + 20.
        assert_eq!(r.ready_at, 100_022);
    }

    struct OneShot {
        target: Addr,
        fired: bool,
    }
    impl Prefetcher for OneShot {
        fn name(&self) -> &'static str {
            "oneshot"
        }
        fn on_access(&mut self, _ctx: &AccessContext, _p: MemPressure, out: &mut Vec<PrefetchReq>) {
            if !self.fired {
                self.fired = true;
                out.push(PrefetchReq::real(self.target, 1));
            }
        }
        fn storage_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn timely_prefetch_yields_hit_prefetched_line() {
        let mut m = Hierarchy::new(
            MemConfig::default(),
            OneShot {
                target: 0x20000,
                fired: false,
            },
        );
        m.demand_access(&ctx(0, 0x10000), 0); // triggers the prefetch
        assert_eq!(m.stats().prefetches_issued, 1);
        let r = m.demand_access(&ctx(1, 0x20000), 1000);
        assert_eq!(r.class, AccessClass::HitPrefetchedLine);
        assert_eq!(r.ready_at, 1002);
    }

    #[test]
    fn late_demand_merges_into_inflight_prefetch() {
        let mut m = Hierarchy::new(
            MemConfig::default(),
            OneShot {
                target: 0x20000,
                fired: false,
            },
        );
        m.demand_access(&ctx(0, 0x10000), 0);
        // Demand arrives while the prefetch is still in flight.
        let r = m.demand_access(&ctx(1, 0x20000), 100);
        assert_eq!(r.class, AccessClass::ShorterWait);
        assert!(r.ready_at < 100 + 322, "merged wait must beat a full miss");
    }

    #[test]
    fn untouched_prefetch_counted_at_finish() {
        let mut m = Hierarchy::new(
            MemConfig::default(),
            OneShot {
                target: 0x20000,
                fired: false,
            },
        );
        m.demand_access(&ctx(0, 0x10000), 0);
        m.finish();
        assert_eq!(m.stats().classes.prefetch_never_hit, 1);
    }

    struct Greedy;
    impl Prefetcher for Greedy {
        fn name(&self) -> &'static str {
            "greedy"
        }
        fn on_access(&mut self, ctx: &AccessContext, _p: MemPressure, out: &mut Vec<PrefetchReq>) {
            for i in 1..=32u64 {
                out.push(PrefetchReq::real(ctx.addr + i * 64, i));
            }
        }
        fn storage_bytes(&self) -> usize {
            0
        }
    }

    #[test]
    fn mshr_pressure_rejects_excess_prefetches() {
        let mut m = Hierarchy::new(MemConfig::default(), Greedy);
        m.demand_access(&ctx(0, 0x10000), 0);
        // DRAM-bound prefetches ride the 20 L2 MSHRs (one already taken by
        // the demand miss): at most 19 can be outstanding; the rest are
        // rejected.
        assert!(
            m.stats().prefetches_issued <= 20,
            "issued {}",
            m.stats().prefetches_issued
        );
        assert!(
            m.stats().prefetches_rejected >= 12,
            "rejected {}",
            m.stats().prefetches_rejected
        );
    }

    #[test]
    fn duplicate_prefetch_is_filtered() {
        struct Dup;
        impl Prefetcher for Dup {
            fn name(&self) -> &'static str {
                "dup"
            }
            fn on_access(
                &mut self,
                ctx: &AccessContext,
                _p: MemPressure,
                out: &mut Vec<PrefetchReq>,
            ) {
                // Prefetch the line we just accessed: always redundant.
                out.push(PrefetchReq::real(ctx.addr, 0));
            }
            fn storage_bytes(&self) -> usize {
                0
            }
        }
        let mut m = Hierarchy::new(MemConfig::default(), Dup);
        m.demand_access(&ctx(0, 0x10000), 0);
        assert_eq!(m.stats().prefetches_issued, 0);
        assert_eq!(m.stats().prefetches_filtered, 1);
    }

    #[test]
    fn shadow_requests_are_never_dispatched() {
        struct Shadow;
        impl Prefetcher for Shadow {
            fn name(&self) -> &'static str {
                "shadow"
            }
            fn on_access(
                &mut self,
                ctx: &AccessContext,
                _p: MemPressure,
                out: &mut Vec<PrefetchReq>,
            ) {
                out.push(PrefetchReq::shadow(ctx.addr + 64, 0));
            }
            fn storage_bytes(&self) -> usize {
                0
            }
        }
        let mut m = Hierarchy::new(MemConfig::default(), Shadow);
        m.demand_access(&ctx(0, 0x10000), 0);
        assert_eq!(m.stats().prefetches_issued, 0);
        assert_eq!(m.stats().prefetches_filtered, 0);
    }
}
