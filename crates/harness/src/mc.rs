//! `semloc-interfere`: the shared-L2 multi-core simulation mode.
//!
//! An [`McEngine`] steps N cores — each an [`Engine`] over its own
//! replayed schedule, with its own prefetcher instance and private L1 —
//! against one [`SharedL2`] (finite MSHRs + a DRAM bandwidth model), so
//! co-running workloads interfere through capacity, MSHR occupancy, and
//! DRAM queueing.
//!
//! Determinism: cores are stepped **round-robin over a fixed cycle
//! quantum** — the horizon advances by [`McConfig::quantum`], then core 0,
//! 1, …, N−1 each run until their own clock reaches the horizon. The
//! interleaving of shared-L2 requests is therefore a pure function of the
//! schedules and configuration (never of wall-clock or thread timing), the
//! per-core clock skew is bounded by one quantum, and the golden-digest
//! discipline extends to multi-core runs: the same composed scenario pins
//! the same digest. The engine runs every core on the calling thread and
//! never uses the shard pool, so the digest does not depend on
//! `SEMLOC_POOL_THREADS`. Cores step decoded blocks like the single-core
//! engine, but gate every instruction on the quantum horizon, so block
//! stepping leaves the interleaving a pure function of simulated time.
//!
//! The engine owns the shared level and lends it to each core for that
//! core's slice of the quantum
//! ([`semloc_mem::Hierarchy::attach_shared`]), so one core at a time holds
//! it and no runtime borrow check is needed. A fresh core's own private
//! level is dropped when the engine is built.
//!
//! Forking follows the single-core engine's contract: an [`McEngine`]
//! derives `Clone`, so a clone copies the shared level once plus every
//! core, and a clone taken mid-schedule and its original each finish to
//! the uninterrupted digest (pinned by `mc_fork.rs`).

use semloc_mem::{DramConfig, SharedL2, SharedL2Stats};
use semloc_trace::Cycle;
use semloc_workloads::{Kernel, ReplayKernel};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::prefetchers::PrefetcherKind;
use crate::runner::{Digest, RunResult};

const SHARED_HOME: &str = "every slice hands the shared level back to the engine";

/// Interference-mode parameters on top of a [`SimConfig`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McConfig {
    /// Round-robin cycle quantum: the bound on inter-core clock skew.
    pub quantum: Cycle,
    /// The shared level's DRAM bandwidth model.
    pub dram: DramConfig,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            quantum: 2_000,
            dram: DramConfig::default(),
        }
    }
}

/// The multi-core engine: N cores round-robin over a shared L2.
#[derive(Clone)]
pub struct McEngine {
    /// The shared level. Lent to one core during its slice of a quantum,
    /// back here between quanta.
    shared: Option<Box<SharedL2>>,
    cores: Vec<Engine>,
    mc: McConfig,
    horizon: Cycle,
}

impl McEngine {
    /// A fresh engine: one core per `(schedule, prefetcher)` spec, all
    /// contending for one shared L2 built from `config.mem.l2` + `mc.dram`.
    pub fn new(
        specs: Vec<(ReplayKernel, PrefetcherKind)>,
        config: &SimConfig,
        mc: &McConfig,
    ) -> McEngine {
        assert!(!specs.is_empty(), "a multi-core engine needs >= 1 core");
        let shared = SharedL2::new(config.mem.l2.clone(), mc.dram.clone());
        let cores = specs
            .into_iter()
            .map(|(replay, kind)| {
                let mut core = Engine::new(replay, &kind, config);
                // The shared level replaces the core's own L2 and DRAM.
                core.mem_mut().detach_shared();
                core
            })
            .collect();
        McEngine {
            shared: Some(Box::new(shared)),
            cores,
            mc: mc.clone(),
            horizon: 0,
        }
    }

    /// The cores, in stepping order.
    pub fn cores(&self) -> &[Engine] {
        &self.cores
    }

    /// The shared level, which is back in the engine between quanta.
    fn shared(&self) -> &SharedL2 {
        self.shared.as_deref().expect(SHARED_HOME)
    }

    /// Whether every core has exhausted its budget or schedule.
    pub fn done(&self) -> bool {
        self.cores.iter().all(Engine::done)
    }

    /// Advance the horizon by one quantum and run each core (in index
    /// order) until its clock reaches the horizon, with the shared level
    /// attached to it. A quantum may end, and the next resume, inside a
    /// decoded block.
    pub fn step_quantum(&mut self) {
        self.horizon += self.mc.quantum;
        let mut shared = self.shared.take();
        for core in &mut self.cores {
            if let Some(sh) = shared {
                core.mem_mut().attach_shared(sh);
            }
            core.run_until(self.horizon);
            shared = core.mem_mut().detach_shared();
        }
        self.shared = shared;
    }

    /// Run to completion (every core's budget or schedule exhausted).
    pub fn run_to_end(&mut self) {
        while !self.done() {
            self.step_quantum();
        }
    }

    /// Finish the run: every core's [`Engine::finish`], plus the shared
    /// level's aggregate counters.
    pub fn finish(self) -> (Vec<RunResult>, SharedL2Stats) {
        let shared = *self.shared().stats();
        (self.cores.into_iter().map(Engine::finish).collect(), shared)
    }
}

impl std::fmt::Debug for McEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cores: Vec<_> = self
            .cores
            .iter()
            .map(|c| (c.replay().name(), c.kind().label(), c.cursor()))
            .collect();
        f.debug_struct("McEngine")
            .field("cores", &cores)
            .field("horizon", &self.horizon)
            .finish_non_exhaustive()
    }
}

/// Digest of one finished multi-core run: every core's
/// [`RunResult::stats_digest`] (in core order) folded with every shared
/// counter. This is what the multi-core golden-digest leg pins.
pub fn mc_digest(results: &[RunResult], shared: &SharedL2Stats) -> u64 {
    let mut d = Digest::new();
    for r in results {
        d.u64(r.stats_digest());
    }
    for v in [
        shared.demand_lookups,
        shared.demand_hits,
        shared.demand_misses,
        shared.prefetch_fills,
        shared.writebacks,
        shared.dram_queue_cycles,
    ] {
        d.u64(v);
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_workloads::{capture_kernel, kernel_by_name};
    use std::sync::Arc;

    fn replay_of(name: &str, budget: u64) -> ReplayKernel {
        let k = kernel_by_name(name).expect("registry kernel");
        ReplayKernel::new(Arc::new(capture_kernel(k.as_ref(), budget)))
    }

    fn cfg() -> SimConfig {
        SimConfig::default().with_budget(30_000)
    }

    #[test]
    fn two_core_run_is_deterministic() {
        let run = || {
            let mut e = McEngine::new(
                vec![
                    (replay_of("list", 30_000), PrefetcherKind::context()),
                    (replay_of("array", 30_000), PrefetcherKind::Stride),
                ],
                &cfg(),
                &McConfig::default(),
            );
            e.run_to_end();
            let (results, shared) = e.finish();
            mc_digest(&results, &shared)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cores_interfere_through_the_shared_level() {
        // A streaming antagonist must visibly interfere with a pointer
        // chaser: the shared level sees both cores' traffic, DRAM queueing
        // exceeds what the victim generates alone, and the victim's own
        // statistics change. Directional asserts on victim cycles or L2
        // misses are deliberately avoided: a delayed fill can convert a
        // later fresh miss into a cheap MSHR merge, so neither metric is
        // monotone under added load. (Direct cross-core eviction is pinned
        // by the shared_l2 unit tests.)
        let mc = McConfig {
            dram: semloc_mem::DramConfig {
                channels: 1,
                service_interval: 64,
                ..semloc_mem::DramConfig::default()
            },
            ..McConfig::default()
        };
        let mut small_l2 = cfg();
        small_l2.mem.l2.size_bytes = 64 * 1024;
        let (solo, solo_shared) = {
            let mut e = McEngine::new(
                vec![(replay_of("list", 30_000), PrefetcherKind::None)],
                &small_l2,
                &mc,
            );
            e.run_to_end();
            let (mut results, shared) = e.finish();
            (results.remove(0), shared)
        };
        let (contended, shared) = {
            let mut e = McEngine::new(
                vec![
                    (replay_of("list", 30_000), PrefetcherKind::None),
                    (replay_of("array", 30_000), PrefetcherKind::Stride),
                ],
                &small_l2,
                &mc,
            );
            e.run_to_end();
            let (mut results, shared) = e.finish();
            (results.remove(0), shared)
        };
        assert_eq!(solo.cpu.instructions, contended.cpu.instructions);
        assert!(
            shared.dram_queue_cycles > solo_shared.dram_queue_cycles,
            "antagonist traffic must add DRAM queueing ({} vs {})",
            shared.dram_queue_cycles,
            solo_shared.dram_queue_cycles
        );
        assert!(
            shared.demand_lookups > solo_shared.demand_lookups,
            "the shared level must see the antagonist's traffic too ({} vs {})",
            shared.demand_lookups,
            solo_shared.demand_lookups
        );
        assert_ne!(
            contended.stats_digest(),
            solo.stats_digest(),
            "interference must be visible in the victim's statistics"
        );
    }

    #[test]
    fn clock_skew_is_bounded_by_one_quantum() {
        let mc = McConfig::default();
        let mut e = McEngine::new(
            vec![
                (replay_of("list", 30_000), PrefetcherKind::context()),
                (replay_of("mcf", 30_000), PrefetcherKind::Stride),
            ],
            &cfg(),
            &mc,
        );
        for _ in 0..40 {
            e.step_quantum();
            if e.done() {
                break;
            }
            for core in e.cores() {
                assert!(core.cycles() + mc.quantum >= e.horizon.saturating_sub(mc.quantum));
            }
        }
    }
}
