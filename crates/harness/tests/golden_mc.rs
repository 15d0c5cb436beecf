//! Golden statistics digests for the multi-core interference mode.
//!
//! Extends the golden-digest discipline to `semloc-interfere`: one pinned
//! fingerprint for a 2-core scenario (a composed phase-shift schedule vs a
//! streaming antagonist) and one for a 4-core mix, each folding every
//! core's full [`RunResult`] digest plus every shared-L2/DRAM counter.
//!
//! The multi-core engine steps cores round-robin over a fixed cycle
//! quantum on the calling thread, gating every instruction on the horizon,
//! so these digests are a pure function of the schedules and the config.
//! The engine never uses the shard pool, so `SEMLOC_POOL_THREADS` cannot
//! move them. If a future change *intends* to alter multi-core behaviour,
//! update the constants with the values printed by the failing assertion
//! and record why in CHANGES.md.
//!
//! A one-core engine over a flat DRAM must be the single-core engine, so
//! the two modes cannot drift apart below the L1.

use std::sync::Arc;

use semloc_harness::{mc_digest, Engine, McConfig, McEngine, PrefetcherKind, SimConfig};
use semloc_mem::{DramConfig, MemStats};
use semloc_workloads::{capture_kernel, kernel_by_name, CapturedTrace, Composer, ReplayKernel};

/// Pinned digest of the 2-core scenario below.
const GOLDEN_MC_2CORE: u64 = 0xab4b_5695_c0af_7c78;

/// Pinned digest of the 4-core scenario below.
const GOLDEN_MC_4CORE: u64 = 0x6522_835d_e79a_e79a;

fn capture(name: &str, budget: u64) -> Arc<CapturedTrace> {
    let k = kernel_by_name(name).expect("registry kernel");
    Arc::new(capture_kernel(k.as_ref(), budget))
}

/// The schedule menu both scenarios draw phases from: a pointer-heavy SPEC
/// proxy, a streaming stencil, and a hash-table prober (the mcf→lbm→hash
/// mid-run phase change of the issue).
fn menu() -> Vec<Arc<CapturedTrace>> {
    ["mcf", "lbm", "hashtest"]
        .iter()
        .map(|n| capture(n, 40_000))
        .collect()
}

/// Budget 0: every core runs its entire (finite) composed stream.
fn cfg() -> SimConfig {
    SimConfig::default().with_budget(0)
}

fn two_core_digest() -> u64 {
    let m = menu();
    let sched = Composer::new(0x5e).phase_shift("mc2-sched", &m, 3, 8_000, 15_000);
    let mut e = McEngine::new(
        vec![
            (
                ReplayKernel::new(Arc::new(capture_kernel(&sched, 0))),
                PrefetcherKind::context(),
            ),
            (
                ReplayKernel::new(capture("array", 30_000)),
                PrefetcherKind::Stride,
            ),
        ],
        &cfg(),
        &McConfig::default(),
    );
    e.run_to_end();
    let (results, shared) = e.finish();
    assert_eq!(results.len(), 2);
    assert!(shared.demand_lookups > 0, "shared level never saw traffic");
    mc_digest(&results, &shared)
}

fn four_core_digest() -> u64 {
    let m = menu();
    let mut composer = Composer::new(0x5e);
    let sched_a = composer.phase_shift("mc4-a", &m, 3, 8_000, 15_000);
    let sched_b = composer.phase_shift("mc4-b", &m, 4, 5_000, 10_000);
    let mut e = McEngine::new(
        vec![
            (
                ReplayKernel::new(Arc::new(capture_kernel(&sched_a, 0))),
                PrefetcherKind::context(),
            ),
            (
                ReplayKernel::new(Arc::new(capture_kernel(&sched_b, 0))),
                PrefetcherKind::GhbGdc,
            ),
            (
                ReplayKernel::new(capture("list", 25_000)),
                PrefetcherKind::Sms,
            ),
            (
                ReplayKernel::new(capture("array", 25_000)),
                PrefetcherKind::Stride,
            ),
        ],
        &cfg(),
        &McConfig::default(),
    );
    e.run_to_end();
    let (results, shared) = e.finish();
    assert_eq!(results.len(), 4);
    mc_digest(&results, &shared)
}

#[test]
fn two_core_matches_golden() {
    let got = two_core_digest();
    assert_eq!(
        got, GOLDEN_MC_2CORE,
        "2-core interference digest diverged (got {got:#018x}, want \
         {GOLDEN_MC_2CORE:#018x}); the change is not behaviour-preserving"
    );
}

#[test]
fn four_core_matches_golden() {
    let got = four_core_digest();
    assert_eq!(
        got, GOLDEN_MC_4CORE,
        "4-core interference digest diverged (got {got:#018x}, want \
         {GOLDEN_MC_4CORE:#018x}); the change is not behaviour-preserving"
    );
}

#[test]
fn multi_core_digests_are_reproducible_in_process() {
    // Two fresh runs in the same process must agree bit-for-bit — no
    // hidden global state (RNG, maps with randomized iteration, clocks)
    // leaks into the multi-core path.
    assert_eq!(two_core_digest(), two_core_digest());
}

#[test]
fn one_core_over_flat_dram_is_the_single_core_engine() {
    // The single-core DRAM: 300 cycles, one channel, no queueing.
    let flat = McConfig {
        dram: DramConfig {
            latency: 300,
            channels: 1,
            service_interval: 0,
        },
        ..McConfig::default()
    };
    let cfg = SimConfig::default().with_budget(60_000);
    for kernel in ["milc", "namd"] {
        let replay = ReplayKernel::new(capture(kernel, cfg.instr_budget));
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::context(),
        ] {
            let single = {
                let mut e = Engine::new(replay.clone(), &kind, &cfg);
                e.run_to_end();
                e.finish()
            };
            let mut e = McEngine::new(vec![(replay.clone(), kind.clone())], &cfg, &flat);
            e.run_to_end();
            let (results, shared) = e.finish();
            let core = &results[0];
            let what = format!("{kernel} under {}", kind.label());
            assert_eq!(core.cpu, single.cpu, "{what}: core statistics");
            // A shared level bills the L2's dirty evictions to itself.
            let billed = MemStats {
                writebacks: core.mem.writebacks + shared.writebacks,
                ..core.mem
            };
            assert_eq!(billed, single.mem, "{what}: memory statistics");
        }
    }
}
