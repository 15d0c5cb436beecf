//! The simulation engine, and forking it.
//!
//! [`Engine`] owns one composed simulator — a replayed kernel stream, the
//! prefetcher under test, and the [`Cpu`] (which itself owns the cache
//! hierarchy and prefetcher state) — and can pause it at any instruction
//! boundary. A paused engine forks by `clone()`: every stateful layer
//! (core, branch predictor, caches, MSHRs, prefetcher tables, RNG streams,
//! statistics) derives `Clone`, so a fork copies every field.
//!
//! The contract, pinned by the fork tests over every prefetcher, is **bit
//! identity**: a fork and the engine it was taken from each finish to
//! exactly the statistics of an uninterrupted run.
//!
//! That makes one warmed engine the start of many continuations (a clone,
//! or [`Engine::fork_onto`] a longer stream — e.g. the adversarial search
//! reading its warm-up statistics off a throwaway fork). Nothing persists
//! an engine: a killed run resumes from the finished cells the
//! [`TraceStore`](crate::TraceStore) keeps on disk, and reruns the cells
//! that were in flight from instruction 0.
//!
//! Engines replay [`ReplayKernel`] streams rather than live generators:
//! the cursor (= instructions consumed) identifies the exact resume point
//! in the captured stream, which the prefix property of
//! [`semloc_workloads::replay`] guarantees is the same stream an
//! uninterrupted run would have seen.

use std::io;

use semloc_cpu::Cpu;
use semloc_mem::{Fork, Hierarchy};
use semloc_trace::{snap_err, Cycle};
use semloc_workloads::{Kernel, ReplayKernel};

use crate::config::SimConfig;
use crate::prefetchers::PrefetcherKind;
use crate::runner::{collect_result, Digest, RunResult};

/// The identity of one cell: FNV-1a over the kernel's trace key, the
/// prefetcher kind, and the simulation configuration (both via their
/// `Debug` renderings, which cover every field). [`Engine::fingerprint`]
/// is this over the engine's own stream; the trace store looks a finished
/// cell up by it before anything is captured.
pub(crate) fn fingerprint(trace_key: &str, kind: &PrefetcherKind, config: &SimConfig) -> u64 {
    let mut d = Digest::new();
    d.str(trace_key);
    d.str(&format!("{kind:?}"));
    d.str(&format!("{config:?}"));
    d.finish()
}

/// One pausable simulation: a captured kernel stream driven through a
/// [`Cpu`] composed with the prefetcher under test.
///
/// The engine is the single run-loop behind [`crate::run_kernel`]: drive it
/// with [`Engine::run_to`], fork its warm state with `clone()`, and collect
/// the final [`RunResult`] with [`Engine::finish`].
#[derive(Clone, Debug)]
pub struct Engine {
    replay: ReplayKernel,
    kind: PrefetcherKind,
    config: SimConfig,
    cpu: Cpu<Box<dyn Fork>>,
}

impl Engine {
    /// A fresh (cold) engine for `kind` over the captured stream.
    pub fn new(replay: ReplayKernel, kind: &PrefetcherKind, config: &SimConfig) -> Engine {
        let hierarchy = Hierarchy::new(config.mem.clone(), kind.build());
        let cpu = Cpu::new(config.cpu.clone(), hierarchy, config.instr_budget);
        Engine {
            replay,
            kind: kind.clone(),
            config: config.clone(),
            cpu,
        }
    }

    /// The engine's identity fingerprint: FNV-1a over the kernel's trace
    /// key, the prefetcher kind, and the simulation configuration (both via
    /// their `Debug` renderings, which cover every field). Two engines with
    /// equal fingerprints simulate the same cell; the trace store files a
    /// finished cell's result under it.
    pub fn fingerprint(&self) -> u64 {
        fingerprint(&self.replay.trace_key(), &self.kind, &self.config)
    }

    /// Instructions consumed so far (the resume position in the stream).
    pub fn cursor(&self) -> u64 {
        self.cpu.stats().instructions
    }

    /// The core's clock: the cycle its latest instruction retired.
    pub fn cycles(&self) -> Cycle {
        self.cpu.stats().cycles
    }

    /// Whether the run is over: the instruction budget is exhausted or the
    /// captured stream has no instructions left.
    pub fn done(&self) -> bool {
        let c = self.cursor();
        (self.config.instr_budget != 0 && c >= self.config.instr_budget)
            || c >= self.replay.trace().lanes.len() as u64
    }

    /// The prefetcher kind this engine simulates.
    pub fn kind(&self) -> &PrefetcherKind {
        &self.kind
    }

    /// The captured stream this engine replays.
    pub fn replay(&self) -> &ReplayKernel {
        &self.replay
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Drive the simulation forward until `target` instructions have been
    /// consumed (clamped to the configured budget), the stream ends, or the
    /// budget is reached. Returns the new cursor. Feeding instructions in
    /// several `run_to` slices is bit-identical to one uninterrupted run:
    /// the stream position is exactly the instruction count, so each call
    /// resumes where the previous one stopped.
    ///
    /// The engine consumes the capture's decoded lanes in whole
    /// [`BLOCK_LEN`](semloc_trace::BLOCK_LEN)-instruction blocks through
    /// [`Cpu::step_block_until`] with no horizon: the budget/target bounds
    /// are resolved here once per slice instead of per instruction, stats
    /// fold once per block, and the next block's lanes are prefetched while
    /// the current one executes. A cursor in the middle of a block (a slice
    /// or fork boundary) just starts with a partial block.
    pub fn run_to(&mut self, target: u64) -> u64 {
        self.step_blocks(target, Cycle::MAX);
        self.cursor()
    }

    /// Run until the core's clock reaches `horizon`, the stream ends or the
    /// budget is reached: one core's slice of a multi-core quantum. The
    /// clock is checked before every instruction
    /// ([`Cpu::step_block_until`]), so a slice, and the next one's start,
    /// may fall inside a block.
    pub(crate) fn run_until(&mut self, horizon: Cycle) {
        self.step_blocks(u64::MAX, horizon);
    }

    /// The block loop behind [`Engine::run_to`] and [`Engine::run_until`].
    fn step_blocks(&mut self, target: u64, horizon: Cycle) {
        const BLOCK: u64 = semloc_trace::BLOCK_LEN as u64;
        let budget = self.config.instr_budget;
        let target = if budget == 0 {
            target
        } else {
            target.min(budget)
        };
        let lanes = &self.replay.trace().lanes;
        let end = target.min(lanes.len() as u64);
        let mut cur = self.cursor();
        while cur < end {
            let block_end = ((cur / BLOCK + 1) * BLOCK).min(end);
            lanes.prefetch_block(block_end as usize);
            let block = lanes.block(cur as usize, block_end as usize);
            cur += self.cpu.step_block_until(&block, horizon) as u64;
            if cur < block_end {
                break; // the clock reached the horizon
            }
        }
    }

    /// The core's memory hierarchy, for a multi-core engine to lend it the
    /// shared level.
    pub(crate) fn mem_mut(&mut self) -> &mut Hierarchy<Box<dyn Fork>> {
        self.cpu.mem_mut()
    }

    /// Run to the end (budget or stream exhaustion).
    pub fn run_to_end(&mut self) -> u64 {
        self.run_to(u64::MAX)
    }

    /// Fork this engine's warm state **onto a different replayed stream**
    /// whose instructions agree with the current stream up to the cursor.
    ///
    /// This is the primitive behind the adversarial search's
    /// warm-prefix-shared evaluation: warm one engine over a common prefix
    /// once, then fork the trained state onto many composed continuations
    /// (same prefix, different tails) without re-simulating the warmup. The
    /// prefix equality is *verified instruction by instruction* before any
    /// state is copied — a diverging stream is rejected with
    /// [`io::ErrorKind::InvalidData`], because warm state continued on a
    /// stream that disagrees about the past would silently break bit
    /// identity.
    pub fn fork_onto(&self, replay: ReplayKernel) -> io::Result<Engine> {
        let cursor = self.cursor();
        if (replay.trace().lanes.len() as u64) < cursor {
            return Err(snap_err(format!(
                "fork_onto target '{}' holds {} instrs, engine cursor is {cursor}",
                replay.name(),
                replay.trace().lanes.len()
            )));
        }
        let ours = &self.replay.trace().lanes;
        let n = ours.len().min(cursor as usize);
        let ours = ours.block(0, n);
        let theirs = replay.trace().lanes.block(0, n);
        if let Some(at) = (0..n).find(|&i| ours.instr(i) != theirs.instr(i)) {
            return Err(snap_err(format!(
                "fork_onto target '{}' diverges from '{}' at instr {at} (cursor {cursor})",
                replay.name(),
                self.replay.name()
            )));
        }
        Ok(Engine {
            replay,
            kind: self.kind.clone(),
            config: self.config.clone(),
            cpu: self.cpu.clone(),
        })
    }

    /// Finish the run (end-of-run accounting flush) and collect every
    /// statistic, exactly as an uninterrupted [`crate::run_kernel`] would.
    pub fn finish(self) -> RunResult {
        collect_result(self.replay.name(), self.kind.label(), self.cpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_kernel_uncached;
    use semloc_workloads::{capture_kernel, kernel_by_name};
    use std::sync::Arc;

    fn replay_of(name: &str, budget: u64) -> ReplayKernel {
        let k = kernel_by_name(name).unwrap();
        ReplayKernel::new(Arc::new(capture_kernel(k.as_ref(), budget)))
    }

    fn quick() -> SimConfig {
        SimConfig::default().with_budget(60_000)
    }

    #[test]
    fn engine_run_matches_simulate() {
        let cfg = quick();
        for kind in [
            PrefetcherKind::None,
            PrefetcherKind::Stride,
            PrefetcherKind::context(),
        ] {
            let mut e = Engine::new(replay_of("list", cfg.instr_budget), &kind, &cfg);
            e.run_to_end();
            assert!(e.done());
            let via_engine = e.finish();
            let k = kernel_by_name("list").unwrap();
            let direct = run_kernel_uncached(k.as_ref(), &kind, &cfg);
            assert_eq!(
                via_engine.stats_digest(),
                direct.stats_digest(),
                "{}: engine-driven run diverged",
                kind.label()
            );
        }
    }

    /// A fork copies every layer: under every prefetcher, a clone taken on
    /// a block boundary or inside a block and the engine it was taken from
    /// both finish to the result of an uninterrupted run, every counter
    /// included. On `mcf` the stride and GHB G/AC prefetchers issue
    /// nothing, so `suffixArray`, where every prefetcher's tables steer its
    /// later requests, runs too: a `Clone` that lost a table diverges there.
    #[test]
    fn every_prefetcher_forks_mid_run_and_mid_block() {
        const BLOCK: u64 = semloc_trace::BLOCK_LEN as u64;
        let cfg = quick();
        for kernel in ["mcf", "suffixArray"] {
            let replay = replay_of(kernel, cfg.instr_budget);
            for kind in [
                PrefetcherKind::None,
                PrefetcherKind::Stride,
                PrefetcherKind::GhbGdc,
                PrefetcherKind::GhbPcdc,
                PrefetcherKind::GhbGac,
                PrefetcherKind::Sms,
                PrefetcherKind::Markov,
                PrefetcherKind::NextLine,
                PrefetcherKind::context(),
            ] {
                let uninterrupted = {
                    let mut e = Engine::new(replay.clone(), &kind, &cfg);
                    e.run_to_end();
                    e.finish()
                };
                for at in [100 * BLOCK, 100 * BLOCK + 77] {
                    let mut original = Engine::new(replay.clone(), &kind, &cfg);
                    original.run_to(at);
                    let mut fork = original.clone();
                    assert_eq!(fork.cursor(), at);
                    fork.run_to_end();
                    assert_eq!(original.cursor(), at, "running a fork moved its original");
                    original.run_to_end();
                    for (who, e) in [("fork", fork), ("original", original)] {
                        assert_eq!(
                            e.finish(),
                            uninterrupted,
                            "{kernel}/{}: the {who} diverged after a fork at {at}",
                            kind.label()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fork_onto_extends_a_shared_prefix() {
        // Warm over a short capture, fork the trained state onto a longer
        // capture of the same kernel (the prefix property guarantees the
        // streams agree up to the short capture's length), and check the
        // continuation matches an uninterrupted run over the long capture.
        let kind = PrefetcherKind::context();
        let cfg = quick();
        let long = replay_of("list", cfg.instr_budget);
        let uninterrupted = {
            let mut e = Engine::new(long.clone(), &kind, &cfg);
            e.run_to_end();
            e.finish()
        };
        let mut warm = Engine::new(replay_of("list", 20_000), &kind, &cfg);
        warm.run_to(20_000);
        let mut forked = warm.fork_onto(long).unwrap();
        assert_eq!(forked.cursor(), 20_000);
        forked.run_to_end();
        assert_eq!(
            forked.finish().stats_digest(),
            uninterrupted.stats_digest(),
            "fork_onto continuation must match an uninterrupted run"
        );
    }

    #[test]
    fn fork_onto_rejects_diverging_streams() {
        let kind = PrefetcherKind::Stride;
        let cfg = quick();
        let mut warm = Engine::new(replay_of("list", 20_000), &kind, &cfg);
        warm.run_to(20_000);
        // A different kernel's stream disagrees in the prefix.
        assert_eq!(
            warm.fork_onto(replay_of("mcf", cfg.instr_budget))
                .unwrap_err()
                .kind(),
            io::ErrorKind::InvalidData
        );
        // A stream shorter than the cursor cannot host the warm state.
        assert_eq!(
            warm.fork_onto(replay_of("list", 5_000)).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
