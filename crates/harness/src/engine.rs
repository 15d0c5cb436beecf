//! The checkpointable simulation engine.
//!
//! [`Engine`] owns one composed simulator — a replayed kernel stream, the
//! prefetcher under test, and the [`Cpu`] (which itself owns the cache
//! hierarchy and prefetcher state) — and can pause it at any instruction
//! boundary. A paused engine yields a [`SimCheckpoint`]: a versioned,
//! fingerprinted byte snapshot of *every* stateful layer (core, branch
//! predictor, caches, MSHRs, prefetcher tables, RNG streams, statistics)
//! built on the [`Snapshot`] trait.
//!
//! The contract, pinned by the golden-digest suite, is **bit identity**:
//!
//! * checkpoint → restore → continue produces exactly the statistics of an
//!   uninterrupted run, and
//! * re-saving a restored engine yields byte-identical checkpoint payloads.
//!
//! That makes checkpoints safe for three distinct uses: resuming a killed
//! experiment sweep from disk (see `crate::ckpt`), forking one warmed
//! engine into many continuations ([`Engine::fork`] — e.g. the adversarial
//! search reading its warm-up statistics off a throwaway fork), and
//! post-mortem state inspection at a divergence.
//!
//! Engines replay [`ReplayKernel`] streams rather than live generators:
//! the cursor (= instructions consumed) identifies the exact resume point
//! in the captured stream, which the prefix property of
//! [`semloc_workloads::replay`] guarantees is the same stream an
//! uninterrupted run would have seen.

use std::io;

use semloc_cpu::Cpu;
use semloc_mem::{Hierarchy, Prefetcher};
use semloc_trace::{snap_err, SnapReader, SnapWriter, Snapshot};
use semloc_workloads::{Kernel, ReplayKernel};

use crate::config::SimConfig;
use crate::prefetchers::PrefetcherKind;
use crate::runner::{collect_result, Digest, RunResult};

/// Version of the [`SimCheckpoint`] encoding (the `SIMC` section version).
/// Bump it whenever any layer's snapshot layout changes; readers reject
/// every other version with a typed error.
pub const SIM_CKPT_VERSION: u32 = 2;

/// A complete, restorable snapshot of a paused [`Engine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimCheckpoint {
    /// Encoding version ([`SIM_CKPT_VERSION`] when produced by this build).
    pub version: u32,
    /// Fingerprint of the engine's identity — trace key, prefetcher kind,
    /// and [`SimConfig`] — so a checkpoint can never be restored into an
    /// engine simulating something else.
    pub fingerprint: u64,
    /// Instructions consumed when the checkpoint was taken (the resume
    /// position in the replayed stream).
    pub cursor: u64,
    /// The serialized [`Snapshot`] stream of every simulator layer.
    pub payload: Vec<u8>,
}

impl SimCheckpoint {
    /// Serialize as a `SIMC` frame (see [`semloc_trace::snap`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::framed(*b"SIMC", self.version);
        w.put_u64(self.fingerprint);
        w.put_u64(self.cursor);
        w.put_len(self.payload.len());
        w.put_bytes(&self.payload);
        w.into_frame()
    }

    /// Parse a frame produced by [`SimCheckpoint::to_bytes`]. Rejects
    /// corrupted frames, foreign kinds, unknown versions, truncation, and
    /// trailing garbage with a typed [`io::ErrorKind::InvalidData`] /
    /// `UnexpectedEof` error.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<SimCheckpoint> {
        let mut r = SnapReader::framed(bytes, *b"SIMC", SIM_CKPT_VERSION)?;
        let fingerprint = r.get_u64()?;
        let cursor = r.get_u64()?;
        let n = r.get_len()?;
        let payload = r.get_bytes(n)?.to_vec();
        r.expect_end()?;
        Ok(SimCheckpoint {
            version: SIM_CKPT_VERSION,
            fingerprint,
            cursor,
            payload,
        })
    }
}

/// One pausable simulation: a captured kernel stream driven through a
/// [`Cpu`] composed with the prefetcher under test.
///
/// The engine is the single run-loop behind [`crate::run_kernel`]: drive it
/// with [`Engine::run_to`], snapshot it with [`Engine::checkpoint`], clone
/// its warm state with [`Engine::fork`], and collect the final
/// [`RunResult`] with [`Engine::finish`].
#[derive(Debug)]
pub struct Engine {
    replay: ReplayKernel,
    kind: PrefetcherKind,
    config: SimConfig,
    cpu: Cpu<Box<dyn Prefetcher>>,
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
    /// equal fingerprints simulate the same cell, so their checkpoints are
    /// interchangeable; everything else is rejected at restore.
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.str(&self.replay.trace_key());
        d.str(&format!("{:?}", self.kind));
        d.str(&format!("{:?}", self.config));
        d.finish()
    }

    /// Instructions consumed so far (the resume position in the stream).
    pub fn cursor(&self) -> u64 {
        self.cpu.stats().instructions
    }

    /// Whether the run is over: the instruction budget is exhausted or the
    /// captured stream has no instructions left.
    pub fn done(&self) -> bool {
        let c = self.cursor();
        (self.config.instr_budget != 0 && c >= self.config.instr_budget)
            || c >= self.replay.trace().buf.len() as u64
    }

    /// The prefetcher kind this engine simulates.
    pub fn kind(&self) -> &PrefetcherKind {
        &self.kind
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
    /// [`Cpu::step_block`]: the budget/target bounds are resolved here once
    /// per slice instead of per instruction, stats fold once per block, and
    /// the next block's lanes are prefetched while the current one
    /// executes. A cursor in the middle of a block (a slice or checkpoint
    /// boundary) just starts with a partial block.
    pub fn run_to(&mut self, target: u64) -> u64 {
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
            self.cpu
                .step_block(&lanes.block(cur as usize, block_end as usize));
            cur = block_end;
        }
        self.cursor()
    }

    /// Run to the end (budget or stream exhaustion).
    pub fn run_to_end(&mut self) -> u64 {
        self.run_to(u64::MAX)
    }

    /// Snapshot the complete simulator state at the current cursor.
    pub fn checkpoint(&self) -> SimCheckpoint {
        let mut w = SnapWriter::new();
        self.cpu.save(&mut w);
        SimCheckpoint {
            version: SIM_CKPT_VERSION,
            fingerprint: self.fingerprint(),
            cursor: self.cursor(),
            payload: w.into_bytes(),
        }
    }

    /// Restore this engine to a previously captured checkpoint.
    ///
    /// The checkpoint must carry this engine's own [`Engine::fingerprint`]
    /// (same trace, same prefetcher kind, same configuration) and a
    /// supported version; anything else — including a payload whose cursor
    /// disagrees with its restored statistics — fails with
    /// [`io::ErrorKind::InvalidData`]. On error the engine state is
    /// unspecified and the engine must be discarded.
    pub fn restore(&mut self, ckpt: &SimCheckpoint) -> io::Result<()> {
        if ckpt.version != SIM_CKPT_VERSION {
            return Err(snap_err(format!(
                "checkpoint version {} unsupported (engine speaks {SIM_CKPT_VERSION})",
                ckpt.version
            )));
        }
        let own = self.fingerprint();
        if ckpt.fingerprint != own {
            return Err(snap_err(format!(
                "checkpoint fingerprint {:#018x} does not match engine {own:#018x} \
                 (different kernel, prefetcher, or config)",
                ckpt.fingerprint
            )));
        }
        let mut r = SnapReader::new(&ckpt.payload);
        self.cpu.restore(&mut r)?;
        r.expect_end()?;
        if self.cursor() != ckpt.cursor {
            return Err(snap_err(format!(
                "checkpoint cursor {} disagrees with restored instruction count {}",
                ckpt.cursor,
                self.cursor()
            )));
        }
        Ok(())
    }

    /// Fork the engine: a new engine at exactly this warm state, free to
    /// run ahead independently (the paused original is untouched). Forking
    /// goes through [`Engine::checkpoint`]/[`Engine::restore`], so a fork
    /// is also a standing test that the snapshot round-trips.
    pub fn fork(&self) -> Engine {
        let mut e = Engine::new(self.replay.clone(), &self.kind, &self.config);
        e.restore(&self.checkpoint())
            .expect("a fresh engine restores its own checkpoint");
        e
    }

    /// Fork this engine's warm state **onto a different replayed stream**
    /// whose instructions agree with the current stream up to the cursor.
    ///
    /// This is the primitive behind the adversarial search's
    /// warm-prefix-shared evaluation: warm one engine over a common prefix
    /// once, then fork the trained state onto many composed continuations
    /// (same prefix, different tails) without re-simulating the warmup. The
    /// prefix equality is *verified instruction by instruction* before any
    /// state moves — a diverging stream is rejected with
    /// [`io::ErrorKind::InvalidData`], because restoring warm state into a
    /// stream that disagrees about the past would silently break the
    /// checkpoint contract.
    pub fn fork_onto(&self, replay: ReplayKernel) -> io::Result<Engine> {
        let cursor = self.cursor();
        if (replay.trace().buf.len() as u64) < cursor {
            return Err(snap_err(format!(
                "fork_onto target '{}' holds {} instrs, engine cursor is {cursor}",
                replay.name(),
                replay.trace().buf.len()
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
        let mut e = Engine::new(replay, &self.kind, &self.config);
        // Same warm state, new stream identity: re-stamp the fingerprint so
        // the (verified-prefix) restore is accepted.
        let mut ckpt = self.checkpoint();
        ckpt.fingerprint = e.fingerprint();
        e.restore(&ckpt)?;
        Ok(e)
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

    #[test]
    fn checkpoint_restore_continue_is_bit_identical() {
        let cfg = quick();
        let kind = PrefetcherKind::context();
        let uninterrupted = {
            let mut e = Engine::new(replay_of("mcf", cfg.instr_budget), &kind, &cfg);
            e.run_to_end();
            e.finish()
        };
        // Pause halfway, round-trip the checkpoint through bytes, restore
        // into a cold engine, and continue.
        let mut warm = Engine::new(replay_of("mcf", cfg.instr_budget), &kind, &cfg);
        warm.run_to(cfg.instr_budget / 2);
        let ckpt = SimCheckpoint::from_bytes(&warm.checkpoint().to_bytes()).unwrap();
        assert_eq!(ckpt.cursor, cfg.instr_budget / 2);
        let mut resumed = Engine::new(replay_of("mcf", cfg.instr_budget), &kind, &cfg);
        resumed.restore(&ckpt).unwrap();
        assert_eq!(resumed.cursor(), ckpt.cursor);
        resumed.run_to_end();
        let r = resumed.finish();
        assert_eq!(
            r.stats_digest(),
            uninterrupted.stats_digest(),
            "restore + continue must be bit-identical to an uninterrupted run"
        );
        // And re-saving a restored engine yields byte-identical payloads.
        let mut again = Engine::new(replay_of("mcf", cfg.instr_budget), &kind, &cfg);
        again.restore(&ckpt).unwrap();
        assert_eq!(again.checkpoint().payload, ckpt.payload);
    }

    #[test]
    fn fork_runs_ahead_independently() {
        let cfg = quick();
        let kind = PrefetcherKind::context();
        let mut e = Engine::new(replay_of("list", cfg.instr_budget), &kind, &cfg);
        e.run_to(20_000);
        let mut fork = e.fork();
        assert_eq!(fork.cursor(), 20_000);
        fork.run_to_end();
        let forked = fork.finish();
        // The original is untouched and finishes to the same result.
        assert_eq!(e.cursor(), 20_000);
        e.run_to_end();
        assert_eq!(e.finish().stats_digest(), forked.stats_digest());
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

    #[test]
    fn foreign_checkpoints_are_rejected() {
        let cfg = quick();
        let mut e = Engine::new(
            replay_of("list", cfg.instr_budget),
            &PrefetcherKind::Stride,
            &cfg,
        );
        e.run_to(5_000);
        let ckpt = e.checkpoint();

        // Different prefetcher kind.
        let mut other = Engine::new(
            replay_of("list", cfg.instr_budget),
            &PrefetcherKind::context(),
            &cfg,
        );
        assert_eq!(
            other.restore(&ckpt).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Different config.
        let mut other = Engine::new(
            replay_of("list", cfg.instr_budget),
            &PrefetcherKind::Stride,
            &cfg.clone().with_budget(70_000),
        );
        assert_eq!(
            other.restore(&ckpt).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Different kernel.
        let mut other = Engine::new(
            replay_of("mcf", cfg.instr_budget),
            &PrefetcherKind::Stride,
            &cfg,
        );
        assert_eq!(
            other.restore(&ckpt).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );

        // Unknown version.
        let mut bad = ckpt.clone();
        bad.version = 99;
        let mut same = Engine::new(
            replay_of("list", cfg.instr_budget),
            &PrefetcherKind::Stride,
            &cfg,
        );
        assert_eq!(
            same.restore(&bad).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn checkpoint_bytes_reject_corruption() {
        let cfg = SimConfig::default().with_budget(2_000);
        let mut e = Engine::new(
            replay_of("array", cfg.instr_budget),
            &PrefetcherKind::None,
            &cfg,
        );
        e.run_to(1_000);
        let bytes = e.checkpoint().to_bytes();
        assert_eq!(
            SimCheckpoint::from_bytes(&bytes).unwrap(),
            e.checkpoint(),
            "clean bytes round-trip"
        );
        // Truncation and trailing garbage are both typed errors.
        assert!(SimCheckpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(SimCheckpoint::from_bytes(&extra).is_err());
        // A bad magic is rejected before anything is interpreted.
        let mut bad = bytes;
        bad[0] ^= 0xFF;
        assert!(SimCheckpoint::from_bytes(&bad).is_err());
    }
}
