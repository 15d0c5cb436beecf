//! `semloc-interfere`: the shared-L2 multi-core simulation mode.
//!
//! An [`McEngine`] steps N cores — each a private-L1 [`Cpu`] with its own
//! prefetcher instance over its own replayed schedule — against one
//! [`SharedL2`] (finite MSHRs + a DRAM bandwidth model), so co-running
//! workloads interfere through capacity, MSHR occupancy, and DRAM queueing.
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
//! `SEMLOC_POOL_THREADS`. Cores
//! step decoded blocks like the single-core engine, but gate every
//! instruction on the quantum horizon, so block stepping leaves the
//! interleaving a pure function of simulated time.
//!
//! The engine owns the shared level and lends it to each core for that
//! core's slice of the quantum ([`Hierarchy::attach_shared`]), so one core
//! at a time holds it and no runtime borrow check is needed.
//!
//! Checkpointing follows the single-core engine's contract: an
//! [`McCheckpoint`] snapshots the shared level once plus every core, is
//! fingerprinted against the full engine identity, and restore/fork
//! round-trip bit-identically mid-schedule (pinned by `mc_snapshot.rs`).

use std::io;

use semloc_cpu::Cpu;
use semloc_mem::{DramConfig, Hierarchy, Prefetcher, SharedL2, SharedL2Stats};
use semloc_trace::{snap_err, Cycle, SnapReader, SnapWriter, Snapshot};
use semloc_workloads::{Kernel, ReplayKernel};

use crate::config::SimConfig;
use crate::prefetchers::PrefetcherKind;
use crate::runner::{collect_result, Digest, RunResult};

/// Version of the [`McCheckpoint`] encoding (the `MCCK` section version).
pub const MC_CKPT_VERSION: u32 = 1;

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

/// One core of a multi-core engine: its schedule, prefetcher kind, and the
/// private-L1 [`Cpu`] wired to the shared level.
pub struct McCore {
    replay: ReplayKernel,
    kind: PrefetcherKind,
    cpu: Cpu<Box<dyn Prefetcher>>,
}

impl McCore {
    /// Instructions this core has consumed.
    pub fn cursor(&self) -> u64 {
        self.cpu.stats().instructions
    }

    /// This core's current clock (max retire cycle).
    pub fn cycles(&self) -> Cycle {
        self.cpu.stats().cycles
    }

    /// The schedule this core replays.
    pub fn replay(&self) -> &ReplayKernel {
        &self.replay
    }

    /// The prefetcher kind this core runs.
    pub fn kind(&self) -> &PrefetcherKind {
        &self.kind
    }

    fn done(&self, budget: u64) -> bool {
        let c = self.cursor();
        (budget != 0 && c >= budget) || c >= self.replay.trace().buf.len() as u64
    }
}

impl Snapshot for McCore {
    fn save(&self, w: &mut SnapWriter) {
        let Self {
            replay: _, // identity, in the engine fingerprint; the cursor is in the cpu
            kind: _,   // identity, in the engine fingerprint
            cpu,
        } = self;
        w.section(*b"MCOR", 1);
        cpu.save(w);
    }

    fn restore(&mut self, r: &mut SnapReader<'_>) -> io::Result<()> {
        let Self {
            replay: _, // identity, in the engine fingerprint; the cursor is in the cpu
            kind: _,   // identity, in the engine fingerprint
            cpu,
        } = self;
        r.section(*b"MCOR", 1)?;
        cpu.restore(r)
    }
}

impl std::fmt::Debug for McCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McCore")
            .field("kernel", &self.replay.name())
            .field("kind", &self.kind)
            .field("cursor", &self.cursor())
            .finish_non_exhaustive()
    }
}

/// A complete, restorable snapshot of a paused [`McEngine`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct McCheckpoint {
    /// Encoding version ([`MC_CKPT_VERSION`] when produced by this build).
    pub version: u32,
    /// Fingerprint of the engine identity: core count, every core's trace
    /// key + prefetcher kind, [`SimConfig`] and [`McConfig`].
    pub fingerprint: u64,
    /// The stepping horizon when the checkpoint was taken.
    pub horizon: Cycle,
    /// Per-core instruction cursors (resume positions).
    pub cursors: Vec<u64>,
    /// Serialized shared level + every core.
    pub payload: Vec<u8>,
}

impl McCheckpoint {
    /// Serialize as an `MCCK` frame (see [`semloc_trace::snap`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::framed(*b"MCCK", self.version);
        w.put_u64(self.fingerprint);
        w.put_u64(self.horizon);
        w.put_len(self.cursors.len());
        for &c in &self.cursors {
            w.put_u64(c);
        }
        w.put_len(self.payload.len());
        w.put_bytes(&self.payload);
        w.into_frame()
    }

    /// Parse a frame produced by [`McCheckpoint::to_bytes`], rejecting
    /// corrupted frames, foreign kinds, versions, truncation and trailing
    /// garbage.
    pub fn from_bytes(bytes: &[u8]) -> io::Result<McCheckpoint> {
        let mut r = SnapReader::framed(bytes, *b"MCCK", MC_CKPT_VERSION)?;
        let fingerprint = r.get_u64()?;
        let horizon = r.get_u64()?;
        let n = r.get_len()?;
        let mut cursors = Vec::with_capacity(n);
        for _ in 0..n {
            cursors.push(r.get_u64()?);
        }
        let n = r.get_len()?;
        let payload = r.get_bytes(n)?.to_vec();
        r.expect_end()?;
        Ok(McCheckpoint {
            version: MC_CKPT_VERSION,
            fingerprint,
            horizon,
            cursors,
            payload,
        })
    }
}

/// The multi-core engine: N cores round-robin over a shared L2.
pub struct McEngine {
    /// The shared level. Lent to one core during its slice of a quantum,
    /// back here between quanta.
    shared: Option<Box<SharedL2>>,
    cores: Vec<McCore>,
    config: SimConfig,
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
                let hierarchy = Hierarchy::new(config.mem.clone(), kind.build());
                let cpu = Cpu::new(config.cpu.clone(), hierarchy, config.instr_budget);
                McCore { replay, kind, cpu }
            })
            .collect();
        McEngine {
            shared: Some(Box::new(shared)),
            cores,
            config: config.clone(),
            mc: mc.clone(),
            horizon: 0,
        }
    }

    /// The cores, in stepping order.
    pub fn cores(&self) -> &[McCore] {
        &self.cores
    }

    /// The shared level, which is back in the engine between quanta.
    fn shared(&self) -> &SharedL2 {
        self.shared.as_deref().expect(SHARED_HOME)
    }

    fn shared_mut(&mut self) -> &mut SharedL2 {
        self.shared.as_deref_mut().expect(SHARED_HOME)
    }

    /// Identity fingerprint over core count, every core's trace key and
    /// prefetcher kind (in order), and both configurations.
    pub fn fingerprint(&self) -> u64 {
        let mut d = Digest::new();
        d.u64(self.cores.len() as u64);
        for core in &self.cores {
            d.str(&core.replay.trace_key());
            d.str(&format!("{:?}", core.kind));
        }
        d.str(&format!("{:?}", self.config));
        d.str(&format!("{:?}", self.mc));
        d.finish()
    }

    /// Whether every core has exhausted its budget or schedule.
    pub fn done(&self) -> bool {
        let budget = self.config.instr_budget;
        self.cores.iter().all(|c| c.done(budget))
    }

    /// Advance the horizon by one quantum and run each core (in index
    /// order) until its clock reaches the horizon, with the shared level
    /// attached to it. Cores step their capture's decoded lanes block by
    /// block through [`Cpu::step_block_until`], which checks the horizon
    /// before every instruction, so a quantum may end, and the next resume,
    /// inside a block.
    pub fn step_quantum(&mut self) {
        const BLOCK: usize = semloc_trace::BLOCK_LEN;
        self.horizon += self.mc.quantum;
        let budget = self.config.instr_budget;
        let mut shared = self.shared.take();
        for core in &mut self.cores {
            if let Some(sh) = shared {
                core.cpu.mem_mut().attach_shared(sh);
            }
            let lanes = &core.replay.trace().lanes;
            let end = match budget {
                0 => lanes.len(),
                b => lanes.len().min(b as usize),
            };
            let mut cur = core.cursor() as usize;
            while cur < end {
                let block_end = ((cur / BLOCK + 1) * BLOCK).min(end);
                lanes.prefetch_block(block_end);
                cur += core
                    .cpu
                    .step_block_until(&lanes.block(cur, block_end), self.horizon);
                if cur < block_end {
                    break;
                }
            }
            shared = core.cpu.mem_mut().detach_shared();
        }
        self.shared = shared;
    }

    /// Run to completion (every core's budget or schedule exhausted).
    pub fn run_to_end(&mut self) {
        while !self.done() {
            self.step_quantum();
        }
    }

    /// Snapshot the complete multi-core state (shared level once, then
    /// every core) at the current horizon.
    pub fn checkpoint(&self) -> McCheckpoint {
        let mut w = SnapWriter::new();
        self.shared().save(&mut w);
        for core in &self.cores {
            core.save(&mut w);
        }
        McCheckpoint {
            version: MC_CKPT_VERSION,
            fingerprint: self.fingerprint(),
            horizon: self.horizon,
            cursors: self.cores.iter().map(|c| c.cursor()).collect(),
            payload: w.into_bytes(),
        }
    }

    /// Restore to a previously captured checkpoint. The checkpoint must
    /// carry this engine's own fingerprint and a supported version; a
    /// payload whose restored per-core cursors disagree with the recorded
    /// ones is rejected too. On error the engine must be discarded.
    pub fn restore(&mut self, ckpt: &McCheckpoint) -> io::Result<()> {
        if ckpt.version != MC_CKPT_VERSION {
            return Err(snap_err(format!(
                "mc checkpoint version {} unsupported (engine speaks {MC_CKPT_VERSION})",
                ckpt.version
            )));
        }
        let own = self.fingerprint();
        if ckpt.fingerprint != own {
            return Err(snap_err(format!(
                "mc checkpoint fingerprint {:#018x} does not match engine {own:#018x}",
                ckpt.fingerprint
            )));
        }
        if ckpt.cursors.len() != self.cores.len() {
            return Err(snap_err(format!(
                "mc checkpoint has {} cores, engine has {}",
                ckpt.cursors.len(),
                self.cores.len()
            )));
        }
        let mut r = SnapReader::new(&ckpt.payload);
        self.shared_mut().restore(&mut r)?;
        for core in &mut self.cores {
            core.restore(&mut r)?;
        }
        r.expect_end()?;
        for (core, &cursor) in self.cores.iter().zip(&ckpt.cursors) {
            if core.cursor() != cursor {
                return Err(snap_err(format!(
                    "mc checkpoint cursor {} disagrees with restored count {}",
                    cursor,
                    core.cursor()
                )));
            }
        }
        self.horizon = ckpt.horizon;
        Ok(())
    }

    /// Fork: a new engine at exactly this warm state, free to run ahead
    /// independently. Goes through checkpoint/restore, so every fork is a
    /// standing round-trip test.
    pub fn fork(&self) -> McEngine {
        let specs = self
            .cores
            .iter()
            .map(|c| (c.replay.clone(), c.kind.clone()))
            .collect();
        let mut e = McEngine::new(specs, &self.config, &self.mc);
        e.restore(&self.checkpoint())
            .expect("a fresh mc engine restores its own checkpoint");
        e
    }

    /// Finish the run: per-core end-of-run accounting (exactly as a
    /// single-core [`crate::Engine::finish`] would produce), plus the
    /// shared level's aggregate counters.
    pub fn finish(self) -> (Vec<RunResult>, SharedL2Stats) {
        let shared = *self.shared().stats();
        let results = self
            .cores
            .into_iter()
            .map(|c| collect_result(c.replay.name(), c.kind.label(), c.cpu))
            .collect();
        (results, shared)
    }
}

impl std::fmt::Debug for McEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McEngine")
            .field("cores", &self.cores)
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

    #[test]
    fn foreign_mc_checkpoints_are_rejected() {
        let mut a = McEngine::new(
            vec![(replay_of("list", 30_000), PrefetcherKind::Stride)],
            &cfg(),
            &McConfig::default(),
        );
        a.step_quantum();
        let ckpt = a.checkpoint();

        // Different core count.
        let mut b = McEngine::new(
            vec![
                (replay_of("list", 30_000), PrefetcherKind::Stride),
                (replay_of("array", 30_000), PrefetcherKind::Stride),
            ],
            &cfg(),
            &McConfig::default(),
        );
        assert!(b.restore(&ckpt).is_err());

        // Different quantum.
        let mut c = McEngine::new(
            vec![(replay_of("list", 30_000), PrefetcherKind::Stride)],
            &cfg(),
            &McConfig {
                quantum: 999,
                ..McConfig::default()
            },
        );
        assert!(c.restore(&ckpt).is_err());

        // Bad version.
        let mut bad = ckpt.clone();
        bad.version = 9;
        let mut d = McEngine::new(
            vec![(replay_of("list", 30_000), PrefetcherKind::Stride)],
            &cfg(),
            &McConfig::default(),
        );
        assert!(d.restore(&bad).is_err());
    }

    #[test]
    fn mc_checkpoint_bytes_roundtrip_and_reject_corruption() {
        let mut e = McEngine::new(
            vec![(replay_of("mcf", 30_000), PrefetcherKind::context())],
            &cfg(),
            &McConfig::default(),
        );
        for _ in 0..3 {
            e.step_quantum();
        }
        let ckpt = e.checkpoint();
        let bytes = ckpt.to_bytes();
        assert_eq!(McCheckpoint::from_bytes(&bytes).expect("clean bytes"), ckpt);
        assert!(McCheckpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(McCheckpoint::from_bytes(&extra).is_err());
        for at in [0, bytes.len() / 2] {
            let mut flipped = bytes.clone();
            flipped[at] ^= 0x10;
            assert!(
                McCheckpoint::from_bytes(&flipped).is_err(),
                "flip at byte {at} of {} accepted",
                bytes.len()
            );
        }
    }
}
