//! Workload composer: multi-phase schedules stitched from captured traces.
//!
//! A [`ComposedKernel`] replays a sequence of [`Phase`]s — each an exact
//! instruction count taken from the front of an already-captured kernel
//! stream — so a single core can switch workloads mid-run (mcf→lbm→hash)
//! without ever re-running a generator. Because every phase replays a
//! prefix of its source capture, the composed stream inherits the
//! record-once/replay-many prefix property: a composed capture at budget B
//! serves every budget ≤ B, and the same schedule is bit-identical no
//! matter which sink drives it.
//!
//! The seeded [`Composer`] draws schedules from a menu of captures; the
//! multi-core engine assigns one schedule per core (phase changes,
//! co-running antagonists) and the adversarial search mutates composer
//! parameters between forks.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use semloc_trace::TraceSink;

use crate::replay::{replay_prefix, CapturedTrace};
use crate::{Kernel, Suite};

/// One schedule phase: exactly `instrs` instructions replayed from the
/// front of `source`.
#[derive(Clone)]
pub struct Phase {
    /// The captured stream this phase replays a prefix of.
    pub source: Arc<CapturedTrace>,
    /// Exact number of instructions this phase contributes.
    pub instrs: u64,
}

impl Phase {
    /// A phase replaying the first `instrs` instructions of `source`.
    /// Panics if the capture is shorter than the requested phase.
    pub fn new(source: Arc<CapturedTrace>, instrs: u64) -> Self {
        assert!(
            source.lanes.len() as u64 >= instrs,
            "phase wants {} instrs but capture '{}' holds only {}",
            instrs,
            source.name,
            source.lanes.len()
        );
        Phase { source, instrs }
    }
}

impl std::fmt::Debug for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.source.name, self.instrs)
    }
}

/// A schedule of phases replayed back to back as one kernel.
#[derive(Clone)]
pub struct ComposedKernel {
    name: &'static str,
    phases: Vec<Phase>,
}

impl ComposedKernel {
    /// Build a schedule from explicit phases.
    pub fn new(name: &'static str, phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "a schedule needs at least one phase");
        ComposedKernel { name, phases }
    }

    /// The phases of this schedule.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total instructions across all phases.
    pub fn total_instrs(&self) -> u64 {
        self.phases.iter().map(|p| p.instrs).sum()
    }
}

impl std::fmt::Debug for ComposedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ComposedKernel[{}]{:?}", self.name, self.phases)
    }
}

impl Kernel for ComposedKernel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn suite(&self) -> Suite {
        Suite::Micro
    }

    fn run(&self, sink: &mut dyn TraceSink) {
        for phase in &self.phases {
            replay_prefix(&phase.source.lanes, phase.instrs as usize, sink);
        }
    }

    /// Identifies the schedule by every phase's *source key* (the source
    /// kernel's full configuration) and exact length, so two schedules
    /// collide only when they produce the same stream.
    fn trace_key(&self) -> String {
        let mut key = String::from("compose(");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                key.push('|');
            }
            key.push_str(&p.source.key);
            key.push('#');
            key.push_str(&p.instrs.to_string());
        }
        key.push(')');
        key
    }
}

/// Seeded schedule builder over a menu of captured traces.
pub struct Composer {
    rng: StdRng,
}

impl Composer {
    /// A composer whose draws are a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Composer {
            rng: StdRng::seed_from_u64(seed ^ 0xc0_3e_05_ed),
        }
    }

    /// A phase-shift schedule: `phases` draws from `menu`, each phase
    /// `min_instrs..=max_instrs` long (clamped to the source capture), with
    /// consecutive phases forced to differ when the menu allows it.
    pub fn phase_shift(
        &mut self,
        name: &'static str,
        menu: &[Arc<CapturedTrace>],
        phases: usize,
        min_instrs: u64,
        max_instrs: u64,
    ) -> ComposedKernel {
        assert!(!menu.is_empty() && phases > 0 && min_instrs <= max_instrs);
        let mut out = Vec::with_capacity(phases);
        let mut last = usize::MAX;
        for _ in 0..phases {
            let mut pick = self.rng.random_range(0..menu.len());
            if menu.len() > 1 && pick == last {
                pick = (pick + 1) % menu.len();
            }
            last = pick;
            let len = if min_instrs == max_instrs {
                min_instrs
            } else {
                self.rng.random_range(min_instrs..max_instrs + 1)
            };
            out.push(Phase::new(
                menu[pick].clone(),
                len.min(menu[pick].lanes.len() as u64),
            ));
        }
        ComposedKernel::new(name, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel_by_name;
    use crate::replay::capture_kernel;
    use semloc_trace::RecordingSink;

    fn menu() -> Vec<Arc<CapturedTrace>> {
        ["list", "array", "mcf"]
            .iter()
            .map(|n| {
                let k = kernel_by_name(n).expect("registry kernel");
                Arc::new(capture_kernel(k.as_ref(), 20_000))
            })
            .collect()
    }

    #[test]
    fn phase_boundaries_are_exact() {
        let m = menu();
        let k = ComposedKernel::new(
            "t",
            vec![
                Phase::new(m[0].clone(), 1_000),
                Phase::new(m[1].clone(), 2_500),
                Phase::new(m[2].clone(), 1_234),
            ],
        );
        assert_eq!(k.total_instrs(), 4_734);
        let mut sink = RecordingSink::new();
        k.run(&mut sink);
        let instrs = sink.instrs();
        assert_eq!(instrs.len(), 4_734);
        // The first instruction of each phase matches its source's first.
        assert_eq!(instrs[0], m[0].lanes.instr(0));
        assert_eq!(instrs[1_000], m[1].lanes.instr(0));
        assert_eq!(instrs[3_500], m[2].lanes.instr(0));
    }

    #[test]
    fn composer_is_deterministic_under_seed() {
        let m = menu();
        let a = Composer::new(9).phase_shift("t", &m, 5, 500, 3_000);
        let b = Composer::new(9).phase_shift("t", &m, 5, 500, 3_000);
        assert_eq!(a.trace_key(), b.trace_key());
        let c = Composer::new(10).phase_shift("t", &m, 5, 500, 3_000);
        assert_ne!(a.trace_key(), c.trace_key());
    }

    #[test]
    fn trace_key_reflects_every_phase() {
        let m = menu();
        let a = ComposedKernel::new("t", vec![Phase::new(m[0].clone(), 100)]);
        let b = ComposedKernel::new("t", vec![Phase::new(m[0].clone(), 101)]);
        assert_ne!(a.trace_key(), b.trace_key());
    }

    #[test]
    #[should_panic(expected = "phase wants")]
    fn phase_longer_than_capture_is_rejected() {
        let m = menu();
        let _ = Phase::new(m[0].clone(), 1_000_000);
    }
}
