//! Adversarial kernel families for the interference-mode search driver.
//!
//! Each family is a parameterized generator engineered to attack a specific
//! assumption of the learned context prefetcher while staying easy for at
//! least one table baseline (GHB/SMS), so the *gap* — baseline accuracy
//! minus learned accuracy — is the search driver's hill-climbing score:
//!
//! * [`RewardStraddle`] — a strided scan whose per-element filler work
//!   alternates between a hot and a cold amount with a fixed period, moving
//!   the prefetch-to-use distance back and forth across the paper's 18–50
//!   cycle bell-reward window, so the bandit's feedback keeps flipping sign
//!   on an otherwise perfectly stride-predictable stream.
//! * [`AliasChains`] — several shuffled linked chains sharing one code site
//!   and one object type, traversed round-robin: consecutive accesses at
//!   the same PC with the same hints belong to *different* chains, aliasing
//!   the learner's context while each chain alone is a clean recurrence.
//! * [`PhaseFlip`] — a strided scan that flips its stride every
//!   `flip_every` elements, re-paying the learner's training latency at
//!   each flip while delta-correlating baselines re-lock within a few
//!   accesses.
//!
//! These live outside [`crate::all_kernels`] (whose counts are pinned by
//! registry tests); [`adversarial_kernels`] is their own registry, and the
//! concrete parameter points found by the search driver are pinned as
//! regression kernels in the harness test-suite.

use semloc_trace::{Placement, TraceSink};

use crate::object::Session;
use crate::patterns::{self, LinkedChain, LoopSites, NEXT_OFFSET, PAYLOAD_OFFSET};
use crate::{Kernel, KernelBox, Suite};

/// Object-type id shared by the adversarial kernels' hinted loads.
const ADV_TYPE: u16 = 9;

/// Strided scan whose filler work straddles the bell-reward window.
#[derive(Clone, Debug)]
pub struct RewardStraddle {
    /// Number of 8-byte elements scanned per lap.
    pub elems: u64,
    /// Element stride of the scan.
    pub stride: u64,
    /// Elements per hot/cold half-period.
    pub period: u64,
    /// Filler ALU ops per element in the hot half (short use distance).
    pub hot_work: u32,
    /// Filler ALU ops per element in the cold half (long use distance).
    pub cold_work: u32,
    /// RNG seed (heap layout).
    pub seed: u64,
}

impl Default for RewardStraddle {
    fn default() -> Self {
        RewardStraddle {
            elems: 16 * 1024,
            stride: 2,
            period: 6,
            hot_work: 1,
            cold_work: 24,
            seed: 21,
        }
    }
}

impl Kernel for RewardStraddle {
    fn name(&self) -> &'static str {
        "adv-straddle"
    }

    fn suite(&self) -> Suite {
        Suite::Micro
    }

    fn run(&self, sink: &mut dyn TraceSink) {
        let mut s = Session::new(sink, 60, Placement::Bump, self.seed);
        let base = s.heap.alloc_array(8, self.elems);
        let sites = LoopSites::alloc(&mut s);
        let period = self.period.max(1);
        while !s.done() {
            let mut i = 0u64;
            let mut phase = 0u64;
            while i < self.elems {
                if s.done() {
                    return;
                }
                let work = if (phase / period).is_multiple_of(2) {
                    self.hot_work
                } else {
                    self.cold_work
                };
                let addr = base + i * 8;
                s.em.alu(
                    sites.work,
                    Some(patterns::regs::IDX),
                    Some(patterns::regs::IDX),
                    None,
                    i,
                );
                s.em.load(
                    sites.link,
                    addr,
                    patterns::regs::VAL,
                    Some(patterns::regs::IDX),
                    None,
                    addr ^ 1,
                );
                s.em.work(sites.work, work);
                s.em.branch(
                    sites.branch,
                    i + self.stride < self.elems,
                    sites.link,
                    Some(patterns::regs::IDX),
                );
                i += self.stride;
                phase += 1;
            }
        }
    }
}

/// Several shuffled chains aliasing one code site and object type.
#[derive(Clone, Debug)]
pub struct AliasChains {
    /// Number of co-traversed chains.
    pub chains: usize,
    /// Nodes per chain.
    pub nodes: usize,
    /// Node size in bytes.
    pub node_size: u64,
    /// Filler ALU ops per node.
    pub work: u32,
    /// RNG seed (chain shuffles).
    pub seed: u64,
}

impl Default for AliasChains {
    fn default() -> Self {
        AliasChains {
            chains: 4,
            nodes: 512,
            node_size: 64,
            work: 2,
            seed: 22,
        }
    }
}

impl Kernel for AliasChains {
    fn name(&self) -> &'static str {
        "adv-alias"
    }

    fn suite(&self) -> Suite {
        Suite::Micro
    }

    fn run(&self, sink: &mut dyn TraceSink) {
        let mut s = Session::new(sink, 61, Placement::Scatter, self.seed);
        let chains: Vec<LinkedChain> = (0..self.chains.max(1))
            .map(|_| {
                LinkedChain::build_shuffled(&mut s, self.nodes.max(2), self.node_size, ADV_TYPE)
            })
            .collect();
        // One shared set of code sites: every chain's link load comes from
        // the same PC with the same hints.
        let sites = LoopSites::alloc(&mut s);
        let hints = semloc_trace::SemanticHints::link(ADV_TYPE, NEXT_OFFSET);
        while !s.done() {
            for step in 0..self.nodes.max(2) {
                for chain in &chains {
                    if s.done() {
                        return;
                    }
                    let node = chain.nodes[step];
                    let next = chain.nodes[(step + 1) % chain.nodes.len()];
                    s.hinted_load(
                        sites.link,
                        node + NEXT_OFFSET as u64,
                        patterns::regs::PTR,
                        Some(patterns::regs::PTR),
                        hints,
                        next,
                    );
                    s.em.load(
                        sites.payload,
                        node + PAYLOAD_OFFSET,
                        patterns::regs::VAL,
                        Some(patterns::regs::PTR),
                        None,
                        node ^ 0x5a,
                    );
                    s.em.work(sites.work, self.work);
                    s.em.branch(
                        sites.branch,
                        step + 1 != chain.nodes.len(),
                        sites.link,
                        Some(patterns::regs::VAL),
                    );
                }
            }
        }
    }
}

/// Strided scan that flips between two strides every `flip_every` elements.
#[derive(Clone, Debug)]
pub struct PhaseFlip {
    /// Number of 8-byte elements in the scanned array.
    pub elems: u64,
    /// Stride in the even phases.
    pub stride_a: u64,
    /// Stride in the odd phases.
    pub stride_b: u64,
    /// Elements per phase before the stride flips.
    pub flip_every: u64,
    /// Filler ALU ops per element.
    pub work: u32,
    /// RNG seed (heap layout).
    pub seed: u64,
}

impl Default for PhaseFlip {
    fn default() -> Self {
        PhaseFlip {
            elems: 32 * 1024,
            stride_a: 1,
            stride_b: 17,
            flip_every: 96,
            work: 2,
            seed: 23,
        }
    }
}

impl Kernel for PhaseFlip {
    fn name(&self) -> &'static str {
        "adv-phaseflip"
    }

    fn suite(&self) -> Suite {
        Suite::Micro
    }

    fn run(&self, sink: &mut dyn TraceSink) {
        let mut s = Session::new(sink, 62, Placement::Bump, self.seed);
        let base = s.heap.alloc_array(8, self.elems);
        let sites = LoopSites::alloc(&mut s);
        let flip_every = self.flip_every.max(1);
        let hints = semloc_trace::SemanticHints::indexed(ADV_TYPE);
        while !s.done() {
            let mut i = 0u64;
            let mut emitted = 0u64;
            while i < self.elems {
                if s.done() {
                    return;
                }
                let stride = if (emitted / flip_every).is_multiple_of(2) {
                    self.stride_a
                } else {
                    self.stride_b
                };
                let addr = base + i * 8;
                s.em.alu(
                    sites.work,
                    Some(patterns::regs::IDX),
                    Some(patterns::regs::IDX),
                    None,
                    i,
                );
                s.hinted_load(
                    sites.link,
                    addr,
                    patterns::regs::VAL,
                    Some(patterns::regs::IDX),
                    hints,
                    addr ^ 1,
                );
                s.em.work(sites.work, self.work);
                s.em.branch(
                    sites.branch,
                    i + stride.max(1) < self.elems,
                    sites.link,
                    Some(patterns::regs::IDX),
                );
                i += stride.max(1);
                emitted += 1;
            }
        }
    }
}

/// The adversarial families at their default parameter points. Kept out of
/// [`crate::all_kernels`] so the pinned Table 3 registry counts stay exact.
pub fn adversarial_kernels() -> Vec<KernelBox> {
    vec![
        Box::new(RewardStraddle::default()),
        Box::new(AliasChains::default()),
        Box::new(PhaseFlip::default()),
    ]
}

/// The collapse point of each family that the seeded adversarial search
/// (`adversarial_search(42, SearchConfig::default(), …)` in the harness)
/// discovers from the defaults: `adv-straddle` at `cold_work: 9`,
/// `adv-alias` at `nodes: 501`, and `adv-phaseflip` at its default point.
/// The regression suite evaluates these, and semloc-bench's `interference`
/// section prints the search that finds them.
pub fn pinned_collapse_points() -> (RewardStraddle, AliasChains, PhaseFlip) {
    (
        RewardStraddle {
            cold_work: 9,
            ..RewardStraddle::default()
        },
        AliasChains {
            nodes: 501,
            ..AliasChains::default()
        },
        PhaseFlip::default(),
    )
}

/// Look up an adversarial family by name (default parameters).
pub fn adversarial_by_name(name: &str) -> Option<KernelBox> {
    adversarial_kernels().into_iter().find(|k| k.name() == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::{CountingSink, InstrKind, RecordingSink};

    #[test]
    fn families_run_to_budget_and_are_memory_heavy() {
        for k in adversarial_kernels() {
            let mut sink = CountingSink::with_limit(30_000);
            k.run(&mut sink);
            assert!(sink.total >= 30_000, "{} stopped early", k.name());
            // adv-straddle's cold half is deliberately work-heavy (that is
            // what pushes the use distance past the reward window), so the
            // floor here is lower than the registry kernels'.
            assert!(sink.mem_fraction() > 0.04, "{} too ALU-bound", k.name());
        }
    }

    #[test]
    fn families_are_deterministic() {
        for k in adversarial_kernels() {
            let run = || {
                let mut sink = RecordingSink::with_limit(10_000);
                k.run(&mut sink);
                sink.into_instrs()
            };
            assert_eq!(run(), run(), "{} not deterministic", k.name());
        }
    }

    #[test]
    fn alias_chains_share_one_link_site() {
        let mut sink = RecordingSink::with_limit(20_000);
        AliasChains::default().run(&mut sink);
        let link_pcs: std::collections::BTreeSet<u64> = sink
            .instrs()
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { hints: Some(_), .. } => Some(i.pc),
                _ => None,
            })
            .collect();
        assert_eq!(link_pcs.len(), 1, "all hinted loads must alias one PC");
    }

    #[test]
    fn phase_flip_changes_stride() {
        let mut sink = RecordingSink::with_limit(4_000);
        PhaseFlip::default().run(&mut sink);
        let addrs: Vec<u64> = sink
            .instrs()
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load { hints: Some(_), .. } => match i.kind {
                    InstrKind::Load { addr, .. } => Some(addr),
                    _ => None,
                },
                _ => None,
            })
            .collect();
        let deltas: std::collections::BTreeSet<i64> = addrs
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        assert!(deltas.len() >= 2, "expected at least two distinct strides");
    }

    #[test]
    fn trace_keys_distinguish_parameter_points() {
        let a = PhaseFlip::default();
        let b = PhaseFlip {
            flip_every: 97,
            ..PhaseFlip::default()
        };
        assert_ne!(a.trace_key(), b.trace_key());
    }
}
