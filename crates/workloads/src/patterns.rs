//! Reusable access-pattern building blocks shared by the kernels.
//!
//! These execute *real* traversals over simulated structures: a
//! [`LinkedChain`] owns actual node addresses from the session heap; its
//! traversal emits the same dependent-load chains, payload touches, filler
//! work and loop branches a compiled traversal would.

use rand::seq::SliceRandom;

use semloc_trace::{Addr, SemanticHints};

use crate::object::Session;

/// Register conventions used by the pattern helpers.
pub mod regs {
    use semloc_trace::Reg;
    /// Current node / pointer register.
    pub const PTR: Reg = Reg(1);
    /// Loaded payload value.
    pub const VAL: Reg = Reg(2);
    /// Induction/index register.
    pub const IDX: Reg = Reg(3);
    /// Secondary data register.
    pub const TMP: Reg = Reg(4);
    /// Search key register.
    pub const KEY: Reg = Reg(5);
}

/// Code sites for one traversal loop.
#[derive(Clone, Copy, Debug)]
pub struct LoopSites {
    /// Site of the link-following (hinted) load.
    pub link: Addr,
    /// Site of the payload load.
    pub payload: Addr,
    /// Site of the filler ALU work.
    pub work: Addr,
    /// Site of the loop branch.
    pub branch: Addr,
}

impl LoopSites {
    /// Allocate a fresh set of loop sites from the session's PC allocator.
    pub fn alloc(s: &mut Session<'_>) -> Self {
        LoopSites {
            link: s.pcs.sites(2),
            payload: s.pcs.site(),
            work: s.pcs.site(),
            branch: s.pcs.site(),
        }
    }
}

/// A linked chain of heap objects in a fixed traversal order.
///
/// Offset 0 of each node holds the `next` pointer; offset 8 holds the
/// payload.
#[derive(Clone, Debug)]
pub struct LinkedChain {
    /// Node addresses in traversal order.
    pub nodes: Vec<Addr>,
    /// Object type id used for semantic hints.
    pub type_id: u16,
}

/// Offset of the `next` link within a chain node.
pub const NEXT_OFFSET: u16 = 0;
/// Offset of the payload within a chain node.
pub const PAYLOAD_OFFSET: u64 = 8;

impl LinkedChain {
    /// Allocate `n` nodes of `node_size` bytes; traversal order equals
    /// allocation order (spatial order is the placement policy's business).
    pub fn build(s: &mut Session<'_>, n: usize, node_size: u64, type_id: u16) -> Self {
        assert!(n >= 2 && node_size >= 16);
        let nodes = (0..n).map(|_| s.heap.alloc(node_size)).collect();
        LinkedChain { nodes, type_id }
    }

    /// Like [`LinkedChain::build`], but the traversal order is a random
    /// permutation of the allocation order — semantic order fully decoupled
    /// from spatial order (the Fig 1 regime).
    pub fn build_shuffled(s: &mut Session<'_>, n: usize, node_size: u64, type_id: u16) -> Self {
        let mut chain = Self::build(s, n, node_size, type_id);
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut s.rng);
        chain.nodes = order.into_iter().map(|i| chain.nodes[i]).collect();
        chain
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// One full traversal lap: per node, the hinted `next` load (dependent
    /// on the current pointer), a payload load, `work` filler ALU ops and
    /// the loop branch. Stops early when the sink is done.
    pub fn traverse(&self, s: &mut Session<'_>, sites: LoopSites, work: u32) {
        let hints = SemanticHints::link(self.type_id, NEXT_OFFSET);
        for i in 0..self.nodes.len() {
            if s.done() {
                return;
            }
            let node = self.nodes[i];
            let next = self.nodes[(i + 1) % self.nodes.len()];
            s.hinted_load(
                sites.link,
                node + NEXT_OFFSET as u64,
                regs::PTR,
                Some(regs::PTR),
                hints,
                next,
            );
            s.em.load(
                sites.payload,
                node + PAYLOAD_OFFSET,
                regs::VAL,
                Some(regs::PTR),
                None,
                node ^ 0x5a,
            );
            s.em.work(sites.work, work);
            s.em.branch(
                sites.branch,
                i + 1 != self.nodes.len(),
                sites.link,
                Some(regs::VAL),
            );
        }
    }
}

/// One sequential/strided scan over an array of `elems` elements of
/// `elem_size` bytes at `base`: indexed loads with `Index` hints, `work`
/// filler ops per element.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent dimension of the scan, shared by every caller"
)]
pub fn stream(
    s: &mut Session<'_>,
    sites: LoopSites,
    base: Addr,
    elems: u64,
    elem_size: u64,
    stride: u64,
    type_id: u16,
    work: u32,
) {
    let hints = SemanticHints::indexed(type_id);
    let mut i = 0u64;
    while i < elems {
        if s.done() {
            return;
        }
        let addr = base + i * elem_size;
        s.em.alu(sites.work, Some(regs::IDX), Some(regs::IDX), None, i);
        s.hinted_load(
            sites.link,
            addr,
            regs::VAL,
            Some(regs::IDX),
            hints,
            addr ^ 1,
        );
        s.em.work(sites.work, work);
        s.em.branch(
            sites.branch,
            i + stride < elems,
            sites.link,
            Some(regs::IDX),
        );
        i += stride;
    }
}

/// An indexed gather `data[idx]` for each index produced by `indices`:
/// loads the index from an index array, then the dependent data element.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is one independent dimension of the gather, shared by every caller"
)]
pub fn gather(
    s: &mut Session<'_>,
    sites: LoopSites,
    index_base: Addr,
    data_base: Addr,
    elem_size: u64,
    indices: &[u64],
    type_id: u16,
    work: u32,
) {
    let hints = SemanticHints::indexed(type_id);
    for (i, &idx) in indices.iter().enumerate() {
        if s.done() {
            return;
        }
        s.em.load(
            sites.payload,
            index_base + (i as u64) * 8,
            regs::IDX,
            None,
            None,
            idx,
        );
        s.hinted_load(
            sites.link,
            data_base + idx * elem_size,
            regs::VAL,
            Some(regs::IDX),
            hints,
            idx,
        );
        s.em.work(sites.work, work);
        s.em.branch(
            sites.branch,
            i + 1 != indices.len(),
            sites.link,
            Some(regs::VAL),
        );
    }
}

/// A five-point 2-D stencil sweep over a `rows`×`cols` grid of 8-byte
/// cells — the regular, bandwidth-bound pattern of lattice codes.
pub fn stencil5(
    s: &mut Session<'_>,
    sites: LoopSites,
    base: Addr,
    rows: u64,
    cols: u64,
    work: u32,
) {
    // No semantic hints here: §6 injects hints only for loads that produce
    // pointer values, and a stencil reads plain array data. The prefetcher
    // must handle it from hardware attributes alone.
    for r in 1..rows.saturating_sub(1) {
        for c in 1..cols.saturating_sub(1) {
            if s.done() {
                return;
            }
            let at = |rr: u64, cc: u64| base + (rr * cols + cc) * 8;
            s.em.load(sites.link, at(r, c), regs::VAL, Some(regs::IDX), None, 0);
            s.em.load(
                sites.payload,
                at(r - 1, c),
                regs::TMP,
                Some(regs::IDX),
                None,
                0,
            );
            s.em.load(
                sites.payload,
                at(r + 1, c),
                regs::TMP,
                Some(regs::IDX),
                None,
                0,
            );
            s.em.load(
                sites.payload,
                at(r, c - 1),
                regs::TMP,
                Some(regs::IDX),
                None,
                0,
            );
            s.em.load(
                sites.payload,
                at(r, c + 1),
                regs::TMP,
                Some(regs::IDX),
                None,
                0,
            );
            s.em.work(sites.work, work);
            s.em.store(sites.branch, at(r, c), Some(regs::IDX), Some(regs::VAL));
            s.em.branch(sites.branch, c + 2 < cols, sites.link, Some(regs::VAL));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::{InstrKind, Placement, RecordingSink};

    fn with_session<R>(f: impl FnOnce(&mut Session<'_>) -> R) -> (R, Vec<semloc_trace::Instr>) {
        let mut sink = RecordingSink::new();
        let r = {
            let mut s = Session::new(&mut sink, 0, Placement::Scatter, 7);
            f(&mut s)
        };
        (r, sink.into_instrs())
    }

    #[test]
    fn chain_traversal_chases_pointers_dependently() {
        let (chain, instrs) = with_session(|s| {
            let chain = LinkedChain::build_shuffled(s, 16, 32, 3);
            let sites = LoopSites::alloc(s);
            chain.traverse(s, sites, 2);
            chain
        });
        let loads: Vec<_> = instrs
            .iter()
            .filter_map(|i| match i.kind {
                InstrKind::Load {
                    addr,
                    hints: Some(_),
                    ..
                } => Some((addr, i.result)),
                _ => None,
            })
            .collect();
        assert_eq!(loads.len(), 16);
        // Each hinted link load's result is the next node visited.
        for w in loads.windows(2) {
            assert_eq!(w[0].1, w[1].0, "link value must be the next node address");
        }
        // And the traversal covers every node exactly once per lap.
        let visited: std::collections::BTreeSet<u64> = loads.iter().map(|&(a, _)| a).collect();
        assert_eq!(visited.len(), chain.len());
    }

    #[test]
    fn shuffled_chain_has_low_spatial_order() {
        let (chain, _) = with_session(|s| LinkedChain::build_shuffled(s, 256, 32, 3));
        let ordered = chain
            .nodes
            .windows(2)
            .filter(|w| w[1] > w[0] && w[1] - w[0] <= 64)
            .count();
        assert!(ordered < 64, "{ordered} of 255 steps are near-sequential");
    }

    #[test]
    fn stream_touches_every_strided_element() {
        let (_, instrs) = with_session(|s| {
            let base = s.heap.alloc_array(8, 64);
            let sites = LoopSites::alloc(s);
            stream(s, sites, base, 64, 8, 2, 1, 1);
        });
        let hinted = instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Load { hints: Some(_), .. }))
            .count();
        assert_eq!(hinted, 32);
    }

    #[test]
    fn gather_loads_index_then_data() {
        let (_, instrs) = with_session(|s| {
            let idx = s.heap.alloc_array(8, 8);
            let data = s.heap.alloc_array(8, 100);
            let sites = LoopSites::alloc(s);
            gather(s, sites, idx, data, 8, &[5, 99, 0, 42], 2, 0);
        });
        let loads = instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Load { .. }))
            .count();
        assert_eq!(loads, 8, "one index load + one data load per element");
    }

    #[test]
    fn stencil_emits_five_loads_per_cell() {
        let (_, instrs) = with_session(|s| {
            let base = s.heap.alloc_array(8, 16 * 16);
            let sites = LoopSites::alloc(s);
            stencil5(s, sites, base, 4, 4, 0);
        });
        let loads = instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Load { .. }))
            .count();
        let stores = instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Store { .. }))
            .count();
        let nops = instrs
            .iter()
            .filter(|i| matches!(i.kind, InstrKind::Nop))
            .count();
        assert_eq!(loads, 4 * 5, "4 interior cells x 5 loads");
        assert_eq!(stores, 4);
        assert_eq!(nops, 0, "array stencils carry no hint NOPs (§6)");
    }

    #[test]
    fn traversal_respects_sink_budget() {
        let mut sink = RecordingSink::with_limit(40);
        {
            let mut s = Session::new(&mut sink, 0, Placement::Bump, 1);
            let chain = LinkedChain::build(&mut s, 1000, 32, 1);
            let sites = LoopSites::alloc(&mut s);
            chain.traverse(&mut s, sites, 1);
        }
        assert!(sink.instrs().len() <= 46, "stops promptly after the budget");
    }
}
