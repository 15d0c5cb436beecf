//! HPCS SSCA2 v2.2 kernel 4 — betweenness centrality — in the two layouts
//! the paper evaluates ("CSR / List (array)", Table 3; Fig 14a).
//!
//! The kernel runs repeated single-source shortest-path (BFS) passes and a
//! backward dependency-accumulation sweep, the structure of the
//! Brandes-style betweenness computation SSCA2 uses.
//!
//! Layouts: **CSR** packs edge targets as a bare `u64` array indexed by a
//! vertex-offset array; **List (array)** stores fat 32-byte edge *records*
//! (src, dst, weight, flags) in an array-of-structs edge list with a
//! per-vertex header — the naive representation SSCA2's spec describes,
//! with 4x the footprint and an extra header indirection per vertex.

use rand::RngExt;

use semloc_trace::{Addr, Placement, SemanticHints, TraceSink};

use crate::graph500::Layout;
use crate::object::Session;
use crate::patterns::regs;
use crate::{Kernel, Suite};

const T_XADJ: u16 = 30;
const T_ADJ: u16 = 31;
const T_EDGE: u16 = 33;

/// SSCA2 betweenness-centrality kernel.
#[derive(Clone, Debug)]
pub struct Ssca2 {
    /// Data layout (CSR or pointer-linked).
    pub layout: Layout,
    /// Number of vertices.
    pub vertices: usize,
    /// Average degree.
    pub degree: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Ssca2 {
    /// The CSR variant at default scale.
    pub fn csr() -> Self {
        Ssca2 {
            layout: Layout::Csr,
            vertices: 512,
            degree: 6,
            seed: 81,
        }
    }

    /// The linked variant at default scale.
    pub fn linked() -> Self {
        Ssca2 {
            layout: Layout::Linked,
            vertices: 512,
            degree: 6,
            seed: 81,
        }
    }
}

struct Arrays {
    sigma: Addr,
    delta: Addr,
    depth: Addr,
}

impl Kernel for Ssca2 {
    fn name(&self) -> &'static str {
        match self.layout {
            Layout::Csr => "ssca2",
            Layout::Linked => "ssca2-list",
        }
    }

    fn suite(&self) -> Suite {
        Suite::Hpcs
    }

    fn run(&self, sink: &mut dyn TraceSink) {
        let placement = Placement::Bump;
        let region = match self.layout {
            Layout::Csr => 21,
            Layout::Linked => 23,
        };
        let mut s = Session::new(sink, region, placement, self.seed);
        let n = self.vertices;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (v, list) in adj.iter_mut().enumerate() {
            list.push((v + 1) % n);
            for _ in 1..self.degree {
                list.push(s.rng.random_range(0..n));
            }
        }

        // Edge storage per layout.
        #[expect(
            clippy::type_complexity,
            reason = "one layout-dependent tuple, destructured on the spot"
        )]
        let (csr, linked): (Option<(Addr, Addr, Vec<u64>)>, Option<Vec<Vec<Addr>>>) =
            match self.layout {
                Layout::Csr => {
                    let mut offsets = vec![0u64; n + 1];
                    let mut targets = Vec::new();
                    for (v, list) in adj.iter().enumerate() {
                        offsets[v] = targets.len() as u64;
                        targets.extend(list.iter().map(|&w| w as u64));
                    }
                    offsets[n] = targets.len() as u64;
                    let xadj = s.heap.alloc_array(8, (n + 1) as u64);
                    let adjncy = s.heap.alloc_array(8, targets.len() as u64);
                    (Some((xadj, adjncy, offsets)), None)
                }
                Layout::Linked => {
                    // Array-of-structs edge list: one contiguous array of
                    // 32-byte edge records grouped by source vertex, plus a
                    // header array of (start, count) per vertex.
                    let total: usize = adj.iter().map(|l| l.len()).sum();
                    let records = s.heap.alloc_array(32, total as u64);
                    let headers = s.heap.alloc_array(16, n as u64);
                    let mut starts = vec![0u64; n];
                    let mut acc = 0u64;
                    for (v, l) in adj.iter().enumerate() {
                        starts[v] = acc;
                        acc += l.len() as u64;
                    }
                    let e = adj
                        .iter()
                        .enumerate()
                        .map(|(v, l)| {
                            (0..l.len())
                                .map(|k| records + (starts[v] + k as u64) * 32)
                                .collect()
                        })
                        .collect();
                    let _ = headers;
                    (None, Some(e))
                }
            };
        let arrays = Arrays {
            sigma: s.heap.alloc_array(8, n as u64),
            delta: s.heap.alloc_array(8, n as u64),
            depth: s.heap.alloc_array(8, n as u64),
        };

        let site_x = s.pcs.sites(2);
        let site_a = s.pcs.sites(2);
        let site_e = s.pcs.sites(2);
        let site_sig = s.pcs.site();
        let site_sigw = s.pcs.site();
        let site_del = s.pcs.site();
        let site_delw = s.pcs.site();
        let site_br = s.pcs.site();
        let xh = SemanticHints::indexed(T_XADJ);
        let ah = SemanticHints::indexed(T_ADJ);
        let eh = SemanticHints::link(T_EDGE, 0);

        // Rotate over a small root set so traversals recur within the
        // scaled-down phase (the paper's phases are 100x longer).
        let roots = [0usize, n / 2];
        let mut iter = 0usize;
        while !s.done() {
            let root = roots[iter % roots.len()];
            iter += 1;
            // Forward BFS accumulating path counts (sigma).
            let mut depth = vec![usize::MAX; n];
            let mut order = Vec::with_capacity(n);
            depth[root] = 0;
            let mut frontier = std::collections::VecDeque::from([root]);
            while let Some(v) = frontier.pop_front() {
                if s.done() {
                    return;
                }
                order.push(v);
                // Enumerate v's edges in the layout under test.
                for (k, &w) in adj[v].iter().enumerate() {
                    if s.done() {
                        return;
                    }
                    match self.layout {
                        Layout::Csr => {
                            let (xadj, adjncy, ref offsets) = *csr.as_ref().expect("csr storage");
                            let e = offsets[v] + k as u64;
                            if k == 0 {
                                s.hinted_load(
                                    site_x,
                                    xadj + (v as u64) * 8,
                                    regs::IDX,
                                    Some(regs::PTR),
                                    xh,
                                    e,
                                );
                            }
                            s.hinted_load(
                                site_a,
                                adjncy + e * 8,
                                regs::PTR,
                                Some(regs::IDX),
                                ah,
                                w as u64,
                            );
                        }
                        Layout::Linked => {
                            let ea = linked.as_ref().expect("linked storage")[v][k];
                            s.hinted_load(site_e, ea, regs::PTR, Some(regs::PTR), eh, w as u64);
                        }
                    }
                    // sigma[w] += sigma[v]; depth bookkeeping.
                    s.em.load(
                        site_sig,
                        arrays.sigma + (w as u64) * 8,
                        regs::VAL,
                        Some(regs::PTR),
                        None,
                        1,
                    );
                    s.em.store(
                        site_sigw,
                        arrays.sigma + (w as u64) * 8,
                        Some(regs::PTR),
                        Some(regs::VAL),
                    );
                    s.em.branch(site_br, depth[w] == usize::MAX, site_a, Some(regs::VAL));
                    if depth[w] == usize::MAX {
                        depth[w] = depth[v] + 1;
                        s.em.store(
                            site_delw,
                            arrays.depth + (w as u64) * 8,
                            Some(regs::PTR),
                            Some(regs::VAL),
                        );
                        frontier.push_back(w);
                    }
                }
            }
            // Backward dependency accumulation over the BFS order.
            for &v in order.iter().rev() {
                if s.done() {
                    return;
                }
                s.em.load(
                    site_del,
                    arrays.delta + (v as u64) * 8,
                    regs::TMP,
                    Some(regs::PTR),
                    None,
                    0,
                );
                s.em.alu_long(site_del, 4, Some(regs::TMP), Some(regs::TMP)); // fp accumulate
                s.em.store(
                    site_delw,
                    arrays.delta + (v as u64) * 8,
                    Some(regs::PTR),
                    Some(regs::TMP),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_trace::CountingSink;

    #[test]
    fn both_layouts_run_to_budget() {
        for k in [Ssca2::csr(), Ssca2::linked()] {
            let mut sink = CountingSink::with_limit(60_000);
            k.run(&mut sink);
            assert!(sink.total >= 60_000, "{} stalled", k.name());
            assert!(sink.stores > 0);
        }
    }

    #[test]
    fn names_differ_per_layout() {
        assert_eq!(Ssca2::csr().name(), "ssca2");
        assert_eq!(Ssca2::linked().name(), "ssca2-list");
    }
}
