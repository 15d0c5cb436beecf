//! The out-of-order core model.
//!
//! A dependence-graph timing model: every dynamic instruction's dispatch,
//! issue, completion and retirement cycles are computed against front-end
//! bandwidth, register dependencies, structural resources (ROB/IQ/LQ/SQ)
//! and the memory hierarchy. The model is *trace-driven* — workloads push
//! instructions through the [`TraceSink`] interface — and is the component
//! that assembles the per-access [`AccessContext`] consumed by prefetchers.

use std::collections::VecDeque;

use semloc_mem::{Hierarchy, Prefetcher};
use semloc_trace::{
    AccessContext, Addr, Cycle, Instr, InstrKind, Reg, Seq, TraceSink, RECENT_ADDRS,
};

use crate::bpred::Gshare;
use crate::config::CpuConfig;
use crate::stats::CpuStats;

/// A bounded structural resource whose entries free at known cycles.
///
/// The entries that occupy it are those freeing after the last admitted
/// cycle `at`, plus the `fresh` ones occupied at `at` since that admission.
/// `held` keeps them unordered, together with stale entries that freed at
/// or before `at`. Stale entries are swept out only when an admission finds
/// `held` at capacity; below capacity the occupying subset is below capacity
/// too, so admission is a length check.
///
/// This is exact because admission cycles never decrease and no entry frees
/// before the admission ahead of it: `Cpu::step_with` admits at
/// `max(dispatch_cycle, fetch_resume, ROB head)` or later, each of which
/// never decreases, and occupies until `issue` or `ready_at`, both at or
/// after dispatch. So a stale entry frees at or before every later
/// admission, whose sweep drops it. The two `debug_assert!`s check this
/// order.
#[derive(Clone, Debug)]
struct Occupancy {
    held: Vec<Cycle>,
    at: Cycle,
    fresh: usize,
    capacity: usize,
}

impl Occupancy {
    fn new(capacity: usize) -> Self {
        Occupancy {
            // `held.len() <= capacity` between calls: this never reallocates
            // (a clone's copy may, once).
            held: Vec::with_capacity(capacity + 1),
            at: 0,
            fresh: 0,
            capacity,
        }
    }

    /// Earliest cycle ≥ `at` when a slot is free.
    #[expect(clippy::expect_used, reason = "len >= capacity >= 1 was just checked")]
    fn admit(&mut self, mut at: Cycle) -> Cycle {
        debug_assert!(
            at >= self.at,
            "admission at {at} follows one at {}",
            self.at
        );
        if self.held.len() >= self.capacity {
            self.held.retain(|&t| t > at);
            if self.held.len() >= self.capacity {
                at = *self.held.iter().min().expect("non-empty at capacity");
                self.held.retain(|&t| t > at);
            }
        }
        self.at = at;
        self.fresh = 0;
        at
    }

    /// Occupy one slot until `until`.
    fn occupy(&mut self, until: Cycle) {
        debug_assert!(
            until >= self.at,
            "frees at {until}, admitted at {}",
            self.at
        );
        self.fresh += usize::from(until == self.at);
        self.held.push(until);
    }
}

/// The simulated out-of-order core, owning the memory hierarchy.
#[derive(Clone)]
pub struct Cpu<P: Prefetcher> {
    cfg: CpuConfig,
    mem: Hierarchy<P>,
    stats: CpuStats,
    budget: u64,

    // Front end.
    dispatch_cycle: Cycle,
    dispatched_in_cycle: u32,
    fetch_resume: Cycle,
    bpred: Gshare,

    // Back end.
    rob: VecDeque<Cycle>,
    iq: Occupancy,
    lq: Occupancy,
    sq: Occupancy,
    last_retire: Cycle,
    retired_in_cycle: u32,
    last_issue: Cycle,

    // Architectural state feeding the context attributes.
    reg_ready: [Cycle; Reg::COUNT],
    reg_vals: [u64; Reg::COUNT],
    recent_addrs: [Addr; RECENT_ADDRS],
    last_loaded: u64,
    mem_seq: Seq,
}

impl<P: Prefetcher> Cpu<P> {
    /// Build a core with the given configuration and memory hierarchy.
    ///
    /// `budget` caps the number of instructions consumed before
    /// [`TraceSink::done`] reports `true`; `0` means unbounded.
    pub fn new(cfg: CpuConfig, mem: Hierarchy<P>, budget: u64) -> Self {
        cfg.validate();
        Cpu {
            bpred: Gshare::new(cfg.bpred_log2_entries),
            rob: VecDeque::with_capacity(cfg.rob_size),
            iq: Occupancy::new(cfg.iq_size),
            lq: Occupancy::new(cfg.lq_size),
            sq: Occupancy::new(cfg.sq_size),
            cfg,
            mem,
            stats: CpuStats::default(),
            budget,
            dispatch_cycle: 0,
            dispatched_in_cycle: 0,
            fetch_resume: 0,
            last_retire: 0,
            retired_in_cycle: 0,
            last_issue: 0,
            reg_ready: [0; Reg::COUNT],
            reg_vals: [0; Reg::COUNT],
            recent_addrs: [0; RECENT_ADDRS],
            last_loaded: 0,
            mem_seq: 0,
        }
    }

    /// Core statistics so far.
    pub fn stats(&self) -> &CpuStats {
        &self.stats
    }

    /// The memory hierarchy.
    pub fn mem(&self) -> &Hierarchy<P> {
        &self.mem
    }

    /// Mutable access to the memory hierarchy.
    pub fn mem_mut(&mut self) -> &mut Hierarchy<P> {
        &mut self.mem
    }

    /// Number of demand memory accesses observed so far.
    pub fn mem_accesses(&self) -> Seq {
        self.mem_seq
    }

    /// Finish the run (flush end-of-run accounting) and return the final
    /// statistics alongside the hierarchy.
    pub fn finish(mut self) -> (CpuStats, Hierarchy<P>) {
        self.mem.finish();
        (self.stats, self.mem)
    }

    fn src_ready(&self, instr: &Instr) -> Cycle {
        let a = instr.src1.map_or(0, |r| self.reg_ready[r.index()]);
        let b = instr.src2.map_or(0, |r| self.reg_ready[r.index()]);
        a.max(b)
    }

    fn reg_val(&self, r: Option<Reg>) -> u64 {
        r.map_or(0, |r| self.reg_vals[r.index()])
    }

    /// Claim a front-end dispatch slot no earlier than the structural lower
    /// bound `floor`, honouring fetch width and redirect stalls.
    fn dispatch_slot(&mut self, floor: Cycle) -> Cycle {
        let mut d = self.dispatch_cycle.max(self.fetch_resume).max(floor);
        if d > self.dispatch_cycle {
            self.dispatch_cycle = d;
            self.dispatched_in_cycle = 0;
        }
        if self.dispatched_in_cycle >= self.cfg.fetch_width {
            self.dispatch_cycle += 1;
            self.dispatched_in_cycle = 0;
            d = self.dispatch_cycle;
        }
        self.dispatched_in_cycle += 1;
        d
    }

    /// In-order retirement cycle for an instruction completing at `comp`.
    fn retire_slot(&mut self, comp: Cycle) -> Cycle {
        let mut r = comp.max(self.last_retire);
        if r > self.last_retire {
            self.retired_in_cycle = 0;
        } else if self.retired_in_cycle >= self.cfg.retire_width {
            r += 1;
            self.retired_in_cycle = 0;
        }
        self.retired_in_cycle += 1;
        self.last_retire = r;
        r
    }

    fn step(&mut self, instr: Instr) {
        // Route the single-step path through the same body as
        // `step_block`, with the stats briefly moved out so both paths
        // accumulate through the same `&mut CpuStats` and stay
        // bit-identical (CpuStats is a handful of words; the move is
        // register traffic).
        let mut stats = std::mem::take(&mut self.stats);
        self.step_with(instr, &mut stats);
        self.stats = stats;
    }

    /// Step every instruction of a decoded block through the core.
    ///
    /// This is the batched twin of the [`TraceSink`] path: stats
    /// accumulate in a block-local [`CpuStats`] folded back once per
    /// block, and there is no per-instruction budget gate — callers slice
    /// the block so it never crosses the instruction budget (the engine
    /// does this at block granularity). Semantically identical to feeding
    /// the same instructions through [`TraceSink::instr`] one at a time.
    /// The [`Cycle::MAX`] case of [`Cpu::step_block_until`].
    pub fn step_block(&mut self, block: &semloc_trace::InstrBlock<'_>) {
        self.step_block_until(block, Cycle::MAX);
    }

    /// Step the block's instructions in order while the core's clock is
    /// below `horizon`, checked before each instruction; returns how many
    /// were stepped. This is the multi-core engine's quantum gate: a core
    /// runs until its clock reaches the round-robin horizon, which may fall
    /// in the middle of a block.
    pub fn step_block_until(
        &mut self,
        block: &semloc_trace::InstrBlock<'_>,
        horizon: Cycle,
    ) -> usize {
        let mut stats = std::mem::take(&mut self.stats);
        let mut stepped = 0;
        while stepped < block.len() && stats.cycles < horizon {
            self.step_with(block.instr(stepped), &mut stats);
            stepped += 1;
        }
        self.stats = stats;
        stepped
    }

    #[expect(clippy::expect_used, reason = "len >= rob_size >= 1 was just checked")]
    fn step_with(&mut self, instr: Instr, stats: &mut CpuStats) {
        // Structural lower bound: the ROB must have room.
        let mut floor = 0;
        if self.rob.len() >= self.cfg.rob_size {
            floor = self.rob.pop_front().expect("ROB non-empty at capacity");
        }
        let d0 = self.dispatch_cycle.max(self.fetch_resume).max(floor);
        // IQ/LQ/SQ admission can push dispatch later.
        let mut d = self.iq.admit(d0);
        match instr.kind {
            InstrKind::Load { .. } => d = self.lq.admit(d),
            InstrKind::Store { .. } => d = self.sq.admit(d),
            _ => {}
        }
        let dispatch = self.dispatch_slot(d);
        let mut issue = dispatch.max(self.src_ready(&instr));
        if self.cfg.in_order {
            // Scoreboarded in-order issue: no instruction begins execution
            // before its program-order predecessor has begun.
            issue = issue.max(self.last_issue);
        }
        self.last_issue = issue;
        self.iq.occupy(issue);

        let comp = match instr.kind {
            InstrKind::Alu { latency } => issue + latency.max(1) as Cycle,
            InstrKind::Nop => issue,
            InstrKind::Branch { taken, target } => {
                stats.branches += 1;
                let comp = issue + 1;
                if !self.bpred.predict_and_update(instr.pc, taken) {
                    stats.mispredicts += 1;
                    self.fetch_resume = self.fetch_resume.max(comp + self.cfg.mispredict_penalty);
                }
                let _ = target;
                comp
            }
            InstrKind::Load {
                addr,
                size: _,
                hints,
            } => {
                stats.loads += 1;
                let ctx = self.access_context(instr.pc, addr, false, &instr, hints);
                let res = self.mem.demand_access(&ctx, issue);
                self.note_access(addr, instr.result);
                self.lq.occupy(res.ready_at);
                res.ready_at
            }
            InstrKind::Store { addr, size: _ } => {
                stats.stores += 1;
                let ctx = self.access_context(instr.pc, addr, true, &instr, None);
                let res = self.mem.demand_access(&ctx, issue);
                self.note_access(addr, self.last_loaded);
                // The store retires once address+data are known; it drains
                // from the SQ when the cache accepts it.
                self.sq.occupy(res.ready_at);
                issue + 1
            }
        };

        if let Some(dst) = instr.dst {
            self.reg_ready[dst.index()] = comp;
            self.reg_vals[dst.index()] = instr.result;
        }

        let retire = self.retire_slot(comp);
        self.rob.push_back(retire);
        stats.instructions += 1;
        stats.cycles = stats.cycles.max(retire);
    }

    fn access_context(
        &mut self,
        pc: Addr,
        addr: Addr,
        is_write: bool,
        instr: &Instr,
        hints: Option<semloc_trace::SemanticHints>,
    ) -> AccessContext {
        let seq = self.mem_seq;
        self.mem_seq += 1;
        AccessContext {
            seq,
            pc,
            addr,
            is_write,
            branch_history: self.bpred.history(),
            recent_addrs: self.recent_addrs,
            reg1: self.reg_val(instr.src1),
            reg2: self.reg_val(instr.src2),
            last_loaded: self.last_loaded,
            hints,
        }
    }

    fn note_access(&mut self, addr: Addr, loaded: u64) {
        self.recent_addrs.rotate_right(1);
        self.recent_addrs[0] = addr;
        self.last_loaded = loaded;
    }
}

impl<P: Prefetcher> TraceSink for Cpu<P> {
    fn instr(&mut self, instr: Instr) {
        if !self.done() {
            self.step(instr);
        }
    }

    fn done(&self) -> bool {
        self.budget != 0 && self.stats.instructions >= self.budget
    }
}

impl<P: Prefetcher> std::fmt::Debug for Cpu<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cpu")
            .field("stats", &self.stats)
            .field("mem", &self.mem)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semloc_mem::{MemConfig, NoPrefetch};

    fn cpu() -> Cpu<NoPrefetch> {
        Cpu::new(
            CpuConfig::default(),
            Hierarchy::new(MemConfig::default(), NoPrefetch),
            0,
        )
    }

    #[test]
    fn independent_alus_reach_full_width() {
        let mut c = cpu();
        for i in 0..4000 {
            c.instr(Instr::alu(i * 8, None, None, None, 0));
        }
        let ipc = c.stats().ipc();
        assert!(
            ipc > 3.5,
            "independent ALU IPC {ipc} should approach fetch width 4"
        );
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut c = cpu();
        for i in 0..1000 {
            c.instr(Instr::alu(0x400, Some(Reg(1)), Some(Reg(1)), None, i));
        }
        let ipc = c.stats().ipc();
        assert!(ipc < 1.1, "dependent chain IPC {ipc} must be ~1");
    }

    #[test]
    fn pointer_chase_pays_serial_memory_latency() {
        // Loads where each address depends on the previous load's value:
        // dependent misses cannot overlap.
        let mut c = cpu();
        let n = 50u64;
        for i in 0..n {
            let addr = 0x1_0000 + i * 4096; // distinct lines and sets
            c.instr(Instr::load(0x400, addr, 8, Reg(1), Some(Reg(1)), None, 0));
        }
        let cpi = c.stats().cpi();
        assert!(
            cpi > 250.0,
            "serialized cold misses must cost ~322 cycles each, got CPI {cpi}"
        );
    }

    #[test]
    fn independent_misses_overlap_up_to_mshrs() {
        // Independent loads to distinct lines: with 4 L1 MSHRs some overlap
        // must happen, so CPI per load is well below the full latency.
        let mut c = cpu();
        let n = 200u64;
        for i in 0..n {
            let addr = 0x10_0000 + i * 4096;
            c.instr(Instr::load(
                0x400 + (i % 4) * 8,
                addr,
                8,
                Reg((1 + (i % 4)) as u8),
                None,
                None,
                0,
            ));
        }
        let cpi = c.stats().cpi();
        assert!(
            cpi < 250.0,
            "independent misses should overlap, got CPI {cpi}"
        );
        assert!(cpi > 30.0, "4 MSHRs cannot hide everything, got CPI {cpi}");
    }

    #[test]
    fn cache_hits_are_fast() {
        let mut c = cpu();
        // Touch one line, then hammer it.
        for _ in 0..1000 {
            c.instr(Instr::load(0x400, 0x2000, 8, Reg(1), None, None, 0));
            c.instr(Instr::alu(0x408, None, None, None, 0));
        }
        let cpi = c.stats().cpi();
        assert!(cpi < 2.0, "L1-resident loop should be fast, got CPI {cpi}");
    }

    #[test]
    fn mispredicts_cost_cycles() {
        let mut well = cpu();
        let mut badly = cpu();
        let mut state = 1u64;
        for i in 0..4000u64 {
            well.instr(Instr::branch(0x400, true, 0x500, None));
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            badly.instr(Instr::branch(0x400, (state >> 40) & 1 == 1, 0x500, None));
            let _ = i;
        }
        assert!(badly.stats().mispredicts > well.stats().mispredicts * 5);
        assert!(badly.stats().cycles > well.stats().cycles * 2);
    }

    #[test]
    fn rob_bounds_runahead() {
        // One extremely slow load followed by many independent ALUs: the
        // ROB must stop dispatch at 192 in-flight, so total cycles are
        // dominated by the load latency.
        let mut c = cpu();
        c.instr(Instr::load(0x400, 0x300000, 8, Reg(1), None, None, 0));
        for i in 0..10_000u64 {
            c.instr(Instr::alu(0x408, None, None, None, i));
        }
        let cycles = c.stats().cycles;
        // 10k ALUs at width 4 = 2.5k cycles, plus the ~322-cycle stall the
        // ROB cannot hide beyond 192 entries.
        assert!(cycles > 2500, "ROB should expose part of the load stall");
    }

    #[test]
    fn context_carries_register_values_and_history() {
        use semloc_mem::{MemPressure, PrefetchReq};
        #[derive(Default)]
        struct Spy {
            last: Option<AccessContext>,
        }
        impl Prefetcher for Spy {
            fn name(&self) -> &'static str {
                "spy"
            }
            fn on_access(
                &mut self,
                ctx: &AccessContext,
                _p: MemPressure,
                _out: &mut Vec<PrefetchReq>,
            ) {
                self.last = Some(ctx.clone());
            }
            fn storage_bytes(&self) -> usize {
                0
            }
        }
        let mut c = Cpu::new(
            CpuConfig::default(),
            Hierarchy::new(MemConfig::default(), Spy::default()),
            0,
        );
        c.instr(Instr::alu(0x100, Some(Reg(5)), None, None, 0xABCD));
        c.instr(Instr::branch(0x108, true, 0x100, None));
        c.instr(Instr::load(
            0x110,
            0x9000,
            8,
            Reg(6),
            Some(Reg(5)),
            None,
            0x1111,
        ));
        c.instr(Instr::load(0x118, 0xA000, 8, Reg(7), Some(Reg(6)), None, 0));
        let ctx = c
            .mem()
            .prefetcher()
            .last
            .clone()
            .expect("prefetcher saw the access");
        assert_eq!(ctx.pc, 0x118);
        assert_eq!(
            ctx.reg1, 0x1111,
            "src register must carry the previous load's value"
        );
        assert_eq!(ctx.last_loaded, 0x1111);
        assert_eq!(ctx.recent_addrs[0], 0x9000);
        assert_eq!(ctx.branch_history & 1, 1);
        assert_eq!(ctx.seq, 1);
    }

    #[test]
    fn in_order_issue_serializes_independent_misses() {
        // The same independent-miss stream that overlaps on the OoO core
        // must serialize on the in-order core once a miss blocks issue.
        let run = |in_order: bool| {
            let cfg = CpuConfig {
                in_order,
                ..CpuConfig::default()
            };
            let mut c = Cpu::new(cfg, Hierarchy::new(MemConfig::default(), NoPrefetch), 0);
            for i in 0..100u64 {
                // A dependent consumer after each load forces the in-order
                // pipeline to wait before issuing the next load.
                c.instr(Instr::load(
                    0x400,
                    0x10_0000 + i * 4096,
                    8,
                    Reg(1),
                    None,
                    None,
                    0,
                ));
                c.instr(Instr::alu(0x408, Some(Reg(2)), Some(Reg(1)), None, 0));
            }
            c.stats().cycles
        };
        let ooo = run(false);
        let ino = run(true);
        assert!(
            ino > ooo * 3,
            "in-order must serialize the misses (ooo {ooo}, in-order {ino})"
        );
    }

    #[test]
    fn budget_stops_consumption() {
        let mut c = Cpu::new(
            CpuConfig::default(),
            Hierarchy::new(MemConfig::default(), NoPrefetch),
            10,
        );
        for i in 0..100 {
            c.instr(Instr::alu(i * 8, None, None, None, 0));
        }
        assert_eq!(c.stats().instructions, 10);
        assert!(c.done());
    }

    fn mixed_instr(i: u64) -> Instr {
        let mut state = i
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state ^= state >> 33;
        match state % 5 {
            0 => Instr::alu(
                0x400 + (i % 16) * 8,
                Some(Reg(1)),
                Some(Reg(2)),
                None,
                state,
            ),
            1 => Instr::branch(0x480, state & 8 != 0, 0x500, None),
            2 => Instr::load(
                0x500,
                0x1_0000 + (state % 512) * 64,
                8,
                Reg((1 + state % 6) as u8),
                Some(Reg(1)),
                None,
                state,
            ),
            3 => Instr::store(0x508, 0x2_0000 + (state % 256) * 64, 8, Some(Reg(2)), None),
            _ => Instr::load(
                0x510,
                0x3_0000 + (state % 128) * 4096,
                8,
                Reg(3),
                None,
                None,
                state,
            ),
        }
    }

    #[test]
    fn step_block_matches_single_stepping() {
        use semloc_trace::{DecodedTrace, TraceBuffer, BLOCK_LEN};
        let n = 3 * BLOCK_LEN as u64 + 41; // exercise a partial tail block
        let mut buf = TraceBuffer::new();
        for i in 0..n {
            buf.push(&mixed_instr(i));
        }
        let decoded = DecodedTrace::decode(&buf);

        let mut single = cpu();
        for i in buf.iter() {
            single.instr(i);
        }
        let mut blocked = cpu();
        let mut at = 0usize;
        while at < decoded.len() {
            let end = (at + BLOCK_LEN).min(decoded.len());
            decoded.prefetch_block(end);
            blocked.step_block(&decoded.block(at, end));
            at = end;
        }
        assert_eq!(single.stats(), blocked.stats());
        assert_eq!(single.mem().stats(), blocked.mem().stats());
        assert_eq!(single.mem_accesses(), blocked.mem_accesses());

        // The state behind the counters must match too: a difference in
        // the queues, caches or predictor shows once both cores run on.
        for i in n..n + 3000 {
            single.instr(mixed_instr(i));
            blocked.instr(mixed_instr(i));
        }
        assert_eq!(single.stats(), blocked.stats());
        assert_eq!(single.mem().stats(), blocked.mem().stats());
        assert_eq!(single.mem_accesses(), blocked.mem_accesses());
    }

    /// The min-heap `Occupancy` this crate used before the lazily swept
    /// one, kept as the reference it must match.
    struct HeapOccupancy {
        free_times: std::collections::BinaryHeap<std::cmp::Reverse<Cycle>>,
        capacity: usize,
    }

    impl HeapOccupancy {
        fn admit(&mut self, mut at: Cycle) -> Cycle {
            use std::cmp::Reverse;
            while let Some(&Reverse(t)) = self.free_times.peek() {
                if t <= at {
                    self.free_times.pop();
                } else {
                    break;
                }
            }
            if self.free_times.len() >= self.capacity {
                let Reverse(t) = self.free_times.pop().unwrap();
                at = at.max(t);
                while let Some(&Reverse(t2)) = self.free_times.peek() {
                    if t2 <= at {
                        self.free_times.pop();
                    } else {
                        break;
                    }
                }
            }
            at
        }

        fn occupying(&self) -> Vec<Cycle> {
            let mut v: Vec<Cycle> = self.free_times.iter().map(|r| r.0).collect();
            v.sort_unstable();
            v
        }
    }

    /// The entries occupying `o`, sorted: the `fresh` ones at `at` and the
    /// held ones freeing after it.
    fn occupying(o: &Occupancy) -> Vec<Cycle> {
        let mut v: Vec<Cycle> = std::iter::repeat_n(o.at, o.fresh)
            .chain(o.held.iter().copied().filter(|&t| t > o.at))
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn occupancy_matches_the_binary_heap_it_replaced() {
        // Admission gaps and entry lifetimes, from back-to-back dispatch
        // and L1 hits up to DRAM-queue stalls. Each phase of PHASE steps
        // draws from one (gap, lifetime) pair of classes; the phases cycle
        // through all sixteen pairs four times, and each phase ends by
        // comparing the sorted occupying entries with the heap's.
        const PHASE: usize = 1_000;
        let mut state = 0x0cc0_u64;
        let mut next = move |below: Cycle| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 17) % below
        };
        for capacity in [1, 2, 32, 64] {
            let mut lazy = Occupancy::new(capacity);
            let mut heap = HeapOccupancy {
                free_times: std::collections::BinaryHeap::new(),
                capacity,
            };
            let mut at = 0;
            for phase in 0..64 {
                let gap_class = phase % 4;
                let ahead = [4, 600, 9_000, 70_000][phase / 4 % 4];
                for step in 0..PHASE {
                    at += match gap_class {
                        0 => 0,
                        1 => 1,
                        2 => next(64),
                        _ => next(20_000),
                    };
                    let admitted = lazy.admit(at);
                    assert_eq!(
                        admitted,
                        heap.admit(at),
                        "capacity {capacity}, phase {phase}, step {step}"
                    );
                    at = admitted;
                    let until = at + next(ahead);
                    lazy.occupy(until);
                    heap.free_times.push(std::cmp::Reverse(until));
                }
                assert_eq!(
                    occupying(&lazy),
                    heap.occupying(),
                    "capacity {capacity}, phase {phase}"
                );
            }
        }
    }

    #[test]
    fn finish_returns_stats_and_hierarchy() {
        let mut c = cpu();
        c.instr(Instr::load(0x400, 0x4000, 8, Reg(1), None, None, 0));
        let (stats, mem) = c.finish();
        assert_eq!(stats.instructions, 1);
        assert_eq!(mem.stats().demand_accesses, 1);
    }
}
