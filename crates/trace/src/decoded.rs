//! Fully-decoded trace lanes: the form every replay steps.
//!
//! [`DecodedTrace`] is the flat struct-of-arrays twin of
//! [`TraceBuffer`]: every instruction is held in
//! fixed-width parallel lanes (op byte, absolute PC, a kind-dependent
//! 64-bit auxiliary word, access size, packed hints, the three register
//! operands, and the architectural result), so replay is pure sequential
//! lane reads with no per-instruction decode work. The layout costs
//! 33 B/instr against the ~6-10 B/instr varint encoding.
//!
//! Lanes are built while capturing: [`BufferSink`](crate::BufferSink)
//! appends each instruction to the varint buffer and to the lanes in the
//! same pass, so a captured stream is never decoded back. [`DecodedTrace::
//! decode`] derives the same lanes from a finished buffer in one
//! sequential pass; it is the decoder round trip the tests pin, bit-identical
//! to [`TraceBuffer::iter`](crate::TraceBuffer::iter).
//!
//! Replay consumers step whole [`BLOCK_LEN`](crate::BLOCK_LEN)-instruction
//! blocks at a time through [`InstrBlock`] views (see `Cpu::step_block` in
//! the cpu crate), which keeps the engine loop free of per-instruction
//! bounds/budget checks and lets it prefetch the next block's lanes while
//! the current one executes.

use crate::buffer::{
    op_byte, TraceBuffer, F_AUX, F_DST, F_RESULT, F_SRC1, F_SRC2, KIND_MASK, K_ALU, K_BRANCH,
    K_LOAD, K_STORE,
};
use crate::hints::SemanticHints;
use crate::instr::{Instr, InstrKind, Reg};

/// A fully-decoded trace: fixed-width parallel lanes over a whole captured
/// stream, replayable in [`BLOCK_LEN`](crate::BLOCK_LEN)-instruction blocks
/// with zero per-instruction decode work.
#[derive(Default)]
pub struct DecodedTrace {
    ops: Vec<u8>,
    pcs: Vec<u64>,
    aux: Vec<u64>,
    sizes: Vec<u8>,
    hints: Vec<u32>,
    src1: Vec<u8>,
    src2: Vec<u8>,
    dst: Vec<u8>,
    results: Vec<u64>,
}

/// Lanes under construction. Every lane is zero-filled to the same length
/// up front and written by index, so appending an instruction is nine
/// plain stores; [`LaneWriter::finish`] trims the lanes to the count
/// written.
#[derive(Debug, Default)]
pub(crate) struct LaneWriter {
    len: usize,
    lanes: DecodedTrace,
}

impl LaneWriter {
    /// A writer with lanes for `n` instructions already in place.
    pub(crate) fn with_capacity(n: usize) -> Self {
        LaneWriter {
            len: 0,
            lanes: DecodedTrace {
                ops: vec![0; n],
                pcs: vec![0; n],
                aux: vec![0; n],
                sizes: vec![0; n],
                hints: vec![0; n],
                src1: vec![0; n],
                src2: vec![0; n],
                dst: vec![0; n],
                results: vec![0; n],
            },
        }
    }

    /// Append one instruction to every lane.
    #[inline]
    pub(crate) fn push(&mut self, i: &Instr) {
        let n = self.len;
        if n == self.lanes.len() {
            self.lanes.resize((2 * n).max(crate::BLOCK_LEN));
        }
        let (aux, size, hint) = match i.kind {
            InstrKind::Alu { latency } => (u64::from(latency), 0, 0),
            InstrKind::Load { addr, size, hints } => (addr, size, hints.map_or(0, |h| h.pack())),
            InstrKind::Store { addr, size } => (addr, size, 0),
            InstrKind::Branch { target, .. } => (target, 0, 0),
            InstrKind::Nop => (0, 0, 0),
        };
        let l = &mut self.lanes;
        l.ops[n] = op_byte(i);
        l.pcs[n] = i.pc;
        l.aux[n] = aux;
        l.sizes[n] = size;
        l.hints[n] = hint;
        l.src1[n] = i.src1.map_or(0, |r| r.0);
        l.src2[n] = i.src2.map_or(0, |r| r.0);
        l.dst[n] = i.dst.map_or(0, |r| r.0);
        l.results[n] = i.result;
        self.len = n + 1;
    }

    /// The lanes of every instruction pushed, without spare capacity.
    pub(crate) fn finish(mut self) -> DecodedTrace {
        self.lanes.resize(self.len);
        self.lanes.ops.shrink_to_fit();
        self.lanes.pcs.shrink_to_fit();
        self.lanes.aux.shrink_to_fit();
        self.lanes.sizes.shrink_to_fit();
        self.lanes.hints.shrink_to_fit();
        self.lanes.src1.shrink_to_fit();
        self.lanes.src2.shrink_to_fit();
        self.lanes.dst.shrink_to_fit();
        self.lanes.results.shrink_to_fit();
        self.lanes
    }
}

impl DecodedTrace {
    /// Resize every lane to `n` instructions, zero-filling new slots.
    fn resize(&mut self, n: usize) {
        self.ops.resize(n, 0);
        self.pcs.resize(n, 0);
        self.aux.resize(n, 0);
        self.sizes.resize(n, 0);
        self.hints.resize(n, 0);
        self.src1.resize(n, 0);
        self.src2.resize(n, 0);
        self.dst.resize(n, 0);
        self.results.resize(n, 0);
    }

    /// Decode an entire buffer into lanes in one sequential pass.
    pub fn decode(buf: &TraceBuffer) -> Self {
        let mut w = LaneWriter::with_capacity(buf.len());
        for i in buf.iter() {
            w.push(&i);
        }
        w.finish()
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Resident lane bytes: 33 per instruction (u8 op, size and three
    /// register lanes, u32 hints, u64 PC, aux and result).
    pub fn bytes(&self) -> usize {
        self.len() * (1 + 1 + 3 + 4 + 8 + 8 + 8)
    }

    /// Borrow the instruction range `[start, end)` as lane slices for
    /// batched stepping. Callers walk block boundaries
    /// ([`BLOCK_LEN`](crate::BLOCK_LEN));
    /// partial first/last blocks are fine.
    pub fn block(&self, start: usize, end: usize) -> InstrBlock<'_> {
        InstrBlock {
            ops: &self.ops[start..end],
            pcs: &self.pcs[start..end],
            aux: &self.aux[start..end],
            sizes: &self.sizes[start..end],
            hints: &self.hints[start..end],
            src1: &self.src1[start..end],
            src2: &self.src2[start..end],
            dst: &self.dst[start..end],
            results: &self.results[start..end],
        }
    }

    /// Reconstruct the full [`Instr`] at index `i` (bit-identical to the
    /// streaming decoder's output).
    pub fn instr(&self, i: usize) -> Instr {
        self.block(i, i + 1).instr(0)
    }

    /// Hint the hardware prefetcher at the lanes for the block starting at
    /// `start`, so the next block's lanes are warming while the current one
    /// executes. A no-op off x86_64 or past the end of the trace.
    #[inline]
    pub fn prefetch_block(&self, start: usize) {
        #[cfg(target_arch = "x86_64")]
        if start < self.ops.len() {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: _mm_prefetch is a pure cache hint with no memory-safety
            // obligations; the pointers derive from in-bounds indices into
            // live slices.
            unsafe {
                _mm_prefetch(self.ops.as_ptr().add(start) as *const i8, _MM_HINT_T0);
                _mm_prefetch(self.pcs.as_ptr().add(start) as *const i8, _MM_HINT_T0);
                _mm_prefetch(self.aux.as_ptr().add(start) as *const i8, _MM_HINT_T0);
                _mm_prefetch(self.results.as_ptr().add(start) as *const i8, _MM_HINT_T0);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = start;
    }
}

impl std::fmt::Debug for DecodedTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodedTrace")
            .field("instrs", &self.len())
            .field("bytes", &self.bytes())
            .finish()
    }
}

/// A borrowed lane view over a contiguous instruction range of a
/// [`DecodedTrace`], the unit consumed by `Cpu::step_block`.
#[derive(Clone, Copy, Debug)]
pub struct InstrBlock<'a> {
    /// Op bytes (kind tag + presence flags), as in the varint encoding.
    pub ops: &'a [u8],
    /// Absolute program counters.
    pub pcs: &'a [u64],
    /// Kind-dependent word: ALU latency, load/store address, branch target.
    pub aux: &'a [u64],
    /// Memory access sizes (zero for non-memory ops).
    pub sizes: &'a [u8],
    /// Packed semantic hints (valid only for loads flagged `F_AUX`).
    pub hints: &'a [u32],
    /// First source register (valid iff flagged).
    pub src1: &'a [u8],
    /// Second source register (valid iff flagged).
    pub src2: &'a [u8],
    /// Destination register (valid iff flagged).
    pub dst: &'a [u8],
    /// Architectural results.
    pub results: &'a [u64],
}

impl InstrBlock<'_> {
    /// Instructions in the block.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Reconstruct the full [`Instr`] at block-relative index `i`.
    #[inline]
    pub fn instr(&self, i: usize) -> Instr {
        let op = self.ops[i];
        let kind = match op & KIND_MASK {
            K_ALU => InstrKind::Alu {
                latency: self.aux[i] as u32,
            },
            K_LOAD => InstrKind::Load {
                addr: self.aux[i],
                size: self.sizes[i],
                hints: (op & F_AUX != 0).then(|| SemanticHints::unpack(self.hints[i])),
            },
            K_STORE => InstrKind::Store {
                addr: self.aux[i],
                size: self.sizes[i],
            },
            K_BRANCH => InstrKind::Branch {
                taken: op & F_AUX != 0,
                target: self.aux[i],
            },
            _ => InstrKind::Nop,
        };
        Instr {
            pc: self.pcs[i],
            kind,
            src1: (op & F_SRC1 != 0).then(|| Reg(self.src1[i])),
            src2: (op & F_SRC2 != 0).then(|| Reg(self.src2[i])),
            dst: (op & F_DST != 0).then(|| Reg(self.dst[i])),
            result: if op & F_RESULT != 0 {
                self.results[i]
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BLOCK_LEN;
    use crate::instr::Reg;

    fn random_stream(n: u64) -> Vec<Instr> {
        let mut state = 0xdec0de_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        (0..n)
            .map(|i| {
                let r = next();
                match r % 5 {
                    0 => Instr::load(
                        i * 8,
                        next(),
                        (1 << (r % 4)) as u8,
                        Reg((r % 32) as u8),
                        (r & 32 != 0).then(|| Reg((next() % 32) as u8)),
                        (r & 64 != 0)
                            .then(|| SemanticHints::link((r >> 8) as u16, (r % 0x4000) as u16)),
                        next(),
                    ),
                    1 => Instr::alu(
                        next(),
                        Some(Reg((r % 32) as u8)),
                        None,
                        Some(Reg((next() % 32) as u8)),
                        next(),
                    ),
                    2 => Instr::store(i * 8, next(), 8, Some(Reg((r % 32) as u8)), None),
                    3 => Instr::branch(next(), r & 8 != 0, next(), None),
                    _ => Instr::nop(next()),
                }
            })
            .collect()
    }

    fn buffer_of(instrs: &[Instr]) -> TraceBuffer {
        let mut buf = TraceBuffer::new();
        for i in instrs {
            buf.push(i);
        }
        buf
    }

    #[test]
    fn decode_matches_streaming() {
        // 5 full blocks plus a partial tail.
        let instrs = random_stream(5 * BLOCK_LEN as u64 + 37);
        let buf = buffer_of(&instrs);
        let d = DecodedTrace::decode(&buf);
        assert_eq!(d.len(), instrs.len());
        for (i, want) in instrs.iter().enumerate() {
            assert_eq!(&d.instr(i), want, "instr {i}");
        }
    }

    #[test]
    fn block_views_cover_partial_tails() {
        let instrs = random_stream(BLOCK_LEN as u64 + 3);
        let buf = buffer_of(&instrs);
        let d = DecodedTrace::decode(&buf);
        let tail = d.block(BLOCK_LEN, d.len());
        assert_eq!(tail.len(), 3);
        for i in 0..tail.len() {
            assert_eq!(tail.instr(i), instrs[BLOCK_LEN + i]);
        }
        d.prefetch_block(0);
        d.prefetch_block(d.len()); // past-the-end is a no-op
    }

    #[test]
    fn empty_trace_decodes_empty() {
        let d = DecodedTrace::decode(&TraceBuffer::new());
        assert!(d.is_empty());
        assert_eq!(d.bytes(), 0);
    }
}
