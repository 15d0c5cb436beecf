//! Compact in-memory trace storage: the record-once / replay-many buffer.
//!
//! [`TraceBuffer`] stores a captured instruction stream in struct-of-arrays
//! form with delta-encoded program counters and data addresses, so a
//! 400k-instruction trace costs a few megabytes and decodes with purely
//! sequential reads. It is the in-memory twin of the `SEMLOC02` on-disk
//! format in [`record`](crate::record): both round-trip every [`Instr`]
//! field bit-exactly, and [`TraceBuffer::write_semloc`] /
//! [`TraceBuffer::read_semloc`] convert between them.
//!
//! Layout per instruction:
//!
//! * one *op byte* (kind tag + presence flags) in the `ops` column,
//! * a zigzag-varint PC delta against the previous instruction's PC,
//! * for memory ops: a zigzag-varint address delta against the previous
//!   memory address, followed by the access size byte,
//! * register names for each present operand in the `regs` column,
//! * everything else (ALU latency, branch target delta, packed semantic
//!   hints, the architectural result) as varints in the `aux` column.
//!
//! Deltas make the common cases tiny: straight-line code has PC deltas of
//! +8, streaming kernels have constant address strides, and loop branches
//! have small target offsets.
//!
//! The buffer is the compact, persistable form of a capture; replay steps
//! the [`DecodedTrace`] lanes that [`BufferSink`] builds in the same pass.

use crate::decoded::{DecodedTrace, LaneWriter};
use crate::hints::SemanticHints;
use crate::instr::{Instr, InstrKind, Reg};
use crate::sink::TraceSink;
use std::io::{self, Read, Write};

/// Kind tag in the low three bits of the op byte.
pub(crate) const KIND_MASK: u8 = 0b0000_0111;
pub(crate) const K_ALU: u8 = 0;
pub(crate) const K_LOAD: u8 = 1;
pub(crate) const K_STORE: u8 = 2;
pub(crate) const K_BRANCH: u8 = 3;
pub(crate) const K_NOP: u8 = 4;

/// Presence flags in the high five bits of the op byte.
pub(crate) const F_SRC1: u8 = 0x08;
pub(crate) const F_SRC2: u8 = 0x10;
pub(crate) const F_DST: u8 = 0x20;
/// Branch: taken. Load: carries semantic hints.
pub(crate) const F_AUX: u8 = 0x40;
pub(crate) const F_RESULT: u8 = 0x80;

/// Instructions per block: the granularity of
/// [`DecodedTrace`](crate::decoded::DecodedTrace) batched stepping.
pub const BLOCK_LEN: usize = 256;

/// The op byte of `i`: kind tag plus presence flags, shared by the varint
/// buffer and the decoded lanes.
#[inline]
pub(crate) fn op_byte(i: &Instr) -> u8 {
    let mut op = match i.kind {
        InstrKind::Alu { .. } => K_ALU,
        InstrKind::Load { .. } => K_LOAD,
        InstrKind::Store { .. } => K_STORE,
        InstrKind::Branch { .. } => K_BRANCH,
        InstrKind::Nop => K_NOP,
    };
    if i.src1.is_some() {
        op |= F_SRC1;
    }
    if i.src2.is_some() {
        op |= F_SRC2;
    }
    if i.dst.is_some() {
        op |= F_DST;
    }
    if i.result != 0 {
        op |= F_RESULT;
    }
    match i.kind {
        InstrKind::Branch { taken: true, .. } => op |= F_AUX,
        InstrKind::Load { hints: Some(_), .. } => op |= F_AUX,
        _ => {}
    }
    op
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            break;
        }
        out.push(b | 0x80);
    }
}

#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// A captured dynamic instruction stream in compact struct-of-arrays form.
///
/// ```rust
/// use semloc_trace::{Instr, Reg, TraceBuffer};
///
/// let mut buf = TraceBuffer::new();
/// buf.push(&Instr::load(0x400, 0x1000, 8, Reg(1), None, None, 7));
/// buf.push(&Instr::alu(0x408, Some(Reg(2)), Some(Reg(1)), None, 9));
/// let decoded: Vec<Instr> = buf.iter().collect();
/// assert_eq!(decoded.len(), 2);
/// assert_eq!(decoded[0].mem_addr(), Some(0x1000));
/// ```
#[derive(Clone, Default)]
pub struct TraceBuffer {
    ops: Vec<u8>,
    pcs: Vec<u8>,
    addrs: Vec<u8>,
    regs: Vec<u8>,
    aux: Vec<u8>,
    // Encoder state (the decoder keeps its own copy in the cursor).
    prev_pc: u64,
    prev_addr: u64,
}

impl TraceBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of instructions stored.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the buffer holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total encoded size in bytes across all columns.
    pub fn encoded_bytes(&self) -> usize {
        self.ops.len() + self.pcs.len() + self.addrs.len() + self.regs.len() + self.aux.len()
    }

    /// Append one instruction.
    pub fn push(&mut self, i: &Instr) {
        self.ops.push(op_byte(i));

        put_varint(
            &mut self.pcs,
            zigzag(i.pc.wrapping_sub(self.prev_pc) as i64),
        );
        self.prev_pc = i.pc;

        for r in [i.src1, i.src2, i.dst].into_iter().flatten() {
            self.regs.push(r.0);
        }

        match i.kind {
            InstrKind::Alu { latency } => put_varint(&mut self.aux, latency as u64),
            InstrKind::Load { addr, size, hints } => {
                put_varint(
                    &mut self.addrs,
                    zigzag(addr.wrapping_sub(self.prev_addr) as i64),
                );
                self.addrs.push(size);
                self.prev_addr = addr;
                if let Some(h) = hints {
                    put_varint(&mut self.aux, h.pack() as u64);
                }
            }
            InstrKind::Store { addr, size } => {
                put_varint(
                    &mut self.addrs,
                    zigzag(addr.wrapping_sub(self.prev_addr) as i64),
                );
                self.addrs.push(size);
                self.prev_addr = addr;
            }
            InstrKind::Branch { target, .. } => {
                put_varint(&mut self.aux, zigzag(target.wrapping_sub(i.pc) as i64));
            }
            InstrKind::Nop => {}
        }

        if i.result != 0 {
            put_varint(&mut self.aux, i.result);
        }
    }

    /// Iterate the stored instructions in push order.
    pub fn iter(&self) -> TraceIter<'_> {
        TraceIter {
            buf: self,
            i: 0,
            p_pcs: 0,
            p_addrs: 0,
            p_regs: 0,
            p_aux: 0,
            prev_pc: 0,
            prev_addr: 0,
        }
    }

    /// Serialize to the `SEMLOC02` on-disk format.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from the writer; a short write is reported as
    /// [`io::ErrorKind::WriteZero`].
    pub fn write_semloc<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = crate::record::TraceWriter::new(out, 0)?;
        for i in self.iter() {
            w.instr(i);
        }
        if w.count() != self.len() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "trace serialization stopped early",
            ));
        }
        w.finish()?;
        Ok(())
    }

    /// Deserialize a buffer from the `SEMLOC02` on-disk format, validating
    /// the trailer.
    ///
    /// # Errors
    ///
    /// Returns any decoding error from [`TraceReader`](crate::TraceReader).
    pub fn read_semloc<R: Read>(input: R) -> io::Result<Self> {
        BufferSink::read_semloc(input, 0).map(BufferSink::into_buffer)
    }
}

impl std::fmt::Debug for TraceBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceBuffer")
            .field("instrs", &self.len())
            .field("encoded_bytes", &self.encoded_bytes())
            .finish()
    }
}

/// Sequential decoder over a [`TraceBuffer`].
#[derive(Clone, Debug)]
pub struct TraceIter<'a> {
    buf: &'a TraceBuffer,
    i: usize,
    p_pcs: usize,
    p_addrs: usize,
    p_regs: usize,
    p_aux: usize,
    prev_pc: u64,
    prev_addr: u64,
}

impl TraceIter<'_> {
    #[inline]
    fn reg(&mut self, present: bool) -> Option<Reg> {
        if present {
            let r = self.buf.regs[self.p_regs];
            self.p_regs += 1;
            Some(Reg(r))
        } else {
            None
        }
    }

    #[inline]
    fn mem_operand(&mut self) -> (u64, u8) {
        let delta = unzigzag(get_varint(&self.buf.addrs, &mut self.p_addrs));
        let addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_addr = addr;
        let size = self.buf.addrs[self.p_addrs];
        self.p_addrs += 1;
        (addr, size)
    }
}

impl Iterator for TraceIter<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        if self.i >= self.buf.ops.len() {
            return None;
        }
        let op = self.buf.ops[self.i];
        self.i += 1;

        let delta = unzigzag(get_varint(&self.buf.pcs, &mut self.p_pcs));
        let pc = self.prev_pc.wrapping_add(delta as u64);
        self.prev_pc = pc;

        let src1 = self.reg(op & F_SRC1 != 0);
        let src2 = self.reg(op & F_SRC2 != 0);
        let dst = self.reg(op & F_DST != 0);

        let kind = match op & KIND_MASK {
            K_ALU => InstrKind::Alu {
                latency: get_varint(&self.buf.aux, &mut self.p_aux) as u32,
            },
            K_LOAD => {
                let (addr, size) = self.mem_operand();
                let hints = (op & F_AUX != 0).then(|| {
                    SemanticHints::unpack(get_varint(&self.buf.aux, &mut self.p_aux) as u32)
                });
                InstrKind::Load { addr, size, hints }
            }
            K_STORE => {
                let (addr, size) = self.mem_operand();
                InstrKind::Store { addr, size }
            }
            K_BRANCH => {
                let tdelta = unzigzag(get_varint(&self.buf.aux, &mut self.p_aux));
                InstrKind::Branch {
                    taken: op & F_AUX != 0,
                    target: pc.wrapping_add(tdelta as u64),
                }
            }
            _ => InstrKind::Nop,
        };

        let result = if op & F_RESULT != 0 {
            get_varint(&self.buf.aux, &mut self.p_aux)
        } else {
            0
        };

        Some(Instr {
            pc,
            kind,
            src1,
            src2,
            dst,
            result,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.buf.ops.len() - self.i;
        (rem, Some(rem))
    }
}

/// Instructions a capture reserves lanes for up front: its budget, capped
/// so a huge budget on a short kernel does not reserve gigabytes.
const PRESIZE_MAX: u64 = 1 << 22;

/// A [`TraceSink`] that captures into a [`TraceBuffer`] and its
/// [`DecodedTrace`] lanes in the same pass, mirroring the budget gating of
/// the simulated core: instructions are accepted while the count is below
/// `limit` and silently dropped after, and `done()` flips exactly when the
/// limit is reached (`limit == 0` is unbounded). This makes a capture see
/// the *same* `done()` transitions a budgeted
/// [`Cpu`](crate::TraceSink)-driven run would, so the captured stream is
/// bit-identical to what the simulator consumed.
#[derive(Debug, Default)]
pub struct BufferSink {
    buf: TraceBuffer,
    lanes: LaneWriter,
    limit: u64,
}

impl BufferSink {
    /// Capture at most `limit` instructions (0 = unbounded), with lanes
    /// pre-sized for the limit.
    pub fn with_limit(limit: u64) -> Self {
        BufferSink {
            limit,
            ..Self::presized(limit)
        }
    }

    /// An unbounded sink with lanes reserved for `expected` instructions.
    fn presized(expected: u64) -> Self {
        BufferSink {
            buf: TraceBuffer::new(),
            lanes: LaneWriter::with_capacity(expected.min(PRESIZE_MAX) as usize),
            limit: 0,
        }
    }

    /// Read a `SEMLOC02` stream into a fresh unbounded sink, validating the
    /// trailer. `expected` (0 = unknown) pre-sizes the lanes.
    ///
    /// # Errors
    ///
    /// Returns any decoding error from [`TraceReader`](crate::TraceReader).
    pub fn read_semloc<R: Read>(input: R, expected: u64) -> io::Result<Self> {
        let mut r = crate::record::TraceReader::new(input)?;
        let mut sink = Self::presized(expected);
        while let Some(i) = r.next_instr()? {
            sink.instr(i);
        }
        Ok(sink)
    }

    /// Instructions captured so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the sink, returning the captured buffer.
    pub fn into_buffer(self) -> TraceBuffer {
        self.buf
    }

    /// Consume the sink, returning the captured buffer and its lanes.
    pub fn into_parts(self) -> (TraceBuffer, DecodedTrace) {
        (self.buf, self.lanes.finish())
    }
}

impl TraceSink for BufferSink {
    fn instr(&mut self, instr: Instr) {
        if !self.done() {
            self.buf.push(&instr);
            self.lanes.push(&instr);
        }
    }

    fn done(&self) -> bool {
        self.limit != 0 && self.buf.len() as u64 >= self.limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::RecordingSink;

    fn sample() -> Vec<Instr> {
        vec![
            Instr::load(
                0x400,
                0x1234,
                8,
                Reg(3),
                Some(Reg(1)),
                Some(SemanticHints::link(7, 16)),
                0xAB,
            ),
            Instr::alu(0x408, Some(Reg(4)), Some(Reg(3)), None, 99),
            Instr::store(0x410, 0x5678, 8, Some(Reg(4)), Some(Reg(3))),
            Instr::branch(0x418, true, 0x400, Some(Reg(4))),
            Instr::branch(0x420, false, 0x500, None),
            Instr::nop(0x428),
            // Backwards-moving PC and address exercise negative deltas.
            Instr::load(0x200, 0x100, 4, Reg(1), None, None, 0),
        ]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let mut buf = TraceBuffer::new();
        for i in sample() {
            buf.push(&i);
        }
        let decoded: Vec<Instr> = buf.iter().collect();
        assert_eq!(decoded, sample());
    }

    #[test]
    fn large_random_stream_roundtrips() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let mut instrs = Vec::new();
        for i in 0..20_000u64 {
            let r = next();
            instrs.push(match r % 5 {
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
            });
        }
        let mut buf = TraceBuffer::new();
        for i in &instrs {
            buf.push(i);
        }
        let decoded: Vec<Instr> = buf.iter().collect();
        assert_eq!(decoded, instrs);
        assert!(
            buf.encoded_bytes() < instrs.len() * 34,
            "SoA encoding must beat the ~34-byte flat Instr struct (got {} bytes for {} instrs)",
            buf.encoded_bytes(),
            instrs.len()
        );
    }

    #[test]
    fn sequential_stream_is_compact() {
        // A streaming loop (fixed pc step, fixed stride) should cost only a
        // few bytes per instruction once deltas kick in.
        let mut buf = TraceBuffer::new();
        for i in 0..10_000u64 {
            buf.push(&Instr::load(
                0x400,
                0x10_0000 + i * 64,
                8,
                Reg(1),
                None,
                None,
                0,
            ));
        }
        // op 1 + pc-delta 1 + addr-delta 2 + size 1 + dst reg 1 = 6 bytes,
        // vs ~34 for the flat struct and ~30 for SEMLOC02.
        let per_instr = buf.encoded_bytes() as f64 / buf.len() as f64;
        assert!(
            per_instr < 6.5,
            "streaming loads should encode near 6 B/instr, got {per_instr:.1}"
        );
    }

    #[test]
    fn semloc_format_roundtrip_matches() {
        let mut buf = TraceBuffer::new();
        for i in sample() {
            buf.push(&i);
        }
        let mut bytes = Vec::new();
        buf.write_semloc(&mut bytes).unwrap();
        // The serialized form is a valid SEMLOC02 trace...
        let mut sink = RecordingSink::new();
        crate::record::TraceReader::new(&bytes[..])
            .unwrap()
            .replay(&mut sink)
            .unwrap();
        assert_eq!(sink.instrs(), sample().as_slice());
        // ...and reading it back into a buffer preserves the stream.
        let back = TraceBuffer::read_semloc(&bytes[..]).unwrap();
        assert_eq!(back.iter().collect::<Vec<_>>(), sample());
    }

    #[test]
    fn read_semloc_rejects_garbage() {
        assert!(TraceBuffer::read_semloc(&b"NOTATRACE"[..]).is_err());
    }

    #[test]
    fn buffer_sink_gates_like_the_core() {
        let mut s = BufferSink::with_limit(3);
        for i in sample() {
            s.instr(i);
        }
        assert!(s.done());
        let (buf, lanes) = s.into_parts();
        assert_eq!(buf.len(), 3);
        assert_eq!(buf.iter().collect::<Vec<_>>(), sample()[..3].to_vec());
        assert_eq!(lanes.len(), 3, "lanes gate with the buffer");
    }

    #[test]
    fn capture_lanes_match_the_varint_stream() {
        let mut s = BufferSink::with_limit(0);
        for i in sample() {
            s.instr(i);
        }
        let (buf, lanes) = s.into_parts();
        let decoded = DecodedTrace::decode(&buf);
        assert_eq!(lanes.len(), sample().len());
        for (n, want) in sample().iter().enumerate() {
            assert_eq!(&lanes.instr(n), want, "capture lanes, instr {n}");
            assert_eq!(&decoded.instr(n), want, "decoded lanes, instr {n}");
        }
    }

    #[test]
    fn read_semloc_builds_lanes_in_the_same_pass() {
        let mut buf = TraceBuffer::new();
        for i in sample() {
            buf.push(&i);
        }
        let mut bytes = Vec::new();
        buf.write_semloc(&mut bytes).unwrap();
        let (back, lanes) = BufferSink::read_semloc(&bytes[..], 2).unwrap().into_parts();
        assert_eq!(back.iter().collect::<Vec<_>>(), sample());
        assert_eq!(
            (0..lanes.len()).map(|n| lanes.instr(n)).collect::<Vec<_>>(),
            sample()
        );
    }

    #[test]
    fn unbounded_sink_captures_everything() {
        let mut s = BufferSink::with_limit(0);
        for i in sample() {
            s.instr(i);
        }
        assert!(!s.done());
        assert_eq!(s.len(), sample().len());
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 8, -8] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX);
        let mut pos = 0;
        assert_eq!(get_varint(&bytes, &mut pos), u64::MAX);
        assert_eq!(pos, bytes.len());
    }
}
