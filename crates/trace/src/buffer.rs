//! Compact in-memory trace storage: the record-once / replay-many buffer.
//!
//! [`TraceBuffer`] stores a captured instruction stream in struct-of-arrays
//! form with delta-encoded program counters and data addresses, so a
//! 400k-instruction trace costs a few megabytes and decodes with purely
//! sequential reads. It round-trips every [`Instr`] field bit-exactly and is
//! also the on-disk trace: [`TraceBuffer::to_frame`] writes its columns as a
//! `TRCE` frame (see [`snap`](crate::snap)) and
//! [`TraceBuffer::from_frame`] reads them back.
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
//! The buffer is a capture's on-disk form only. A capture holds its
//! [`DecodedTrace`] lanes, which [`BufferSink`](crate::BufferSink) writes
//! and every replay steps; [`TraceBuffer::encode`] builds the buffer from
//! them when a frame is written.

use crate::decoded::DecodedTrace;
use crate::hints::SemanticHints;
use crate::instr::{Instr, InstrKind, Reg};
use crate::snap::{snap_err, SnapReader, SnapWriter};
use std::io;

/// Version of the `TRCE` frame payload: the label, then the five columns,
/// each length-prefixed.
const TRACE_VERSION: u32 = 1;

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
/// [`DecodedTrace`] batched stepping.
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

/// Read one varint at `pos`, or `None` if the column ends first or the
/// varint runs past the 10 bytes a `u64` needs.
#[inline]
fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
    }
    None
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

    /// The buffer that pushing every instruction of `lanes` in order
    /// builds: what a capture's `TRCE` frame holds.
    pub fn encode(lanes: &DecodedTrace) -> Self {
        let block = lanes.block(0, lanes.len());
        let mut buf = TraceBuffer::new();
        buf.ops.reserve_exact(block.len());
        for i in 0..block.len() {
            buf.push(&block.instr(i));
        }
        buf
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

    /// Serialize as a `TRCE` frame carrying `label` (the trace store uses
    /// the file's own name, the CLI the kernel's trace key).
    pub fn to_frame(&self, label: &str) -> Vec<u8> {
        let mut w = SnapWriter::framed(*b"TRCE", TRACE_VERSION);
        for col in [
            label.as_bytes(),
            &self.ops,
            &self.pcs,
            &self.addrs,
            &self.regs,
            &self.aux,
        ] {
            w.put_len(col.len());
            w.put_bytes(col);
        }
        w.into_frame()
    }

    /// Parse a `TRCE` frame written by [`TraceBuffer::to_frame`], returning
    /// its label and buffer.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a frame that fails validation, a
    /// label that is not UTF-8, or columns that do not decode to exactly
    /// one instruction per op byte with no bytes left over.
    pub fn from_frame(bytes: &[u8]) -> io::Result<(String, TraceBuffer)> {
        let mut r = SnapReader::framed(bytes, *b"TRCE", TRACE_VERSION)?;
        let mut col = || -> io::Result<Vec<u8>> {
            let n = r.get_len()?;
            Ok(r.get_bytes(n)?.to_vec())
        };
        let label = String::from_utf8(col()?).map_err(|_| snap_err("trace label is not UTF-8"))?;
        let mut buf = TraceBuffer {
            ops: col()?,
            pcs: col()?,
            addrs: col()?,
            regs: col()?,
            aux: col()?,
            prev_pc: 0,
            prev_addr: 0,
        };
        r.expect_end()?;
        let mut it = buf.iter();
        let decoded = it.by_ref().count();
        if decoded != buf.len() || !it.consumed_every_column() {
            return Err(snap_err(format!(
                "trace columns do not decode: {decoded} of {} instructions",
                buf.len()
            )));
        }
        (buf.prev_pc, buf.prev_addr) = (it.prev_pc, it.prev_addr);
        Ok((label, buf))
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

/// Sequential decoder over a [`TraceBuffer`]. Every column read is
/// checked, so columns that do not decode (a kind tag outside 0–4, a
/// column that runs out, an overlong varint) end the iteration instead of
/// panicking.
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
    /// The next register operand if `present` (`Some(None)` if not), or
    /// `None` if the column ran out.
    #[inline]
    fn reg(&mut self, present: bool) -> Option<Option<Reg>> {
        if !present {
            return Some(None);
        }
        let r = *self.buf.regs.get(self.p_regs)?;
        self.p_regs += 1;
        Some(Some(Reg(r)))
    }

    #[inline]
    fn mem_operand(&mut self) -> Option<(u64, u8)> {
        let delta = unzigzag(get_varint(&self.buf.addrs, &mut self.p_addrs)?);
        let addr = self.prev_addr.wrapping_add(delta as u64);
        self.prev_addr = addr;
        let size = *self.buf.addrs.get(self.p_addrs)?;
        self.p_addrs += 1;
        Some((addr, size))
    }

    #[inline]
    fn aux(&mut self) -> Option<u64> {
        get_varint(&self.buf.aux, &mut self.p_aux)
    }

    /// An aux varint holding a `u32` (ALU latency, packed hints); `None`
    /// if it does not fit.
    #[inline]
    fn aux_u32(&mut self) -> Option<u32> {
        u32::try_from(self.aux()?).ok()
    }

    /// Decode the instruction whose op byte is `op`.
    #[inline]
    fn decode(&mut self, op: u8) -> Option<Instr> {
        let delta = unzigzag(get_varint(&self.buf.pcs, &mut self.p_pcs)?);
        let pc = self.prev_pc.wrapping_add(delta as u64);
        self.prev_pc = pc;

        let src1 = self.reg(op & F_SRC1 != 0)?;
        let src2 = self.reg(op & F_SRC2 != 0)?;
        let dst = self.reg(op & F_DST != 0)?;

        let kind = match op & KIND_MASK {
            K_ALU => InstrKind::Alu {
                latency: self.aux_u32()?,
            },
            K_LOAD => {
                let (addr, size) = self.mem_operand()?;
                let hints = if op & F_AUX != 0 {
                    Some(SemanticHints::unpack(self.aux_u32()?))
                } else {
                    None
                };
                InstrKind::Load { addr, size, hints }
            }
            K_STORE => {
                let (addr, size) = self.mem_operand()?;
                InstrKind::Store { addr, size }
            }
            K_BRANCH => InstrKind::Branch {
                taken: op & F_AUX != 0,
                target: pc.wrapping_add(unzigzag(self.aux()?) as u64),
            },
            K_NOP => InstrKind::Nop,
            _ => return None,
        };

        let result = if op & F_RESULT != 0 { self.aux()? } else { 0 };

        Some(Instr {
            pc,
            kind,
            src1,
            src2,
            dst,
            result,
        })
    }

    /// Whether iteration consumed every byte of the operand columns.
    fn consumed_every_column(&self) -> bool {
        let b = self.buf;
        [self.p_pcs, self.p_addrs, self.p_regs, self.p_aux]
            == [b.pcs.len(), b.addrs.len(), b.regs.len(), b.aux.len()]
    }
}

impl Iterator for TraceIter<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        let op = *self.buf.ops.get(self.i)?;
        self.i += 1;
        let instr = self.decode(op);
        if instr.is_none() {
            // Columns that do not decode end the stream for good.
            self.i = self.buf.ops.len();
        }
        instr
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.buf.ops.len() - self.i;
        (rem, Some(rem))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // vs ~34 for the flat struct.
        let per_instr = buf.encoded_bytes() as f64 / buf.len() as f64;
        assert!(
            per_instr < 6.5,
            "streaming loads should encode near 6 B/instr, got {per_instr:.1}"
        );
    }

    #[test]
    fn frame_round_trips_and_resumes_encoding() {
        let mut buf = TraceBuffer::new();
        for i in &sample()[..4] {
            buf.push(i);
        }
        let (label, mut back) = TraceBuffer::from_frame(&buf.to_frame("mcf-x")).unwrap();
        assert_eq!(label, "mcf-x");
        // The delta encoder state comes back too: pushing onto the loaded
        // buffer continues the stream exactly.
        for i in &sample()[4..] {
            back.push(i);
        }
        assert_eq!(back.iter().collect::<Vec<_>>(), sample());
    }

    /// A `TRCE` frame over arbitrary columns (checksum and all valid).
    fn frame_of(cols: [&[u8]; 5]) -> Vec<u8> {
        let mut w = SnapWriter::framed(*b"TRCE", TRACE_VERSION);
        w.put_len(1);
        w.put_bytes(b"t");
        for col in cols {
            w.put_len(col.len());
            w.put_bytes(col);
        }
        w.into_frame()
    }

    #[test]
    fn columns_that_do_not_decode_are_invalid_data() {
        let nop = [K_NOP];
        let past_u32 = [0x80, 0x80, 0x80, 0x80, 0x10]; // 1 << 32
        let cases: [(&str, [&[u8]; 5]); 7] = [
            ("kind tag 5", [&[5], &[0], &[], &[], &[]]),
            ("kind tag 7", [&[7], &[0], &[], &[], &[]]),
            ("pc column short", [&[K_NOP, K_NOP], &[0], &[], &[], &[]]),
            ("overlong varint", [&nop, &[0xff; 11], &[], &[], &[]]),
            ("missing register", [&[K_NOP | F_DST], &[0], &[], &[], &[]]),
            ("bytes left over", [&nop, &[0], &[], &[], &[1]]),
            ("latency past u32", [&[K_ALU], &[0], &[], &[], &past_u32]),
        ];
        for (what, cols) in cases {
            let err = TraceBuffer::from_frame(&frame_of(cols)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{what}");
        }
        assert_eq!(
            TraceBuffer::from_frame(&frame_of([&nop, &[0], &[], &[], &[]]))
                .unwrap()
                .1
                .iter()
                .collect::<Vec<_>>(),
            vec![Instr::nop(0)],
            "control: the same frame with sound columns loads"
        );
    }

    #[test]
    fn random_columns_never_panic() {
        let mut state = 0x00c0_ffee_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..2_000 {
            let cols: Vec<Vec<u8>> = (0..5)
                .map(|_| (0..next() % 12).map(|_| next() as u8).collect())
                .collect();
            let framed = frame_of([&cols[0], &cols[1], &cols[2], &cols[3], &cols[4]]);
            if let Err(e) = TraceBuffer::from_frame(&framed) {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 8, -8] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX);
        let mut pos = 0;
        assert_eq!(get_varint(&bytes, &mut pos), Some(u64::MAX));
        assert_eq!(pos, bytes.len());
    }
}
