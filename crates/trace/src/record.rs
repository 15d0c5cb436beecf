//! Compact binary trace recording and replay.
//!
//! Workloads are deterministic, so traces usually need no storage — but
//! persisting a trace is useful for cross-tool comparison, for debugging a
//! specific interval, and for driving the simulator from traces produced
//! elsewhere. The format is a dense little-endian encoding, roughly 20–30
//! bytes per instruction, with a magic header and a trailer carrying both
//! the instruction count and an FNV-1a checksum of every record byte for
//! integrity checking: any corruption of the payload is detected at the
//! trailer, not silently replayed.

use std::io::{self, Read, Write};

use crate::hints::SemanticHints;
use crate::instr::{Instr, InstrKind, Reg};
use crate::sink::TraceSink;

const MAGIC: &[u8; 8] = b"SEMLOC02";

const K_ALU: u8 = 0;
const K_LOAD: u8 = 1;
const K_STORE: u8 = 2;
const K_BRANCH: u8 = 3;
const K_NOP: u8 = 4;

/// FNV-1a offset basis; every FNV-1a accumulator starts here.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Fold `bytes` into an FNV-1a accumulator. Every step is a bijection of
/// the accumulator state, so two streams differing in any byte keep
/// differing hashes no matter what identical suffix follows.
///
/// Trace and checkpoint checksums, stats digests and engine fingerprints
/// all fold through this function.
///
/// ```rust
/// use semloc_trace::{fnv1a, FNV_OFFSET};
///
/// // Folding in pieces equals folding the concatenation.
/// assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"sem"), b"loc"), fnv1a(FNV_OFFSET, b"semloc"));
/// assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn reg_byte(r: Option<Reg>) -> u8 {
    r.map_or(u8::MAX, |r| r.0)
}

/// A [`TraceSink`] that serializes every instruction to a writer.
///
/// ```rust
/// use semloc_trace::{Instr, RecordingSink, Reg, TraceReader, TraceSink, TraceWriter};
///
/// # fn main() -> std::io::Result<()> {
/// let mut writer = TraceWriter::new(Vec::new(), 0)?;
/// writer.instr(Instr::load(0x400, 0x1000, 8, Reg(1), None, None, 7));
/// let bytes = writer.finish()?;
///
/// let mut replayed = RecordingSink::new();
/// TraceReader::new(&bytes[..])?.replay(&mut replayed)?;
/// assert_eq!(replayed.instrs().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W: Write> {
    out: W,
    count: u64,
    limit: u64,
    hash: u64,
}

impl<W: Write> TraceWriter<W> {
    /// Start a trace on `out`, recording at most `limit` instructions
    /// (0 = unbounded). Writes the header immediately.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the header.
    pub fn new(mut out: W, limit: u64) -> io::Result<Self> {
        out.write_all(MAGIC)?;
        // Count placeholder is not rewritten (streams may not seek); the
        // count lives in the trailer instead.
        Ok(TraceWriter {
            out,
            count: 0,
            limit,
            hash: FNV_OFFSET,
        })
    }

    /// Instructions recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finish the trace: writes the trailer (kind marker + count +
    /// record checksum) and returns the writer.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from writing the trailer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.write_all(&[u8::MAX])?;
        self.out.write_all(&self.count.to_le_bytes())?;
        self.out.write_all(&self.hash.to_le_bytes())?;
        Ok(self.out)
    }

    /// Write record bytes, folding them into the running checksum.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.out.write_all(bytes)?;
        self.hash = fnv1a(self.hash, bytes);
        Ok(())
    }

    fn encode(&mut self, i: &Instr) -> io::Result<()> {
        match i.kind {
            InstrKind::Alu { latency } => {
                self.put(&[K_ALU])?;
                self.put(&latency.to_le_bytes())?;
            }
            InstrKind::Load { addr, size, hints } => {
                self.put(&[K_LOAD])?;
                self.put(&addr.to_le_bytes())?;
                self.put(&[size])?;
                let packed = hints.map_or(u32::MAX, |h| h.pack());
                self.put(&packed.to_le_bytes())?;
            }
            InstrKind::Store { addr, size } => {
                self.put(&[K_STORE])?;
                self.put(&addr.to_le_bytes())?;
                self.put(&[size])?;
            }
            InstrKind::Branch { taken, target } => {
                self.put(&[K_BRANCH, taken as u8])?;
                self.put(&target.to_le_bytes())?;
            }
            InstrKind::Nop => self.put(&[K_NOP])?,
        }
        self.put(&i.pc.to_le_bytes())?;
        self.put(&[reg_byte(i.src1), reg_byte(i.src2), reg_byte(i.dst)])?;
        self.put(&i.result.to_le_bytes())?;
        Ok(())
    }
}

impl<W: Write> TraceSink for TraceWriter<W> {
    fn instr(&mut self, instr: Instr) {
        if self.done() {
            return;
        }
        // An I/O failure mid-trace poisons the writer by saturating the
        // limit; `finish` will still report the true count.
        if self.encode(&instr).is_err() {
            self.limit = self.count.max(1);
            return;
        }
        self.count += 1;
    }

    fn done(&self) -> bool {
        self.limit != 0 && self.count >= self.limit
    }
}

/// Reads a trace produced by [`TraceWriter`] and replays it into any sink.
///
/// The trailer's count and checksum are validated when the reader reaches
/// it; consumers that stop early (a sink reporting `done()`) deliberately
/// skip that validation, since they never observe the unread tail.
#[derive(Debug)]
pub struct TraceReader<R: Read> {
    input: R,
    replayed: u64,
    hash: u64,
}

impl<R: Read> TraceReader<R> {
    /// Open a trace, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` if the magic header does not match, or any
    /// underlying I/O error.
    pub fn new(mut input: R) -> io::Result<Self> {
        let mut magic = [0u8; 8];
        input.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not a semloc trace",
            ));
        }
        Ok(TraceReader {
            input,
            replayed: 0,
            hash: FNV_OFFSET,
        })
    }

    /// Read record bytes, folding them into the running checksum.
    fn fill(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.input.read_exact(buf)?;
        self.hash = fnv1a(self.hash, buf);
        Ok(())
    }

    fn byte_h(&mut self) -> io::Result<u8> {
        let mut b = [0u8; 1];
        self.fill(&mut b)?;
        Ok(b[0])
    }

    fn u32_h(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.fill(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64_h(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    fn reg_h(&mut self) -> io::Result<Option<Reg>> {
        let b = self.byte_h()?;
        Ok((b != u8::MAX).then_some(Reg(b)))
    }

    /// Read a trailer field (not part of the checksummed payload).
    fn trailer_u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.input.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Read the next instruction, or `None` at the (validated) trailer.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a malformed record, or a count or checksum
    /// mismatch at the trailer.
    pub fn next_instr(&mut self) -> io::Result<Option<Instr>> {
        let mut kind = [0u8; 1];
        self.input.read_exact(&mut kind)?;
        if kind[0] == u8::MAX {
            let count = self.trailer_u64()?;
            if count != self.replayed {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "trace count mismatch: trailer {count}, read {}",
                        self.replayed
                    ),
                ));
            }
            let checksum = self.trailer_u64()?;
            if checksum != self.hash {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "trace checksum mismatch: trailer {checksum:#018x}, computed {:#018x}",
                        self.hash
                    ),
                ));
            }
            return Ok(None);
        }
        self.hash = fnv1a(self.hash, &kind);
        let kind = match kind[0] {
            K_ALU => InstrKind::Alu {
                latency: self.u32_h()?,
            },
            K_LOAD => {
                let addr = self.u64_h()?;
                let size = self.byte_h()?;
                let packed = self.u32_h()?;
                let hints = (packed != u32::MAX).then(|| SemanticHints::unpack(packed));
                InstrKind::Load { addr, size, hints }
            }
            K_STORE => InstrKind::Store {
                addr: self.u64_h()?,
                size: self.byte_h()?,
            },
            K_BRANCH => InstrKind::Branch {
                taken: self.byte_h()? != 0,
                target: self.u64_h()?,
            },
            K_NOP => InstrKind::Nop,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad record kind {other}"),
                ));
            }
        };
        let pc = self.u64_h()?;
        let src1 = self.reg_h()?;
        let src2 = self.reg_h()?;
        let dst = self.reg_h()?;
        let result = self.u64_h()?;
        self.replayed += 1;
        Ok(Some(Instr {
            pc,
            kind,
            src1,
            src2,
            dst,
            result,
        }))
    }

    /// Replay the whole trace into `sink` (stops early if the sink is
    /// done). Returns the number of instructions replayed.
    ///
    /// # Errors
    ///
    /// Returns any decoding error.
    pub fn replay(&mut self, sink: &mut dyn TraceSink) -> io::Result<u64> {
        let mut n = 0;
        while let Some(i) = self.next_instr()? {
            if sink.done() {
                break;
            }
            sink.instr(i);
            n += 1;
        }
        Ok(n)
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
            Instr::nop(0x420),
        ]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let mut w = TraceWriter::new(Vec::new(), 0).unwrap();
        for i in sample() {
            w.instr(i);
        }
        let bytes = w.finish().unwrap();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut sink = RecordingSink::new();
        let n = r.replay(&mut sink).unwrap();
        assert_eq!(n, 5);
        assert_eq!(sink.instrs(), sample().as_slice());
    }

    #[test]
    fn writer_honours_limit() {
        let mut w = TraceWriter::new(Vec::new(), 2).unwrap();
        for i in sample() {
            w.instr(i);
        }
        assert_eq!(w.count(), 2);
        assert!(w.done());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = TraceReader::new(&b"NOTATRACE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        // The previous format revision is rejected the same way: the
        // checksum trailer changed the stream layout, so SEMLOC01 files
        // must regenerate rather than misparse.
        let err = TraceReader::new(&b"SEMLOC01rest"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_trace_fails_cleanly() {
        let mut w = TraceWriter::new(Vec::new(), 0).unwrap();
        for i in sample() {
            w.instr(i);
        }
        let mut bytes = w.finish().unwrap();
        bytes.truncate(bytes.len() - 3);
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut sink = RecordingSink::new();
        assert!(r.replay(&mut sink).is_err());
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let mut w = TraceWriter::new(Vec::new(), 0).unwrap();
        for i in sample() {
            w.instr(i);
        }
        let mut bytes = w.finish().unwrap();
        // Flip one bit inside the first record's result field — a spot
        // that stays structurally valid, so only the checksum catches it.
        bytes[8 + 14 + 8 + 3] ^= 0x10;
        let mut sink = RecordingSink::new();
        let err = TraceReader::new(&bytes[..])
            .unwrap()
            .replay(&mut sink)
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got {err}");
    }

    #[test]
    fn workload_scale_roundtrip() {
        // A larger pseudo-random trace survives the roundtrip byte-exactly.
        let mut instrs = Vec::new();
        let mut state = 1u64;
        for i in 0..5000u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            instrs.push(match state % 4 {
                0 => Instr::load(
                    i * 8,
                    state % (1 << 30),
                    8,
                    Reg((state % 32) as u8),
                    None,
                    None,
                    state,
                ),
                1 => Instr::alu(i * 8, Some(Reg((state % 32) as u8)), None, None, state),
                2 => Instr::store(i * 8, state % (1 << 30), 8, None, None),
                _ => Instr::branch(i * 8, state & 8 != 0, state % (1 << 20), None),
            });
        }
        let mut w = TraceWriter::new(Vec::new(), 0).unwrap();
        for &i in &instrs {
            w.instr(i);
        }
        let bytes = w.finish().unwrap();
        let mut sink = RecordingSink::new();
        TraceReader::new(&bytes[..])
            .unwrap()
            .replay(&mut sink)
            .unwrap();
        assert_eq!(sink.instrs(), instrs.as_slice());
    }
}
