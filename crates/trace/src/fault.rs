//! Deterministic fault injection for persisted frames.
//!
//! The differential/fault harness needs to prove that every way a stored
//! frame (trace or checkpoint) can go bad — flipped bits, truncated files,
//! interrupted writes, outright garbage — is either *detected* (a typed
//! [`std::io::Error`] surfaces where the frame is read) or *tolerated* (the
//! consumer provably falls back to regenerating or rerunning), never
//! silently used as a wrong answer. This module provides the vocabulary for
//! injecting those faults deterministically: a [`FaultPlan`] mutates
//! serialized bytes in place, [`ShortWriter`] simulates an I/O sink that
//! dies mid-write (disk full, killed process), and [`SaveFaults`] hands
//! both to one [`write_atomic`](crate::snap::write_atomic) call.

use std::io::{self, Write};

/// A single deterministic corruption of a serialized frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// XOR bit `bit` (0–7) of the byte at `offset`. Out-of-range offsets
    /// wrap, so a plan built for one trace stays applicable to another.
    BitFlip { offset: usize, bit: u8 },
    /// Keep only the first `keep` bytes (a partially-written or
    /// partially-copied file).
    Truncate { keep: usize },
    /// Overwrite the 8-byte magic header with an unrelated tag.
    BadMagic,
    /// Add `delta` to the low byte of the frame's body length (16 bytes
    /// from the end), making the trailer lie about the payload.
    LengthSkew { delta: u8 },
    /// Replace the entire buffer with `len` bytes of non-frame garbage
    /// (a poisoned cache file written by something else entirely).
    Garbage { len: usize },
}

impl Fault {
    /// Apply this fault to `bytes` in place. Faults are total: they apply
    /// meaningfully to any buffer, including an empty one.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        match *self {
            Fault::BitFlip { offset, bit } => {
                if !bytes.is_empty() {
                    let i = offset % bytes.len();
                    bytes[i] ^= 1 << (bit % 8);
                }
            }
            Fault::Truncate { keep } => bytes.truncate(keep),
            Fault::BadMagic => {
                for (i, b) in b"NOTTRACE".iter().enumerate() {
                    if i < bytes.len() {
                        bytes[i] = *b;
                    }
                }
            }
            Fault::LengthSkew { delta } => {
                // Trailer layout: body length u64 LE, checksum u64 LE.
                if bytes.len() >= 16 {
                    let i = bytes.len() - 16;
                    bytes[i] = bytes[i].wrapping_add(delta);
                }
            }
            Fault::Garbage { len } => {
                bytes.clear();
                bytes.extend((0..len).map(|i| (i as u8).wrapping_mul(37).wrapping_add(11)));
            }
        }
    }
}

/// An ordered list of [`Fault`]s applied to serialized frame bytes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single fault.
    pub fn with(fault: Fault) -> Self {
        FaultPlan {
            faults: vec![fault],
        }
    }

    /// Append a fault to the plan.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Apply every fault, in order, to `bytes`.
    pub fn corrupt(&self, bytes: &mut Vec<u8>) {
        for f in &self.faults {
            f.apply(bytes);
        }
    }
}

/// Faults injected into one [`write_atomic`](crate::snap::write_atomic)
/// call (testing only); the default injects nothing. Stores hold one and
/// take it, so each injection hits exactly the next save.
#[derive(Debug, Default)]
pub struct SaveFaults {
    /// Corrupt the bytes with this plan before they reach disk.
    pub plan: FaultPlan,
    /// Fail the write after this many bytes, abandoning the temp file.
    pub short_write: Option<usize>,
}

/// A writer that fails after accepting `budget` bytes, simulating a disk
/// that fills up or a process killed mid-write. The failure is a typed
/// `WriteZero` error, so `write_all` callers see it immediately.
#[derive(Debug)]
pub struct ShortWriter<W: Write> {
    inner: W,
    remaining: u64,
}

impl<W: Write> ShortWriter<W> {
    /// Wrap `inner`, accepting at most `budget` bytes before failing.
    pub fn new(inner: W, budget: u64) -> Self {
        ShortWriter {
            inner,
            remaining: budget,
        }
    }

    /// The wrapped writer (with whatever prefix made it through).
    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for ShortWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.remaining == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "injected short write: byte budget exhausted",
            ));
        }
        let take = (buf.len() as u64).min(self.remaining) as usize;
        let n = self.inner.write(&buf[..take])?;
        self.remaining -= n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::TraceBuffer;
    use crate::instr::{Instr, Reg};

    fn valid_trace(n: u64) -> Vec<u8> {
        let mut buf = TraceBuffer::new();
        for i in 0..n {
            buf.push(&Instr::load(
                0x400 + i * 4,
                0x1000 + i * 64,
                8,
                Reg(1),
                None,
                None,
                i,
            ));
        }
        buf.to_frame("t")
    }

    fn replay(bytes: &[u8]) -> io::Result<usize> {
        TraceBuffer::from_frame(bytes).map(|(_, buf)| buf.len())
    }

    #[test]
    fn every_fault_kind_is_detected_on_read() {
        let faults = [
            Fault::BitFlip { offset: 40, bit: 3 },
            Fault::Truncate { keep: 25 },
            Fault::BadMagic,
            Fault::LengthSkew { delta: 1 },
            Fault::Garbage { len: 64 },
        ];
        for fault in faults {
            let mut bytes = valid_trace(10);
            FaultPlan::with(fault.clone()).corrupt(&mut bytes);
            assert!(
                replay(&bytes).is_err(),
                "{fault:?} must surface as a typed error"
            );
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        let clean = valid_trace(5);
        let mut bytes = clean.clone();
        FaultPlan::new().corrupt(&mut bytes);
        assert_eq!(bytes, clean);
        assert!(FaultPlan::new().is_empty());
        assert_eq!(replay(&bytes).unwrap(), 5);
    }

    #[test]
    fn faults_compose_in_order() {
        let mut plan = FaultPlan::new();
        plan.push(Fault::Truncate { keep: 30 });
        plan.push(Fault::BitFlip { offset: 9, bit: 0 });
        let mut bytes = valid_trace(5);
        plan.corrupt(&mut bytes);
        assert_eq!(bytes.len(), 30);
        assert!(replay(&bytes).is_err());
    }

    #[test]
    fn short_writer_fails_with_write_zero() {
        let frame = valid_trace(100);
        let mut w = ShortWriter::new(Vec::new(), 40);
        let err = w.write_all(&frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        // The byte budget died mid-frame: what got through does not parse.
        let prefix = w.into_inner();
        assert_eq!(prefix.len(), 40);
        assert!(replay(&prefix).is_err());
    }

    #[test]
    fn short_writer_passes_through_under_budget() {
        let mut sw = ShortWriter::new(Vec::new(), 1024);
        sw.write_all(b"hello").unwrap();
        assert_eq!(sw.into_inner(), b"hello");
    }
}
