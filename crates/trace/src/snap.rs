//! The checksummed frames the simulator persists, and the versioned codec
//! of the statistics they carry.
//!
//! The encoding is a flat little-endian stream of tagged *sections*. Each
//! one opens with a 4-byte ASCII tag and a `u32` version; readers validate
//! both before touching the payload, so a stale or foreign record fails
//! with a typed [`std::io::Error`] instead of silently misinterpreting
//! bytes. [`Snapshot`] is the codec of the statistics a finished cell's
//! result frame persists (core, memory, prefetcher and context-learning
//! counters).
//!
//! # Frames
//!
//! Everything the simulator persists is one *frame*: a section whose tag
//! names its kind (`TRCE` traces, `RRES` finished-cell results), wrapped
//! with a magic and a checksum trailer.
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"SEMLOCFR"
//! 8       4     kind tag       } the section header of
//! 12      4     kind version   } SnapWriter::section
//! 16      n     payload
//! 16+n    8     body length n + 8 (tag + version + payload), u64 LE
//! 24+n    8     FNV-1a of bytes [0, 24+n), u64 LE
//! ```
//!
//! [`SnapReader::framed`] validates magic, length and checksum before it
//! reads a payload byte. The fold is bijective per byte, so any single-bit
//! corruption anywhere in a frame is rejected. Each kind versions its own
//! payload through the section header; a change to the frame layout itself
//! gets a new magic. [`write_atomic`] is the one way a frame reaches disk.

use std::fs;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::fault::{SaveFaults, ShortWriter};

/// Magic bytes opening every frame.
const FRAME_MAGIC: [u8; 8] = *b"SEMLOCFR";

/// FNV-1a offset basis; every FNV-1a accumulator starts here.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// Fold `bytes` into an FNV-1a accumulator. Every step is a bijection of
/// the accumulator state, so two streams differing in any byte keep
/// differing hashes no matter what identical suffix follows.
///
/// Frame checksums, stats digests and engine fingerprints all fold
/// through this function.
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

/// Versioned save/restore of a persisted statistics record: the codec of
/// the counters an `RRES` frame carries. Simulator run state is never
/// encoded; a fork copies it with `Clone`.
///
/// Both bodies of an implementation over a named-field struct open by
/// destructuring `self` without `..`, writing `field: _, // <why>` for a
/// field that is not persisted. A field added later then fails to compile
/// until it is encoded or excused, and a bound field the body never uses
/// fails `unused_variables` under `-D warnings`.
///
/// ```compile_fail,E0027
/// use semloc_trace::{SnapReader, SnapWriter, Snapshot};
///
/// struct Counter {
///     hits: u64,
///     capacity: usize,
///     misses: u64, // added later, not yet encoded
/// }
///
/// impl Snapshot for Counter {
///     fn save(&self, w: &mut SnapWriter) {
///         let Self {
///             hits,
///             capacity: _, // construction-time config
///         } = self;
///         w.section(*b"CNTR", 1);
///         w.put_u64(*hits);
///     }
///
///     fn restore(&mut self, r: &mut SnapReader<'_>) -> std::io::Result<()> {
///         let Self {
///             hits,
///             capacity: _, // construction-time config
///         } = self;
///         r.section(*b"CNTR", 1)?;
///         *hits = r.get_u64()?;
///         Ok(())
///     }
/// }
/// ```
pub trait Snapshot {
    /// Append this record to `w` as one or more tagged sections.
    fn save(&self, w: &mut SnapWriter);

    /// Restore a record previously written by [`Snapshot::save`] from `r`,
    /// failing with [`io::ErrorKind::InvalidData`] on a malformed one.
    fn restore(&mut self, r: &mut SnapReader<'_>) -> io::Result<()>;
}

/// An [`io::ErrorKind::InvalidData`] error for malformed records.
pub fn snap_err(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Little-endian byte sink for frames and [`Snapshot::save`].
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Open a frame of kind `tag` at `version`; seal it with
    /// [`SnapWriter::into_frame`].
    pub fn framed(tag: [u8; 4], version: u32) -> Self {
        let mut w = SnapWriter {
            buf: FRAME_MAGIC.to_vec(),
        };
        w.section(tag, version);
        w
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, yielding the bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Seal a frame opened by [`SnapWriter::framed`]: append the body
    /// length and the checksum of every preceding byte.
    pub fn into_frame(mut self) -> Vec<u8> {
        self.put_len(self.buf.len() - FRAME_MAGIC.len());
        let checksum = fnv1a(FNV_OFFSET, &self.buf);
        self.put_u64(checksum);
        self.buf
    }

    /// Open a section: a 4-byte ASCII tag plus a `u32` version.
    pub fn section(&mut self, tag: [u8; 4], version: u32) {
        self.buf.extend_from_slice(&tag);
        self.put_u32(version);
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a collection length as a `u64`.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Append raw bytes (length NOT prefixed; pair with [`Self::put_len`]).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
}

/// Cursor over serialized bytes, for frames and [`Snapshot::restore`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Validate a frame written by [`SnapWriter::into_frame`] — magic, body
    /// length and checksum, then its section header — and return a reader
    /// over its payload.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::InvalidData`] for a frame that is truncated,
    /// extended, corrupted, or of another kind or version.
    pub fn framed(bytes: &'a [u8], tag: [u8; 4], version: u32) -> io::Result<Self> {
        const TRAILER: usize = 16;
        if bytes.len() < FRAME_MAGIC.len() + 8 + TRAILER {
            return Err(snap_err(format!("frame too short: {} bytes", bytes.len())));
        }
        if bytes[..FRAME_MAGIC.len()] != FRAME_MAGIC {
            return Err(snap_err("not a semloc frame (bad magic)"));
        }
        let (framed, trailer) = bytes.split_at(bytes.len() - TRAILER);
        let mut t = SnapReader::new(trailer);
        let (body_len, checksum) = (t.get_u64()?, t.get_u64()?);
        let body = &framed[FRAME_MAGIC.len()..];
        if body_len != body.len() as u64 {
            return Err(snap_err(format!(
                "frame length mismatch: trailer says {body_len}, body has {}",
                body.len()
            )));
        }
        let computed = fnv1a(FNV_OFFSET, &bytes[..bytes.len() - 8]);
        if computed != checksum {
            return Err(snap_err(format!(
                "frame checksum mismatch: trailer {checksum:#018x}, computed {computed:#018x}"
            )));
        }
        let mut r = SnapReader::new(body);
        r.section(tag, version)?;
        Ok(r)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless every byte has been consumed (trailing garbage guard).
    pub fn expect_end(&self) -> io::Result<()> {
        if self.remaining() != 0 {
            return Err(snap_err(format!(
                "snapshot has {} trailing bytes",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "snapshot truncated: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.remaining()
                ),
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// [`SnapReader::take`] into a fixed-size array: the only failure mode
    /// is truncation (typed EOF error) — the length match is by
    /// construction, so no unwrap is needed at the call sites.
    fn take_array<const N: usize>(&mut self) -> io::Result<[u8; N]> {
        let mut a = [0u8; N];
        a.copy_from_slice(self.take(N)?);
        Ok(a)
    }

    /// Validate a section header written by [`SnapWriter::section`].
    pub fn section(&mut self, tag: [u8; 4], version: u32) -> io::Result<()> {
        let got: [u8; 4] = self.take_array()?;
        if got != tag {
            return Err(snap_err(format!(
                "snapshot section mismatch: expected {:?}, found {:?}",
                String::from_utf8_lossy(&tag),
                String::from_utf8_lossy(&got)
            )));
        }
        let v = self.get_u32()?;
        if v != version {
            return Err(snap_err(format!(
                "snapshot section {:?} version mismatch: expected {version}, found {v}",
                String::from_utf8_lossy(&tag)
            )));
        }
        Ok(())
    }

    /// Read a `u32`, little-endian.
    pub fn get_u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a `u64`, little-endian.
    pub fn get_u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read a bool; any byte other than 0/1 is malformed.
    pub fn get_bool(&mut self) -> io::Result<bool> {
        match self.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(snap_err(format!("snapshot bool has invalid value {b}"))),
        }
    }

    /// Read a collection length, bounds-checked against the bytes actually
    /// remaining (each element needs at least one byte), so a corrupt length
    /// cannot trigger an absurd allocation.
    pub fn get_len(&mut self) -> io::Result<usize> {
        let n = self.get_u64()?;
        if n > self.remaining() as u64 {
            return Err(snap_err(format!(
                "snapshot length {n} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Read exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> io::Result<&'a [u8]> {
        self.take(n)
    }
}

/// Write `bytes` to `path` atomically: into a temp file beside it, synced,
/// then renamed over `path` and the directory synced, so a reader sees the
/// old file or the new one, never a torn mix. On any failure the temp file
/// is removed and `path` is untouched. `faults` (testing only) corrupts the
/// bytes first or fails the write part-way.
///
/// # Errors
///
/// Any I/O error, including the `WriteZero` of an injected short write.
pub fn write_atomic(path: &Path, bytes: &[u8], faults: SaveFaults) -> io::Result<()> {
    // Distinct per call, so concurrent writers of one path never share a
    // temp file.
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    fs::create_dir_all(dir)?;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let corrupted;
    let bytes = if faults.plan.is_empty() {
        bytes
    } else {
        let mut b = bytes.to_vec();
        faults.plan.corrupt(&mut b);
        corrupted = b;
        &corrupted
    };
    let budget = faults.short_write.map_or(u64::MAX, |n| n as u64);
    let written = fs::File::create(&tmp)
        .and_then(|f| {
            let mut w = ShortWriter::new(f, budget);
            w.write_all(bytes)?;
            w.into_inner().sync_all()
        })
        .and_then(|()| fs::rename(&tmp, path));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written?;
    fs::File::open(dir)?.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = SnapWriter::new();
        w.section(*b"TST0", 3);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 7);
        w.put_bool(true);
        w.put_bool(false);
        w.put_len(3);
        w.put_bytes(b"abc");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        r.section(*b"TST0", 3).unwrap();
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        let n = r.get_len().unwrap();
        assert_eq!(r.get_bytes(n).unwrap(), b"abc");
        r.expect_end().unwrap();
    }

    #[test]
    fn wrong_tag_is_rejected() {
        let mut w = SnapWriter::new();
        w.section(*b"AAAA", 1);
        let bytes = w.into_bytes();
        let err = SnapReader::new(&bytes).section(*b"BBBB", 1).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut w = SnapWriter::new();
        w.section(*b"AAAA", 1);
        let bytes = w.into_bytes();
        let err = SnapReader::new(&bytes).section(*b"AAAA", 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncation_is_unexpected_eof() {
        let mut w = SnapWriter::new();
        w.put_u64(42);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..5]);
        let err = r.get_u64().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn absurd_length_is_rejected_without_allocation() {
        let mut w = SnapWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let err = SnapReader::new(&bytes).get_len().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let bytes = [7u8];
        let err = SnapReader::new(&bytes).get_bool().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = SnapWriter::new();
        w.put_bool(true);
        w.put_bool(false);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.get_bool().unwrap();
        assert!(r.expect_end().is_err());
        r.get_bool().unwrap();
        r.expect_end().unwrap();
    }

    #[test]
    fn frame_of_another_kind_or_version_is_rejected() {
        let mut w = SnapWriter::framed(*b"TST0", 3);
        w.put_u64(0xDEAD_BEEF);
        let bytes = w.into_frame();
        assert!(SnapReader::framed(&bytes, *b"TST0", 3).is_ok());
        for (tag, version) in [(*b"TST1", 3), (*b"TST0", 4)] {
            let err = SnapReader::framed(&bytes, tag, version).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }
}
