//! Instruction/memory-access trace model for the semloc simulator.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Instr`] / [`InstrKind`] — the ISA-agnostic instruction records that
//!   workloads emit and the out-of-order core model consumes.
//! * [`SemanticHints`] — the compiler-injected software attributes of the
//!   paper (object type id, link offset, form of reference). In the original
//!   system a modified LLVM pass packed these into an extended-NOP
//!   immediately preceding each pointer-typed load; here the workload
//!   generator attaches them directly to the load record, which carries the
//!   exact same information to the prefetcher.
//! * [`AccessContext`] — the per-access machine context (Table 1 of the
//!   paper) handed to prefetchers.
//! * [`AddressSpace`] — a simulated virtual-address allocator with pluggable
//!   placement policies, so the same algorithm can be laid out "naively"
//!   (scattered heap) or "spatially optimized" (sequential arrays).
//! * [`TraceSink`] / [`Emitter`] — the push-based streaming interface through
//!   which workloads drive a simulator without materializing traces.
//!
//! # Example
//!
//! ```rust
//! use semloc_trace::{AddressSpace, Emitter, Placement, RecordingSink, Reg};
//!
//! let mut space = AddressSpace::new(1, Placement::Bump);
//! let a = space.alloc(64);
//! let mut sink = RecordingSink::new();
//! let mut em = Emitter::new(&mut sink);
//! em.load(0x400000, a, Reg(1), None, None, a + 64);
//! assert_eq!(sink.instrs().len(), 1);
//! ```

// No panic paths in library code; tests, bins and examples are exempt.
// `clippy::unreachable` has no in-tests exemption, hence the `cfg_attr`.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

pub mod address_space;
pub mod buffer;
pub mod context;
pub mod decoded;
pub mod emit;
pub mod fault;
pub mod hints;
pub mod instr;
pub mod sink;
pub mod snap;

pub use address_space::{AddressSpace, Placement};
pub use buffer::{TraceBuffer, BLOCK_LEN};
pub use context::{AccessContext, RECENT_ADDRS};
pub use decoded::{BufferSink, DecodedTrace, InstrBlock};
pub use emit::{Emitter, PcAlloc};
pub use fault::{Fault, FaultPlan, SaveFaults, ShortWriter};
pub use hints::{RefForm, SemanticHints};
pub use instr::{Instr, InstrKind, Reg};
pub use sink::{CountingSink, RecordingSink, TraceSink};
pub use snap::{fnv1a, snap_err, write_atomic, SnapReader, SnapWriter, Snapshot, FNV_OFFSET};

/// A virtual address in the simulated machine.
pub type Addr = u64;

/// A simulated core clock cycle.
pub type Cycle = u64;

/// A monotone sequence number over the *demand memory access* stream.
///
/// The paper measures prefetch distance and reward depth in "memory
/// accesses", not cycles; this type indexes that stream.
pub type Seq = u64;

/// Align `addr` down to a `block`-byte boundary. `block` must be a power of
/// two.
#[inline]
pub fn align_down(addr: Addr, block: u64) -> Addr {
    debug_assert!(block.is_power_of_two());
    addr & !(block - 1)
}

/// The block index of `addr` at `block`-byte granularity.
#[inline]
pub fn block_of(addr: Addr, block: u64) -> u64 {
    debug_assert!(block.is_power_of_two());
    addr >> block.trailing_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn align_down_masks_low_bits() {
        assert_eq!(align_down(0x1234, 64), 0x1200);
        assert_eq!(align_down(0x1240, 64), 0x1240);
        assert_eq!(align_down(63, 64), 0);
    }

    #[test]
    fn block_of_shifts() {
        assert_eq!(block_of(0, 32), 0);
        assert_eq!(block_of(31, 32), 0);
        assert_eq!(block_of(32, 32), 1);
        assert_eq!(block_of(0x1000, 64), 0x40);
    }
}
