//! Property tests over the trace encoding: the struct-of-arrays
//! [`TraceBuffer`] and its `TRCE` frame must round-trip every
//! [`InstrKind`] variant — including absent registers and `SemanticHints`
//! edge values — bit-exactly, and the frame reader must reject truncation
//! cleanly.

use proptest::prelude::*;

use semloc_trace::{Instr, InstrKind, RefForm, Reg, SemanticHints, TraceBuffer};

/// Build one instruction from raw entropy, covering every variant and the
/// interesting boundary values (absent registers, zero/huge results,
/// hint fields at their packed-format limits, negative PC/address motion).
fn instr_from(raw: (u64, u64, u64, u64)) -> Instr {
    let (sel, pc_bits, addr_bits, misc) = raw;
    let pc = match sel >> 8 & 0b11 {
        0 => pc_bits,                  // anywhere in the address space
        1 => pc_bits % 0x10_000,       // low, loop-like
        2 => u64::MAX - (pc_bits % 9), // wraparound deltas
        _ => 0,
    };
    let reg = |bits: u64, present: u64| (present & 1 == 1).then_some(Reg((bits % 32) as u8));
    let result = match sel >> 12 & 0b11 {
        0 => 0,
        1 => u64::MAX,
        _ => misc,
    };
    let hints = (sel >> 16 & 1 == 1).then(|| {
        SemanticHints {
            type_id: match sel >> 20 & 0b11 {
                0 => 0,
                1 => u16::MAX,
                _ => (misc >> 16) as u16,
            },
            // pack() keeps 14 bits of link_offset; stay in-range so the
            // round-trip is exact (the mask is its own unit-tested
            // behaviour).
            link_offset: match sel >> 24 & 0b11 {
                0 => 0,
                1 => 0x3fff,
                _ => (misc % 0x4000) as u16,
            },
            ref_form: RefForm::ALL[(sel >> 28 & 0b11) as usize],
        }
    });
    let size = 1u8 << (sel >> 4 & 0b11); // 1/2/4/8 bytes
    match sel % 5 {
        0 => Instr {
            pc,
            kind: InstrKind::Alu {
                latency: (misc as u32) % 64 + 1,
            },
            src1: reg(misc, sel >> 32),
            src2: reg(misc >> 8, sel >> 33),
            dst: reg(misc >> 16, sel >> 34),
            result,
        },
        1 => Instr {
            pc,
            kind: InstrKind::Load {
                addr: addr_bits,
                size,
                hints,
            },
            src1: reg(misc, sel >> 32),
            src2: None,
            dst: reg(misc >> 16, sel >> 34),
            result,
        },
        2 => Instr {
            pc,
            kind: InstrKind::Store {
                addr: addr_bits,
                size,
            },
            src1: reg(misc, sel >> 32),
            src2: reg(misc >> 8, sel >> 33),
            dst: None,
            result,
        },
        3 => Instr {
            pc,
            kind: InstrKind::Branch {
                taken: sel >> 40 & 1 == 1,
                target: addr_bits,
            },
            src1: reg(misc, sel >> 32),
            src2: None,
            dst: None,
            result,
        },
        _ => Instr {
            pc,
            kind: InstrKind::Nop,
            src1: None,
            src2: None,
            dst: None,
            result,
        },
    }
}

fn buffer(instrs: &[Instr]) -> TraceBuffer {
    let mut buf = TraceBuffer::new();
    for i in instrs {
        buf.push(i);
    }
    buf
}

proptest! {
    /// The SoA buffer round-trips arbitrary streams field-for-field, and so
    /// does its frame.
    #[test]
    fn trace_buffer_roundtrips(raws in proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 0..200))
    {
        let instrs: Vec<Instr> = raws.into_iter().map(instr_from).collect();
        let buf = buffer(&instrs);
        prop_assert_eq!(buf.len(), instrs.len());
        prop_assert_eq!(buf.iter().collect::<Vec<_>>(), instrs.clone());

        let (label, back) = TraceBuffer::from_frame(&buf.to_frame("k")).expect("own output");
        prop_assert_eq!(label, "k");
        prop_assert_eq!(back.iter().collect::<Vec<_>>(), instrs);
    }

    /// Truncating a valid frame anywhere fails cleanly (a typed error —
    /// never a panic, never silent success).
    #[test]
    fn truncation_is_detected(raws in proptest::collection::vec(
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()), 1..40),
        cut in any::<u64>())
    {
        let instrs: Vec<Instr> = raws.into_iter().map(instr_from).collect();
        let bytes = buffer(&instrs).to_frame("k");
        let cut = (cut as usize) % bytes.len();
        prop_assert!(
            TraceBuffer::from_frame(&bytes[..cut]).is_err(),
            "truncation at {}/{} must error", cut, bytes.len()
        );
    }
}

#[test]
fn all_ones_hint_round_trips_exactly() {
    // The one hint value whose packing is all ones (type 0xffff, link
    // 0x3fff, Index): hint presence is a flag bit, not a sentinel value, so
    // it survives the buffer and the frame like any other.
    let edge = SemanticHints {
        type_id: u16::MAX,
        link_offset: 0x3fff,
        ref_form: RefForm::Index,
    };
    assert_eq!(edge.pack(), u32::MAX);
    let i = Instr::load(0x400, 0x1000, 8, Reg(1), None, Some(edge), 7);
    let buf = buffer(&[i]);
    let (_, back) = TraceBuffer::from_frame(&buf.to_frame("k")).unwrap();
    let got = back.iter().next().unwrap();
    assert_eq!(got, i);
    assert!(matches!(got.kind, InstrKind::Load { hints: Some(h), .. } if h == edge));
}

#[test]
fn empty_trace_roundtrips() {
    let (label, back) = TraceBuffer::from_frame(&TraceBuffer::new().to_frame("")).unwrap();
    assert_eq!(label, "");
    assert!(back.is_empty());
    assert_eq!(back.iter().count(), 0);
}
