//! Exhaustive corruption matrix for the frame every persisted kind shares
//! (`TRCE` traces, `RRES` finished-cell results), run on a trace
//! frame: every single-bit mutation of every byte must either fail to
//! parse with a typed `io::Error` or — were the frame ever to grow
//! don't-care bytes — decode to a buffer whose canonical re-encode
//! reproduces the mutated bytes exactly. Nothing may parse into a
//! *different* instruction stream, and nothing may panic.
//!
//! With the trailer checksum in place the expectation is strict: the FNV-1a
//! fold step is bijective in each input byte, so *every* mutation below is
//! rejected; the matrix pins that at 100% and will start failing the
//! moment a byte stops being covered.

use proptest::prelude::*;

use semloc_trace::{BufferSink, Instr, Reg, SemanticHints, TraceBuffer, TraceSink};

/// A small but representative trace: loads/stores with and without
/// registers and hints, ALU ops, branches, wraparound addresses.
fn valid_bytes() -> Vec<u8> {
    let mut sink = BufferSink::with_limit(0);
    for i in 0..40u64 {
        let pc = 0x400000 + i * 4;
        match i % 5 {
            0 => sink.instr(Instr::load(
                pc,
                0x10_0000 + i * 64,
                8,
                Reg((i % 30) as u8),
                Some(Reg(((i + 7) % 30) as u8)),
                None,
                i.wrapping_mul(0x9e37_79b9),
            )),
            1 => sink.instr(Instr::store(
                pc,
                u64::MAX - i * 8,
                4,
                Some(Reg(2)),
                Some(Reg(3)),
            )),
            2 => sink.instr(Instr::alu(pc, Some(Reg(4)), None, Some(Reg(5)), i)),
            3 => sink.instr(Instr::load(
                pc,
                0x20_0000 + i * 96,
                8,
                Reg(6),
                Some(Reg(1)),
                Some(SemanticHints {
                    type_id: (i % 7) as u16,
                    link_offset: (i % 48) as u16,
                    ref_form: semloc_trace::RefForm::Arrow,
                }),
                i,
            )),
            _ => sink.instr(Instr::branch(pc, i % 3 == 0, pc + 8, Some(Reg(9)))),
        }
    }
    TraceBuffer::encode(&sink.into_lanes()).to_frame("matrix")
}

/// Validate the frame and decode its columns, or report the typed error.
fn parse(bytes: &[u8]) -> std::io::Result<(String, TraceBuffer)> {
    TraceBuffer::from_frame(bytes)
}

#[test]
fn every_single_bit_mutation_is_rejected_or_canonical() {
    let clean = valid_bytes();
    // Sanity: the unmutated bytes round-trip.
    let round = {
        let (label, buf) = parse(&clean).expect("clean trace must parse");
        buf.to_frame(&label)
    };
    assert_eq!(round, clean, "canonical re-encode must be stable");

    let mut rejected = 0u64;
    let mut canonical = 0u64;
    for i in 0..clean.len() {
        for bit in 0..8 {
            let mut mutated = clean.clone();
            mutated[i] ^= 1 << bit;
            match parse(&mutated) {
                Err(_) => rejected += 1,
                Ok((label, buf)) => {
                    // The only acceptable parse is one that owns every
                    // mutated byte: re-encoding must reproduce them.
                    let out = buf.to_frame(&label);
                    assert_eq!(
                        out, mutated,
                        "byte {i} bit {bit}: mutation parsed into a stream \
                         that re-encodes differently — silent corruption"
                    );
                    canonical += 1;
                }
            }
        }
    }
    let total = (clean.len() * 8) as u64;
    assert_eq!(rejected + canonical, total);
    // The checksum covers every byte (magic, header, payload, length), so
    // the matrix must be 100% rejection. If this assertion fires after an
    // intentional format change, some byte is no longer validated — decide
    // deliberately whether that's acceptable before relaxing it.
    assert_eq!(
        canonical, 0,
        "{canonical}/{total} mutations parsed; every byte should be \
         checksum-protected"
    );
}

proptest! {
    #[test]
    fn multi_byte_corruption_never_parses_silently(
        seed in any::<u64>(),
        hits in 1usize..6,
    ) {
        let clean = valid_bytes();
        let mut mutated = clean.clone();
        let mut state = seed | 1;
        for _ in 0..hits {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let i = (state >> 16) as usize % mutated.len();
            let bit = (state >> 8) as u8 % 8;
            mutated[i] ^= 1 << bit;
        }
        if mutated == clean {
            // An even number of hits on the same bit can cancel out.
            prop_assert!(parse(&mutated).is_ok());
        } else {
            prop_assert!(
                parse(&mutated).is_err(),
                "corrupted trace parsed successfully"
            );
        }
    }

    #[test]
    fn random_prefixes_never_parse_as_nonempty_traces(len in 0usize..200) {
        // Arbitrary garbage (including short prefixes of valid data) must
        // never yield instructions.
        let clean = valid_bytes();
        let prefix = &clean[..len.min(clean.len() - 1)];
        prop_assert!(parse(prefix).is_err(), "truncated prefix parsed");
    }
}
