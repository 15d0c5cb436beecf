//! Property tests over the `SIMC` simulation checkpoint frame: it must
//! round-trip arbitrary payloads bit-exactly and reject truncated or
//! extended bytes instead of misinterpreting them. (Bit flips are the
//! frame corruption matrix's job, in `crates/trace/tests`.)

use proptest::prelude::*;

use semloc_harness::{SimCheckpoint, SIM_CKPT_VERSION};

proptest! {
    #[test]
    fn sim_checkpoint_round_trips(
        fingerprint in any::<u64>(),
        cursor in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let ckpt = SimCheckpoint {
            version: SIM_CKPT_VERSION,
            fingerprint,
            cursor,
            payload,
        };
        let parsed = SimCheckpoint::from_bytes(&ckpt.to_bytes()).expect("round trip");
        prop_assert_eq!(parsed, ckpt);
    }

    #[test]
    fn sim_checkpoint_rejects_truncation_and_extension(
        fingerprint in any::<u64>(),
        cursor in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        cut in any::<u64>(),
        extra in 1usize..16,
    ) {
        let bytes = SimCheckpoint {
            version: SIM_CKPT_VERSION,
            fingerprint,
            cursor,
            payload,
        }
        .to_bytes();
        // Any strict prefix fails the frame check...
        let keep = (cut % bytes.len() as u64) as usize;
        prop_assert!(SimCheckpoint::from_bytes(&bytes[..keep]).is_err());
        // ...and so do trailing bytes.
        let mut long = bytes;
        long.extend(std::iter::repeat_n(0xA5u8, extra));
        prop_assert!(SimCheckpoint::from_bytes(&long).is_err());
    }
}
