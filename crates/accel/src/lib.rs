//! Small integer kernels behind the simulator's measured hot paths.
//!
//! Four kernel families back the structures that dominate many-cell runs:
//!
//! * **hash mixing** — [`mix8`], the SplitMix64 finalizer applied to the 8
//!   per-attribute lanes of a `FeatureVec` extraction;
//! * **scored-set scans** — [`min_index_i8`], [`max_index_last_i8`],
//!   [`min_index_u32`]: the CST victim-select and best-candidate
//!   reductions;
//! * **cache tag probes** — [`find_valid_tag`] and [`victim_way`] over a
//!   set-major SoA cache array;
//! * **reward gathers** — [`gather_i32`], batch evaluation of the
//!   precomputed bell-reward table.
//!
//! Every kernel is plain scalar Rust, small enough to inline into its
//! caller. Tie-breaks follow the `Iterator` conventions of the scans they
//! replace: first match, first minimum (`min_by_key`), last maximum
//! (`max_by_key`). `tests/equivalence.rs` pins each kernel to a plain
//! iterator reference. At the paper's Table-2 shapes (4-link CST entries,
//! 8- and 16-way sets) hand-written vector tiers did not pay end to end;
//! DESIGN.md §13 has the measurement.

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

/// The kernels' implementation: always [`Tier::Scalar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Portable scalar Rust.
    Scalar,
}

/// The implementation every kernel runs (reported in benchmark
/// provenance lines).
pub fn tier() -> Tier {
    Tier::Scalar
}

/// SplitMix64 finalizer (the `mix` of `semloc_context::attrs`).
#[inline]
fn splitmix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Apply the SplitMix64 finalizer to all 8 lanes in place.
#[inline]
pub fn mix8(x: &mut [u64; 8]) {
    for v in x.iter_mut() {
        *v = splitmix(*v);
    }
}

/// Index of the first minimum (the `min_by_key` tie-break).
#[inline]
pub fn min_index_i8(v: &[i8]) -> Option<usize> {
    let mut best: Option<(usize, i8)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, b)) if b <= x => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the **last** maximum (the `max_by_key` tie-break).
#[inline]
pub fn max_index_last_i8(v: &[i8]) -> Option<usize> {
    let mut best: Option<(usize, i8)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, b)) if b > x => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the first minimum (the `min_by_key` tie-break).
#[inline]
pub fn min_index_u32(v: &[u32]) -> Option<usize> {
    let mut best: Option<(usize, u32)> = None;
    for (i, &x) in v.iter().enumerate() {
        match best {
            Some((_, b)) if b <= x => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// Index of the first way with `valid[i] && tags[i] == needle`.
/// `tags` and `valid` must have equal lengths.
///
/// The tag is compared first: it rejects almost every way on its own, so
/// the `valid` lane is read only on a tag match.
#[inline]
pub fn find_valid_tag(tags: &[u64], valid: &[bool], needle: u64) -> Option<usize> {
    assert_eq!(tags.len(), valid.len(), "tag/valid arrays must pair up");
    tags.iter().zip(valid).position(|(&t, &v)| t == needle && v)
}

/// The LRU key of a way: invalid ways are free (key 0) and always beat
/// valid ones, whose key is `lru + 1` (wrapping, so the contract is total
/// over all of `u64` — real LRU ticks never reach the wrap).
#[inline]
fn lru_key(valid: bool, lru: u64) -> u64 {
    if valid {
        lru.wrapping_add(1)
    } else {
        0
    }
}

/// Replacement victim: index of the first way minimizing the LRU key
/// `if valid { lru + 1 } else { 0 }` (invalid ways always win; ties go to
/// the first way, matching `min_by_key`).
#[inline]
pub fn victim_way(valid: &[bool], lru: &[u64]) -> Option<usize> {
    assert_eq!(valid.len(), lru.len(), "valid/lru arrays must pair up");
    let mut best: Option<(usize, u64)> = None;
    for i in 0..valid.len() {
        let k = lru_key(valid[i], lru[i]);
        match best {
            Some((_, b)) if b <= k => {}
            _ => best = Some((i, k)),
        }
    }
    best.map(|(i, _)| i)
}

/// Gather `out[i] = table[min(idxs[i], table.len() - 1)]` — batch lookup of
/// a precomputed reward table whose final entry covers the whole
/// beyond-range tail. `table` must be non-empty and `out` at least as long
/// as `idxs`.
#[inline]
pub fn gather_i32(table: &[i32], idxs: &[u32], out: &mut [i32]) {
    assert!(!table.is_empty(), "gather table must be non-empty");
    assert!(out.len() >= idxs.len(), "gather output too short");
    let last = table.len() - 1;
    for (o, &idx) in out.iter_mut().zip(idxs) {
        *o = table[(idx as usize).min(last)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix8_reproduces_the_published_splitmix64_stream() {
        // SplitMix64 seeded with 0 emits splitmix(k * golden) for
        // k = 1, 2, ...; its published first outputs pin the finalizer.
        let mut lanes: [u64; 8] =
            std::array::from_fn(|k| (k as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        mix8(&mut lanes);
        assert_eq!(
            lanes[..3],
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }

    #[test]
    fn victim_prefers_first_invalid_then_first_lru_min() {
        assert_eq!(victim_way(&[true, false, false], &[1, 9, 9]), Some(1));
        assert_eq!(victim_way(&[true, true, true], &[5, 2, 2]), Some(1));
        assert_eq!(victim_way(&[], &[]), None);
    }

    #[test]
    fn gather_clamps_to_the_tail_entry() {
        let table = [10, 20, 30, 0];
        let mut out = [0i32; 5];
        gather_i32(&table, &[0, 2, 3, 4, 1000], &mut out);
        assert_eq!(out, [10, 30, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "must pair up")]
    fn tag_probe_rejects_mismatched_lanes() {
        find_valid_tag(&[1, 2], &[true], 1);
    }
}
