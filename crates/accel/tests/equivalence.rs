//! Property suite pinning every kernel to a plain iterator reference, over
//! tie-dense and rail-heavy inputs: small alphabets so duplicate
//! minima/maxima (where tie-break order matters) and repeated matches
//! occur constantly, plus the integer rails.

use proptest::prelude::*;

fn score_i8() -> impl Strategy<Value = i8> {
    prop_oneof![Just(i8::MIN), Just(i8::MAX), -2i8..3, any::<i8>(),]
}

/// The valid-first probe the tag-first kernel replaced.
fn find_valid_tag_ref(tags: &[u64], valid: &[bool], needle: u64) -> Option<usize> {
    (0..tags.len()).find(|&i| valid[i] && tags[i] == needle)
}

fn min_index_ref<T: Ord>(v: &[T]) -> Option<usize> {
    v.iter().enumerate().min_by_key(|&(_, x)| x).map(|(i, _)| i)
}

fn max_index_last_ref<T: Ord>(v: &[T]) -> Option<usize> {
    v.iter().enumerate().max_by_key(|&(_, x)| x).map(|(i, _)| i)
}

fn victim_way_ref(valid: &[bool], lru: &[u64]) -> Option<usize> {
    valid
        .iter()
        .zip(lru)
        .enumerate()
        .min_by_key(|&(_, (&v, &l))| if v { l.wrapping_add(1) } else { 0 })
        .map(|(i, _)| i)
}

fn gather_i32_ref(table: &[i32], idxs: &[u32]) -> Vec<i32> {
    idxs.iter()
        .map(|&i| table[(i as usize).min(table.len() - 1)])
        .collect()
}

proptest! {
    #[test]
    fn min_index_i8_matches_min_by_key(v in collection::vec(score_i8(), 0..72)) {
        prop_assert_eq!(semloc_accel::min_index_i8(&v), min_index_ref(&v));
    }

    #[test]
    fn max_index_last_i8_matches_max_by_key(v in collection::vec(score_i8(), 0..72)) {
        prop_assert_eq!(semloc_accel::max_index_last_i8(&v), max_index_last_ref(&v));
    }

    #[test]
    fn min_index_u32_matches_min_by_key(
        v in collection::vec(
            prop_oneof![Just(0u32), Just(u32::MAX), 0u32..4, any::<u32>()],
            0..40,
        )
    ) {
        prop_assert_eq!(semloc_accel::min_index_u32(&v), min_index_ref(&v));
    }

    #[test]
    fn find_valid_tag_matches_the_valid_first_probe(
        ways in collection::vec((0u64..5, any::<bool>()), 0..24),
        needle in 0u64..5,
    ) {
        let tags: Vec<u64> = ways.iter().map(|w| w.0).collect();
        let valid: Vec<bool> = ways.iter().map(|w| w.1).collect();
        prop_assert_eq!(
            semloc_accel::find_valid_tag(&tags, &valid, needle),
            find_valid_tag_ref(&tags, &valid, needle)
        );
    }

    #[test]
    fn victim_way_matches_min_by_key_of_the_lru_key(
        ways in collection::vec(
            (any::<bool>(), prop_oneof![0u64..4, Just(u64::MAX), any::<u64>()]),
            0..24,
        )
    ) {
        let valid: Vec<bool> = ways.iter().map(|w| w.0).collect();
        let lru: Vec<u64> = ways.iter().map(|w| w.1).collect();
        prop_assert_eq!(semloc_accel::victim_way(&valid, &lru), victim_way_ref(&valid, &lru));
    }

    #[test]
    fn gather_i32_matches_clamped_indexing(
        table in collection::vec(any::<i32>(), 1..50),
        idxs in collection::vec(prop_oneof![0u32..64, Just(u32::MAX)], 0..40),
    ) {
        let mut got = vec![0i32; idxs.len()];
        semloc_accel::gather_i32(&table, &idxs, &mut got);
        prop_assert_eq!(got, gather_i32_ref(&table, &idxs));
    }
}

/// The edge lengths the random vectors may under-sample, including the
/// production shapes (4-link CST entries, 8- and 16-way sets) and one
/// either side of each, up to 65 lanes.
#[test]
fn boundary_lengths_match_the_references() {
    for n in [
        0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65,
    ] {
        let i8s: Vec<i8> = (0..n).map(|i| ((i * 37) % 11) as i8 - 5).collect();
        let u32s: Vec<u32> = (0..n).map(|i| ((i * 29) % 7) as u32).collect();
        let u64s: Vec<u64> = (0..n).map(|i| ((i * 13) % 5) as u64).collect();
        let valid: Vec<bool> = (0..n).map(|i| i % 3 != 0).collect();
        let idxs: Vec<u32> = (0..n).map(|i| (i * 3) as u32).collect();
        let table: Vec<i32> = (0..17).map(|i| i * 10 - 80).collect();
        assert_eq!(
            semloc_accel::min_index_i8(&i8s),
            min_index_ref(&i8s),
            "min_index_i8 len {n}"
        );
        assert_eq!(
            semloc_accel::max_index_last_i8(&i8s),
            max_index_last_ref(&i8s),
            "max_index_last_i8 len {n}"
        );
        assert_eq!(
            semloc_accel::min_index_u32(&u32s),
            min_index_ref(&u32s),
            "min_index_u32 len {n}"
        );
        assert_eq!(
            semloc_accel::victim_way(&valid, &u64s),
            victim_way_ref(&valid, &u64s),
            "victim_way len {n}"
        );
        let mut out = vec![0i32; n];
        semloc_accel::gather_i32(&table, &idxs, &mut out);
        assert_eq!(out, gather_i32_ref(&table, &idxs), "gather_i32 len {n}");
        for needle in 0..6 {
            assert_eq!(
                semloc_accel::find_valid_tag(&u64s, &valid, needle),
                find_valid_tag_ref(&u64s, &valid, needle),
                "find_valid_tag len {n} needle {needle}"
            );
        }
    }
}
