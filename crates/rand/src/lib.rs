//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the small slice of the `rand` API it actually uses:
//! [`Rng`], [`RngExt`], [`SeedableRng`], [`rngs::StdRng`] and
//! [`seq::SliceRandom`]. The generator is xoshiro256** seeded through
//! SplitMix64 — deterministic across platforms and runs, which is what the
//! simulator's reproducibility guarantees (and the golden-digest tests)
//! rely on. Statistical quality is far beyond what ε-greedy exploration and
//! workload shuffling need.

/// A source of random 64-bit words.
pub trait Rng {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: Rng + ?Sized> Rng for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Convenience sampling methods, blanket-implemented for every [`Rng`].
pub trait RngExt: Rng {
    /// A uniformly distributed value of `T`.
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A uniform draw from `range` (half-open). Panics on an empty range.
    fn random_range<T: SampleUniform>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample_range(self, range.start, range.end)
    }
}

impl<R: Rng + ?Sized> RngExt for R {}

/// Types with a canonical "uniform over the whole domain" distribution.
pub trait Standard {
    /// Draw one value from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl Standard for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for bool {
    fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// Integer types that can be drawn uniformly from a half-open range.
pub trait SampleUniform: Copy + PartialOrd {
    /// Draw from `[lo, hi)`. Panics when the range is empty.
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty random_range");
                let span = (hi as u64).wrapping_sub(lo as u64);
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

macro_rules! impl_sample_uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                assert!(lo < hi, "empty random_range");
                let span = (hi as i64).wrapping_sub(lo as i64) as u64;
                lo.wrapping_add((rng.next_u64() % span) as $t)
            }
        }
    )*};
}

impl_sample_uniform_uint!(u8, u16, u32, u64, usize);
impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    fn sample_range<R: Rng + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        assert!(lo < hi, "empty random_range");
        lo + f64::sample(rng) * (hi - lo)
    }
}

/// RNGs constructible from a seed.
pub trait SeedableRng: Sized {
    /// Build the generator from a 64-bit seed (deterministic).
    fn seed_from_u64(seed: u64) -> Self;
}

pub mod rngs {
    //! Concrete generators.

    use super::{Rng, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256**
    /// seeded via SplitMix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    #[inline]
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl Rng for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            out
        }
    }
}

pub mod seq {
    //! Sequence-related random operations.

    use super::{Rng, RngExt};

    /// Slice shuffling (Fisher–Yates).
    pub trait SliceRandom {
        /// Shuffle the slice in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = rng.random_range(0..i + 1);
                self.swap(i, j);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::{RngExt, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn range_draws_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.random_range(10usize..20);
            assert!((10..20).contains(&v));
            let w = rng.random_range(-5i64..5);
            assert!((-5..5).contains(&w));
            let f = rng.random::<f64>();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_draws_cover_the_domain() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 8];
        for _ in 0..256 {
            seen[rng.random_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..64).collect();
        let orig = v.clone();
        v.shuffle(&mut rng);
        assert_ne!(v, orig, "64 elements virtually never shuffle to identity");
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, orig);
    }
}
