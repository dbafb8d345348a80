//! Self-contained stand-in for the subset of the [`rand`] crate API used by
//! this workspace.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! a minimal implementation of the interfaces it actually consumes:
//!
//! * [`rngs::StdRng`] — a deterministic xoshiro256\*\* generator seeded with
//!   SplitMix64, matching the `rand` crate's `StdRng: SeedableRng` shape
//!   (`seed_from_u64`);
//! * [`Rng::random_range`] over integer and float ranges (half-open and
//!   inclusive);
//! * [`Rng::random`] for `f64`/`f32`/`u64`/`u32`/`bool`;
//! * [`Rng::random_bool`] for Bernoulli draws.
//!
//! The streams differ from the upstream crate, but every consumer in this
//! workspace only relies on *determinism per seed* and reasonable uniformity,
//! both of which hold here.
//!
//! [`rand`]: https://crates.io/crates/rand

use std::ops::{Range, RangeInclusive};

/// Random number generators.
pub mod rngs {
    pub use crate::std_rng::StdRng;
}

mod std_rng {
    use crate::{RngCore, SeedableRng};

    /// Deterministic xoshiro256\*\* generator, seeded with SplitMix64.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: [u64; 4],
    }

    #[inline]
    fn splitmix64(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut s = seed;
            let state = [
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
                splitmix64(&mut s),
            ];
            StdRng { state }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let [s0, s1, s2, s3] = self.state;
            let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1 << 17;
            let mut s = [s0, s1, s2, s3];
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            self.state = s;
            result
        }
    }
}

/// The raw 64-bit source every generator implements.
pub trait RngCore {
    /// Returns the next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Generators that can be seeded from a `u64` (the only seeding mode the
/// workspace uses).
pub trait SeedableRng: Sized {
    /// Creates a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a generator's raw bits.
pub trait StandardUniform: Sized {
    /// Draws one value from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardUniform for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}

impl StandardUniform for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 32) as u32
    }
}

impl StandardUniform for u8 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl StandardUniform for bool {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() & 1 == 1
    }
}

impl StandardUniform for f64 {
    /// Uniform in `[0, 1)`, using the top 53 bits.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    /// Uniform in `[0, 1)`, using the top 24 bits.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

/// Ranges that can produce a uniform sample of `T`.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `[0, span)` via Lemire's multiply-shift reduction.
///
/// The bias is at most `span / 2^64`, far below anything the workspace's
/// randomized algorithms or tests can observe.
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! impl_int_sample_range {
    ($($t:ty),*) => {
        $(
            impl SampleRange<$t> for Range<$t> {
                #[inline]
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    assert!(self.start < self.end, "cannot sample an empty range");
                    let span = (self.end as u64).wrapping_sub(self.start as u64);
                    self.start.wrapping_add(uniform_below(rng, span) as $t)
                }
            }

            impl SampleRange<$t> for RangeInclusive<$t> {
                #[inline]
                fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                    let (start, end) = (*self.start(), *self.end());
                    assert!(start <= end, "cannot sample an empty range");
                    let span = (end as u64).wrapping_sub(start as u64);
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    start.wrapping_add(uniform_below(rng, span + 1) as $t)
                }
            }
        )*
    };
}

// The span arithmetic is wrapping on purpose: `as u64` sign-extends signed
// bounds, so `end - start` is the true span for signed ranges as well.
impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample an empty range");
        let unit: f64 = StandardUniform::sample(rng);
        self.start + (self.end - self.start) * unit
    }
}

impl SampleRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (start, end) = (*self.start(), *self.end());
        assert!(start <= end, "cannot sample an empty range");
        let unit: f64 = StandardUniform::sample(rng);
        start + (end - start) * unit
    }
}

/// The user-facing sampling interface, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a uniform value of `T` (`f64` in `[0, 1)`, full-width integers).
    #[inline]
    fn random<T: StandardUniform>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Draws a uniform value from the given range.
    #[inline]
    fn random_range<T, Rg>(&mut self, range: Rg) -> T
    where
        Self: Sized,
        Rg: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        self.random::<f64>() < p
    }
}

impl<R: RngCore> Rng for R {}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn streams_are_deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(a.random::<u64>(), c.random::<u64>());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.random_range(3usize..17);
            assert!((3..17).contains(&x));
            let y = rng.random_range(5u64..=9);
            assert!((5..=9).contains(&y));
            let f = rng.random_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn unit_floats_are_in_unit_interval() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.random_range(0usize..10)] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn bernoulli_edge_cases() {
        let mut rng = StdRng::seed_from_u64(2);
        assert!(rng.random_bool(1.0));
        assert!(!rng.random_bool(0.0));
        let hits = (0..10_000).filter(|_| rng.random_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits {hits}");
    }
}
