//! The [`Strategy`] trait and its combinators.
//!
//! A strategy is simply a sampler: no shrinking is performed. Ranges over
//! integers and floats, tuples of strategies and [`Just`] are supported, plus
//! the `prop_map` / `prop_flat_map` combinators used throughout the
//! workspace's tests.

use std::ops::{Range, RangeInclusive};

use rand::Rng;

use crate::test_runner::TestRunner;

/// A source of random values of one type.
pub trait Strategy {
    /// The type of value produced.
    type Value;

    /// Draws one value.
    fn sample(&self, runner: &mut TestRunner) -> Self::Value;

    /// Maps produced values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }

    /// Derives a second strategy from each produced value and samples it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { inner: self, f }
    }
}

/// Types with a canonical full-range strategy, usable via [`any`].
pub trait Arbitrary: Sized {
    /// The canonical strategy for this type.
    type Strategy: Strategy<Value = Self>;

    /// Returns the canonical strategy.
    fn arbitrary() -> Self::Strategy;
}

/// The canonical strategy for `T` (`any::<bool>()`, `any::<u64>()`, …).
pub fn any<T: Arbitrary>() -> T::Strategy {
    T::arbitrary()
}

/// Full-range strategy for a [`rand::StandardUniform`] type.
#[derive(Debug, Clone, Copy, Default)]
pub struct StandardStrategy<T>(std::marker::PhantomData<T>);

impl<T: rand::StandardUniform> Strategy for StandardStrategy<T> {
    type Value = T;

    fn sample(&self, runner: &mut TestRunner) -> T {
        runner.rng().random()
    }
}

macro_rules! impl_arbitrary_standard {
    ($($t:ty),*) => {
        $(
            impl Arbitrary for $t {
                type Strategy = StandardStrategy<$t>;

                fn arbitrary() -> Self::Strategy {
                    StandardStrategy(std::marker::PhantomData)
                }
            }
        )*
    };
}

impl_arbitrary_standard!(bool, u8, u32, u64, f64);

/// Strategy producing a fixed (cloned) value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _runner: &mut TestRunner) -> T {
        self.0.clone()
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    pub(crate) inner: S,
    pub(crate) f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;

    fn sample(&self, runner: &mut TestRunner) -> U {
        (self.f)(self.inner.sample(runner))
    }
}

/// See [`Strategy::prop_flat_map`].
#[derive(Debug, Clone)]
pub struct FlatMap<S, F> {
    pub(crate) inner: S,
    pub(crate) f: F,
}

impl<S, F, T> Strategy for FlatMap<S, F>
where
    S: Strategy,
    T: Strategy,
    F: Fn(S::Value) -> T,
{
    type Value = T::Value;

    fn sample(&self, runner: &mut TestRunner) -> Self::Value {
        (self.f)(self.inner.sample(runner)).sample(runner)
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {
        $(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn sample(&self, runner: &mut TestRunner) -> $t {
                    runner.rng().random_range(self.clone())
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, runner: &mut TestRunner) -> $t {
                    runner.rng().random_range(self.clone())
                }
            }
        )*
    };
}

impl_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize, f64);

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            #[allow(non_snake_case)]
            fn sample(&self, runner: &mut TestRunner) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(runner),)+)
            }
        }
    };
}

impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, G);
impl_tuple_strategy!(A, B, C, D, E, G, H);
impl_tuple_strategy!(A, B, C, D, E, G, H, I);
impl_tuple_strategy!(A, B, C, D, E, G, H, I, J);
impl_tuple_strategy!(A, B, C, D, E, G, H, I, J, K);
impl_tuple_strategy!(A, B, C, D, E, G, H, I, J, K, L);
impl_tuple_strategy!(A, B, C, D, E, G, H, I, J, K, L, M);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_tuples_and_combinators_sample_sanely() {
        let mut runner = TestRunner::new_deterministic("strategy::smoke");
        for _ in 0..1_000 {
            let x = (1u64..10).sample(&mut runner);
            assert!((1..10).contains(&x));
            let (a, b) = (0usize..4, 10u64..=12).sample(&mut runner);
            assert!(a < 4 && (10..=12).contains(&b));
            let doubled = (1u64..5).prop_map(|v| v * 2).sample(&mut runner);
            assert!(doubled % 2 == 0 && doubled < 10);
            let nested = (1usize..4)
                .prop_flat_map(|n| (0u64..n as u64 + 1).prop_map(move |v| (n, v)))
                .sample(&mut runner);
            assert!(nested.1 <= nested.0 as u64);
            assert_eq!(Just(7u8).sample(&mut runner), 7);
        }
    }
}
