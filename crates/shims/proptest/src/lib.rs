//! Offline drop-in subset of the `proptest` API.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the slice of proptest its property tests use:
//! strategies over integer/float ranges, tuples, `prop_map` /
//! `prop_flat_map`, `collection::vec`, `bool::ANY`, and the `proptest!` /
//! `prop_assert*` macros. Cases are generated from a deterministic per-test
//! RNG; there is no shrinking — a failing case panics with the sampled
//! values available via the assertion message.

pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Copy, Debug)]
    pub struct ProptestConfig {
        pub cases: u32,
    }

    impl ProptestConfig {
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 32 }
        }
    }

    /// Why a generated case did not run to completion (mirrors proptest's
    /// type so test bodies can `return Ok(())` / reject via `prop_assume!`).
    #[derive(Debug)]
    pub enum TestCaseError {
        Reject,
    }

    /// Deterministic case RNG (SplitMix64 seeded from the test name).
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        pub fn deterministic(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            TestRng { state: h }
        }

        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform in `[0, 1)`.
        pub fn uniform_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }

        /// Uniform in `[0, n)`; returns 0 for `n == 0`.
        pub fn below(&mut self, n: u64) -> u64 {
            if n == 0 {
                0
            } else {
                self.next_u64() % n
            }
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;

    /// A source of random values (no shrinking).
    pub trait Strategy {
        type Value;

        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S: Strategy,
            F: Fn(Self::Value) -> S,
        {
            FlatMap { inner: self, f }
        }
    }

    impl<S: Strategy + ?Sized> Strategy for &S {
        type Value = S::Value;
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            (**self).generate(rng)
        }
    }

    /// Always-`value` strategy.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, O, F> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> O,
    {
        type Value = O;
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    pub struct FlatMap<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            (self.f)(self.inner.generate(rng)).generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    if self.start >= self.end {
                        return self.start; // degenerate range: fixed value
                    }
                    let span = (self.end - self.start) as u64;
                    self.start + rng.below(span) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    if lo >= hi {
                        return lo;
                    }
                    let span = (hi - lo) as u64 + 1;
                    lo + rng.below(span) as $t
                }
            }
        )*};
    }

    int_range_strategy!(usize, u64, u32, u16, u8);

    macro_rules! signed_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    if self.start >= self.end {
                        return self.start;
                    }
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    signed_range_strategy!(i64, i32, i16, i8, isize);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.uniform_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            *self.start() + rng.uniform_f64() * (*self.end() - *self.start())
        }
    }

    macro_rules! tuple_strategy {
        ($(($($name:ident),+),)*) => {$(
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        )*};
    }

    tuple_strategy!(
        (A),
        (A, B),
        (A, B, C),
        (A, B, C, D),
        (A, B, C, D, E),
        (A, B, C, D, E, G),
        (A, B, C, D, E, G, H),
        (A, B, C, D, E, G, H, I),
    );
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Inclusive element-count range for [`vec()`].
    #[derive(Clone, Copy, Debug)]
    pub struct SizeRange {
        min: usize,
        max: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { min: n, max: n }
        }
    }

    impl From<core::ops::Range<usize>> for SizeRange {
        fn from(r: core::ops::Range<usize>) -> Self {
            SizeRange {
                min: r.start,
                max: r.end.saturating_sub(1).max(r.start),
            }
        }
    }

    impl From<core::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: core::ops::RangeInclusive<usize>) -> Self {
            SizeRange {
                min: *r.start(),
                max: (*r.end()).max(*r.start()),
            }
        }
    }

    /// Strategy for vectors of `elem`-generated values.
    pub struct VecStrategy<S> {
        elem: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(elem: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            elem,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max - self.size.min) as u64 + 1;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.elem.generate(rng)).collect()
        }
    }
}

pub mod bool {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Uniform boolean strategy.
    #[derive(Clone, Copy, Debug)]
    pub struct Any;

    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }
}

pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Run each property as `cases` deterministic random cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! {
            cfg = $crate::test_runner::ProptestConfig::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (cfg = $cfg:expr;) => {};
    (
        cfg = $cfg:expr;
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __cfg = $cfg;
            let mut __rng =
                $crate::test_runner::TestRng::deterministic(concat!(module_path!(), "::", stringify!($name)));
            for __case in 0..__cfg.cases {
                let mut __run = || -> ::core::result::Result<(), $crate::test_runner::TestCaseError> {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                };
                // Rejected (prop_assume) and completed cases both just move
                // on; failed assertions panic the test.
                let _ = __run();
            }
        }
        $crate::__proptest_items! { cfg = $cfg; $($rest)* }
    };
}

/// Assertion macros matching proptest's names (they simply panic).
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Skip the current case when its sampled inputs are unsuitable.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20))]

        #[test]
        fn ranges_in_bounds(a in 3usize..10, b in 0u64..5, x in 0.5f64..2.0) {
            prop_assert!((3..10).contains(&a));
            prop_assert!(b < 5);
            prop_assert!((0.5..2.0).contains(&x));
        }

        #[test]
        fn vec_strategy_len(v in crate::collection::vec((0usize..4, 0usize..4), 2..6)) {
            prop_assert!(v.len() >= 2 && v.len() <= 5);
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }
    }

    #[test]
    fn flat_map_composes() {
        let strat = (1usize..5)
            .prop_flat_map(|n| crate::collection::vec(0usize..10, n..=n).prop_map(move |v| (n, v)));
        let mut rng = crate::test_runner::TestRng::deterministic("flat_map");
        for _ in 0..50 {
            let (n, v) = strat.generate(&mut rng);
            assert_eq!(v.len(), n);
        }
    }
}
