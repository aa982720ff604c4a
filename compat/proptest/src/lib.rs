//! Offline stand-in for the subset of the `proptest` 1.x API this
//! workspace uses. The build environment has no access to crates.io, so
//! the workspace patches `proptest` to this crate (see the root
//! `Cargo.toml`).
//!
//! Semantics: each `proptest!` test runs `PROPTEST_CASES` (default 48)
//! random cases drawn from the argument strategies with a generator seeded
//! deterministically from the test's name — reproducible across runs, no
//! shrinking. `prop_assert!`/`prop_assert_eq!` return a
//! [`test_runner::TestCaseError`] from the case body; the harness panics
//! with the failing case index and message.

use std::ops::Range;

/// Default number of random cases per property (override with the
/// `PROPTEST_CASES` environment variable).
pub fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(48)
}

/// Deterministic generator driving strategy sampling (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeded from the test name so every property gets a distinct but
    /// reproducible stream.
    pub fn from_name(name: &str) -> TestRng {
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

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (span as u128);
            let lo = m as u64;
            if lo >= span || lo >= (u64::MAX - span + 1) % span {
                return (m >> 64) as u64;
            }
        }
    }
}

/// A source of random values of one type (subset of `proptest::strategy::Strategy`).
pub trait Strategy {
    type Value;

    /// Draw one value. (Real proptest builds a shrinkable value tree; this
    /// stand-in samples directly and never shrinks.)
    fn pick(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform drawn values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

impl<S: Strategy + ?Sized> Strategy for &S {
    type Value = S::Value;
    fn pick(&self, rng: &mut TestRng) -> Self::Value {
        (**self).pick(rng)
    }
}

/// The result of [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, U> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> U,
{
    type Value = U;
    fn pick(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.pick(rng))
    }
}

macro_rules! impl_int_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn pick(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as i128 - self.start as i128) as u64;
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
    )*};
}

impl_int_strategy!(usize, u64, u32, u16, u8, i64, i32, i8);

impl Strategy for Range<f64> {
    type Value = f64;
    fn pick(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty strategy range");
        self.start + rng.next_f64() * (self.end - self.start)
    }
}

/// A `Just`-style constant strategy.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn pick(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Lengths acceptable to [`vec()`]: a fixed size or a range of sizes.
    pub trait IntoSizeRange {
        fn pick_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for Range<usize> {
        fn pick_len(&self, rng: &mut TestRng) -> usize {
            Strategy::pick(self, rng)
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S` and a length spec
    /// (subset of `proptest::collection::vec`).
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn pick(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.pick_len(rng);
            (0..n).map(|_| self.element.pick(rng)).collect()
        }
    }
}

pub mod test_runner {
    /// A failed property case (carries the assertion message).
    #[derive(Debug, Clone)]
    pub struct TestCaseError {
        message: String,
    }

    impl TestCaseError {
        pub fn fail(message: impl Into<String>) -> TestCaseError {
            TestCaseError { message: message.into() }
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.message)
        }
    }

    pub type TestCaseResult = Result<(), TestCaseError>;
}

pub mod prelude {
    pub use crate::collection;
    pub use crate::test_runner::{TestCaseError, TestCaseResult};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
    pub use crate::{Just, Strategy};
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::fail(format!($($fmt)*)),
            );
        }
    };
}

/// Fail the current case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l == r, "assertion failed: {:?} == {:?}: {}", l, r, format!($($fmt)*));
    }};
}

/// Fail the current case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(l != r, "assertion failed: {:?} != {:?}", l, r);
    }};
}

/// Skip the current case unless `cond` holds (counted as a pass here; real
/// proptest redraws).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Define property tests: each `fn name(pat in strategy, ...) { body }`
/// becomes a `#[test]` running [`cases`] random cases.
#[macro_export]
macro_rules! proptest {
    ($($(#[$attr:meta])* fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$attr])*
            fn $name() {
                let mut rng = $crate::TestRng::from_name(stringify!($name));
                for i in 0..$crate::cases() {
                    $(let $pat = $crate::Strategy::pick(&($strat), &mut rng);)+
                    let result: $crate::test_runner::TestCaseResult = (move || {
                        $body
                        #[allow(unreachable_code)]
                        ::core::result::Result::Ok(())
                    })();
                    if let ::core::result::Result::Err(e) = result {
                        panic!("proptest '{}' failed at case {}: {}", stringify!($name), i, e);
                    }
                }
            }
        )+
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #[test]
        fn int_ranges_respect_bounds(a in 3usize..17, b in -5i32..5) {
            prop_assert!((3..17).contains(&a));
            prop_assert!((-5..5).contains(&b));
        }

        /// Doc comments and multiple attributes parse.
        #[test]
        fn float_and_vec_strategies(x in 0.25f64..0.75, v in collection::vec(0u64..10, 2..6)) {
            prop_assert!((0.25..0.75).contains(&x));
            prop_assert!(v.len() >= 2 && v.len() < 6, "len {}", v.len());
            prop_assert!(v.iter().all(|&e| e < 10));
        }

        #[test]
        fn prop_map_transforms(arr in collection::vec(0.1f64..1.0, 4).prop_map(|v| [v[0], v[1], v[2], v[3]])) {
            prop_assert_eq!(arr.len(), 4);
            prop_assert_ne!(arr[0], 0.0);
        }

        #[test]
        fn early_return_ok_works(n in 0usize..10) {
            if n < 100 {
                return Ok(());
            }
            prop_assert!(false, "unreachable");
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = crate::TestRng::from_name("x");
        let mut b = crate::TestRng::from_name("x");
        assert_eq!(
            (0..10).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..10).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        proptest! {
            fn always_fails(n in 0usize..10) {
                prop_assert!(n > 100, "n was {}", n);
            }
        }
        always_fails();
    }
}
