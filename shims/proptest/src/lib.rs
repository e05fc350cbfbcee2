//! Offline shim for `proptest`: seeded random-input testing with the
//! `proptest!` / `prop_assert!` macro surface this workspace uses.
//!
//! Inputs are drawn from [`Strategy`] values with a deterministic
//! per-test RNG (seeded from the test path and case index), so failures
//! reproduce across runs. No shrinking: a failing case reports its inputs
//! via the assertion message and its case number instead.

use std::ops::Range;

/// Deterministic per-case RNG (SplitMix64).
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from the test's path and the case index, so every test gets
    /// an independent, reproducible stream.
    pub fn deterministic(test_path: &str, case: u32) -> Self {
        // FNV-1a over the path, mixed with the case index.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_path.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        TestRng {
            state: h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }
}

/// A generator of test-case inputs.
pub trait Strategy {
    type Value;

    fn new_value(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, O, F> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;

    fn new_value(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.new_value(rng))
    }
}

macro_rules! impl_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn new_value(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                self.start + rng.below((self.end - self.start) as u64) as $t
            }
        }
    )*};
}

impl_range_strategy!(u32, u64, usize, u8, u16);

impl<A: Strategy, B: Strategy> Strategy for (A, B) {
    type Value = (A::Value, B::Value);

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (self.0.new_value(rng), self.1.new_value(rng))
    }
}

impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
    type Value = (A::Value, B::Value, C::Value);

    fn new_value(&self, rng: &mut TestRng) -> Self::Value {
        (
            self.0.new_value(rng),
            self.1.new_value(rng),
            self.2.new_value(rng),
        )
    }
}

/// Types with a canonical whole-domain strategy, used via [`any`].
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}

impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Whole-domain strategy for `T` (`any::<bool>()` etc.).
pub struct Any<T>(std::marker::PhantomData<T>);

pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn new_value(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies (`prop::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Element count for [`vec()`]: an exact count or a half-open range.
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    impl From<Range<usize>> for SizeRange {
        fn from(r: Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            SizeRange {
                lo: r.start,
                hi: r.end,
            }
        }
    }

    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + (rng.next_u64() % span.max(1)) as usize;
            (0..len).map(|_| self.element.new_value(rng)).collect()
        }
    }
}

/// `prop::` paths as in the real crate.
pub mod prop {
    pub use crate::collection;
}

/// Runner configuration; only `cases` is honoured.
#[derive(Debug, Clone)]
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
        ProptestConfig { cases: 64 }
    }
}

/// A failed test case (what `prop_assert!` returns early with).
#[derive(Debug)]
pub struct TestCaseError(String);

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`",
                lhs, rhs
            )));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$lhs, &$rhs);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: `{:?}` == `{:?}`: {}",
                lhs,
                rhs,
                format!($($fmt)+)
            )));
        }
    }};
}

#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!($cfg; $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!($crate::ProptestConfig::default(); $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ($cfg:expr; $(
        #[test]
        fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        #[test]
        fn $name() {
            let config: $crate::ProptestConfig = $cfg;
            for case in 0..config.cases {
                let mut __proptest_rng = $crate::TestRng::deterministic(
                    concat!(module_path!(), "::", stringify!($name)),
                    case,
                );
                $(let $pat = $crate::Strategy::new_value(&$strat, &mut __proptest_rng);)+
                let outcome: ::std::result::Result<(), $crate::TestCaseError> =
                    (move || {
                        $body
                        ::std::result::Result::Ok(())
                    })();
                if let ::std::result::Result::Err(e) = outcome {
                    panic!("case {}/{} failed: {}", case + 1, config.cases, e);
                }
            }
        }
    )*};
}

/// Everything the `proptest::prelude::*` glob is expected to provide.
pub mod prelude {
    pub use crate::{
        any, prop, prop_assert, prop_assert_eq, proptest, Arbitrary, ProptestConfig, Strategy,
        TestCaseError,
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn rng_is_deterministic_per_case() {
        let mut a = crate::TestRng::deterministic("x", 3);
        let mut b = crate::TestRng::deterministic("x", 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = crate::TestRng::deterministic("x", 4);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_stay_in_bounds(x in 3..10u32, y in 0..5usize) {
            prop_assert!((3..10).contains(&x));
            prop_assert!(y < 5, "y = {}", y);
        }

        #[test]
        fn vec_strategy_sizes(v in prop::collection::vec((0..7u32, 0..7u32), 0..20)) {
            prop_assert!(v.len() < 20);
            for (a, b) in v {
                prop_assert!(a < 7 && b < 7);
            }
        }

        #[test]
        fn exact_size_and_any(picks in prop::collection::vec(any::<bool>(), 25)) {
            prop_assert_eq!(picks.len(), 25);
        }

        #[test]
        fn early_return_ok_is_supported(x in 0..2u32) {
            if x == 0 {
                return Ok(());
            }
            prop_assert_eq!(x, 1, "only 0 and 1 possible, got {}", x);
        }
    }

    #[test]
    #[should_panic(expected = "failed")]
    // The nested #[test] produced by the macro expansion is deliberately
    // unreachable by the harness; we call it by hand below.
    #[allow(unnameable_test_items)]
    fn failing_assert_panics_with_case_info() {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1))]

            #[test]
            fn inner(x in 0..1u32) {
                prop_assert!(x > 100);
            }
        }
        inner();
    }
}
