//! Vendored stand-in for the [proptest](https://crates.io/crates/proptest)
//! crate.
//!
//! The workspace builds in environments without crates.io access, so this
//! crate implements — dependency-free — exactly the subset of the proptest
//! API the test-suite uses: value [`Strategy`](strategy::Strategy)s over
//! integer ranges, tuples, booleans and vectors, the [`proptest!`] /
//! [`prop_assert!`] / [`prop_assert_eq!`] / [`prop_assume!`] macros, and a
//! deterministic case runner.
//!
//! Two deliberate departures from the real crate:
//!
//! * **No shrinking.** A failing case reports its deterministic case index;
//!   the same test name and index always regenerate the same inputs, so
//!   failures stay reproducible without a minimizer.
//! * **Deterministic seeding.** Case *n* of test *t* is seeded from a hash
//!   of `(t, n)`, so runs are identical across machines and invocations.
//!   This suits a simulator test-suite where reproducibility beats stochastic
//!   coverage; bump the case count to widen the explored space.

pub mod strategy {
    //! Value generation: the [`Strategy`] trait and combinators.

    use crate::test_runner::TestRng;

    /// A recipe for generating values of one type.
    ///
    /// Unlike real proptest there is no value tree: strategies sample
    /// directly from the RNG and no shrinking is attempted.
    pub trait Strategy {
        /// The type of the generated values.
        type Value;

        /// Draws one value.
        fn sample(&self, rng: &mut TestRng) -> Self::Value;

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

        fn sample(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.sample(rng))
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),* $(,)?) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end - self.start) as u64;
                    self.start + (rng.next_u64() % span) as $t
                }
            }

            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;

                fn sample(&self, rng: &mut TestRng) -> $t {
                    let (lo, hi) = (*self.start(), *self.end());
                    assert!(lo <= hi, "empty range strategy");
                    let span = (hi - lo) as u64;
                    if span == u64::MAX {
                        return rng.next_u64() as $t;
                    }
                    lo + (rng.next_u64() % (span + 1)) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(u8, u16, u32, u64, usize);

    impl<A: Strategy, B: Strategy> Strategy for (A, B) {
        type Value = (A::Value, B::Value);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy> Strategy for (A, B, C) {
        type Value = (A::Value, B::Value, C::Value);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (self.0.sample(rng), self.1.sample(rng), self.2.sample(rng))
        }
    }

    impl<A: Strategy, B: Strategy, C: Strategy, D: Strategy> Strategy for (A, B, C, D) {
        type Value = (A::Value, B::Value, C::Value, D::Value);

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            (
                self.0.sample(rng),
                self.1.sample(rng),
                self.2.sample(rng),
                self.3.sample(rng),
            )
        }
    }
}

pub mod collection {
    //! Strategies for collections.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// A strategy for `Vec<S::Value>` with a length drawn from `size`.
    pub struct VecStrategy<S> {
        element: S,
        size: core::ops::Range<usize>,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length lies in `size`.
    pub fn vec<S: Strategy>(element: S, size: core::ops::Range<usize>) -> VecStrategy<S> {
        assert!(size.start < size.end, "empty vec size range");
        VecStrategy { element, size }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Self::Value {
            let len = self.size.clone().sample(rng);
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }
}

pub mod bool {
    //! Strategies for `bool`.

    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy type behind [`ANY`].
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Generates `true` and `false` with equal probability.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;

        fn sample(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

pub mod num {
    //! Strategies over the full domain of numeric types.

    pub mod u64 {
        use crate::strategy::Strategy;
        use crate::test_runner::TestRng;

        /// The strategy type behind [`ANY`].
        #[derive(Debug, Clone, Copy)]
        pub struct Any;

        /// Generates uniformly distributed `u64` values.
        pub const ANY: Any = Any;

        impl Strategy for Any {
            type Value = u64;

            fn sample(&self, rng: &mut TestRng) -> u64 {
                rng.next_u64()
            }
        }
    }
}

pub mod test_runner {
    //! The deterministic case runner and its configuration.

    /// Runner configuration; only the case count is honoured.
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of successful cases required for the test to pass.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A configuration running `cases` successful cases.
        pub fn with_cases(cases: u32) -> Self {
            assert!(cases > 0, "case count must be positive");
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 256 }
        }
    }

    /// Why a single case did not pass.
    #[derive(Debug, Clone)]
    pub enum TestCaseError {
        /// An assertion failed; the test fails.
        Fail(String),
        /// A `prop_assume!` rejected the inputs; the case is retried.
        Reject(String),
    }

    impl TestCaseError {
        /// A failure with the given message.
        pub fn fail(msg: impl Into<String>) -> Self {
            TestCaseError::Fail(msg.into())
        }

        /// A rejection (input did not satisfy an assumption).
        pub fn reject(msg: impl Into<String>) -> Self {
            TestCaseError::Reject(msg.into())
        }
    }

    /// Deterministic splitmix64 generator seeding each test case.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// A generator whose stream is a pure function of `seed`.
        pub fn from_seed(seed: u64) -> Self {
            TestRng {
                // Pre-whiten so consecutive seeds do not yield correlated
                // first draws.
                state: seed ^ 0x9E37_79B9_7F4A_7C15,
            }
        }

        /// Next value of the splitmix64 sequence.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Seed for attempt `attempt` of the test named `name` (FNV-1a over
    /// the name, mixed with the attempt index).
    pub fn case_seed(name: &str, attempt: u64) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h ^ attempt.wrapping_mul(0xA24B_AED4_963E_E407)
    }

    /// Drives `case` until `config.cases` successes, panicking on the
    /// first failure. Rejected cases (via `prop_assume!`) are retried up
    /// to a bounded number of attempts.
    pub fn run_cases<F>(config: &ProptestConfig, name: &str, mut case: F)
    where
        F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
    {
        let max_attempts = u64::from(config.cases).saturating_mul(10).max(100);
        let mut passed: u32 = 0;
        let mut attempt: u64 = 0;
        while passed < config.cases {
            assert!(
                attempt < max_attempts,
                "proptest `{name}`: gave up after {attempt} attempts \
                 ({passed}/{} cases passed; too many prop_assume! rejections)",
                config.cases
            );
            let mut rng = TestRng::from_seed(case_seed(name, attempt));
            attempt += 1;
            match case(&mut rng) {
                Ok(()) => passed += 1,
                Err(TestCaseError::Reject(_)) => {}
                Err(TestCaseError::Fail(msg)) => panic!(
                    "proptest `{name}` failed at case {passed} (attempt {attempt}): {msg}\n\
                     (deterministic: re-running reproduces this case)"
                ),
            }
        }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.

    pub use crate::strategy::Strategy;
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Asserts a condition inside a [`proptest!`] body, failing the case (not
/// panicking directly) so the runner can report the case index.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Asserts two expressions are equal inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`",
            left,
            right
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left == *right,
            "assertion failed: `{:?}` == `{:?}`: {}",
            left,
            right,
            format!($($fmt)+)
        );
    }};
}

/// Asserts two expressions are unequal inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (left, right) = (&$left, &$right);
        $crate::prop_assert!(
            *left != *right,
            "assertion failed: `{:?}` != `{:?}`",
            left,
            right
        );
    }};
}

/// Rejects the current case unless the condition holds; the runner draws
/// fresh inputs instead of failing.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// item becomes a `#[test]` that samples its strategies and runs the body
/// for the configured number of cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::test_runner::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    { ($cfg:expr) } => {};
    { ($cfg:expr)
      $(#[$meta:meta])*
      fn $name:ident($($pat:pat in $strat:expr),+ $(,)?) $body:block
      $($rest:tt)*
    } => {
        $(#[$meta])*
        fn $name() {
            $crate::test_runner::run_cases(
                &($cfg),
                concat!(module_path!(), "::", stringify!($name)),
                |rng| {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), rng);)+
                    $body
                    ::core::result::Result::Ok(())
                },
            );
        }
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;
    use crate::test_runner::{case_seed, TestRng};

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::from_seed(7);
        let mut b = TestRng::from_seed(7);
        assert_eq!(
            (0..8).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..8).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn seeds_differ_by_name_and_attempt() {
        assert_ne!(case_seed("a", 0), case_seed("b", 0));
        assert_ne!(case_seed("a", 0), case_seed("a", 1));
    }

    #[test]
    fn range_strategies_stay_in_bounds() {
        let mut rng = TestRng::from_seed(1);
        for _ in 0..1000 {
            let v = (3u16..9).sample(&mut rng);
            assert!((3..9).contains(&v));
            let w = (5u32..=5).sample(&mut rng);
            assert_eq!(w, 5);
        }
    }

    #[test]
    fn vec_strategy_respects_size_range() {
        let strat = crate::collection::vec(0u64..10, 2..6);
        let mut rng = TestRng::from_seed(2);
        for _ in 0..200 {
            let v = strat.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn prop_map_applies() {
        let strat = (0u32..4).prop_map(|x| x * 2);
        let mut rng = TestRng::from_seed(3);
        for _ in 0..100 {
            assert_eq!(strat.sample(&mut rng) % 2, 0);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The macro itself: bindings, tuples, assume and asserts.
        #[test]
        fn macro_smoke((a, b) in (0u64..100, 0u64..100), flip in crate::bool::ANY) {
            prop_assume!(a != 99);
            let sum = a + b;
            prop_assert!(sum >= a, "sum {} lost {}", sum, a);
            prop_assert_eq!(sum - b, a);
            prop_assert_ne!(sum + 1, sum);
            let _ = flip;
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    fn failing_property_panics() {
        crate::test_runner::run_cases(&ProptestConfig::with_cases(4), "always_fails", |_rng| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
