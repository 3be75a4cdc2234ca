#![warn(missing_docs)]

//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! The build container has no crates-registry access, so property tests
//! run on a small, dependency-free re-implementation of the pieces the
//! test suites call: the [`proptest!`] macro, range/tuple/`vec`
//! strategies, `prop_map`/`prop_flat_map`, and the `prop_assert*` /
//! `prop_assume!` macros. Unlike upstream proptest there is **no input
//! shrinking** — a failing case reports the generated inputs via the
//! assertion panic message instead.

/// Deterministic case-generation RNG (splitmix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// RNG for the `case`-th generated test case (stable across runs).
    pub fn for_case(case: u64) -> Self {
        TestRng {
            state: 0x5EED_0BAD_F00D_u64 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics when `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "cannot sample empty range");
        self.next_u64() % n
    }
}

/// Test-runner configuration.
pub mod test_runner {
    /// Mirrors `proptest::test_runner::Config` for the `with_cases` knob.
    #[derive(Debug, Clone)]
    pub struct Config {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl Config {
        /// Runs each property `cases` times.
        pub fn with_cases(cases: u32) -> Self {
            Config { cases }
        }
    }

    impl Default for Config {
        fn default() -> Self {
            Config { cases: 32 }
        }
    }
}

/// Strategy combinators and range/tuple implementations.
pub mod strategy {
    use crate::TestRng;

    /// A generator of test-case values.
    pub trait Strategy {
        /// The produced value type.
        type Value;

        /// Draws one value.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<O, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> O,
        {
            Map { inner: self, f }
        }

        /// Generates an intermediate value, then generates from the
        /// strategy `f` returns for it.
        fn prop_flat_map<S2, F>(self, f: F) -> FlatMap<Self, F>
        where
            Self: Sized,
            S2: Strategy,
            F: Fn(Self::Value) -> S2,
        {
            FlatMap { inner: self, f }
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Debug, Clone)]
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
        fn generate(&self, rng: &mut TestRng) -> O {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_flat_map`].
    #[derive(Debug, Clone)]
    pub struct FlatMap<S, F> {
        inner: S,
        f: F,
    }

    impl<S, S2, F> Strategy for FlatMap<S, F>
    where
        S: Strategy,
        S2: Strategy,
        F: Fn(S::Value) -> S2,
    {
        type Value = S2::Value;
        fn generate(&self, rng: &mut TestRng) -> S2::Value {
            let mid = self.inner.generate(rng);
            (self.f)(mid).generate(rng)
        }
    }

    macro_rules! impl_int_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for core::ops::Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let span = (self.end as i128 - self.start as i128) as u64;
                    (self.start as i128 + rng.below(span) as i128) as $t
                }
            }
            impl Strategy for core::ops::RangeInclusive<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    let (s, e) = (*self.start(), *self.end());
                    let span = (e as i128 - s as i128) as u64 + 1;
                    (s as i128 + rng.below(span) as i128) as $t
                }
            }
        )*};
    }

    impl_int_range_strategy!(usize, u64, u32, i64, i32);

    impl Strategy for core::ops::Range<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            self.start + rng.next_f64() * (self.end - self.start)
        }
    }

    impl Strategy for core::ops::RangeInclusive<f64> {
        type Value = f64;
        fn generate(&self, rng: &mut TestRng) -> f64 {
            *self.start() + rng.next_f64() * (*self.end() - *self.start())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($(($($s:ident . $idx:tt),+))*) => {$(
            impl<$($s: Strategy),+> Strategy for ($($s,)+) {
                type Value = ($($s::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    ($(self.$idx.generate(rng),)+)
                }
            }
        )*};
    }

    impl_tuple_strategy! {
        (A.0)
        (A.0, B.1)
        (A.0, B.1, C.2)
        (A.0, B.1, C.2, D.3)
    }

    /// Strategy yielding a fixed value.
    #[derive(Debug, Clone)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::TestRng;

    /// Length specification for [`vec()`]: a fixed `usize` or a `Range<usize>`.
    pub trait IntoLenRange {
        /// Draws a concrete length.
        fn draw_len(&self, rng: &mut TestRng) -> usize;
    }

    impl IntoLenRange for usize {
        fn draw_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl IntoLenRange for core::ops::Range<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    impl IntoLenRange for core::ops::RangeInclusive<usize> {
        fn draw_len(&self, rng: &mut TestRng) -> usize {
            *self.start() + rng.below((*self.end() - *self.start()) as u64 + 1) as usize
        }
    }

    /// Strategy for vectors of `element` values with lengths drawn from
    /// `len`.
    pub fn vec<S: Strategy, L: IntoLenRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    impl<S: Strategy, L: IntoLenRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.draw_len(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use crate::strategy::Strategy;
    use crate::TestRng;

    /// Uniform `bool` strategy.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Uniform `bool` strategy value (mirrors `proptest::bool::ANY`).
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Everything the test files import.
pub mod prelude {
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// Asserts a condition inside a property body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a property body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_eq!($a, $b, $($fmt)*) };
}

/// Asserts inequality inside a property body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)*) => { assert_ne!($a, $b, $($fmt)*) };
}

/// Skips the current case when an assumption does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return Ok(());
        }
    };
}

/// Declares property tests: each `fn name(pat in strategy, ...) { body }`
/// runs `cases` generated inputs (no shrinking). As in upstream proptest,
/// the macro adds no `#[test]`; each property carries its own.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { cfg = $cfg; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            cfg = $crate::test_runner::Config::default();
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (cfg = $cfg:expr; $(
        $(#[$meta:meta])*
        fn $name:ident($($pat:pat in $strat:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::Config = $cfg;
            for case in 0..config.cases {
                let mut rng = $crate::TestRng::for_case(case as u64);
                $(let $pat = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                #[allow(unused_mut)]
                let mut case_fn = move || -> ::core::result::Result<(), ()> {
                    $body
                    Ok(())
                };
                if let Err(panic) = ::std::panic::catch_unwind(::std::panic::AssertUnwindSafe(
                    || { let _ = case_fn(); },
                )) {
                    $crate::__case_failed(stringify!($name), case, panic);
                }
            }
        }
    )*};
}

/// Re-panics with a failed case's property name and index in front of
/// the case's own panic message.
#[doc(hidden)]
pub fn __case_failed(property: &str, case: u32, panic: Box<dyn std::any::Any + Send>) -> ! {
    let message = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("(a panic without a message)");
    panic!("property `{property}` failed at case {case}: {message}")
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    fn pair() -> impl Strategy<Value = (usize, f64)> {
        (1usize..8).prop_flat_map(|n| ((n..n + 1), (-1.0f64..1.0)).prop_map(|(a, b)| (a, b)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn ranges_in_bounds(n in 3usize..10, x in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&n));
            prop_assert!((-2.0..2.0).contains(&x));
        }

        #[test]
        fn vec_lengths(v in crate::collection::vec(-1.0f64..1.0, 2..6)) {
            prop_assert!((2..6).contains(&v.len()));
            prop_assert!(v.iter().all(|x| (-1.0..1.0).contains(x)));
        }

        #[test]
        fn flat_map_composes((n, x) in pair()) {
            prop_assert!((1..9).contains(&n));
            prop_assert!(x.abs() <= 1.0);
        }

        #[test]
        fn assume_skips(n in 0usize..10) {
            prop_assume!(n % 2 == 0);
            prop_assert_eq!(n % 2, 0);
        }

        #[test]
        fn bools_vary(b in crate::bool::ANY) {
            let _ = b;
        }

        #[test]
        #[should_panic(expected = "property `fails_at_case_three` failed at case 3: case 3 failed")]
        fn fails_at_case_three(n in 0usize..10) {
            use std::sync::atomic::{AtomicU32, Ordering};
            static CASES: AtomicU32 = AtomicU32::new(0);
            let case = CASES.fetch_add(1, Ordering::Relaxed);
            prop_assert!(n < 10);
            prop_assert!(case < 3, "case {case} failed");
        }
    }

    use crate::TestRng;

    #[test]
    fn case_rngs_are_stable_and_distinct() {
        let draws = |case| {
            let mut rng = TestRng::for_case(case);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
        assert_ne!(draws(0), draws(1));
    }

    #[test]
    fn unit_draws_stay_in_the_unit_interval() {
        let mut rng = TestRng::for_case(3);
        for _ in 0..1000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn below_zero_panics() {
        TestRng::for_case(0).below(0);
    }

    #[test]
    fn integer_ranges_reach_both_ends() {
        let mut rng = TestRng::for_case(1);
        let inclusive: Vec<i32> = (0..400).map(|_| (-2i32..=2).generate(&mut rng)).collect();
        assert!(inclusive.iter().all(|v| (-2..=2).contains(v)));
        assert!(inclusive.contains(&-2) && inclusive.contains(&2));
        let half_open: Vec<u32> = (0..400).map(|_| (7u32..10).generate(&mut rng)).collect();
        assert!(half_open.iter().all(|v| (7..10).contains(v)));
        assert!(half_open.contains(&7) && half_open.contains(&9));
        // A full-width range does not overflow its span.
        let _ = (0u64..u64::MAX).generate(&mut rng);
        let _ = (i64::MIN..i64::MAX).generate(&mut rng);
    }

    #[test]
    fn vec_lengths_can_be_fixed_or_inclusive() {
        let mut rng = TestRng::for_case(2);
        let fixed = crate::collection::vec(Just(1u8), 4);
        assert_eq!(fixed.generate(&mut rng), vec![1; 4]);
        let lengths: Vec<usize> = (0..200)
            .map(|_| {
                crate::collection::vec(0u32..5, 2..=3)
                    .generate(&mut rng)
                    .len()
            })
            .collect();
        assert!(lengths.iter().all(|n| (2..=3).contains(n)));
        assert!(lengths.contains(&2) && lengths.contains(&3));
        assert!(crate::collection::vec(Just(0), 0..1)
            .generate(&mut rng)
            .is_empty());
    }

    #[test]
    fn just_tuples_and_maps_compose() {
        let mut rng = TestRng::for_case(4);
        let strategy = (Just("a"), 0usize..1, 5i64..=5, Just(2.5)).prop_map(|(s, z, f, x)| {
            assert_eq!((z, f), (0, 5));
            format!("{s}{x}")
        });
        assert_eq!(strategy.generate(&mut rng), "a2.5");
        let f = (1.0f64..=1.0).generate(&mut rng);
        assert_eq!(f, 1.0);
    }

    #[test]
    fn a_property_runs_exactly_its_configured_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static RUN: AtomicU32 = AtomicU32::new(0);
        static PASSED_ASSUME: AtomicU32 = AtomicU32::new(0);
        // Without `#[test]` the macro registers nothing: the property is a
        // plain function, called here.
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(7))]
            fn counted(n in 0usize..100) {
                RUN.fetch_add(1, Ordering::Relaxed);
                prop_assume!(n % 2 == 0);
                PASSED_ASSUME.fetch_add(1, Ordering::Relaxed);
            }
        }
        counted();
        assert_eq!(RUN.load(Ordering::Relaxed), 7);
        let even = (0..7u64)
            .filter(|&case| (0usize..100).generate(&mut TestRng::for_case(case)) % 2 == 0)
            .count();
        assert_eq!(PASSED_ASSUME.load(Ordering::Relaxed) as usize, even);
    }

    #[test]
    fn the_default_config_runs_32_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static RUN: AtomicU32 = AtomicU32::new(0);
        proptest! {
            fn counted(_b in crate::bool::ANY) {
                RUN.fetch_add(1, Ordering::Relaxed);
            }
        }
        counted();
        assert_eq!(RUN.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn a_failed_case_keeps_any_panic_message() {
        let message = |payload: Box<dyn std::any::Any + Send>| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                crate::__case_failed("p", 4, payload)
            }))
            .unwrap_err();
            caught.downcast_ref::<String>().cloned().unwrap()
        };
        assert_eq!(
            message(Box::new("static text")),
            "property `p` failed at case 4: static text"
        );
        assert_eq!(
            message(Box::new(String::from("formatted 9"))),
            "property `p` failed at case 4: formatted 9"
        );
        assert_eq!(
            message(Box::new(42u8)),
            "property `p` failed at case 4: (a panic without a message)"
        );
    }
}
