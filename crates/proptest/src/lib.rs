//! A minimal, offline stand-in for the `proptest` crate.
//!
//! This workspace builds without network access, so the real `proptest`
//! cannot be downloaded. This crate implements the subset of its API that
//! the repository's property tests use — `proptest!`, `prop_assert!`,
//! `prop_assert_eq!`, `prop_oneof!`, `any`, `Just`, ranges, tuples,
//! `collection::vec`, and `Strategy::prop_map` — on top of a deterministic
//! splitmix/xoshiro-style RNG seeded from the test's name.
//!
//! # Shrinking
//!
//! Shrinking works on raw draws, Hypothesis-style, so no strategy carries
//! shrinking code. Every `u64` a [`TestRng`] hands out is appended to its
//! tape, unchanged. When a case fails a `prop_assert*`, the runner replays
//! smaller tapes through the same property ([`TestRng::replay`] hands out a
//! tape's values, then zeros). It deletes spans, zeroes spans and
//! binary-searches each value down. It keeps the shortest, then
//! lexicographically least tape that still fails. Every strategy maps a
//! smaller draw to a simpler value: a shorter `vec`, the first
//! `prop_oneof!` arm, the low end of a range. So the kept tape is a small
//! case. At most [`test_runner::SHRINK_REPLAYS`] replays are spent. The
//! report names the original case index and the test's seed, and carries
//! the shrunk tape and the shrunk case's message. Shrinking is a pure
//! function of the test name, so re-running the test prints the same
//! shrunk case.
//!
//! A case that panics is not shrunk: the panic propagates unchanged. While
//! shrinking, a replay that panics counts as passing.
//!
//! Differences from the real crate, by design:
//!
//! * **Shrinking by tape**, as above, not by value trees.
//! * **Uniform `prop_oneof!` arms** (no weights — none are used here).
//! * Sampling distributions are simple uniform draws, not the real crate's
//!   size-biased distributions.

#![forbid(unsafe_code)]

use std::rc::Rc;

/// Deterministic generator state for one test case (splitmix64 core),
/// recording every draw on a tape.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
    /// The tape handed out instead of splitmix draws, when replaying.
    replay: Option<Vec<u64>>,
    /// Every value handed out so far, in order.
    tape: Vec<u64>,
}

impl TestRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
            replay: None,
            tape: Vec::new(),
        }
    }

    /// A generator that hands out `tape`'s values, then zeros: feed it a
    /// failure report's tape to rebuild the shrunk case.
    pub fn replay(tape: Vec<u64>) -> Self {
        Self {
            state: 0,
            replay: Some(tape),
            tape: Vec::new(),
        }
    }

    /// Next 64 random bits (splitmix64), or the replayed tape's next value.
    pub fn next_u64(&mut self) -> u64 {
        let v = match &self.replay {
            Some(tape) => tape.get(self.tape.len()).copied().unwrap_or(0),
            None => {
                self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = self.state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            }
        };
        self.tape.push(v);
        v
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform draw in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        // Multiply-shift bounded draw; bias is irrelevant for testing.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform draw in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a hash of a test's path, the per-test base seed.
pub fn seed_for_name(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The case runner and shrinker, and its error and config types, under the
/// real crate's module path.
pub mod test_runner {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::{seed_for_name, TestRng};

    /// Why a test case failed.
    #[derive(Debug, Clone)]
    pub struct TestCaseError(pub String);

    impl TestCaseError {
        /// A failed assertion / rejected case with the given reason.
        pub fn fail(reason: impl Into<String>) -> Self {
            Self(reason.into())
        }
    }

    impl std::fmt::Display for TestCaseError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str(&self.0)
        }
    }

    /// Result of one test case body.
    pub type TestCaseResult = Result<(), TestCaseError>;

    /// Runner configuration (only `cases` is honoured).
    #[derive(Debug, Clone)]
    pub struct ProptestConfig {
        /// Number of random cases to run per test.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Replays the shrinker may spend on one failing case.
    pub const SHRINK_REPLAYS: u32 = 2048;

    /// Runs `config.cases` cases of the property `name` (what [`proptest!`]
    /// expands to). Case `i` samples from a generator seeded by the name
    /// and `i`. The first case that fails is shrunk and reported.
    ///
    /// [`proptest!`]: crate::proptest
    pub fn run<F>(name: &str, config: &ProptestConfig, mut case: F)
    where
        F: FnMut(&mut TestRng) -> TestCaseResult,
    {
        let base = seed_for_name(name);
        for i in 0..u64::from(config.cases) {
            let mut rng = TestRng::seed_from(base ^ i.wrapping_mul(0x2545_F491_4F6C_DD1D));
            if let Err(error) = case(&mut rng) {
                let mut s = Shrinker {
                    case: &mut case,
                    best: rng.tape,
                    error,
                    replays: 0,
                };
                s.shrink();
                panic!(
                    "proptest case {i}/{total} failed (test seed {base:#x}); shrunk in {n} \
                     replays to tape {tape:?}: {e}",
                    total = config.cases,
                    n = s.replays,
                    tape = s.best,
                    e = s.error,
                );
            }
        }
    }

    /// The smallest failing tape found so far for one property.
    struct Shrinker<'a, F> {
        case: &'a mut F,
        best: Vec<u64>,
        error: TestCaseError,
        replays: u32,
    }

    impl<F: FnMut(&mut TestRng) -> TestCaseResult> Shrinker<'_, F> {
        /// Replays `tape` and keeps what the case drew if it still fails
        /// and is smaller than the best tape (shorter, then less; trailing
        /// zeros dropped, since replay pads with them).
        fn try_tape(&mut self, tape: Vec<u64>) -> bool {
            if self.replays == SHRINK_REPLAYS {
                return false;
            }
            self.replays += 1;
            let mut rng = TestRng::replay(tape);
            let Ok(Err(error)) = catch_unwind(AssertUnwindSafe(|| (self.case)(&mut rng))) else {
                return false;
            };
            let mut tape = rng.tape;
            while tape.last() == Some(&0) {
                tape.pop();
            }
            let smaller = (tape.len(), &tape) < (self.best.len(), &self.best);
            if smaller {
                (self.best, self.error) = (tape, error);
            }
            smaller
        }

        /// Deletes spans, zeroes spans (largest first) and lowers values
        /// until a round changes nothing or the replays run out.
        fn shrink(&mut self) {
            loop {
                let before = self.best.clone();
                for zero in [false, true] {
                    let mut k = self.best.len().next_power_of_two();
                    while k > 0 {
                        let mut i = 0;
                        while i + k <= self.best.len() {
                            let mut tape = self.best.clone();
                            if zero {
                                tape[i..i + k].fill(0);
                            } else {
                                tape.drain(i..i + k);
                            }
                            if tape == self.best || !self.try_tape(tape) {
                                i += k;
                            }
                        }
                        k /= 2;
                    }
                }
                // Binary search for the least value that still fails; the
                // zeroing pass already tried 0.
                let mut i = 0;
                while i < self.best.len() {
                    let (mut lo, mut hi) = (0, self.best[i]);
                    while lo + 1 < hi && i < self.best.len() {
                        let mid = lo + (hi - lo) / 2;
                        let mut tape = self.best.clone();
                        tape[i] = mid;
                        if self.try_tape(tape) {
                            hi = mid;
                        } else {
                            lo = mid;
                        }
                    }
                    i += 1;
                }
                if self.best == before || self.replays == SHRINK_REPLAYS {
                    return;
                }
            }
        }
    }
}

/// A source of random values of one type.
///
/// Unlike the real crate there is no value tree: `sample` draws directly,
/// and shrinking replays smaller draws (see the crate docs).
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Draws one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// A strategy always yielding a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// The result of [`Strategy::prop_map`].
#[derive(Debug, Clone)]
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

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws an arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// A strategy over every value of `T` — the target of [`any`].
#[derive(Debug, Clone, Default)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// The canonical strategy for all values of `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(std::marker::PhantomData)
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: Arbitrary + Default + Copy, const N: usize> Arbitrary for [T; N] {
    fn arbitrary(rng: &mut TestRng) -> Self {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::arbitrary(rng);
        }
        out
    }
}

macro_rules! range_strategy_int {
    ($($t:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (self.end as i128 - self.start as i128).max(1) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }

        impl Strategy for std::ops::RangeInclusive<$t> {
            type Value = $t;

            fn sample(&self, rng: &mut TestRng) -> $t {
                let span = (*self.end() as i128 - *self.start() as i128 + 1).max(1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
range_strategy_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for std::ops::Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit() * (self.end - self.start)
    }
}

macro_rules! tuple_strategy {
    ($($name:ident),*) => {
        impl<$($name: Strategy),*> Strategy for ($($name,)*) {
            type Value = ($($name::Value,)*);

            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)*) = self;
                ($($name.sample(rng),)*)
            }
        }
    };
}
tuple_strategy!(A, B);
tuple_strategy!(A, B, C);
tuple_strategy!(A, B, C, D);
tuple_strategy!(A, B, C, D, E);
tuple_strategy!(A, B, C, D, E, F);

/// Internal machinery used by [`prop_oneof!`].
pub mod strategy {
    use super::{Rc, Strategy, TestRng};

    /// One boxed arm of a [`Union`]: a sampler producing `T`.
    pub type Arm<T> = Rc<dyn Fn(&mut TestRng) -> T>;

    /// A uniform choice between heterogeneous strategies of one value type.
    pub struct Union<T> {
        arms: Vec<Arm<T>>,
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Self {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Union<T> {
        /// Builds a union from pre-boxed arms (see [`arm`]).
        pub fn new(arms: Vec<Arm<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Self { arms }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn sample(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            (self.arms[i])(rng)
        }
    }

    /// Boxes one strategy as a union arm.
    pub fn arm<S>(s: S) -> Arm<S::Value>
    where
        S: Strategy + 'static,
    {
        Rc::new(move |rng| s.sample(rng))
    }
}

/// Collection strategies (`proptest::collection::vec`).
pub mod collection {
    use super::{Strategy, TestRng};

    /// Acceptable size arguments for [`vec()`]: a fixed length or a range.
    #[derive(Debug, Clone)]
    pub struct SizeRange {
        min: usize,
        max_exclusive: usize,
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self {
                min: n,
                max_exclusive: n + 1,
            }
        }
    }

    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            Self {
                min: r.start,
                max_exclusive: r.end.max(r.start + 1),
            }
        }
    }

    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                min: *r.start(),
                max_exclusive: r.end() + 1,
            }
        }
    }

    /// A strategy for `Vec<T>` with element strategy `S`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.max_exclusive - self.size.min).max(1) as u64;
            let len = self.size.min + rng.below(span) as usize;
            (0..len).map(|_| self.element.sample(rng)).collect()
        }
    }

    /// Generates vectors whose elements come from `element` and whose length
    /// falls in `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

/// Everything the tests import with `use proptest::prelude::*`.
pub mod prelude {
    pub use crate::test_runner::{ProptestConfig, TestCaseError, TestCaseResult};
    pub use crate::{any, Any, Arbitrary, Just, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Defines `#[test]` functions whose arguments are drawn from strategies.
///
/// Supports the subset of the real macro's grammar used in this repository:
/// an optional `#![proptest_config(...)]` header followed by test functions
/// with `name in strategy` parameters.
#[macro_export]
macro_rules! proptest {
    (@cfg ($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strategy:expr),* $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $config;
            $crate::test_runner::run(
                concat!(module_path!(), "::", stringify!($name)),
                &config,
                |rng: &mut $crate::TestRng| -> $crate::test_runner::TestCaseResult {
                    $(let $arg = $crate::Strategy::sample(&$strategy, rng);)*
                    $body
                    #[allow(unreachable_code)]
                    Ok(())
                },
            );
        }
    )*};
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($config) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::test_runner::ProptestConfig::default()) $($rest)*);
    };
}

/// Fails the current case with a formatted message unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err($crate::test_runner::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l == *r, "assertion failed: {:?} != {:?}", l, r);
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)*) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(
                    *l == *r,
                    "assertion failed: {:?} != {:?}: {}",
                    l,
                    r,
                    format!($($fmt)*)
                );
            }
        }
    };
}

/// Fails the current case unless the two expressions compare unequal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                $crate::prop_assert!(*l != *r, "assertion failed: {:?} == {:?}", l, r);
            }
        }
    };
}

/// Uniform choice among strategies yielding one common value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($arm:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![$($crate::strategy::arm($arm)),+])
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    use crate::test_runner::{run, ProptestConfig};

    /// The message a property run panicked with.
    fn failure(property: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(property))
            .expect_err("the property must fail");
        payload.downcast::<String>().map(|s| *s).unwrap()
    }

    #[test]
    fn recording_leaves_the_stream_unchanged() {
        // splitmix64 from seed 7, as before draws were recorded.
        let want = [
            0xec77_9c36_93f8_8501,
            0xfed9_eeb4_936d_e39d,
            0x6f9f_b04b_092b_d30a,
            0x260f_fb02_60bb_be5f,
        ];
        let mut rng = TestRng::seed_from(7);
        let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(got, want);
        assert_eq!(rng.tape, want);
        let mut again = TestRng::replay(want.to_vec());
        assert_eq!((0..5).map(|_| again.next_u64()).last(), Some(0));
    }

    #[test]
    fn a_failing_integer_shrinks_to_the_boundary() {
        let msg = failure(|| {
            run("shrink_int", &ProptestConfig::default(), |rng| {
                let x = (0u32..1_000_000).sample(rng);
                prop_assert!(x < 1000, "x = {}", x);
                Ok(())
            })
        });
        assert!(msg.ends_with(": x = 1000"), "{msg}");
    }

    #[test]
    fn a_failing_vec_shrinks_to_one_minimal_element() {
        let msg = failure(|| {
            run("shrink_vec", &ProptestConfig::default(), |rng| {
                let v = crate::collection::vec(any::<u8>(), 0..20).sample(rng);
                prop_assert!(v.iter().all(|&x| x < 7), "v = {:?}", v);
                Ok(())
            })
        });
        assert!(msg.ends_with(": v = [7]"), "{msg}");
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = TestRng::seed_from(7);
        let mut b = TestRng::seed_from(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = TestRng::seed_from(1);
        for _ in 0..1000 {
            let v = (-2048i32..2048).sample(&mut rng);
            assert!((-2048..2048).contains(&v));
            let u = (1u8..=255).sample(&mut rng);
            assert!(u >= 1);
            let f = (1.0f64..200.0).sample(&mut rng);
            assert!((1.0..200.0).contains(&f));
        }
    }

    proptest! {
        #[test]
        fn macro_draws_and_asserts(
            x in 0u32..100,
            v in crate::collection::vec(any::<u8>(), 0..8),
            pick in prop_oneof![Just(1usize), 5usize..9],
        ) {
            prop_assert!(x < 100);
            prop_assert!(v.len() < 8);
            prop_assert!(pick == 1 || (5..9).contains(&pick));
            prop_assert_eq!(x + 1, 1 + x);
            prop_assert_ne!(x, x + 1);
        }
    }
}
