//! Offline stand-in for [`proptest`](https://crates.io/crates/proptest).
//!
//! The build container has no access to crates.io, so this workspace
//! vendors the proptest API subset its tests use: `Strategy` with
//! `prop_map` / `prop_filter_map` / `prop_recursive` / `boxed`,
//! `Just`, `any`, integer-range and tuple strategies,
//! `collection::vec`, `sample::select`, `option::of`, the
//! `proptest!` / `prop_oneof!` / `prop_assert!` / `prop_assert_eq!`
//! macros, and `ProptestConfig::with_cases`.
//!
//! Differences from the real crate, by design: generation is seeded
//! from the test function's name so every run is reproducible, and
//! failing cases are **not shrunk** — the panic message carries the
//! case number so a failure can be replayed by re-running the test.

pub mod test_runner {
    /// Configuration accepted by `#![proptest_config(...)]`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// A config running `cases` cases per property.
        pub fn with_cases(cases: u32) -> Self {
            ProptestConfig { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            ProptestConfig { cases: 64 }
        }
    }

    /// Deterministic RNG (splitmix64) driving value generation.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the stream from a test name, so each property gets a
        /// stable but distinct sequence.
        pub fn from_name(name: &str) -> Self {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng { state: h }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[0, bound)`; `bound` must be non-zero.
        pub fn below(&mut self, bound: u64) -> u64 {
            debug_assert!(bound > 0);
            self.next_u64() % bound
        }
    }
}

pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::Range;
    use std::rc::Rc;

    /// A recipe for generating values of one type. Unlike real
    /// proptest there is no value tree: generation is direct and
    /// failures are reported unshrunk.
    pub trait Strategy {
        /// The type of generated values.
        type Value;

        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<W, F: Fn(Self::Value) -> W>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
        {
            Map { inner: self, f }
        }

        /// Keeps only values for which `f` returns `Some`, retrying
        /// generation; `reason` is reported if retries are exhausted.
        fn prop_filter_map<W, F: Fn(Self::Value) -> Option<W>>(
            self,
            reason: &'static str,
            f: F,
        ) -> FilterMap<Self, F>
        where
            Self: Sized,
        {
            FilterMap {
                inner: self,
                f,
                reason,
            }
        }

        /// Builds a recursive strategy: `recurse` receives a strategy
        /// for the substructure and returns the composite level.
        /// `depth` bounds nesting; the size hints are accepted for
        /// API compatibility and ignored.
        fn prop_recursive<R, F>(
            self,
            depth: u32,
            _desired_size: u32,
            _expected_branch_size: u32,
            recurse: F,
        ) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
            Self::Value: 'static,
            R: Strategy<Value = Self::Value> + 'static,
            F: Fn(BoxedStrategy<Self::Value>) -> R,
        {
            let base = self.boxed();
            let mut cur = base.clone();
            for _ in 0..depth {
                // At every level allow falling back to a leaf, so
                // shallow values stay common and depth is bounded.
                cur = Union::new(vec![base.clone(), recurse(cur).boxed()]).boxed();
            }
            cur
        }

        /// Type-erases the strategy behind a cloneable handle.
        fn boxed(self) -> BoxedStrategy<Self::Value>
        where
            Self: Sized + 'static,
        {
            BoxedStrategy(Rc::new(self))
        }
    }

    /// A cloneable, type-erased [`Strategy`].
    pub struct BoxedStrategy<T>(Rc<dyn Strategy<Value = T>>);

    impl<T> Clone for BoxedStrategy<T> {
        fn clone(&self) -> Self {
            BoxedStrategy(Rc::clone(&self.0))
        }
    }

    impl<T> Strategy for BoxedStrategy<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            self.0.generate(rng)
        }
    }

    /// Strategy yielding clones of a fixed value.
    #[derive(Clone, Debug)]
    pub struct Just<T: Clone>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;
        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// See [`Strategy::prop_map`].
    #[derive(Clone)]
    pub struct Map<S, F> {
        inner: S,
        f: F,
    }

    impl<S: Strategy, W, F: Fn(S::Value) -> W> Strategy for Map<S, F> {
        type Value = W;
        fn generate(&self, rng: &mut TestRng) -> W {
            (self.f)(self.inner.generate(rng))
        }
    }

    /// See [`Strategy::prop_filter_map`].
    #[derive(Clone)]
    pub struct FilterMap<S, F> {
        inner: S,
        f: F,
        reason: &'static str,
    }

    impl<S: Strategy, W, F: Fn(S::Value) -> Option<W>> Strategy for FilterMap<S, F> {
        type Value = W;
        fn generate(&self, rng: &mut TestRng) -> W {
            for _ in 0..100_000 {
                if let Some(w) = (self.f)(self.inner.generate(rng)) {
                    return w;
                }
            }
            panic!("prop_filter_map exhausted retries: {}", self.reason);
        }
    }

    /// Uniform choice among several same-typed strategies; what
    /// `prop_oneof!` expands to.
    pub struct Union<T> {
        arms: Vec<BoxedStrategy<T>>,
    }

    impl<T> Union<T> {
        /// `arms` must be non-empty.
        pub fn new(arms: Vec<BoxedStrategy<T>>) -> Self {
            assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
            Union { arms }
        }
    }

    impl<T> Clone for Union<T> {
        fn clone(&self) -> Self {
            Union {
                arms: self.arms.clone(),
            }
        }
    }

    impl<T> Strategy for Union<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.arms.len() as u64) as usize;
            self.arms[i].generate(rng)
        }
    }

    macro_rules! int_range_strategy {
        ($($t:ty => $via:ty),* $(,)?) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;
                fn generate(&self, rng: &mut TestRng) -> $t {
                    assert!(self.start < self.end, "empty range strategy");
                    let span = (self.end as $via).wrapping_sub(self.start as $via) as u64;
                    (self.start as $via).wrapping_add(rng.below(span) as $via) as $t
                }
            }
        )*};
    }

    int_range_strategy! {
        u8 => u64, u16 => u64, u32 => u64, u64 => u64, usize => u64,
        i8 => i64, i16 => i64, i32 => i64, i64 => i64, isize => i64,
    }

    macro_rules! tuple_strategy {
        ($($name:ident),+) => {
            impl<$($name: Strategy),+> Strategy for ($($name,)+) {
                type Value = ($($name::Value,)+);
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    #[allow(non_snake_case)]
                    let ($($name,)+) = self;
                    ($($name.generate(rng),)+)
                }
            }
        };
    }

    tuple_strategy!(A);
    tuple_strategy!(A, B);
    tuple_strategy!(A, B, C);
    tuple_strategy!(A, B, C, D);
    tuple_strategy!(A, B, C, D, E);
    tuple_strategy!(A, B, C, D, E, F);
}

pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-domain strategy, for [`any`].
    pub trait Arbitrary: Sized {
        /// Draws an unconstrained value.
        fn arbitrary_value(rng: &mut TestRng) -> Self;
    }

    /// The strategy returned by [`any`].
    #[derive(Clone)]
    pub struct Any<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for Any<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary_value(rng)
        }
    }

    /// Strategy covering the whole domain of `T`.
    pub fn any<T: Arbitrary>() -> Any<T> {
        Any(PhantomData)
    }

    impl Arbitrary for bool {
        fn arbitrary_value(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! int_arbitrary {
        ($($t:ty),* $(,)?) => {$(
            impl Arbitrary for $t {
                fn arbitrary_value(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    int_arbitrary!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
}

pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Length bounds for [`vec()`], converted from `usize` ranges.
    #[derive(Clone, Debug)]
    pub struct SizeRange {
        lo: usize,
        hi: usize,
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

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            SizeRange { lo: n, hi: n + 1 }
        }
    }

    /// The strategy returned by [`vec()`].
    #[derive(Clone)]
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }

    /// Vectors of `element` with length drawn from `size`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }
}

pub mod sample {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`select`].
    #[derive(Clone)]
    pub struct Select<T: Clone> {
        options: Vec<T>,
    }

    impl<T: Clone> Strategy for Select<T> {
        type Value = T;
        fn generate(&self, rng: &mut TestRng) -> T {
            let i = rng.below(self.options.len() as u64) as usize;
            self.options[i].clone()
        }
    }

    /// Uniform choice from a non-empty list of values.
    pub fn select<T: Clone>(options: Vec<T>) -> Select<T> {
        assert!(!options.is_empty(), "select from empty list");
        Select { options }
    }
}

pub mod option {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// The strategy returned by [`of`].
    #[derive(Clone)]
    pub struct OptionStrategy<S> {
        inner: S,
    }

    impl<S: Strategy> Strategy for OptionStrategy<S> {
        type Value = Option<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Option<S::Value> {
            // Same 1-in-4 None weighting as real proptest's default.
            if rng.below(4) == 0 {
                None
            } else {
                Some(self.inner.generate(rng))
            }
        }
    }

    /// `Option<T>` values: mostly `Some`, occasionally `None`.
    pub fn of<S: Strategy>(inner: S) -> OptionStrategy<S> {
        OptionStrategy { inner }
    }
}

pub mod prelude {
    pub use crate as prop;
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Defines deterministic property tests. Supports an optional leading
/// `#![proptest_config(expr)]` and any number of
/// `#[test] fn name(arg in strategy, ...) { body }` items (callers
/// write `#[test]` themselves, as this workspace's tests do).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl!{ ($config) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl!{
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($config:expr) $(
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $config;
            let mut __rng = $crate::test_runner::TestRng::from_name(concat!(
                module_path!(), "::", stringify!($name)
            ));
            let __strats = ($($strat,)+);
            for __case in 0..__config.cases {
                let ($($arg,)+) = {
                    let ($(ref $arg,)+) = __strats;
                    ($($crate::strategy::Strategy::generate($arg, &mut __rng),)+)
                };
                let __result = ::std::panic::catch_unwind(
                    ::std::panic::AssertUnwindSafe(|| $body),
                );
                if let Err(payload) = __result {
                    eprintln!(
                        "proptest case {}/{} of {} failed (deterministic seed; \
                         rerun the test to reproduce)",
                        __case + 1,
                        __config.cases,
                        stringify!($name),
                    );
                    ::std::panic::resume_unwind(payload);
                }
            }
        }
    )*};
}

/// Uniform choice among strategies producing the same type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)*) => { assert!($cond, $($fmt)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => { assert_eq!($left, $right) };
    ($left:expr, $right:expr, $($fmt:tt)*) => { assert_eq!($left, $right, $($fmt)*) };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::test_runner::TestRng::from_name("ranges");
        for _ in 0..1000 {
            let v = (3u32..17).generate(&mut rng);
            assert!((3..17).contains(&v));
            let w = (-5i64..5).generate(&mut rng);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let draw = || {
            let mut rng = crate::test_runner::TestRng::from_name("det");
            let strat = prop::collection::vec((0usize..100).prop_map(|x| x * 2), 1..8);
            (0..20)
                .map(|_| strat.generate(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(), draw());
    }

    #[test]
    fn recursive_strategy_terminates() {
        #[derive(Debug, Clone, PartialEq)]
        enum Tree {
            Leaf(u8),
            Node(Vec<Tree>),
        }
        let strat = (0u8..10)
            .prop_map(Tree::Leaf)
            .prop_recursive(3, 16, 3, |inner| {
                prop::collection::vec(inner, 0..3).prop_map(Tree::Node)
            });
        fn depth(t: &Tree) -> usize {
            match t {
                Tree::Leaf(_) => 0,
                Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
            }
        }
        let mut rng = crate::test_runner::TestRng::from_name("rec");
        for _ in 0..200 {
            assert!(depth(&strat.generate(&mut rng)) <= 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn macro_round_trip(a in 0usize..50, b in any::<bool>(), xs in prop::collection::vec(0i64..9, 0..5)) {
            prop_assert!(a < 50);
            prop_assert_eq!(b, b);
            for x in xs {
                prop_assert!((0..9).contains(&x));
            }
        }

        #[test]
        fn oneof_and_option(v in prop_oneof![Just(0u8), 1u8..4], o in prop::option::of(2u32..6)) {
            prop_assert!(v < 4);
            if let Some(x) = o {
                prop_assert!((2..6).contains(&x));
            }
        }
    }
}
