//! Vendored minimal property-testing harness, API-compatible with the
//! subset of `proptest` this workspace uses.
//!
//! The build environment has no network access to crates.io, and the
//! workspace policy is zero external runtime dependencies, so the real
//! `proptest` cannot be fetched. This crate re-implements the pieces the
//! test suites rely on — the [`proptest!`] macro, `prop_assert*`,
//! range/tuple/map/union/recursive strategies, `any::<T>()` and
//! `collection::vec` — on top of the same xorshift/splitmix PRNG family
//! the rest of the workspace uses.
//!
//! Differences from the real crate, by design:
//!
//! * **No shrinking.** A failing case reports its case index and seed; the
//!   seed reproduces the exact inputs.
//! * **Deterministic by default.** Case seeds derive from the test name,
//!   so runs are bit-reproducible. Set `PROPTEST_SEED` to explore a
//!   different universe, or to replay the seed printed by a failure.
//! * Default case count is 64 (the real crate's 256), keeping the suite
//!   fast on small CI machines; `ProptestConfig::with_cases` overrides.

#![forbid(unsafe_code)]

pub mod collection;
pub mod strategy;
pub mod test_runner;

/// Everything the `proptest!` test suites import.
pub mod prelude {
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, Union};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Define a block of property tests.
///
/// Supports the same surface as the real macro for the forms used in this
/// workspace: an optional `#![proptest_config(...)]` header followed by
/// `#[test] fn name(arg in strategy, ...) { body }` items.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { $config; $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { $crate::test_runner::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    ($config:expr; $($(#[$meta:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            #[test]
            fn $name() {
                let config = $config;
                $crate::test_runner::run_cases(&config, stringify!($name), |__rng| {
                    $(let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);)+
                    let mut __case = || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        ::std::result::Result::Ok(())
                    };
                    __case()
                });
            }
        )*
    };
}

/// Assert a condition inside a property test, failing the current case.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {}", stringify!($cond)),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Assert two values are equal inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} != {:?}", left, right),
            ));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (left, right) = (&$left, &$right);
        if !(*left == *right) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{}: {:?} != {:?}", format!($($fmt)+), left, right),
            ));
        }
    }};
}

/// Assert two values differ inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr) => {{
        let (left, right) = (&$left, &$right);
        if *left == *right {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("assertion failed: {:?} == {:?}", left, right),
            ));
        }
    }};
}

/// Choose uniformly among several strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($strat)),+
        ])
    };
}
