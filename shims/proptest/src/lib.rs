//! Offline stand-in for the subset of proptest this workspace uses.
//!
//! The container cannot fetch crates.io, so the real proptest is
//! unavailable. This shim keeps the same source-level API — `proptest!`,
//! `prop_assert*!`, `prop_oneof!`, `Strategy` with `prop_map` /
//! `prop_flat_map`, `Just`, `any::<T>()`, `proptest::collection::vec` — over
//! a small deterministic runner:
//!
//! * Cases are generated from a SplitMix64-derived stream seeded by the
//!   test's name, so every run of a given test explores the same inputs
//!   (fully reproducible failures, no persistence files needed).
//! * There is no shrinking; failures report the case index and message.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Glob-import surface matching `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assume, prop_oneof, proptest};
}

/// Define property tests. Mirrors proptest's macro grammar for the forms
/// used in this workspace:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u64..100, v in proptest::collection::vec(any::<u8>(), 1..9)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($config); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    ( ($config:expr); $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat_param in $strat:expr),* $(,)? ) $body:block )* ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config = $config;
                $crate::test_runner::run(&__config, stringify!($name), |__rng| {
                    $(
                        let $arg = $crate::strategy::Strategy::generate(&($strat), __rng);
                    )*
                    $body
                    Ok(())
                });
            }
        )*
    };
}

/// Assert inside a property; failure fails the current case with location
/// and message, like proptest's `prop_assert!`.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, "assertion failed: {}", stringify!($cond))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!("{} ({}:{})", format!($($fmt)*), file!(), line!()),
            ));
        }
    };
}

/// `prop_assert_eq!` — equality assertion inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "assertion failed: {:?} == {:?}", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)*) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "{}: {:?} == {:?}", format!($($fmt)*), l, r);
    }};
}

/// Reject the current case (it is regenerated with a fresh substream).
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}

/// Choose uniformly between strategies producing the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}
