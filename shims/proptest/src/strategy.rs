//! Value-generation strategies (no shrinking).

use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A generator of values for property tests.
pub trait Strategy {
    /// The generated value type.
    type Value;

    /// Generate one value from the deterministic stream.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Transform generated values.
    fn prop_map<U, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { base: self, f }
    }

    /// Generate a value, then generate from a strategy derived from it.
    fn prop_flat_map<S, F>(self, f: F) -> FlatMap<Self, F>
    where
        Self: Sized,
        S: Strategy,
        F: Fn(Self::Value) -> S,
    {
        FlatMap { base: self, f }
    }

    /// Type-erase the strategy (needed by `prop_oneof!`).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(move |rng: &mut TestRng| self.generate(rng)))
    }
}

/// Always produce a clone of the given value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// `prop_map` adapter.
#[derive(Clone, Debug)]
pub struct Map<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.base.generate(rng))
    }
}

/// `prop_flat_map` adapter.
#[derive(Clone, Debug)]
pub struct FlatMap<S, F> {
    base: S,
    f: F,
}

impl<S: Strategy, T: Strategy, F: Fn(S::Value) -> T> Strategy for FlatMap<S, F> {
    type Value = T::Value;
    fn generate(&self, rng: &mut TestRng) -> T::Value {
        (self.f)(self.base.generate(rng)).generate(rng)
    }
}

/// A type-erased strategy.
#[derive(Clone)]
pub struct BoxedStrategy<V>(Rc<dyn Fn(&mut TestRng) -> V>);

impl<V> Strategy for BoxedStrategy<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        (self.0)(rng)
    }
}

/// Uniform choice between boxed strategies (`prop_oneof!`).
#[derive(Clone)]
pub struct Union<V> {
    options: Vec<BoxedStrategy<V>>,
}

impl<V> Union<V> {
    /// Build from at least one option.
    pub fn new(options: Vec<BoxedStrategy<V>>) -> Self {
        assert!(!options.is_empty(), "prop_oneof! needs at least one option");
        Union { options }
    }
}

impl<V> Strategy for Union<V> {
    type Value = V;
    fn generate(&self, rng: &mut TestRng) -> V {
        let idx = rng.below(self.options.len() as u64) as usize;
        self.options[idx].generate(rng)
    }
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start() as i128, *self.end() as i128);
                assert!(lo <= hi, "empty range strategy");
                let span = (hi - lo + 1) as u64;
                (lo + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_int_range!(u8, u16, u32, u64, usize, i64);

macro_rules! impl_float_range {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                self.start + (self.end - self.start) * rng.f64() as $t
            }
        }
    )*};
}
impl_float_range!(f32, f64);

macro_rules! impl_tuple_strategy {
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
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = TestRng::new(1);
        for _ in 0..1000 {
            let x = (3u32..10).generate(&mut rng);
            assert!((3..10).contains(&x));
            let y = (5usize..=7).generate(&mut rng);
            assert!((5..=7).contains(&y));
            let z = (-4i64..4).generate(&mut rng);
            assert!((-4..4).contains(&z));
            let f = (-1.5f64..1.5).generate(&mut rng);
            assert!((-1.5..1.5).contains(&f));
        }
    }

    #[test]
    fn map_and_flat_map_compose() {
        let mut rng = TestRng::new(2);
        let s = (1u32..5)
            .prop_map(|x| x * 10)
            .prop_flat_map(|x| (x..x + 3).prop_map(move |y| (x, y)));
        for _ in 0..100 {
            let (x, y) = s.generate(&mut rng);
            assert!(x % 10 == 0 && y >= x && y < x + 3);
        }
    }

    #[test]
    fn union_picks_every_arm() {
        let mut rng = TestRng::new(3);
        let u = Union::new(vec![
            Just(1u8).boxed(),
            Just(2u8).boxed(),
            Just(3u8).boxed(),
        ]);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[u.generate(&mut rng) as usize] = true;
        }
        assert!(seen[1] && seen[2] && seen[3]);
    }
}
