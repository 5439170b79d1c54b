//! `any::<T>()` — full-domain strategies for primitive types.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::marker::PhantomData;

/// Types with a canonical full-domain strategy.
pub trait Arbitrary: Sized {
    /// Draw one value covering the whole domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

/// The `any::<T>()` strategy.
#[derive(Clone, Copy, Debug)]
pub struct Any<T>(PhantomData<T>);

/// Full-domain strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u64, i8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_u64_covers_high_bits() {
        let mut rng = TestRng::new(9);
        let saw_high = (0..64).any(|_| any::<u64>().generate(&mut rng) > u64::MAX / 2);
        assert!(saw_high);
    }

    #[test]
    fn any_bool_hits_both() {
        let mut rng = TestRng::new(10);
        let mut seen = [false; 2];
        for _ in 0..64 {
            seen[any::<bool>().generate(&mut rng) as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }
}
