//! Deterministic pseudo-random streams for workload generation.
//!
//! The simulator needs reproducible randomness that is independent of crate
//! versions and platform, so we carry a small self-contained generator:
//! xoshiro256** seeded through SplitMix64. Every distribution used by the
//! workload generators (uniform, normal, exponential, Poisson
//! inter-arrival) lives here.

/// xoshiro256** PRNG with SplitMix64 seeding.
///
/// Not cryptographic — statistical quality only, which is all a workload
/// generator needs.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Seed a stream. Distinct seeds give statistically independent streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive a child stream, e.g. one per dataset or per request source, so
    /// adding a consumer never perturbs another consumer's draws.
    pub(crate) fn fork(&mut self, stream: u64) -> SimRng {
        SimRng::new(self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407))
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift with rejection to avoid modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        lo + self.below(hi - lo + 1)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// `true` with probability `p`.
    pub(crate) fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (polar-free variant; fine statistically).
    pub(crate) fn std_normal(&mut self) -> f64 {
        // Guard against log(0) by nudging u1 away from zero.
        let u1 = (self.f64()).max(1e-300);
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.std_normal()
    }

    /// Exponential with the given rate (mean `1/rate`); the canonical Poisson
    /// inter-arrival draw.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0);
        -(self.f64().max(1e-300)).ln() / rate
    }

    /// Poisson-distributed count with the given mean. Used by the trace
    /// generators to draw per-bin arrival counts for non-homogeneous
    /// processes (the bin rate varies, the draw inside a bin does not).
    ///
    /// Small means use Knuth's product method (exact); large means use the
    /// normal approximation with continuity correction, which is within the
    /// noise floor of any workload model at `lambda >= 32`.
    pub(crate) fn poisson(&mut self, lambda: f64) -> u64 {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "poisson({lambda}) needs a finite non-negative mean"
        );
        if lambda == 0.0 {
            return 0;
        }
        if lambda < 32.0 {
            let limit = (-lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= self.f64();
                if p <= limit {
                    return k;
                }
                k += 1;
            }
        }
        let draw = self.normal(lambda, lambda.sqrt()) + 0.5;
        if draw <= 0.0 {
            0
        } else {
            draw as u64
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_parent_progress() {
        let mut parent1 = SimRng::new(7);
        let child1 = parent1.fork(0).next_u64();
        let mut parent2 = SimRng::new(7);
        let child2 = parent2.fork(0).next_u64();
        assert_eq!(child1, child2);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = SimRng::new(11);
        let n = 10u64;
        let mut counts = [0u32; 10];
        let draws = 100_000;
        for _ in 0..draws {
            counts[rng.below(n) as usize] += 1;
        }
        let expected = draws as f64 / n as f64;
        for &c in &counts {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "bucket count {c} too far from {expected}"
            );
        }
    }

    #[test]
    fn normal_moments() {
        let mut rng = SimRng::new(5);
        let n = 200_000;
        let (mut sum, mut sum2) = (0.0, 0.0);
        for _ in 0..n {
            let x = rng.normal(10.0, 2.0);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = SimRng::new(13);
        let rate = 4.0;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_moments_in_both_regimes() {
        let mut rng = SimRng::new(23);
        for &lambda in &[0.5, 4.0, 20.0, 200.0] {
            let n = 50_000;
            let (mut sum, mut sum2) = (0.0f64, 0.0f64);
            for _ in 0..n {
                let x = rng.poisson(lambda) as f64;
                sum += x;
                sum2 += x * x;
            }
            let mean = sum / n as f64;
            let var = sum2 / n as f64 - mean * mean;
            let tol = 4.0 * (lambda / n as f64).sqrt().max(0.01);
            assert!((mean - lambda).abs() < tol, "lambda={lambda} mean={mean}");
            assert!(
                (var - lambda).abs() < lambda * 0.1 + 0.05,
                "lambda={lambda} var={var}"
            );
        }
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity shuffle"
        );
    }

    #[test]
    fn range_inclusive_covers_endpoints() {
        let mut rng = SimRng::new(19);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            let x = rng.range_inclusive(3, 6);
            assert!((3..=6).contains(&x));
            saw_lo |= x == 3;
            saw_hi |= x == 6;
        }
        assert!(saw_lo && saw_hi);
    }
}
