//! What one core's FMA units sustain from registers: this host's own
//! "theoretical" column for Table 1, measured rather than looked up, so that
//! `experiments host` can put the GEMM's achieved GFLOP/s over a bound taken
//! on the same core in the same minute.

use crate::gemm::at_lane_tier;
use std::hint::black_box;
use std::time::Instant;

type Lane = [f32; 16];

/// Dependent FMAs per chain per timed run: ≈ 3 ms at twelve chains, long
/// enough that the clock has settled to what the core sustains under wide
/// FMAs (a 0.2 ms burst reads the turbo clock, 1.5× higher on the reference
/// host, which no GEMM longer than a blink ever sees).
const STEPS: usize = 1 << 20;

#[inline(always)]
fn fma(x: &Lane, y: &Lane, a: Lane) -> Lane {
    std::array::from_fn(|l| x[l].mul_add(y[l], a[l]))
}

/// `STEPS` rounds of `a = fma(x, y, a)` over independent chains, one local
/// per chain so that each is a register from the first round to the last;
/// the results go through `black_box` so the rounds are not dead code.
macro_rules! chains {
    ($x:ident, $y:ident, $seed:ident, $($a:ident)*) => {{
        $(let mut $a = $seed;)*
        for _ in 0..STEPS {
            $($a = fma(&$x, &$y, $a);)*
        }
        black_box([$($a),*]);
    }};
}

/// Single-core f32 FMA peak in GFLOP/s at the GEMM's own lane tier
/// ([`crate::lane_tier`]): the best of four runs of six and of twelve
/// 16-lane chains. Twelve fill an AVX-512 core's two FMA ports (eight chains
/// cover their 4-cycle latency); six are what fit AVX2's sixteen registers.
/// On the baseline tier `mul_add` is a libm call and this measures that.
pub fn fma_peak_gflops() -> f64 {
    let (x, y, seed): (Lane, Lane, Lane) = black_box(([0.5; 16], [1.0 / 4096.0; 16], [1.0; 16]));
    let mut best = 0.0f64;
    for _ in 0..4 {
        let six = timed(
            6,
            #[inline(always)]
            || chains!(x, y, seed, a0 a1 a2 a3 a4 a5),
        );
        let twelve = timed(
            12,
            #[inline(always)]
            || chains!(x, y, seed, a0 a1 a2 a3 a4 a5 a6 a7 a8 a9 a10 a11),
        );
        best = best.max(six).max(twelve);
    }
    best
}

/// GFLOP/s of one run of `body` — `chains` chains of `STEPS` FMAs, in an
/// `#[inline(always)]` closure as [`at_lane_tier`] requires — at the tier.
#[inline(always)]
fn timed(chains: usize, body: impl FnOnce()) -> f64 {
    let start = Instant::now();
    at_lane_tier(usize::MAX, body);
    (2 * 16 * chains * STEPS) as f64 / start.elapsed().as_secs_f64() / 1e9
}

#[cfg(test)]
mod tests {
    #[test]
    fn probe_measures_something_positive_and_finite() {
        let peak = super::fma_peak_gflops();
        assert!(peak.is_finite() && peak > 0.0, "{peak}");
    }
}
