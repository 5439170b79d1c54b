//! Pointwise and normalization ops used by the model zoo's forward pass.

use crate::gemm::at_lane_tier;
use harvest_threads::for_each_chunk_mut;

/// In-place ReLU: negatives become `+0.0`, everything else — `-0.0` and NaN
/// included — keeps its bits.
pub fn relu(x: &mut [f32]) {
    relu_upto(usize::MAX, x);
}

/// [`relu`] held to lane-tier rank `cap`, as [`gelu_upto`].
#[doc(hidden)]
pub fn relu_upto(cap: usize, x: &mut [f32]) -> &'static str {
    at_lane_tier(
        cap,
        #[inline(always)]
        || {
            // A select, not a conditional store, so that it vectorizes.
            for v in x.iter_mut() {
                *v = if *v < 0.0 { 0.0 } else { *v };
            }
        },
    )
}

/// `e^x` without libm: at most 1 ulp off down to `-87.3`, exactly `0` below
/// it, `+inf` from 89 up; a NaN stays a NaN.
///
/// Every step is a float `+ - *`, a compare-select or an integer operation.
/// rustc neither fuses nor reorders those, so the result bits are the same
/// whichever instruction set a loop around this is compiled for and whatever
/// libm the host has, and there is no branch or call to stop the loop from
/// vectorizing.
///
/// There is no gradual underflow: a result below the smallest normal number
/// is `0`, by select and not by arithmetic. A multiply that underflows costs
/// a ~150-cycle microcode assist on x86, so a saturated softmax row or a
/// large positive GELU argument would run 40× slower than any other input,
/// and would hand denormals to the GEMM that follows.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const LN2_HI: f32 = 355.0 / 512.0; // 9 bits, so `n * LN2_HI` is exact
    const LN2_LO: f32 = -2.121_944_4e-4;
    const ROUND: f32 = 12_582_912.0; // 1.5 * 2^23: adding it rounds to an integer
    const FLOOR: f32 = -87.3; // e^FLOOR = 1.04 * 2^-126, the last normal result
    let c = if x > 89.0 { 89.0 } else { x };
    let c = if c < FLOOR { FLOOR } else { c };
    // c = n ln 2 + r with |r| <= ln 2 / 2, and n in [-126, 128].
    let t = c * std::f32::consts::LOG2_E + ROUND;
    let n = t - ROUND;
    let r = (c - n * LN2_HI) - n * LN2_LO;
    let p = 1.987_569_1e-4;
    let p = p * r + 1.398_2e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 0.5;
    let p = p * (r * r) + r + 1.0;
    // 2^n as two factors of about 2^(n/2): 2^128 is not a float, but
    // p * 2^64 * 2^64 is finite when p < 1 and +inf by IEEE when it is not.
    let n = (t.to_bits() as i32).wrapping_sub(ROUND.to_bits() as i32);
    let half = n >> 1;
    let pow2 = |e: i32| f32::from_bits(((e + 127) << 23) as u32);
    let e = p * pow2(half) * pow2(n - half);
    if x < FLOOR {
        0.0
    } else {
        e
    }
}

/// In-place tanh-approximation GELU (the approximation PyTorch ships for
/// ViTs; exact-erf differences are ~1e-3 and irrelevant here), through
/// `0.5 x (1 + tanh u) = x / (1 + e^(-2u))`: one [`exp`], one divide, and no
/// `1 + tanh` cancellation in the negative tail.
pub fn gelu(x: &mut [f32]) {
    gelu_upto(usize::MAX, x);
}

/// [`gelu`] held to lane-tier rank `cap` (0 baseline, 1 AVX2, 2 AVX-512);
/// returns the tier that ran. The contract suite's way to every
/// instantiation — production code never caps.
#[doc(hidden)]
pub fn gelu_upto(cap: usize, x: &mut [f32]) -> &'static str {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    at_lane_tier(
        cap,
        #[inline(always)]
        || {
            for v in x.iter_mut() {
                let u = C * (*v + 0.044715 * (*v * *v * *v));
                *v /= 1.0 + exp(-2.0 * u);
            }
        },
    )
}

/// Add a bias vector to each row of a `rows × cols` matrix.
pub fn add_bias(x: &mut [f32], bias: &[f32]) {
    let cols = bias.len();
    assert!(
        cols > 0 && x.len().is_multiple_of(cols),
        "x len {} not a multiple of bias len {cols}",
        x.len()
    );
    for row in x.chunks_exact_mut(cols) {
        for (v, b) in row.iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Folds `map(v)` over `row` with `op`, in an order fixed by this code and
/// not by the instruction set: 16 strided lanes (lane `l` takes elements `l`,
/// `l + 16`, ...), the lanes folded by a pairwise tree (8, 4, 2, 1), then the
/// `len % 16` tail one element at a time. The lanes are what lets a float
/// reduction, which the compiler may not reorder, run wider than one add
/// latency per element.
#[inline(always)]
fn lane_fold(
    row: &[f32],
    init: f32,
    map: impl Fn(f32) -> f32,
    op: impl Fn(f32, f32) -> f32,
) -> f32 {
    let mut lanes = [init; 16];
    let chunks = row.chunks_exact(16);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = op(*lane, map(v));
        }
    }
    for width in [8, 4, 2, 1] {
        for l in 0..width {
            lanes[l] = op(lanes[l], lanes[l + width]);
        }
    }
    tail.iter().fold(lanes[0], |acc, &v| op(acc, map(v)))
}

/// Numerically-stable softmax over each row of a `rows × cols` matrix.
pub fn softmax_rows(x: &mut [f32], cols: usize) {
    softmax_rows_upto(usize::MAX, x, cols);
}

/// [`softmax_rows`] held to lane-tier rank `cap`, as [`gelu_upto`].
#[doc(hidden)]
pub fn softmax_rows_upto(cap: usize, x: &mut [f32], cols: usize) {
    assert!(cols > 0 && x.len().is_multiple_of(cols));
    // Max, exp, sum and scale are separate passes so that each vectorizes.
    let apply = |row: &mut [f32]| {
        at_lane_tier(
            cap,
            #[inline(always)]
            || {
                // A NaN never wins the max; it reaches the sum through `exp`.
                let max = lane_fold(
                    row,
                    f32::NEG_INFINITY,
                    |v| v,
                    |a, v| if v > a { v } else { a },
                );
                for v in row.iter_mut() {
                    *v = exp(*v - max);
                }
                let inv = 1.0 / lane_fold(row, 0.0, |v| v, |a, v| a + v);
                for v in row.iter_mut() {
                    *v *= inv;
                }
            },
        );
    };
    if x.len() >= 1 << 16 {
        for_each_chunk_mut(x, cols, |_, row| apply(row));
    } else {
        x.chunks_exact_mut(cols).for_each(apply);
    }
}

/// LayerNorm over the last dimension of a `rows × d` matrix, with affine
/// gamma/beta parameters.
pub fn layernorm(x: &mut [f32], d: usize, gamma: &[f32], beta: &[f32], eps: f32) {
    assert!(d > 0 && x.len().is_multiple_of(d));
    assert_eq!(gamma.len(), d);
    assert_eq!(beta.len(), d);
    // Baseline lanes only: the wider tiers measured slower here (0.60 against
    // 0.74 ns per element at AVX-512), the folds being too short to pay for
    // them.
    let apply = |row: &mut [f32]| {
        let mean = lane_fold(row, 0.0, |v| v, |a, v| a + v) / d as f32;
        let var = lane_fold(row, 0.0, |v| (v - mean) * (v - mean), |a, v| a + v) / d as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv_std * gamma[j] + beta[j];
        }
    };
    if x.len() >= 1 << 16 {
        for_each_chunk_mut(x, d, |_, row| apply(row));
    } else {
        x.chunks_exact_mut(d).for_each(apply);
    }
}

/// Inference-mode batch normalization over an NCHW tensor: per-channel
/// `y = (x - mean) / sqrt(var + eps) * gamma + beta`.
#[allow(clippy::too_many_arguments)]
pub fn batchnorm_inference(
    x: &mut [f32],
    channels: usize,
    spatial: usize,
    mean: &[f32],
    var: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    assert_eq!(mean.len(), channels);
    assert_eq!(var.len(), channels);
    assert_eq!(gamma.len(), channels);
    assert_eq!(beta.len(), channels);
    assert!(
        x.len().is_multiple_of(channels * spatial),
        "x not NCHW-compatible"
    );
    for image in x.chunks_exact_mut(channels * spatial) {
        for (c, plane) in image.chunks_exact_mut(spatial).enumerate() {
            let scale = gamma[c] / (var[c] + eps).sqrt();
            let shift = beta[c] - mean[c] * scale;
            for v in plane.iter_mut() {
                *v = *v * scale + shift;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let mut x = vec![-1.0, 0.0, 2.5, -0.1];
        relu(&mut x);
        assert_eq!(x, vec![0.0, 0.0, 2.5, 0.0]);
    }

    #[test]
    fn gelu_known_values() {
        let mut x = vec![0.0f32, 1.0, -1.0, 3.0];
        gelu(&mut x);
        assert!((x[0] - 0.0).abs() < 1e-6);
        assert!((x[1] - 0.8412).abs() < 1e-3, "{}", x[1]);
        assert!((x[2] + 0.1588).abs() < 1e-3, "{}", x[2]);
        assert!((x[3] - 2.9964).abs() < 1e-3, "{}", x[3]);
    }

    #[test]
    fn bias_broadcasts_per_row() {
        let mut x = vec![0.0, 0.0, 1.0, 1.0];
        add_bias(&mut x, &[10.0, 20.0]);
        assert_eq!(x, vec![10.0, 20.0, 11.0, 21.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let mut x = vec![1.0, 2.0, 3.0, -5.0, 0.0, 5.0];
        softmax_rows(&mut x, 3);
        for row in x.chunks(3) {
            let s: f32 = row.iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
        assert!(x[0] < x[1] && x[1] < x[2]);
        assert!(x[5] > 0.99, "large logit dominates: {}", x[5]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let mut a = vec![1.0, 2.0, 3.0];
        let mut b = vec![1001.0, 1002.0, 1003.0];
        softmax_rows(&mut a, 3);
        softmax_rows(&mut b, 3);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn layernorm_normalizes() {
        let d = 4;
        let mut x = vec![1.0, 2.0, 3.0, 4.0];
        let gamma = vec![1.0; d];
        let beta = vec![0.0; d];
        layernorm(&mut x, d, &gamma, &beta, 1e-5);
        let mean: f32 = x.iter().sum::<f32>() / d as f32;
        let var: f32 = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        assert!(mean.abs() < 1e-6);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layernorm_affine_applies() {
        let d = 2;
        let mut x = vec![-1.0, 1.0];
        layernorm(&mut x, d, &[2.0, 2.0], &[5.0, 5.0], 1e-9);
        // Normalized row is [-1, 1]; affine maps to [3, 7].
        assert!((x[0] - 3.0).abs() < 1e-3, "{}", x[0]);
        assert!((x[1] - 7.0).abs() < 1e-3, "{}", x[1]);
    }

    #[test]
    fn batchnorm_matches_manual() {
        // 1 image, 2 channels, 2 spatial positions.
        let mut x = vec![1.0, 3.0, 10.0, 20.0];
        batchnorm_inference(
            &mut x,
            2,
            2,
            &[2.0, 15.0],
            &[1.0, 25.0],
            &[1.0, 2.0],
            &[0.0, 1.0],
            0.0,
        );
        assert!((x[0] + 1.0).abs() < 1e-6);
        assert!((x[1] - 1.0).abs() < 1e-6);
        assert!((x[2] - (2.0 * (10.0 - 15.0) / 5.0 + 1.0)).abs() < 1e-6);
        assert!((x[3] - (2.0 * (20.0 - 15.0) / 5.0 + 1.0)).abs() < 1e-6);
    }

    #[test]
    fn batchnorm_handles_batches() {
        let mut x = vec![0.0; 2 * 3 * 4]; // 2 images, 3 channels, 4 spatial
        batchnorm_inference(
            &mut x, 3, 4, &[0.0; 3], &[1.0; 3], &[1.0; 3], &[7.0; 3], 0.0,
        );
        assert!(x.iter().all(|&v| (v - 7.0).abs() < 1e-6));
    }
}
