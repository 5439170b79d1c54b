//! INT8 quantization: the executable substrate behind the precision story.
//!
//! §3.1 of the paper: "Lower-precision formats like INT8 or FP16 offer
//! faster inference but may reduce accuracy." The perf model captures the
//! *speed* side analytically; this module provides the real arithmetic so
//! the *accuracy* side is measurable too: symmetric per-tensor
//! quantization, an integer GEMM with i32 accumulation, and the
//! dequantization that recovers approximate f32 results.
//!
//! The integer GEMM has no kernel of its own: it runs the one f32 GEMM
//! ([`gemm_with`]) on i8 values held as f32, where that GEMM's arithmetic is
//! exact. A product of two i8 is an integer of magnitude at most 128² = 2¹⁴,
//! so over a k-chunk of at most `EXACT_K` = 1024 every partial sum of the
//! FMA chain is an integer of magnitude at most 2²⁴, which f32 holds
//! exactly: no fused multiply-add in the chain rounds, on any lane tier (on
//! the baseline tier `mul_add` is libm's `fmaf`, exact by definition). The
//! chunks are added in i32, and integer addition is associative, so every
//! host, tier and pool width computes [`gemm_i8_naive`]'s bits.

use crate::gemm::{gemm_with, PanelSource};

/// Deepest k-chunk whose FMA chain over products of i8 values stays exact in
/// f32: 1024 · 2¹⁴ = 2²⁴.
const EXACT_K: usize = 1024;

/// A symmetrically quantized tensor: `f32 ≈ i8 × scale`.
#[derive(Clone, Debug, PartialEq)]
pub struct QuantizedTensor {
    /// Quantized values.
    pub data: Vec<i8>,
    /// Dequantization scale (max-abs / 127).
    pub scale: f32,
}

/// Symmetric per-tensor quantization to i8.
pub fn quantize_symmetric(data: &[f32]) -> QuantizedTensor {
    let max_abs = data.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / 127.0 };
    let inv = 1.0 / scale;
    let q = data
        .iter()
        .map(|&v| (v * inv).round().clamp(-127.0, 127.0) as i8)
        .collect();
    QuantizedTensor { data: q, scale }
}

/// Dequantize back to f32.
pub fn dequantize(q: &QuantizedTensor) -> Vec<f32> {
    q.data.iter().map(|&v| v as f32 * q.scale).collect()
}

/// Reference integer GEMM — the obvious i32-accumulation triple loop, kept
/// verbatim as the exactness oracle for [`gemm_i8`]. Integer
/// addition is associative (no rounding, and INT8×INT8 products summed to
/// realistic depths stay far inside i32 — see
/// `accumulation_does_not_overflow_at_realistic_depths`), so every
/// implementation of this contract must agree with it *exactly*, not just
/// within a tolerance.
pub fn gemm_i8_naive(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0i32; m * n];
    if n == 0 {
        return c;
    }
    for (i, c_row) in c.chunks_mut(n).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        for (p, &ap) in a_row.iter().enumerate() {
            if ap == 0 {
                continue;
            }
            let ap = ap as i32;
            let b_row = &b[p * n..(p + 1) * n];
            for (cj, &bj) in c_row.iter_mut().zip(b_row) {
                *cj += ap * bj as i32;
            }
        }
    }
    c
}

/// Integer GEMM: `c[m×n] = a[m×k] · b[k×n]` with i32 accumulation — the
/// arithmetic INT8 tensor cores perform.
///
/// [`gemm_exact_i32`] on the operands widened to f32: exact (module docs),
/// so equal to [`gemm_i8_naive`] on every shape, and parallel over row
/// blocks of C wherever [`gemm_with`] is.
pub fn gemm_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    let widen = |x: &[i8]| -> Vec<f32> { x.iter().map(|&v| v as f32).collect() };
    gemm_exact_i32(&widen(a), &widen(b), m, k, n)
}

/// `c[m×n] = a[m×k] · b[k×n]` in i32, over f32 operands that hold integers
/// of magnitude at most 128 (i8 values, widened): [`gemm_with`] over
/// k-chunks of at most 1024, each exact in f32 (module docs), added in i32.
/// [`gemm_i8`] widens per call; the INT8 executor widens its weights once.
pub fn gemm_exact_i32(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0i32; m * n];
    if m == 0 || n == 0 {
        // Nothing to compute, and an empty A has no second k-chunk to slice.
        return c;
    }
    crate::scratch::with_f32(m * n, |chunk| {
        for p0 in (0..k).step_by(EXACT_K) {
            let b = PanelSource::Dense {
                b: &b[p0 * n..],
                ldb: n,
            };
            gemm_with(&a[p0..], k, b, chunk, n, m, EXACT_K.min(k - p0), n);
            for (acc, &v) in c.iter_mut().zip(&*chunk) {
                *acc += v as i32;
            }
        }
    });
    c
}

/// Quantize two f32 matrices, multiply in INT8, and dequantize — the full
/// quantized-inference matmul path.
pub fn quantized_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let qa = quantize_symmetric(a);
    let qb = quantize_symmetric(b);
    let acc = gemm_i8(&qa.data, &qb.data, m, k, n);
    let scale = qa.scale * qb.scale;
    acc.into_iter().map(|v| v as f32 * scale).collect()
}

/// Relative Frobenius error between a quantized result and the f32
/// reference — the "may reduce accuracy" number.
pub fn relative_error(reference: &[f32], approx: &[f32]) -> f64 {
    assert_eq!(reference.len(), approx.len());
    let num: f64 = reference
        .iter()
        .zip(approx)
        .map(|(&r, &a)| ((r - a) as f64).powi(2))
        .sum();
    let den: f64 = reference.iter().map(|&r| (r as f64).powi(2)).sum();
    (num / den.max(1e-30)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;

    fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect()
    }

    #[test]
    fn quantize_roundtrip_error_is_at_most_half_step() {
        let data = rand_vec(1000, 3);
        let q = quantize_symmetric(&data);
        let back = dequantize(&q);
        for (orig, deq) in data.iter().zip(&back) {
            assert!(
                (orig - deq).abs() <= q.scale * 0.5 + 1e-7,
                "{orig} vs {deq}"
            );
        }
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        let q = quantize_symmetric(&[0.0; 16]);
        assert!(q.data.iter().all(|&v| v == 0));
        assert_eq!(dequantize(&q), vec![0.0; 16]);
    }

    #[test]
    fn extremes_map_to_plus_minus_127() {
        let q = quantize_symmetric(&[-2.0, 0.0, 2.0]);
        assert_eq!(q.data, vec![-127, 0, 127]);
    }

    #[test]
    fn int_gemm_matches_small_known_case() {
        let a = [1i8, 2, 3, 4]; // 2x2
        let b = [5i8, 6, 7, 8];
        let c = gemm_i8(&a, &b, 2, 2, 2);
        assert_eq!(c, vec![19, 22, 43, 50]);
    }

    #[test]
    fn quantized_gemm_tracks_f32_reference() {
        let (m, k, n) = (24, 48, 16);
        let a = rand_vec(m * k, 7);
        let b = rand_vec(k * n, 11);
        let mut reference = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut reference, m, k, n);
        let approx = quantized_gemm(&a, &b, m, k, n);
        let err = relative_error(&reference, &approx);
        // ~0.5% relative error is typical for well-scaled int8 GEMM.
        assert!(err < 0.02, "relative error {err}");
        assert!(err > 0.0, "quantization must not be exact on random data");
    }

    #[test]
    fn accumulation_does_not_overflow_at_realistic_depths() {
        // Worst case per MAC is 127·127 ≈ 16k; k = 4096 stays far inside
        // i32 (16k × 4096 ≈ 2^26).
        let k = 4096;
        let a = vec![127i8; k];
        let b = vec![127i8; k]; // k×1
        let c = gemm_i8(&a, &b, 1, k, 1);
        assert_eq!(c[0], 127 * 127 * k as i32);
    }

    fn rand_i8(len: usize, seed: u64) -> Vec<i8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i64 % 255 - 127) as i8
            })
            .collect()
    }

    #[test]
    fn packed_kernel_is_exact_vs_naive_on_awkward_shapes() {
        // Odd k, column tails either side of the f32 GEMM's 32-column
        // register tile, row tails of its 12/8/4/1-row tiles, and tiny
        // shapes must all agree with the scalar oracle bit-for-bit —
        // integer arithmetic, no tolerance.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 7, 5),
            (4, 16, 8),
            (5, 17, 9),
            (6, 31, 33),
            (8, 64, 65),
            (13, 100, 37),
            (9, 255, 130),
        ] {
            let a = rand_i8(m * k, 71);
            let b = rand_i8(k * n, 73);
            assert_eq!(
                gemm_i8(&a, &b, m, k, n),
                gemm_i8_naive(&a, &b, m, k, n),
                "({m},{k},{n})"
            );
        }
    }

    #[test]
    fn degenerate_dims_return_zeros() {
        for &(m, k, n) in &[(0, 4, 4), (4, 0, 4), (4, 4, 0), (0, 0, 0)] {
            let a = rand_i8(m * k, 1);
            let b = rand_i8(k * n, 2);
            assert_eq!(gemm_i8(&a, &b, m, k, n), vec![0i32; m * n]);
        }
    }

    #[test]
    fn relative_error_is_zero_for_identical_inputs() {
        let x = rand_vec(64, 5);
        assert_eq!(relative_error(&x, &x), 0.0);
    }
}
