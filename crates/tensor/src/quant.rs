//! INT8 quantization: the executable substrate behind the precision story.
//!
//! §3.1 of the paper: "Lower-precision formats like INT8 or FP16 offer
//! faster inference but may reduce accuracy." The perf model captures the
//! *speed* side analytically; this module provides the real arithmetic so
//! the *accuracy* side is measurable too: symmetric per-tensor
//! quantization, an integer GEMM with i32 accumulation, and the
//! dequantization that recovers approximate f32 results.

use harvest_threads::{for_each_chunk_mut, max_threads};

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
/// verbatim as the exactness oracle for the vectorized path. Integer
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
/// On x86-64 this runs a `pmaddwd`-based kernel over pair-packed i16
/// panels: both operands are widened to i16 and interleaved in adjacent-k
/// pairs, so one multiply-add instruction retires two k steps for eight
/// (SSE2), sixteen (AVX2) or thirty-two (AVX512BW) columns at once. SSE2
/// is baseline on x86-64 so the fast path needs no cargo feature, and the
/// arithmetic is *exact* (integers, products ≤ 127², pair sums ≤ 32 258,
/// safe in i32 to k ≈ 130 000), so no instruction set can perturb a
/// fingerprint and it is simply always on. Wider paths are
/// runtime-detected. Other architectures use [`gemm_i8_naive`].
///
/// Row blocks of C are processed in parallel for large problems; results
/// are identical for every split and instruction set.
pub fn gemm_i8(a: &[i8], b: &[i8], m: usize, k: usize, n: usize) -> Vec<i32> {
    assert_eq!(a.len(), m * k);
    assert_eq!(b.len(), k * n);
    let mut c = vec![0i32; m * n];
    if m == 0 || n == 0 || k == 0 {
        // Nothing to compute, and chunking by 0 columns is ill-defined.
        return c;
    }
    #[cfg(target_arch = "x86_64")]
    {
        let bp = x86::pack_b_pairs(b, k, n);
        let run = |i0: usize, c_rows: &mut [i32]| {
            let mb = c_rows.len() / n;
            x86::i8_rows(&a[i0 * k..(i0 + mb) * k], b, &bp, c_rows, mb, k, n);
        };
        let threads = max_threads();
        if m * n * k < 1 << 18 || m < 2 || threads == 1 {
            run(0, &mut c);
        } else {
            let rows_per_block = m.div_ceil(threads).next_multiple_of(4);
            for_each_chunk_mut(&mut c, rows_per_block * n, |blk, c_rows| {
                run(blk * rows_per_block, c_rows)
            });
        }
        c
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let run = |i: usize, c_row: &mut [i32]| {
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
        };
        if m * n * k < 1 << 18 {
            c.chunks_mut(n)
                .enumerate()
                .for_each(|(i, c_row)| run(i, c_row));
        } else {
            for_each_chunk_mut(&mut c, n, run);
        }
        c
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! Pair-packed `pmaddwd` INT8 kernels. The packing interleaves values
    //! from adjacent k indices (`[v(p), v(p+1)]` as two i16 lanes), which
    //! is exactly the operand shape `_mm_madd_epi16` consumes: it multiplies
    //! i16 lanes pairwise and horizontally adds adjacent products into i32
    //! lanes — two k steps per instruction, no overflow (|product| ≤ 127²,
    //! pair sum ≤ 32 258 ≪ i32::MAX).

    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Widest usable multiply-accumulate ISA on this host, probed once.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Path {
        /// AVX512-VNNI `vpdpwssd`: fused i16-pair dot + i32 accumulate —
        /// the actual deep-learning instruction, one uop where
        /// `pmaddwd + paddd` needs two.
        Vnni,
        Avx512,
        Avx2,
        Sse2,
    }

    fn path() -> Path {
        static PATH: OnceLock<Path> = OnceLock::new();
        *PATH.get_or_init(|| {
            if is_x86_feature_detected!("avx512bw") && is_x86_feature_detected!("avx512vnni") {
                Path::Vnni
            } else if is_x86_feature_detected!("avx512bw") {
                Path::Avx512
            } else if is_x86_feature_detected!("avx2") {
                Path::Avx2
            } else {
                Path::Sse2
            }
        })
    }

    /// `acc += Σ adjacent-pair products` — `pmaddwd` then `paddd`.
    macro_rules! mac_ops {
        ($name:ident, $vec:ty, $madd:ident, $add:ident) => {
            #[inline(always)]
            unsafe fn $name(acc: $vec, a: $vec, b: $vec) -> $vec {
                $add(acc, $madd(a, b))
            }
        };
    }
    mac_ops!(mac_sse2, __m128i, _mm_madd_epi16, _mm_add_epi32);
    mac_ops!(mac_avx2, __m256i, _mm256_madd_epi16, _mm256_add_epi32);
    mac_ops!(mac_avx512, __m512i, _mm512_madd_epi16, _mm512_add_epi32);

    /// Single-instruction fused form on VNNI hardware. Bit-for-bit the
    /// same result (integer arithmetic), half the vector-ALU uops.
    #[target_feature(enable = "avx512vnni")]
    #[inline]
    unsafe fn mac_vnni(acc: __m512i, a: __m512i, b: __m512i) -> __m512i {
        _mm512_dpwssd_epi32(acc, a, b)
    }

    /// Pack B (`k×n` i8) into pair-interleaved i16 rows: for pair index
    /// `pp`, `out[pp·2n + 2j] = b[2pp][j]` and `out[pp·2n + 2j+1] =
    /// b[2pp+1][j]` (zero when `2pp+1 == k`).
    pub(super) fn pack_b_pairs(b: &[i8], k: usize, n: usize) -> Vec<i16> {
        let pairs = k.div_ceil(2);
        let mut panel = vec![0i16; pairs * n * 2];
        for pp in 0..pairs {
            let p0 = 2 * pp;
            let row = &mut panel[pp * n * 2..(pp + 1) * n * 2];
            for (j, slot) in row.chunks_exact_mut(2).enumerate() {
                slot[0] = b[p0 * n + j] as i16;
                slot[1] = if p0 + 1 < k {
                    b[(p0 + 1) * n + j] as i16
                } else {
                    0
                };
            }
        }
        panel
    }

    /// Pack a block of A rows into per-row pair words: each u32 holds the
    /// two i16s `[a(i,2pp), a(i,2pp+1)]`, so the kernel's broadcast is a
    /// single 32-bit splat.
    fn pack_a_pairs(a: &[i8], mb: usize, k: usize) -> Vec<i32> {
        let pairs = k.div_ceil(2);
        let mut panel = vec![0i32; mb * pairs];
        for (i, row) in panel.chunks_exact_mut(pairs).enumerate() {
            for (pp, word) in row.iter_mut().enumerate() {
                let p0 = 2 * pp;
                let lo = a[i * k + p0] as i16 as u16 as u32;
                let hi = if p0 + 1 < k {
                    a[i * k + p0 + 1] as i16 as u16 as u32
                } else {
                    0
                };
                *word = (lo | (hi << 16)) as i32;
            }
        }
        panel
    }

    /// One exact scalar output element (used for column tails).
    #[inline(always)]
    fn dot_i8(a_row: &[i8], b: &[i8], j: usize, k: usize, n: usize) -> i32 {
        debug_assert_eq!(a_row.len(), k);
        let mut s = 0i32;
        for (p, &ap) in a_row.iter().enumerate() {
            s += ap as i32 * b[p * n + j] as i32;
        }
        s
    }

    /// Compute `mb` rows of C from a row block of A. `bp` is the
    /// [`pack_b_pairs`] panel of the full B; `b` is the raw B for scalar
    /// tails.
    pub(super) fn i8_rows(
        a: &[i8],
        b: &[i8],
        bp: &[i16],
        c: &mut [i32],
        mb: usize,
        k: usize,
        n: usize,
    ) {
        let ap = pack_a_pairs(a, mb, k);
        match path() {
            // Safety: each arm only runs when the matching CPU feature was
            // detected; SSE2 is part of the x86-64 baseline.
            Path::Vnni => unsafe { rows_vnni(a, b, &ap, bp, c, mb, k, n) },
            Path::Avx512 => unsafe { rows_avx512(a, b, &ap, bp, c, mb, k, n) },
            Path::Avx2 => unsafe { rows_avx2(a, b, &ap, bp, c, mb, k, n) },
            Path::Sse2 => unsafe { rows_sse2(a, b, &ap, bp, c, mb, k, n) },
        }
    }

    /// Generates a `pmaddwd` row-block kernel for one register width.
    /// `$cols` output columns per B vector, 4-row then 1-row tiles, scalar
    /// column tails.
    macro_rules! i8_kernel {
        ($name:ident, $cols:expr, $vec:ty, $load:ident, $set1:ident, $mac:ident, $zero:ident, $store:ident $(, $feat:literal)?) => {
            $(#[target_feature(enable = $feat)])?
            #[allow(clippy::too_many_arguments)]
            unsafe fn $name(
                a: &[i8],
                b: &[i8],
                ap: &[i32],
                bp: &[i16],
                c: &mut [i32],
                mb: usize,
                k: usize,
                n: usize,
            ) {
                const COLS: usize = $cols;
                let pairs = k.div_ceil(2);
                let mut i = 0;
                while i + 4 <= mb {
                    // Raw row pointers: the compiler cannot hoist slice
                    // bounds checks out of the pmaddwd loop, and four
                    // checked indexes per k-pair cost ~25 % of the kernel.
                    // In bounds by construction: pp < pairs and each row
                    // slice of `ap` is `pairs` words long.
                    let a_rows: [*const i32; 4] = [
                        ap.as_ptr().add(i * pairs),
                        ap.as_ptr().add((i + 1) * pairs),
                        ap.as_ptr().add((i + 2) * pairs),
                        ap.as_ptr().add((i + 3) * pairs),
                    ];
                    let mut j = 0;
                    while j + 2 * COLS <= n {
                        let mut acc = [[$zero(); 2]; 4];
                        for pp in 0..pairs {
                            let bpp = bp.as_ptr().add(pp * n * 2 + 2 * j);
                            let bva = $load(bpp as *const $vec);
                            let bvb = $load(bpp.add(COLS * 2) as *const $vec);
                            for (r, acc_r) in acc.iter_mut().enumerate() {
                                let av = $set1(*a_rows[r].add(pp));
                                acc_r[0] = $mac(acc_r[0], av, bva);
                                acc_r[1] = $mac(acc_r[1], av, bvb);
                            }
                        }
                        for (r, acc_r) in acc.iter().enumerate() {
                            $store(c.as_mut_ptr().add((i + r) * n + j) as *mut $vec, acc_r[0]);
                            $store(
                                c.as_mut_ptr().add((i + r) * n + j + COLS) as *mut $vec,
                                acc_r[1],
                            );
                        }
                        j += 2 * COLS;
                    }
                    while j + COLS <= n {
                        let mut acc = [$zero(); 4];
                        for pp in 0..pairs {
                            let bv = $load(bp.as_ptr().add(pp * n * 2 + 2 * j) as *const $vec);
                            for (r, acc_r) in acc.iter_mut().enumerate() {
                                *acc_r = $mac(*acc_r, $set1(*a_rows[r].add(pp)), bv);
                            }
                        }
                        for (r, acc_r) in acc.iter().enumerate() {
                            $store(c.as_mut_ptr().add((i + r) * n + j) as *mut $vec, *acc_r);
                        }
                        j += COLS;
                    }
                    while j < n {
                        for r in 0..4 {
                            c[(i + r) * n + j] = dot_i8(&a[(i + r) * k..(i + r + 1) * k], b, j, k, n);
                        }
                        j += 1;
                    }
                    i += 4;
                }
                while i < mb {
                    let a_row = &ap[i * pairs..(i + 1) * pairs];
                    let mut j = 0;
                    while j + COLS <= n {
                        let mut acc = $zero();
                        for (pp, &aw) in a_row.iter().enumerate() {
                            let bv = $load(bp.as_ptr().add(pp * n * 2 + 2 * j) as *const $vec);
                            acc = $mac(acc, $set1(aw), bv);
                        }
                        $store(c.as_mut_ptr().add(i * n + j) as *mut $vec, acc);
                        j += COLS;
                    }
                    while j < n {
                        c[i * n + j] = dot_i8(&a[i * k..(i + 1) * k], b, j, k, n);
                        j += 1;
                    }
                    i += 1;
                }
            }
        };
    }

    i8_kernel!(
        rows_sse2,
        4,
        __m128i,
        _mm_loadu_si128,
        _mm_set1_epi32,
        mac_sse2,
        _mm_setzero_si128,
        _mm_storeu_si128
    );
    i8_kernel!(
        rows_avx2,
        8,
        __m256i,
        _mm256_loadu_si256,
        _mm256_set1_epi32,
        mac_avx2,
        _mm256_setzero_si256,
        _mm256_storeu_si256,
        "avx2"
    );
    i8_kernel!(
        rows_avx512,
        16,
        __m512i,
        _mm512_loadu_si512,
        _mm512_set1_epi32,
        mac_avx512,
        _mm512_setzero_si512,
        _mm512_storeu_si512,
        "avx512bw"
    );
    i8_kernel!(
        rows_vnni,
        16,
        __m512i,
        _mm512_loadu_si512,
        _mm512_set1_epi32,
        mac_vnni,
        _mm512_setzero_si512,
        _mm512_storeu_si512,
        "avx512bw,avx512vnni"
    );
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
        // Odd k (pair padding), column tails at every width (SSE 8, AVX2
        // 16, AVX512 32), row tails, and tiny shapes must all agree with
        // the scalar oracle bit-for-bit — integer arithmetic, no tolerance.
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
