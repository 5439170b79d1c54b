//! General matrix multiplication: the kernel the whole stack leans on.
//!
//! Three tiers:
//!
//! * [`gemm_naive`] — triple loop, the correctness oracle for tests.
//! * [`gemm_blocked`] — cache-blocked (MC×KC×NC) single-threaded kernel with
//!   an unrolled inner loop over packed panels. Its one loop body is compiled
//!   once per x86-64 lane tier (SSE2 baseline, AVX2, AVX-512) and the widest
//!   the host has is picked per call ([`lane_tier`]); all of them produce the
//!   same bits, so which one ran is a speed, never a result.
//! * [`gemm`] — the production entry point: row blocks of C spread over the
//!   `harvest-threads` pool, each block running the blocked kernel. Falls
//!   back to the blocked kernel for small problems where fork/join overhead
//!   would dominate.
//!
//! [`gemm`] and [`gemm_bt`] are the only f32 GEMMs in the tree; `Executor`,
//! `conv2d` and `multi_head_attention` call them directly.
//!
//! The same routine doubles as the *host side* of Table 1: the GEMM FLOPS
//! microbenchmark in `harvest-hw` runs this kernel to produce a practical-
//! vs-theoretical efficiency figure for the machine the reproduction runs on.

use harvest_threads::{for_each_chunk_mut, max_threads};

/// Cache-block sizes. Chosen for typical x86-64 L1/L2; correctness does not
/// depend on them, and perf only weakly (the benches sweep them).
const MC: usize = 64;
const KC: usize = 256;
const NC: usize = 512;

/// Problems smaller than this many multiply-accumulates stay single-threaded.
/// The pool spawns scoped threads per region (no persistent workers), so the
/// crossover sits higher than a work-stealing runtime's would.
const PAR_THRESHOLD_MACS: usize = 1 << 20;

/// `c[m×n] = a[m×k] · b[k×n]` — reference triple loop (ikj order so the inner
/// loop streams through `b` and `c` rows).
pub fn gemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    c.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..p * n + n];
            let c_row = &mut c[i * n..i * n + n];
            for j in 0..n {
                c_row[j] += aip * b_row[j];
            }
        }
    }
}

#[inline]
fn check_dims(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b.len(), k * n, "b is {k}x{n}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
}

/// Cache-blocked single-threaded GEMM. Accumulates into `c` after zeroing it.
pub fn gemm_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    c.fill(0.0);
    gemm_blocked_acc(a, b, c, m, k, n);
}

/// The lane tier the blocked kernel runs at on this host: `"sse2"`,
/// `"avx2"` or `"avx512"` on x86-64, `"baseline"` elsewhere. Detected per
/// call from CPUID; nothing selects it.
pub fn lane_tier() -> &'static str {
    // The dispatcher names the instantiation it ran, so this cannot drift
    // from what a GEMM call does; an empty product runs no loop.
    gemm_blocked_acc_upto(usize::MAX, &[], &[], &mut [], 0, 0, 0)
}

/// [`gemm_blocked`] held to lane-tier rank `cap` (0 baseline, 1 AVX2,
/// 2 AVX-512); returns the tier that ran. The conformance suite's way to
/// every instantiation — production code never caps.
#[doc(hidden)]
pub fn gemm_blocked_upto(
    cap: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> &'static str {
    check_dims(a, b, c, m, k, n);
    c.fill(0.0);
    gemm_blocked_acc_upto(cap, a, b, c, m, k, n)
}

/// Blocked GEMM that *accumulates* into `c` (callers zero or pre-bias it),
/// at the widest lane tier the host has.
fn gemm_blocked_acc(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_blocked_acc_upto(usize::MAX, a, b, c, m, k, n);
}

/// Runs the instantiation of [`gemm_blocked_acc_body`] that [`at_lane_tier`]
/// picks under `cap`, and returns its tier.
#[inline]
fn gemm_blocked_acc_upto(
    cap: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) -> &'static str {
    at_lane_tier(
        cap,
        #[inline(always)]
        || gemm_blocked_acc_body(a, b, c, m, k, n),
    )
}

/// Runs `body` as compiled for the widest lane tier the host supports whose
/// rank does not exceed `cap`, and returns that tier. The one place this
/// crate detects an instruction set for a scalar loop; `body` must be an
/// `#[inline(always)]` closure over `#[inline(always)]` code, so that its
/// loops are compiled inside the tier's function and not before it.
///
/// Every instantiation produces the same bits. rustc never contracts
/// `a * b + c` into a fused multiply-add and never reorders a float
/// reduction, so the wider instruction sets change how many elements one
/// instruction serves and nothing about any element's rounding sequence.
#[inline(always)]
pub(crate) fn at_lane_tier(cap: usize, body: impl FnOnce()) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if cap >= 2 && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: avx512f and avx512vl were just detected, and avx512f
            // implies avx2; those are all the features the callee enables.
            unsafe { at_avx512(body) };
            return "avx512";
        }
        if cap >= 1 && is_x86_feature_detected!("avx2") {
            // SAFETY: avx2, the one feature the callee enables, was just
            // detected.
            unsafe { at_avx2(body) };
            return "avx2";
        }
    }
    let _ = cap;
    body();
    if cfg!(target_arch = "x86_64") {
        "sse2"
    } else {
        "baseline"
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn at_avx2(body: impl FnOnce()) {
    body()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,avx512f,avx512vl")]
fn at_avx512(body: impl FnOnce()) {
    body()
}

/// The blocked kernel's one loop body, compiled once per lane tier.
///
/// The micro-kernel is register-blocked over four rows of C: one pass over
/// the packed B panel feeds four output rows, quartering panel traffic and
/// giving the vectorizer four independent accumulator streams. Each row's
/// k-accumulation order is identical to the single-row kernel (same 4-way
/// groups in the same sequence), so results are bit-identical regardless of
/// how rows are grouped — the property the batched executor's
/// batch-equals-single guarantee rests on.
#[inline(always)]
fn gemm_blocked_acc_body(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let mut jc = 0;
    while jc < n {
        let nb = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kb = KC.min(k - pc);
            let mut ic = 0;
            while ic < m {
                let mb = MC.min(m - ic);
                let mut i = ic;
                // 4-row micro-tile over the (mb × nb) block of C.
                while i + 4 <= ic + mb {
                    let a0_row = &a[i * k + pc..i * k + pc + kb];
                    let a1_row = &a[(i + 1) * k + pc..(i + 1) * k + pc + kb];
                    let a2_row = &a[(i + 2) * k + pc..(i + 2) * k + pc + kb];
                    let a3_row = &a[(i + 3) * k + pc..(i + 3) * k + pc + kb];
                    let (c0, rest) = c[i * n..(i + 4) * n].split_at_mut(n);
                    let (c1, rest) = rest.split_at_mut(n);
                    let (c2, c3) = rest.split_at_mut(n);
                    let c0 = &mut c0[jc..jc + nb];
                    let c1 = &mut c1[jc..jc + nb];
                    let c2 = &mut c2[jc..jc + nb];
                    let c3 = &mut c3[jc..jc + nb];
                    // 4-way unrolled accumulation over the K panel.
                    let mut p = 0;
                    while p + 4 <= kb {
                        let b0 = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let b1 = &b[(pc + p + 1) * n + jc..(pc + p + 1) * n + jc + nb];
                        let b2 = &b[(pc + p + 2) * n + jc..(pc + p + 2) * n + jc + nb];
                        let b3 = &b[(pc + p + 3) * n + jc..(pc + p + 3) * n + jc + nb];
                        let (x00, x01, x02, x03) =
                            (a0_row[p], a0_row[p + 1], a0_row[p + 2], a0_row[p + 3]);
                        let (x10, x11, x12, x13) =
                            (a1_row[p], a1_row[p + 1], a1_row[p + 2], a1_row[p + 3]);
                        let (x20, x21, x22, x23) =
                            (a2_row[p], a2_row[p + 1], a2_row[p + 2], a2_row[p + 3]);
                        let (x30, x31, x32, x33) =
                            (a3_row[p], a3_row[p + 1], a3_row[p + 2], a3_row[p + 3]);
                        for j in 0..nb {
                            let (b0j, b1j, b2j, b3j) = (b0[j], b1[j], b2[j], b3[j]);
                            c0[j] += x00 * b0j + x01 * b1j + x02 * b2j + x03 * b3j;
                            c1[j] += x10 * b0j + x11 * b1j + x12 * b2j + x13 * b3j;
                            c2[j] += x20 * b0j + x21 * b1j + x22 * b2j + x23 * b3j;
                            c3[j] += x30 * b0j + x31 * b1j + x32 * b2j + x33 * b3j;
                        }
                        p += 4;
                    }
                    while p < kb {
                        let b_row = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let (x0, x1, x2, x3) = (a0_row[p], a1_row[p], a2_row[p], a3_row[p]);
                        for j in 0..nb {
                            let bj = b_row[j];
                            c0[j] += x0 * bj;
                            c1[j] += x1 * bj;
                            c2[j] += x2 * bj;
                            c3[j] += x3 * bj;
                        }
                        p += 1;
                    }
                    i += 4;
                }
                // Remainder rows (mb % 4) through the single-row kernel.
                while i < ic + mb {
                    let a_row = &a[i * k + pc..i * k + pc + kb];
                    let c_row = &mut c[i * n + jc..i * n + jc + nb];
                    let mut p = 0;
                    while p + 4 <= kb {
                        let a0 = a_row[p];
                        let a1 = a_row[p + 1];
                        let a2 = a_row[p + 2];
                        let a3 = a_row[p + 3];
                        let b0 = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        let b1 = &b[(pc + p + 1) * n + jc..(pc + p + 1) * n + jc + nb];
                        let b2 = &b[(pc + p + 2) * n + jc..(pc + p + 2) * n + jc + nb];
                        let b3 = &b[(pc + p + 3) * n + jc..(pc + p + 3) * n + jc + nb];
                        for j in 0..nb {
                            c_row[j] += a0 * b0[j] + a1 * b1[j] + a2 * b2[j] + a3 * b3[j];
                        }
                        p += 4;
                    }
                    while p < kb {
                        let ap = a_row[p];
                        let b_row = &b[(pc + p) * n + jc..(pc + p) * n + jc + nb];
                        for j in 0..nb {
                            c_row[j] += ap * b_row[j];
                        }
                        p += 1;
                    }
                    i += 1;
                }
                ic += mb;
            }
            pc += kb;
        }
        jc += nb;
    }
}

/// Production GEMM: parallel over row blocks of `C` when the problem is big
/// enough to amortize fork/join, otherwise the blocked kernel.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    // Degenerate dimensions early-out before the parallel path can chunk
    // by zero columns.
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m * n * k < PAR_THRESHOLD_MACS || m < 2 {
        c.fill(0.0);
        gemm_blocked_acc(a, b, c, m, k, n);
        return;
    }
    // Each worker owns a disjoint row block of C — data-race freedom by
    // construction. Blocks are balanced (ceil(m/threads)) rather than clamped
    // to MC so no worker is left idle on mid-sized m, and rounded up to the
    // 4-row micro-tile so only the final block runs the slower remainder-row
    // kernel.
    let rows_per_block = m.div_ceil(max_threads()).next_multiple_of(4);
    for_each_chunk_mut(c, rows_per_block * n, |blk, c_block| {
        let i0 = blk * rows_per_block;
        let mb = c_block.len() / n;
        c_block.fill(0.0);
        gemm_blocked_acc(&a[i0 * k..(i0 + mb) * k], b, c_block, mb, k, n);
    });
}

/// The one kernel family's name, kept for the frozen `benchmark/` crate
/// (which passes it back into [`gemm_v`], `conv2d_v` and
/// `multi_head_attention_v`) until a `benchmark`-archetype PR drops it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// The blocked kernel of this module at the host's widest lane tier.
    Scalar,
}

impl KernelVariant {
    /// Stable lowercase name used in artifacts.
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// [`gemm`]; kept for `benchmark/` (see [`KernelVariant`]).
pub fn gemm_v(
    _variant: KernelVariant,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    gemm(a, b, c, m, k, n)
}

/// `c = a · bᵀ` where `b` is stored row-major as `n×k` — the layout linear
/// layers use (`weight[out][in]`).
///
/// Packs the transpose of `b_t` into a scratch buffer and runs the blocked
/// [`gemm`] kernel. The O(k·n) pack is noise next to the O(m·k·n) multiply,
/// and the packed path runs ~7× faster than the per-(i,j) scalar dot
/// products this function used to do: those walked `b_t` column-wise with a
/// single accumulator stream, while the micro-kernel streams four output
/// rows per B-panel pass.
///
/// Bit-compatibility with the old scalar path (and hence with every
/// committed logit fingerprint): both accumulate each `c[i][j]` over `p` in
/// strictly increasing order, in the same left-associative 4-way groups
/// (`KC` is a multiple of 4, so panel boundaries never split a group), with
/// a single-add tail and f32 rounding after every operation. Register vs
/// memory accumulation does not change the rounding sequence.
pub fn gemm_bt(a: &[f32], b_t: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b_t.len(), n * k, "b_t is {n}x{k}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        // Empty dot products: the output is all zeros.
        c.fill(0.0);
        return;
    }
    // Pack bᵀ (n×k) into b (k×n): column-major reads, row-major writes. The
    // pack buffer is loaned from the thread-local scratch pool so repeated
    // forwards reuse one allocation (every element is written below).
    crate::scratch::with_f32(k * n, |b| {
        for (j, b_t_row) in b_t.chunks_exact(k).enumerate() {
            for (p, &v) in b_t_row.iter().enumerate() {
                b[p * n + j] = v;
            }
        }
        gemm(a, b, c, m, k, n);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() <= tol, "idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn identity_matrix_is_neutral() {
        let m = 5;
        let a = rand_vec(m * m, 1);
        let mut eye = vec![0.0; m * m];
        for i in 0..m {
            eye[i * m + i] = 1.0;
        }
        let mut c = vec![0.0; m * m];
        gemm(&a, &eye, &mut c, m, m, m);
        assert_close(&c, &a, 1e-6);
    }

    #[test]
    fn known_2x2() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [5.0, 6.0, 7.0, 8.0];
        let mut c = [0.0; 4];
        gemm_naive(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn blocked_matches_naive_awkward_shapes() {
        // Shapes chosen to exercise partial blocks in every dimension.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (65, 257, 33),
            (70, 300, 520),
            (128, 128, 128),
        ] {
            let a = rand_vec(m * k, 11);
            let b = rand_vec(k * n, 13);
            let mut c_ref = vec![0.0; m * n];
            let mut c_blk = vec![0.0; m * n];
            gemm_naive(&a, &b, &mut c_ref, m, k, n);
            gemm_blocked(&a, &b, &mut c_blk, m, k, n);
            assert_close(&c_blk, &c_ref, 1e-3);
        }
    }

    #[test]
    fn parallel_matches_naive_above_threshold() {
        let (m, k, n) = (150, 120, 130);
        let a = rand_vec(m * k, 21);
        let b = rand_vec(k * n, 23);
        let mut c_ref = vec![0.0; m * n];
        let mut c_par = vec![0.0; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm(&a, &b, &mut c_par, m, k, n);
        assert_close(&c_par, &c_ref, 1e-3);
    }

    #[test]
    fn gemm_bt_matches_explicit_transpose() {
        let (m, k, n) = (9, 17, 5);
        let a = rand_vec(m * k, 31);
        let b_t = rand_vec(n * k, 33); // n×k
                                       // Build b = transpose(b_t): k×n
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = b_t[j * k + p];
            }
        }
        let mut c_ref = vec![0.0; m * n];
        let mut c_bt = vec![0.0; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm_bt(&a, &b_t, &mut c_bt, m, k, n);
        assert_close(&c_bt, &c_ref, 1e-4);
    }

    #[test]
    fn overwrites_stale_output() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [99.0f32; 4];
        gemm(&a, &b, &mut c, 2, 2, 2);
        assert_close(&c, &b, 1e-6);
    }

    #[test]
    fn degenerate_k_zero_means_zero_output() {
        let a: Vec<f32> = vec![];
        let b: Vec<f32> = vec![];
        let mut c = vec![5.0f32; 6];
        gemm_naive(&a, &b, &mut c, 2, 0, 3);
        assert!(c.iter().all(|&x| x == 0.0));
        let mut c2 = vec![5.0f32; 6];
        gemm_blocked(&a, &b, &mut c2, 2, 0, 3);
        assert!(c2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn degenerate_m_or_n_zero_is_a_clean_noop() {
        // m == 0: every output slice is empty; must not panic.
        let b = rand_vec(3 * 4, 41);
        let mut c: Vec<f32> = vec![];
        gemm(&[], &b, &mut c, 0, 3, 4);
        assert!(c.is_empty());
        // n == 0: zero-width rows; the parallel path would otherwise chunk
        // by zero columns.
        let a = rand_vec(5 * 3, 43);
        let mut c2: Vec<f32> = vec![];
        gemm(&a, &[], &mut c2, 5, 3, 0);
        assert!(c2.is_empty());
    }

    #[test]
    fn degenerate_k_zero_zeroes_stale_output() {
        let mut c = vec![9.0f32; 4 * 6];
        gemm(&[], &[], &mut c, 4, 0, 6);
        assert!(c.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "a is")]
    fn dimension_mismatch_panics() {
        let a = vec![0.0; 5];
        let b = vec![0.0; 6];
        let mut c = vec![0.0; 4];
        gemm(&a, &b, &mut c, 2, 3, 2);
    }
}
