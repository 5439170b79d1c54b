//! Kernel variants: the SIMD rewrite of the hot GEMM inner loops.
//!
//! Table 1 of the paper reports 75–83 % GEMM efficiency on its platforms.
//! Three explicit variants sit behind one dispatch point:
//!
//! * [`KernelVariant::Scalar`] — the blocked kernel from
//!   [`mod@crate::gemm`]. It is the determinism oracle: every committed logit
//!   fingerprint was produced by its loop body, which is unchanged source
//!   autovectorized once per lane tier (SSE2 / AVX2 / AVX-512, see
//!   [`crate::gemm::lane_tier`]) — same bits at every tier, no FMA.
//! * [`KernelVariant::Unrolled`] — safe-Rust explicit-width lane unrolling
//!   (`f32x8`-style manual vectors) over a 4×16 register tile.
//!   **Bit-identical to `Scalar`** by construction: each output element is
//!   accumulated over `p` in the same left-associative 4-term groups, in
//!   the same order, with f32 rounding after every operation (the contract
//!   `gemm_bt` documents). Lane position only changes *which column* an
//!   operation serves, never the per-element rounding sequence.
//! * [`KernelVariant::Simd`] — `std::arch` AVX2+FMA (and AVX512F when the
//!   host has it) micro-kernels over packed A/B panels, compiled behind the
//!   `simd` cargo feature and runtime-guarded by `is_x86_feature_detected!`.
//!   FMA rounds once per multiply-add where the scalar kernel rounds twice,
//!   so this variant produces *different* bits — its fingerprints are
//!   pinned separately (see `EXPERIMENTS.md`), the way PR 5 pinned
//!   fingerprints per thread count. Every `Simd` output element is a pure
//!   sequential fused chain `c = fma(a[p], b[p], c)` over the full k
//!   extent, which makes the bits invariant to the micro-tile shape the
//!   autotuner picks, to row-block splits across threads, and to whether
//!   the AVX2 or AVX512 path ran — the property that lets a timing-based
//!   (nondeterministic) tuner coexist with byte-identical CI reruns.
//!
//! Row-block parallelism for all variants reuses the [`mod@crate::gemm`]
//! policy: each worker owns a disjoint row block of C, and per-row results
//! do not depend on the split.

use crate::gemm::{self, PAR_THRESHOLD_MACS};
use crate::tune::{self, MicroShape};
use rayon::prelude::*;

/// Which GEMM implementation services a matmul. See the module docs for
/// the bit-compatibility contract of each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// Blocked scalar kernel (the determinism oracle).
    Scalar,
    /// Manual 8-lane unrolling, bit-identical to `Scalar`.
    Unrolled,
    /// AVX2/FMA (+ AVX512) packed-panel kernels; own fingerprint pin.
    Simd,
}

impl KernelVariant {
    /// Stable lowercase name used in artifacts and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            KernelVariant::Scalar => "scalar",
            KernelVariant::Unrolled => "unrolled",
            KernelVariant::Simd => "simd",
        }
    }

    /// Inverse of [`KernelVariant::name`].
    pub fn parse(s: &str) -> Option<KernelVariant> {
        match s {
            "scalar" => Some(KernelVariant::Scalar),
            "unrolled" => Some(KernelVariant::Unrolled),
            "simd" => Some(KernelVariant::Simd),
            _ => None,
        }
    }

    /// True when the `Simd` variant can actually run: compiled with the
    /// `simd` feature on x86-64 *and* the host exposes AVX2+FMA.
    pub fn simd_supported() -> bool {
        simd_runtime_supported()
    }

    /// Variants runnable on this build+host, in fingerprint-pin order
    /// (`Scalar` first). `Simd` appears only when
    /// [`KernelVariant::simd_supported`] holds, so callers can iterate this
    /// to produce per-variant artifact rows without conditional compilation.
    pub fn available() -> Vec<KernelVariant> {
        let mut v = vec![KernelVariant::Scalar, KernelVariant::Unrolled];
        if Self::simd_supported() {
            v.push(KernelVariant::Simd);
        }
        v
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn simd_runtime_supported() -> bool {
    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
fn simd_runtime_supported() -> bool {
    false
}

/// True when the AVX512F micro-kernel may be selected (requires the `simd`
/// feature *and* runtime support).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub fn avx512_supported() -> bool {
    is_x86_feature_detected!("avx512f")
}

/// True when the AVX512F micro-kernel may be selected.
#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
pub fn avx512_supported() -> bool {
    false
}

/// Variant-dispatched GEMM: `c[m×n] = a[m×k] · b[k×n]`.
///
/// `Scalar` is exactly [`gemm::gemm`]; `Unrolled` is bit-identical to it;
/// `Simd` runs the tuned packed-panel kernel (falling back to `Unrolled`
/// when unsupported, so the call is total on every build).
pub fn gemm_v(
    variant: KernelVariant,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match variant {
        KernelVariant::Scalar => gemm::gemm(a, b, c, m, k, n),
        KernelVariant::Unrolled => gemm_unrolled(a, b, c, m, k, n),
        KernelVariant::Simd => gemm_with_shape(tune::active_shape(), a, b, c, m, k, n),
    }
}

/// Variant-dispatched `c = a · bᵀ` with `b_t` stored `n×k` (linear-layer
/// layout). Packs the transpose once, exactly like [`gemm::gemm_bt`].
pub fn gemm_bt_v(
    variant: KernelVariant,
    a: &[f32],
    b_t: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    if variant == KernelVariant::Scalar {
        return gemm::gemm_bt(a, b_t, c, m, k, n);
    }
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b_t.len(), n * k, "b_t is {n}x{k}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
    if n == 0 || m == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    // Transpose pack loaned from the thread-local scratch pool (every
    // element is written, matching `gemm::gemm_bt`).
    crate::scratch::with_f32(k * n, |b| {
        for (j, b_t_row) in b_t.chunks_exact(k).enumerate() {
            for (p, &v) in b_t_row.iter().enumerate() {
                b[p * n + j] = v;
            }
        }
        gemm_v(variant, a, b, c, m, k, n);
    });
}

/// GEMM through a specific autotuner micro-shape. Shapes the current
/// build/host cannot run degrade to the safe [`gemm_unrolled`] kernel, so
/// any shape in [`tune::search_space`] is valid to request anywhere.
pub fn gemm_with_shape(
    shape: MicroShape,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match shape {
        MicroShape::Unrolled => gemm_unrolled(a, b, c, m, k, n),
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        MicroShape::Fma { mr, nrv } if simd_runtime_supported() => {
            simd::gemm_fma_shape(mr, nrv, a, b, c, m, k, n)
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        MicroShape::Avx512 if avx512_supported() => simd::gemm_avx512(a, b, c, m, k, n),
        _ => gemm_unrolled(a, b, c, m, k, n),
    }
}

/// Sequential fused-multiply-add oracle: every element is the chain
/// `c = fma(a[i][p], b[p][j], c)` for `p = 0..k`. The `Simd` variant is
/// **bit-identical** to this for every micro-shape, thread split, and
/// vector width — the conformance suite pins that equivalence, and it is
/// what makes the tuned kernels safe to rerun under CI's byte-identity
/// gates.
pub fn gemm_fma_oracle(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for p in 0..k {
                s = a[i * k + p].mul_add(b[p * n + j], s);
            }
            c[i * n + j] = s;
        }
    }
}

#[inline]
fn check_dims(a: &[f32], b: &[f32], c: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b.len(), k * n, "b is {k}x{n}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
}

// ---------------------------------------------------------------------------
// Unrolled variant: safe explicit-width lanes, bit-identical to Scalar.
// ---------------------------------------------------------------------------

/// Eight f32 lanes manipulated as a value — the safe-Rust `f32x8`. The
/// per-lane loops compile to packed SSE2 on the baseline target and wider
/// ops where the target allows; the *semantics* are exactly eight
/// independent scalar f32 operations, which is why lane width never
/// perturbs per-element rounding.
#[derive(Clone, Copy)]
struct F32x8([f32; 8]);

impl F32x8 {
    const LANES: usize = 8;

    #[inline(always)]
    fn zero() -> Self {
        F32x8([0.0; 8])
    }

    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        let mut v = [0.0; 8];
        v.copy_from_slice(&s[..8]);
        F32x8(v)
    }

    #[inline(always)]
    fn splat(x: f32) -> Self {
        F32x8([x; 8])
    }

    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        let mut v = self.0;
        for (l, &r) in v.iter_mut().zip(&o.0) {
            *l *= r;
        }
        F32x8(v)
    }

    #[inline(always)]
    fn add(self, o: Self) -> Self {
        let mut v = self.0;
        for (l, &r) in v.iter_mut().zip(&o.0) {
            *l += r;
        }
        F32x8(v)
    }

    #[inline(always)]
    fn store(self, s: &mut [f32]) {
        s[..8].copy_from_slice(&self.0);
    }
}

/// Unrolled GEMM entry point: parallel over row blocks of C with the same
/// crossover policy as [`gemm::gemm`], single block otherwise. Bit-identical
/// to the scalar kernel for every shape and thread count.
pub fn gemm_unrolled(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    if m * n * k < PAR_THRESHOLD_MACS || m < 2 {
        unrolled_block(a, b, c, m, k, n);
        return;
    }
    let threads = rayon::current_num_threads().max(1);
    let rows_per_block = m.div_ceil(threads).next_multiple_of(4);
    c.par_chunks_mut(rows_per_block * n)
        .enumerate()
        .for_each(|(blk, c_block)| {
            let i0 = blk * rows_per_block;
            let mb = c_block.len() / n;
            unrolled_block(&a[i0 * k..(i0 + mb) * k], b, c_block, mb, k, n);
        });
}

/// 4×16 register tile over full-k accumulation. Accumulation grouping per
/// element matches the scalar kernel exactly: pre-summed left-associative
/// 4-term groups at absolute `p` multiples of 4, singles for the `k % 4`
/// tail, starting from +0.0.
fn unrolled_block(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    const V: usize = F32x8::LANES; // 8
    let mut i = 0;
    while i + 4 <= m {
        let mut j = 0;
        while j + 2 * V <= n {
            let mut acc = [[F32x8::zero(); 2]; 4];
            let mut p = 0;
            while p + 4 <= k {
                let b0 = [
                    F32x8::load(&b[p * n + j..]),
                    F32x8::load(&b[p * n + j + V..]),
                ];
                let b1 = [
                    F32x8::load(&b[(p + 1) * n + j..]),
                    F32x8::load(&b[(p + 1) * n + j + V..]),
                ];
                let b2 = [
                    F32x8::load(&b[(p + 2) * n + j..]),
                    F32x8::load(&b[(p + 2) * n + j + V..]),
                ];
                let b3 = [
                    F32x8::load(&b[(p + 3) * n + j..]),
                    F32x8::load(&b[(p + 3) * n + j + V..]),
                ];
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let x0 = F32x8::splat(a[(i + r) * k + p]);
                    let x1 = F32x8::splat(a[(i + r) * k + p + 1]);
                    let x2 = F32x8::splat(a[(i + r) * k + p + 2]);
                    let x3 = F32x8::splat(a[(i + r) * k + p + 3]);
                    for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                        // Scalar grouping: c += ((x0·b0 + x1·b1) + x2·b2) + x3·b3.
                        let t = x0
                            .mul(b0[v])
                            .add(x1.mul(b1[v]))
                            .add(x2.mul(b2[v]))
                            .add(x3.mul(b3[v]));
                        *acc_rv = acc_rv.add(t);
                    }
                }
                p += 4;
            }
            while p < k {
                let bp = [
                    F32x8::load(&b[p * n + j..]),
                    F32x8::load(&b[p * n + j + V..]),
                ];
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let x = F32x8::splat(a[(i + r) * k + p]);
                    for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                        *acc_rv = acc_rv.add(x.mul(bp[v]));
                    }
                }
                p += 1;
            }
            for (r, acc_r) in acc.iter().enumerate() {
                acc_r[0].store(&mut c[(i + r) * n + j..]);
                acc_r[1].store(&mut c[(i + r) * n + j + V..]);
            }
            j += 2 * V;
        }
        // Column tail: scalar-order accumulation per element.
        while j < n {
            for r in 0..4 {
                c[(i + r) * n + j] = dot_scalar_order(&a[(i + r) * k..(i + r) * k + k], b, j, k, n);
            }
            j += 1;
        }
        i += 4;
    }
    // Row tail (m % 4): scalar-order accumulation per element.
    while i < m {
        for j in 0..n {
            c[i * n + j] = dot_scalar_order(&a[i * k..(i + 1) * k], b, j, k, n);
        }
        i += 1;
    }
}

/// One output element in the scalar kernel's exact accumulation order.
#[inline(always)]
fn dot_scalar_order(a_row: &[f32], b: &[f32], j: usize, k: usize, n: usize) -> f32 {
    let mut s = 0.0f32;
    let mut p = 0;
    while p + 4 <= k {
        s += a_row[p] * b[p * n + j]
            + a_row[p + 1] * b[(p + 1) * n + j]
            + a_row[p + 2] * b[(p + 2) * n + j]
            + a_row[p + 3] * b[(p + 3) * n + j];
        p += 4;
    }
    while p < k {
        s += a_row[p] * b[p * n + j];
        p += 1;
    }
    s
}

// ---------------------------------------------------------------------------
// Simd variant: packed-panel AVX2/FMA and AVX512 micro-kernels.
// ---------------------------------------------------------------------------

/// Pack B into `nr`-wide column panels: `out[jb][p][0..nr]`, zero-padded in
/// the final partial panel. `out` must be pre-zeroed (the pack only writes
/// live lanes) and sized `n.div_ceil(nr)·k·nr` — the scratch pool's
/// zero-filled loans satisfy both.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn pack_b_panels_into(b: &[f32], k: usize, n: usize, nr: usize, out: &mut [f32]) {
    let jblocks = n.div_ceil(nr);
    assert_eq!(out.len(), jblocks * k * nr, "b panel buffer");
    for jb in 0..jblocks {
        let j0 = jb * nr;
        let w = nr.min(n - j0);
        for p in 0..k {
            let dst = (jb * k + p) * nr;
            out[dst..dst + w].copy_from_slice(&b[p * n + j0..p * n + j0 + w]);
        }
    }
}

/// Pack A rows into `mr`-interleaved panels: `out[(ib·k + p)·mr + r]`,
/// zero-padded in the final partial panel. Same pre-zeroed contract as
/// [`pack_b_panels_into`], with `out` sized `m.div_ceil(mr)·k·mr`.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn pack_a_panels_into(a: &[f32], m: usize, k: usize, mr: usize, out: &mut [f32]) {
    let iblocks = m.div_ceil(mr);
    assert_eq!(out.len(), iblocks * k * mr, "a panel buffer");
    for ib in 0..iblocks {
        let i0 = ib * mr;
        let h = mr.min(m - i0);
        for p in 0..k {
            for r in 0..h {
                out[(ib * k + p) * mr + r] = a[(i0 + r) * k + p];
            }
        }
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    //! `std::arch` micro-kernels. Safety: every function here is either
    //! `#[target_feature]`-gated and only reached after the corresponding
    //! `is_x86_feature_detected!` check, and all pointer arithmetic stays
    //! inside slices whose lengths are asserted by the callers.
    use super::{pack_a_panels_into, pack_b_panels_into, PAR_THRESHOLD_MACS};
    use crate::scratch;
    use rayon::prelude::*;
    use std::arch::x86_64::*;

    /// Largest supported micro-tile, sized for the edge-tile spill buffer.
    const MAX_MR: usize = 8;
    const MAX_NR: usize = 32;

    /// AVX2+FMA macro-kernel over an `MR×(NRV·8)` register tile. A and B
    /// are pre-packed; edge tiles compute a full (zero-padded) tile into a
    /// spill buffer and copy out the live region — padded lanes never
    /// influence live lanes, and every live element is the full-k fma
    /// chain regardless of tile position.
    ///
    /// # Safety
    /// Requires AVX2 and FMA at runtime. `a` must hold `mb` packed rows of
    /// length k (as produced by [`pack_a_panels_into`] with this `MR`), `bp`
    /// the [`pack_b_panels_into`] packing of B with `nr = NRV·8`, and `c` the
    /// `mb×n` output block.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn fma_block<const MR: usize, const NRV: usize>(
        ap: &[f32],
        bp: &[f32],
        c: &mut [f32],
        mb: usize,
        k: usize,
        n: usize,
    ) {
        let nr = NRV * 8;
        let iblocks = mb.div_ceil(MR);
        let jblocks = n.div_ceil(nr);
        for ib in 0..iblocks {
            let i0 = ib * MR;
            let h = MR.min(mb - i0);
            for jb in 0..jblocks {
                let j0 = jb * nr;
                let w = nr.min(n - j0);
                let mut acc = [[_mm256_setzero_ps(); NRV]; MR];
                let mut app = ap.as_ptr().add(ib * k * MR);
                let mut bpp = bp.as_ptr().add(jb * k * nr);
                for _p in 0..k {
                    let mut bv = [_mm256_setzero_ps(); NRV];
                    for (v, bvv) in bv.iter_mut().enumerate() {
                        *bvv = _mm256_loadu_ps(bpp.add(v * 8));
                    }
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let x = _mm256_broadcast_ss(&*app.add(r));
                        for (v, acc_rv) in acc_r.iter_mut().enumerate() {
                            *acc_rv = _mm256_fmadd_ps(x, bv[v], *acc_rv);
                        }
                    }
                    app = app.add(MR);
                    bpp = bpp.add(nr);
                }
                if h == MR && w == nr {
                    for (r, acc_r) in acc.iter().enumerate() {
                        for (v, acc_rv) in acc_r.iter().enumerate() {
                            _mm256_storeu_ps(
                                c.as_mut_ptr().add((i0 + r) * n + j0 + v * 8),
                                *acc_rv,
                            );
                        }
                    }
                } else {
                    let mut tmp = [0.0f32; MAX_MR * MAX_NR];
                    for (r, acc_r) in acc.iter().enumerate() {
                        for (v, acc_rv) in acc_r.iter().enumerate() {
                            _mm256_storeu_ps(tmp.as_mut_ptr().add(r * nr + v * 8), *acc_rv);
                        }
                    }
                    for r in 0..h {
                        c[(i0 + r) * n + j0..(i0 + r) * n + j0 + w]
                            .copy_from_slice(&tmp[r * nr..r * nr + w]);
                    }
                }
            }
        }
    }

    /// AVX512F macro-kernel, 8×32 tile. Same per-element fma chain as the
    /// AVX2 kernel, hence bit-identical output.
    ///
    /// # Safety
    /// Requires AVX512F at runtime; packing contracts as [`fma_block`]
    /// with `MR = 8`, `nr = 32`.
    #[target_feature(enable = "avx512f")]
    unsafe fn avx512_block(ap: &[f32], bp: &[f32], c: &mut [f32], mb: usize, k: usize, n: usize) {
        const MR: usize = 8;
        const NR: usize = 32;
        let iblocks = mb.div_ceil(MR);
        let jblocks = n.div_ceil(NR);
        for ib in 0..iblocks {
            let i0 = ib * MR;
            let h = MR.min(mb - i0);
            for jb in 0..jblocks {
                let j0 = jb * NR;
                let w = NR.min(n - j0);
                let mut acc = [[_mm512_setzero_ps(); 2]; MR];
                let mut app = ap.as_ptr().add(ib * k * MR);
                let mut bpp = bp.as_ptr().add(jb * k * NR);
                for _p in 0..k {
                    let b0 = _mm512_loadu_ps(bpp);
                    let b1 = _mm512_loadu_ps(bpp.add(16));
                    for (r, acc_r) in acc.iter_mut().enumerate() {
                        let x = _mm512_set1_ps(*app.add(r));
                        acc_r[0] = _mm512_fmadd_ps(x, b0, acc_r[0]);
                        acc_r[1] = _mm512_fmadd_ps(x, b1, acc_r[1]);
                    }
                    app = app.add(MR);
                    bpp = bpp.add(NR);
                }
                if h == MR && w == NR {
                    for (r, acc_r) in acc.iter().enumerate() {
                        _mm512_storeu_ps(c.as_mut_ptr().add((i0 + r) * n + j0), acc_r[0]);
                        _mm512_storeu_ps(c.as_mut_ptr().add((i0 + r) * n + j0 + 16), acc_r[1]);
                    }
                } else {
                    let mut tmp = [0.0f32; MR * NR];
                    for (r, acc_r) in acc.iter().enumerate() {
                        _mm512_storeu_ps(tmp.as_mut_ptr().add(r * NR), acc_r[0]);
                        _mm512_storeu_ps(tmp.as_mut_ptr().add(r * NR + 16), acc_r[1]);
                    }
                    for r in 0..h {
                        c[(i0 + r) * n + j0..(i0 + r) * n + j0 + w]
                            .copy_from_slice(&tmp[r * NR..r * NR + w]);
                    }
                }
            }
        }
    }

    /// Run `block(a_rows, c_block, mb)` over row blocks of C, in parallel
    /// when the problem is large enough, with blocks rounded to `mr` rows.
    fn over_row_blocks<F>(m: usize, k: usize, n: usize, mr: usize, block: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let threads = rayon::current_num_threads().max(1);
        if m * n * k < PAR_THRESHOLD_MACS || m < 2 || threads == 1 {
            block(0, m);
            return;
        }
        let rows_per_block = m.div_ceil(threads).next_multiple_of(mr);
        let blocks = m.div_ceil(rows_per_block);
        (0..blocks).into_par_iter().for_each(|blk| {
            let i0 = blk * rows_per_block;
            let mb = rows_per_block.min(m - i0);
            block(i0, mb);
        });
    }

    /// AVX2/FMA GEMM for a given `(mr, nrv)` micro-shape. Unknown shapes
    /// snap to the 6×16 default (same bits either way).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn gemm_fma_shape(
        mr: usize,
        nrv: usize,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        super::check_dims(a, b, c, m, k, n);
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 {
            c.fill(0.0);
            return;
        }
        macro_rules! dispatch {
            ($mr:expr, $nrv:expr) => {{
                let nr = $nrv * 8;
                scratch::with_f32(n.div_ceil(nr) * k * nr, |bp| {
                    pack_b_panels_into(b, k, n, nr, bp);
                    let c_ptr = SendPtr(c.as_mut_ptr());
                    over_row_blocks(m, k, n, $mr, |i0, mb| {
                        scratch::with_f32(mb.div_ceil($mr) * k * $mr, |ap| {
                            pack_a_panels_into(&a[i0 * k..(i0 + mb) * k], mb, k, $mr, ap);
                            // Safety: row blocks are disjoint; AVX2+FMA
                            // checked by the caller of gemm_with_shape.
                            let c_block = unsafe {
                                std::slice::from_raw_parts_mut(c_ptr.get().add(i0 * n), mb * n)
                            };
                            unsafe { fma_block::<$mr, $nrv>(ap, bp, c_block, mb, k, n) };
                        });
                    });
                });
            }};
        }
        match (mr, nrv) {
            (3, 4) => dispatch!(3, 4),
            (4, 2) => dispatch!(4, 2),
            (4, 3) => dispatch!(4, 3),
            (8, 1) => dispatch!(8, 1),
            _ => dispatch!(6, 2),
        }
    }

    /// AVX512F GEMM (8×32 micro-tile).
    pub(super) fn gemm_avx512(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        super::check_dims(a, b, c, m, k, n);
        if m == 0 || n == 0 {
            return;
        }
        if k == 0 {
            c.fill(0.0);
            return;
        }
        scratch::with_f32(n.div_ceil(32) * k * 32, |bp| {
            pack_b_panels_into(b, k, n, 32, bp);
            let c_ptr = SendPtr(c.as_mut_ptr());
            over_row_blocks(m, k, n, 8, |i0, mb| {
                scratch::with_f32(mb.div_ceil(8) * k * 8, |ap| {
                    pack_a_panels_into(&a[i0 * k..(i0 + mb) * k], mb, k, 8, ap);
                    // Safety: row blocks are disjoint; AVX512F checked by the
                    // caller.
                    let c_block =
                        unsafe { std::slice::from_raw_parts_mut(c_ptr.get().add(i0 * n), mb * n) };
                    unsafe { avx512_block(ap, bp, c_block, mb, k, n) };
                });
            });
        });
    }

    /// Raw output pointer shared across row-block workers. Sound because
    /// each worker writes only its disjoint `[i0·n, (i0+mb)·n)` range.
    struct SendPtr(*mut f32);
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}
    impl SendPtr {
        fn get(&self) -> *mut f32 {
            self.0
        }
    }
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

    #[test]
    fn unrolled_is_bit_identical_to_scalar() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (4, 16, 16),
            (7, 23, 19),
            (65, 130, 70),
            (33, 64, 129),
        ] {
            let a = rand_vec(m * k, 9);
            let b = rand_vec(k * n, 10);
            let mut c_s = vec![0.0f32; m * n];
            let mut c_u = vec![0.0f32; m * n];
            gemm::gemm(&a, &b, &mut c_s, m, k, n);
            gemm_unrolled(&a, &b, &mut c_u, m, k, n);
            for (i, (x, y)) in c_s.iter().zip(&c_u).enumerate() {
                assert_eq!(
                    x.to_bits(),
                    y.to_bits(),
                    "({m},{k},{n}) idx {i}: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn degenerate_dims_all_variants() {
        // m==0 / n==0 / k==0 must not panic in any variant (including the
        // packed paths) and must zero (or leave empty) the output.
        for variant in KernelVariant::available() {
            for &(m, k, n) in &[(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0), (1, 0, 1)] {
                let a = rand_vec(m * k, 1);
                let b = rand_vec(k * n, 2);
                let mut c = vec![7.0f32; m * n];
                gemm_v(variant, &a, &b, &mut c, m, k, n);
                assert!(
                    c.iter().all(|&x| x == 0.0),
                    "{} ({m},{k},{n})",
                    variant.name()
                );
            }
        }
    }

    #[test]
    fn degenerate_dims_with_shape_paths() {
        for shape in tune::search_space() {
            for &(m, k, n) in &[(0, 5, 5), (5, 0, 5), (5, 5, 0)] {
                let a = rand_vec(m * k, 3);
                let b = rand_vec(k * n, 4);
                let mut c = vec![3.0f32; m * n];
                gemm_with_shape(shape, &a, &b, &mut c, m, k, n);
                assert!(c.iter().all(|&x| x == 0.0), "{shape:?} ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn variant_names_round_trip() {
        for v in [
            KernelVariant::Scalar,
            KernelVariant::Unrolled,
            KernelVariant::Simd,
        ] {
            assert_eq!(KernelVariant::parse(v.name()), Some(v));
        }
        assert_eq!(KernelVariant::parse("avx9000"), None);
    }

    #[test]
    fn available_starts_with_scalar_and_unrolled() {
        let avail = KernelVariant::available();
        assert_eq!(
            &avail[..2],
            &[KernelVariant::Scalar, KernelVariant::Unrolled]
        );
    }

    #[cfg(feature = "simd")]
    #[test]
    fn simd_matches_fma_oracle_bitwise() {
        if !KernelVariant::simd_supported() {
            return;
        }
        for &(m, k, n) in &[(6, 16, 16), (13, 37, 29), (64, 64, 64), (17, 100, 33)] {
            let a = rand_vec(m * k, 5);
            let b = rand_vec(k * n, 6);
            let mut c_o = vec![0.0f32; m * n];
            let mut c_s = vec![0.0f32; m * n];
            gemm_fma_oracle(&a, &b, &mut c_o, m, k, n);
            gemm_v(KernelVariant::Simd, &a, &b, &mut c_s, m, k, n);
            for (i, (x, y)) in c_o.iter().zip(&c_s).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n}) idx {i}");
            }
        }
    }
}
