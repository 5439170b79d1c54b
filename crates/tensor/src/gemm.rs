//! General matrix multiplication: the kernel the whole stack leans on.
//!
//! One kernel, one bit contract: **`c[i][j]` is the left-to-right chain of
//! fused multiply-adds `c = fma(a[i][p], b[p][j], c)` over `p = 0..k`,
//! starting from `+0.0`.** A fused multiply-add rounds once and is correctly
//! rounded on every IEEE-754 host, so the chain names one f32 per element
//! and nothing about how it was computed: not the register tile (`MR`×`NR`),
//! not the cache blocks (`MC`, `KC`, `NC` — a K panel ends by storing C and
//! the next resumes from that stored value, exactly), not the lane tier, the
//! thread split or the B packing. Any tiling satisfies it.
//!
//! * [`gemm_naive`] — the chain written as the triple loop: the exact
//!   oracle the conformance suite holds everything else to, bit for bit.
//! * [`gemm_blocked`] — the single-threaded kernel: a `jc / pc / ic` cache
//!   nest around one register-tiled micro-kernel that holds an `MR`×`NR`
//!   tile of C in registers across a whole K panel and reads B from a
//!   `KC`×`NR` panel packed into thread-local scratch. Its body is compiled
//!   once per x86-64 lane tier (SSE2 baseline, AVX2+FMA, AVX-512+FMA) and
//!   the widest the host has is picked per call ([`lane_tier`]); which one
//!   ran is a speed, never a result.
//! * [`gemm_with`] — the production entry point: row blocks of C spread over
//!   the `harvest-threads` pool, each running the blocked kernel; small
//!   problems, where fork/join would dominate, run it directly. [`gemm`] and
//!   [`gemm_bt`] are this with a dense or a transposed B.
//!
//! The body has one hook, and it cannot reach the chain: a **panel source**
//! ([`PanelSource`]) says where `B[p][j]` lives when a panel is packed — a
//! strided row-major matrix, a transposed one (`weight[out][in]`, or K
//! inside a fused `qkv` buffer), the column matrix of a convolution read
//! straight from the image planes, or a weight packed once ([`PackedB`]),
//! whose panels are read where they lie. The pack loop copies values; the
//! micro-kernel sees the same `KC`×`NR` panel whatever it was copied from,
//! and a packed weight is that panel built ahead. A and C take row strides
//! for the same reason: an operand is used where it lies instead of being
//! gathered.
//!
//! This is the only f32 GEMM in the tree; `Executor`, `conv2d_into` and the
//! attention core call it directly. The same routine
//! is the *host side* of Table 1: `harvest-hw`'s GEMM FLOPS microbenchmark
//! runs it for this machine's practical-vs-theoretical efficiency figure.

use crate::conv::conv_out_dim;
use harvest_threads::{for_each_chunk_mut, max_threads};

/// The register tile: `MR` rows of C by `NR` columns. 12×32 is 24
/// sixteen-lane accumulators, which with two B vectors and one broadcast of
/// A fills AVX-512's 32 registers and gives the two FMA ports three times
/// the 8 independent chains their 4-cycle latency needs. (It spills on
/// AVX2's 16 half-width registers: that tier is correct and, run capped on
/// the reference host, about as fast as the unfused kernel it replaces.)
/// The executor cuts a batch's MLP rows in multiples of `MR`, so only a
/// chunk's last tile runs the row tail.
pub const MR: usize = 12;
const NR: usize = 32;

/// Cache-block sizes (`MC` a multiple of `MR`, `NC` of `NR`): a packed B
/// panel is 32 KB of L1, the packed block 512 KB and a block of A 240 KB of
/// L2. No result depends on them.
const MC: usize = 240;
const KC: usize = 256;
const NC: usize = 512;

/// Problems smaller than this many multiply-accumulates stay single-threaded.
/// The pool spawns scoped threads per region (no persistent workers).
/// Measured on the 2-vCPU reference host: an empty two-way region costs
/// ≈ 70 µs and one thread runs 40–60 GMAC/s, so two threads still lose
/// (1.25× the time) at 2²³·² MACs and first win (0.83×) at 2²³·⁸; 2²⁴ is
/// ≈ 300–400 µs of work. (2²⁰, the old value, is ≈ 20 µs of this kernel.)
const PAR_THRESHOLD_MACS: usize = 1 << 24;

/// `c[m×n] = a[m×k] · b[k×n]` — the bit contract as a triple loop (ikj order
/// so the inner loop streams through `b` and `c` rows): every element is the
/// FMA chain over `p` from zero, with no shortcut for a zero operand.
pub fn gemm_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    c.fill(0.0);
    for i in 0..m {
        for p in 0..k {
            let aip = a[i * k + p];
            let b_row = &b[p * n..p * n + n];
            let c_row = &mut c[i * n..i * n + n];
            for j in 0..n {
                c_row[j] = aip.mul_add(b_row[j], c_row[j]);
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

/// Where the blocked kernel finds `B[p][j]` (`p < k`, `j < n`) when it packs
/// a panel. Packing copies values, so every source gives the micro-kernel the
/// same panel and every element of C the same chain.
#[derive(Clone, Copy, Debug)]
pub enum PanelSource<'a> {
    /// Row-major `k×n` with row stride `ldb`: `B[p][j] = b[p·ldb + j]`.
    Dense {
        /// At least `(k − 1)·ldb + n` elements.
        b: &'a [f32],
        /// Elements between the starts of two rows.
        ldb: usize,
    },
    /// Row-major `n×k` with row stride `ldb` — a `weight[out][in]` matrix, or
    /// K where it lies in a fused `qkv` buffer: `B[p][j] = b[j·ldb + p]`.
    Transposed {
        /// At least `(n − 1)·ldb + k` elements.
        b: &'a [f32],
        /// Elements between the starts of two rows.
        ldb: usize,
    },
    /// The `[cin·kernel²] × [oh·ow]` column matrix of a convolution over one
    /// `[cin, h, w]` image, read from the planes and never materialized: row
    /// `(c, ky, kx)`, column `(oy, ox)` is input pixel
    /// `(c, oy·stride + ky − pad, ox·stride + kx − pad)`, zero off the image.
    Im2col {
        /// The `[cin, h, w]` image.
        input: &'a [f32],
        /// Input channels.
        cin: usize,
        /// Input height.
        h: usize,
        /// Input width.
        w: usize,
        /// Square kernel side.
        kernel: usize,
        /// Stride, both directions.
        stride: usize,
        /// Zero padding, all four sides.
        pad: usize,
    },
    /// A B laid out once as the panels the kernel reads ([`PackedB`]): the
    /// micro-kernel takes them where they lie, with no pack and no scratch.
    Packed(&'a PackedB),
}

impl PanelSource<'_> {
    fn check(&self, k: usize, n: usize) {
        match *self {
            PanelSource::Dense { b, ldb } => {
                assert!(ldb >= n && b.len() >= (k * ldb + n).saturating_sub(ldb));
            }
            PanelSource::Transposed { b, ldb } => {
                assert!(ldb >= k && b.len() >= (n * ldb + k).saturating_sub(ldb));
            }
            PanelSource::Im2col {
                input,
                cin,
                h,
                w,
                kernel,
                stride,
                pad,
            } => {
                let (oh, ow) = (
                    conv_out_dim(h, kernel, stride, pad),
                    conv_out_dim(w, kernel, stride, pad),
                );
                assert_eq!(input.len(), cin * h * w, "input is {cin}x{h}x{w}");
                assert_eq!((k, n), (cin * kernel * kernel, oh * ow), "column matrix");
            }
            PanelSource::Packed(w) => assert_eq!((w.k, w.n), (k, n), "packed B"),
        }
    }

    /// Packs `B[p0.., j0..j0 + nr]` into `panel` (`ld` floats per row of B,
    /// as many rows as it holds), columns `nr..ld` zeroed.
    #[inline(always)]
    pub(crate) fn pack(&self, p0: usize, j0: usize, nr: usize, panel: &mut [f32], ld: usize) {
        match *self {
            PanelSource::Dense { b, ldb } => {
                for (p, row) in panel.chunks_exact_mut(ld).enumerate() {
                    let src = &b[(p0 + p) * ldb + j0..][..nr];
                    if nr == NR && ld == NR {
                        row.copy_from_slice(&src[..NR]);
                    } else {
                        row[..nr].copy_from_slice(src);
                        row[nr..].fill(0.0);
                    }
                }
            }
            PanelSource::Transposed { b, ldb } => {
                if nr < ld {
                    panel.fill(0.0);
                }
                let kb = panel.len() / ld;
                for j in 0..nr {
                    let src = &b[(j0 + j) * ldb + p0..][..kb];
                    for (slot, &v) in panel[j..].iter_mut().step_by(ld).zip(src) {
                        *slot = v;
                    }
                }
            }
            PanelSource::Im2col {
                input,
                h,
                w,
                kernel,
                stride,
                pad,
                ..
            } => {
                let ow = conv_out_dim(w, kernel, stride, pad);
                let at = (j0 / ow, j0 % ow);
                let mut tap = (p0 / (kernel * kernel), p0 / kernel % kernel, p0 % kernel);
                for row in panel.chunks_exact_mut(ld) {
                    let (c, ky, kx) = tap;
                    let plane = &input[c * h * w..][..h * w];
                    column_row(plane, h, w, (ky, kx), stride, pad, ow, at, &mut row[..nr]);
                    row[nr..].fill(0.0);
                    tap = match (ky + 1 == kernel, kx + 1 == kernel) {
                        (true, true) => (c + 1, 0, 0),
                        (false, true) => (c, ky + 1, 0),
                        _ => (c, ky, kx + 1),
                    };
                }
            }
            PanelSource::Packed(w) => {
                for (p, row) in panel.chunks_exact_mut(ld).enumerate() {
                    for (j, slot) in row[..nr].iter_mut().enumerate() {
                        *slot = w.get(p0 + p, j0 + j);
                    }
                    row[nr..].fill(0.0);
                }
            }
        }
    }
}

/// A `k×n` B laid out once as the kernel's panels: `ceil(n/NR)` panels of
/// `k×NR` floats, panel `t` holding columns `t·NR..` row after row, with the
/// columns past `n` zero — what the blocked kernel packs per call, built ahead
/// for a B that does not change (a model weight). The panels start on a
/// cache line, as the per-call scratch does.
///
/// Its only way to the kernel is [`PanelSource::Packed`], and its panels
/// are only ever written by packing a source, so no other layout reaches
/// the micro-kernel through it.
#[derive(Debug)]
pub struct PackedB {
    k: usize,
    n: usize,
    /// Where the panels start in `store` (a 64-byte boundary).
    at: usize,
    store: Vec<f32>,
}

impl PackedB {
    /// Packs the `k×n` B that `b` describes.
    pub fn new(b: PanelSource<'_>, k: usize, n: usize) -> Self {
        let mut packed = Self::zeros(k, n);
        packed.repack(b);
        packed
    }

    /// The `k×n` zero matrix, packed: the panels allocated, for a
    /// [`PackedB::repack`] from a source that does not exist yet.
    pub fn zeros(k: usize, n: usize) -> Self {
        let store = vec![0.0; n.div_ceil(NR) * NR * k + 15];
        let at = store.as_ptr().align_offset(64).min(15);
        PackedB { k, n, at, store }
    }

    /// Rows of B.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Columns of B.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The panels, `n` rounded up to `NR` times `k` floats.
    pub fn panels(&self) -> &[f32] {
        &self.store[self.at..][..self.n.div_ceil(NR) * NR * self.k]
    }

    fn panels_mut(&mut self) -> &mut [f32] {
        let len = self.panels().len();
        &mut self.store[self.at..][..len]
    }

    /// Packs `b`, a `k×n` B of the same shape, over the panels in place.
    pub fn repack(&mut self, b: PanelSource<'_>) {
        let (k, n) = (self.k, self.n);
        b.check(k, n);
        let panels = self.panels_mut().chunks_mut((k * NR).max(1));
        for (t, panel) in panels.enumerate() {
            b.pack(0, t * NR, NR.min(n - t * NR), panel, NR);
        }
    }

    /// `B[p][j]`.
    pub fn get(&self, p: usize, j: usize) -> f32 {
        assert!(p < self.k && j < self.n, "B is {}x{}", self.k, self.n);
        self.panels()[(j / NR * self.k + p) * NR + j % NR]
    }

    /// Writes B out to `out[p·ldp + j·ldj]`: `(n, 1)` gives back the
    /// row-major `k×n` matrix, `(1, k)` its transpose.
    pub fn unpack(&self, out: &mut [f32], ldp: usize, ldj: usize) {
        let (k, n) = (self.k, self.n);
        assert!(k == 0 || n == 0 || out.len() > (k - 1) * ldp + (n - 1) * ldj);
        for (t, panel) in self.panels().chunks((k * NR).max(1)).enumerate() {
            let nr = NR.min(n - t * NR);
            for (p, row) in panel.chunks_exact(NR).enumerate() {
                let start = p * ldp + t * NR * ldj;
                if ldj == 1 {
                    out[start..start + nr].copy_from_slice(&row[..nr]);
                } else {
                    for (j, &v) in row[..nr].iter().enumerate() {
                        out[start + j * ldj] = v;
                    }
                }
            }
        }
    }
}

impl Clone for PackedB {
    /// A copy whose panels start on a cache line of their own.
    fn clone(&self) -> Self {
        let mut copy = Self::zeros(self.k, self.n);
        copy.panels_mut().copy_from_slice(self.panels());
        copy
    }
}

/// Row `(plane, ky, kx)` of a convolution's column matrix from column
/// `(oy, ox)` on, as many entries as `out` holds.
///
/// Per output line the row is one stretch of input line
/// `oy·stride + ky − pad` starting at `kx − pad`, every `stride`-th pixel,
/// with zeros where that runs off the image. The columns `lo..hi` that stay
/// inside depend on `kx` alone, so they are found once and each line is a
/// border fill plus a copy (stride 1) or a strided walk.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn column_row(
    plane: &[f32],
    h: usize,
    w: usize,
    (ky, kx): (usize, usize),
    stride: usize,
    pad: usize,
    ow: usize,
    (mut oy, mut ox): (usize, usize),
    out: &mut [f32],
) {
    // 0 <= ox·stride + kx − pad < w, by stepping: `pad / stride` steps at
    // most from either end, and no division per row.
    let mut lo = 0;
    while lo < ow && lo * stride + kx < pad {
        lo += 1;
    }
    let mut hi = ow;
    while hi > lo && (hi - 1) * stride + kx >= w + pad {
        hi -= 1;
    }
    // A full-width panel row that is one unclipped stretch of one line — most
    // of them, away from the borders — is 32 floats at a known stride.
    let iy = oy * stride + ky;
    if out.len() == NR && lo <= ox && ox + NR <= hi && (pad..pad + h).contains(&iy) {
        let src = &plane[(iy - pad) * w + ox * stride + kx - pad..];
        match stride {
            1 => return out.copy_from_slice(&src[..NR]),
            2 => {
                let src = &src[..2 * NR - 1];
                return (0..NR).for_each(|j| out[j] = src[2 * j]);
            }
            _ => {}
        }
    }
    let mut done = 0;
    while done < out.len() {
        let len = (ow - ox).min(out.len() - done);
        let seg = &mut out[done..done + len];
        let iy = oy * stride + ky;
        let (a, b) = if iy < pad || iy - pad >= h {
            (ox, ox)
        } else {
            (lo.clamp(ox, ox + len), hi.clamp(ox, ox + len))
        };
        seg[..a - ox].fill(0.0);
        seg[b - ox..].fill(0.0);
        if a < b {
            let src = &plane[(iy - pad) * w + a * stride + kx - pad..];
            let inside = &mut seg[a - ox..b - ox];
            if stride == 1 {
                inside.copy_from_slice(&src[..b - a]);
            } else {
                for (slot, &v) in inside.iter_mut().zip(src.iter().step_by(stride)) {
                    *slot = v;
                }
            }
        }
        (done, oy, ox) = (done + len, oy + 1, 0);
    }
}

/// Cache-blocked single-threaded GEMM; overwrites `c`.
pub fn gemm_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_blocked_upto(usize::MAX, a, b, c, m, k, n);
}

/// The lane tier the blocked kernel runs at on this host: `"sse2"`,
/// `"avx2"` or `"avx512"` on x86-64, `"baseline"` elsewhere. Detected per
/// call from CPUID; nothing selects it.
pub fn lane_tier() -> &'static str {
    // The dispatcher names the instantiation it ran, so this cannot drift
    // from what a GEMM call does; an empty product runs no loop.
    gemm_blocked_upto(usize::MAX, &[], &[], &mut [], 0, 0, 0)
}

/// [`gemm_blocked`] held to lane-tier rank `cap` (0 baseline, 1 AVX2,
/// 2 AVX-512); returns the tier that ran. Capping is the conformance suite's
/// way to every instantiation — production code never does.
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
    let b = PanelSource::Dense { b, ldb: n };
    blocked_upto(cap, a, k, b, c, n, m, k, n)
}

/// The blocked kernel over strided operands: runs the instantiation of
/// [`blocked_body`] that [`at_lane_tier`] picks under `cap` and returns its
/// tier. Unless B is already [`PanelSource::Packed`], its packed block is
/// one scratch loan per call, taken outside the tier so that the body
/// inlines into it, and starts on a cache line: where the allocator put a
/// `Vec` would otherwise decide, per process, whether every 64-byte B load
/// splits in two (three placements in four, 3–7 % slower).
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn blocked_upto(
    cap: usize,
    a: &[f32],
    lda: usize,
    b: PanelSource<'_>,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) -> &'static str {
    if m > 0 && n > 0 {
        assert!(lda >= k && a.len() >= (m - 1) * lda + k, "a is {m}x{k}");
        assert!(ldc >= n && c.len() >= (m - 1) * ldc + n, "c is {m}x{n}");
        b.check(k, n);
    }
    let mut run = |packed: &mut [f32]| {
        at_lane_tier(
            cap,
            #[inline(always)]
            || blocked_body(a, lda, b, c, ldc, m, k, n, packed),
        )
    };
    if let PanelSource::Packed(_) = b {
        return run(&mut []);
    }
    let width = if packs_ahead(m) {
        NC.min(n).next_multiple_of(NR)
    } else {
        NR
    };
    let len = KC.min(k) * width;
    crate::scratch::with_f32(len + 15, |loan| {
        let skip = loan.as_ptr().align_offset(64).min(15);
        run(&mut loan[skip..skip + len])
    })
}

/// Runs `body` as compiled for the widest lane tier the host supports whose
/// rank does not exceed `cap`, and returns that tier. The one place this
/// crate detects an instruction set for a scalar loop; `body` must be an
/// `#[inline(always)]` closure over `#[inline(always)]` code, so that its
/// loops are compiled inside the tier's function and not before it.
///
/// Every instantiation produces the same bits. The two wide tiers require
/// and enable `fma`, so `f32::mul_add` is one instruction there; on the
/// baseline tier — where a wide host without `fma` also lands — it is
/// libm's `fmaf`, exact by definition: same bits, slow, never wrong. What
/// the compiler will not do is fuse or reorder on its own: an `a * b + c`
/// written unfused stays two roundings and a float reduction keeps its
/// order, so a wider instruction set changes how many elements one
/// instruction serves and nothing about any element's rounding sequence.
#[inline(always)]
pub(crate) fn at_lane_tier(cap: usize, body: impl FnOnce()) -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("fma") {
        if cap >= 2 && is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
            // SAFETY: fma, avx512f and avx512vl were just detected and
            // avx512f implies avx2: all the features the callee enables.
            unsafe { at_avx512(body) };
            return "avx512";
        }
        if cap >= 1 && is_x86_feature_detected!("avx2") {
            // SAFETY: fma and avx2, the two features the callee enables,
            // were just detected.
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
#[target_feature(enable = "avx2,fma")]
fn at_avx2(body: impl FnOnce()) {
    body()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma,avx512f,avx512vl")]
fn at_avx512(body: impl FnOnce()) {
    body()
}

/// Whether the body packs a whole `KC`×`NC` block of B before it starts on A.
/// Each `MC` block of A needs every panel: with several of them the block is
/// packed once and read back from L2; with one, a panel is packed right
/// before its only use, into the same 32 KB, and is still in L1 for it.
/// Each side wins on a benchmark workload (one thread, paired in process):
/// always per panel costs a ResNet50 B=4 forward ≈ 9 % (its convs pack from
/// the image planes, `cout` ≥ 256 rows), always ahead costs the wire
/// workloads' vit96 B=1 forward (37 rows) ≈ 5 %.
fn packs_ahead(m: usize) -> bool {
    m > MC
}

/// The blocked kernel's one loop body, compiled once per lane tier: B is
/// packed into `packed`, from wherever `b` says it lives, as contiguous
/// `KC`×`NR` panels (a 3 KB row stride would alias a handful of L1 sets) —
/// or, when it is [`PanelSource::Packed`], each panel is read where it lies
/// and `packed` is unused; every `MC` block of A runs the micro-kernel down
/// each panel. Overwrites `c`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn blocked_body(
    a: &[f32],
    lda: usize,
    b: PanelSource<'_>,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
    packed: &mut [f32],
) {
    if n == 0 {
        return;
    }
    if k == 0 {
        // An empty chain is `+0.0`.
        for i in 0..m {
            c[i * ldc..][..n].fill(0.0);
        }
        return;
    }
    // Equal K panels no deeper than KC: k = 257 is 129 + 128, not 256 + 1.
    let kc = k.div_ceil(k.div_ceil(KC));
    let laid_out = match b {
        PanelSource::Packed(w) => Some(w.panels()),
        _ => None,
    };
    let ahead = packs_ahead(m) && laid_out.is_none();
    for jc in (0..n).step_by(NC) {
        let nb = NC.min(n - jc);
        for pc in (0..k).step_by(kc) {
            let panel_len = kc.min(k - pc) * NR;
            let first = pc == 0;
            let columns = || {
                (jc..jc + nb)
                    .step_by(NR)
                    .map(|jr| (jr, NR.min(jc + nb - jr)))
            };
            if ahead {
                for ((jr, nr), panel) in columns().zip(packed.chunks_exact_mut(panel_len)) {
                    b.pack(pc, jr, nr, panel, NR);
                }
            }
            for ic in (0..m).step_by(MC) {
                let mb = MC.min(m - ic);
                for (at, (jr, nr)) in columns().enumerate() {
                    let panel = if let Some(panels) = laid_out {
                        &panels[(jr / NR * k + pc) * NR..][..panel_len]
                    } else if ahead {
                        &packed[at * panel_len..][..panel_len]
                    } else {
                        b.pack(pc, jr, nr, &mut packed[..panel_len], NR);
                        &packed[..panel_len]
                    };
                    // Row tails narrow the tile (8, 4, then single rows)
                    // instead of masking it; a column tail runs full width on
                    // a staged copy of its C rows and stores back what exists.
                    let mut edge = [0.0f32; MR * NR];
                    let mut i = ic;
                    while i < ic + mb {
                        let rows = MR.min(ic + mb - i);
                        let c = &mut c[i * ldc + jr..];
                        let (ct, ldt) = if nr == NR {
                            (&mut *c, ldc)
                        } else {
                            for r in if first { 0..0 } else { 0..rows } {
                                edge[r * NR..][..nr].copy_from_slice(&c[r * ldc..][..nr]);
                            }
                            (&mut edge[..], NR)
                        };
                        let a = &a[i * lda + pc..];
                        let done = match rows {
                            MR => tile::<MR>(a, lda, panel, ct, ldt, first),
                            8.. => tile::<8>(a, lda, panel, ct, ldt, first),
                            4.. => tile::<4>(a, lda, panel, ct, ldt, first),
                            _ => tile::<1>(a, lda, panel, ct, ldt, first),
                        };
                        if nr != NR {
                            for r in 0..done {
                                c[r * ldc..][..nr].copy_from_slice(&edge[r * NR..][..nr]);
                            }
                        }
                        i += done;
                    }
                }
            }
        }
    }
}

/// One vector of the widest tier (two or four of a narrower one).
pub(crate) type Lane = [f32; 16];

/// Runs `$body` with `$r` bound to each tile row below `$rows`, unrolled in
/// the source: a rolled loop that LLVM declines to unroll indexes the
/// accumulators dynamically, which alone moves them from registers to the
/// stack (measured: 6 GFLOP/s, not 100). The literal row list makes the
/// register tile a property of this code and not of an unroll threshold.
macro_rules! for_rows {
    ($r:ident < $rows:ident, $body:block) => {
        for_rows!($r < $rows, $body, 0 1 2 3 4 5 6 7 8 9 10 11)
    };
    ($r:ident < $rows:ident, $body:block, $($i:literal)*) => {$(
        if $i < $rows {
            let $r: usize = $i;
            $body
        }
    )*};
}
const _: () = assert!(MR == 12 && NR == 2 * 16, "for_rows! and tile spell it out");

/// The micro-kernel: `c[r][j] = fma(a[r][p], panel[p][j], c[r][j])` for `p`
/// ascending, on an `R`×`NR` tile of C held in registers from the first `p`
/// to the last; returns `R`. `a` and `c` start at the tile's first element
/// and have row strides `lda` / `ldc`; the chain starts from `+0.0` on the
/// `first` K panel and from what the previous one stored otherwise.
#[inline(always)]
fn tile<const R: usize>(
    a: &[f32],
    lda: usize,
    panel: &[f32],
    c: &mut [f32],
    ldc: usize,
    first: bool,
) -> usize {
    let fma =
        |x: f32, b: &Lane, c: Lane| -> Lane { std::array::from_fn(|l| x.mul_add(b[l], c[l])) };
    let lane = |s: &[f32]| -> Lane { s[..16].try_into().expect("16 lanes") };
    let kb = panel.len() / NR;
    let a_rows: [&[f32]; R] = std::array::from_fn(|r| &a[r * lda..][..kb]);
    let mut acc = [[[0.0f32; 16]; 2]; R];
    if !first {
        for_rows!(r < R, {
            acc[r] = [lane(&c[r * ldc..]), lane(&c[r * ldc + 16..])];
        });
    }
    for (p, b_row) in panel.chunks_exact(NR).enumerate() {
        let (b0, b1) = (lane(b_row), lane(&b_row[16..]));
        for_rows!(r < R, {
            let x = a_rows[r][p];
            acc[r] = [fma(x, &b0, acc[r][0]), fma(x, &b1, acc[r][1])];
        });
    }
    for_rows!(r < R, {
        c[r * ldc..][..16].copy_from_slice(&acc[r][0]);
        c[r * ldc + 16..][..16].copy_from_slice(&acc[r][1]);
    });
    R
}

/// `c[m×n] = a[m×k] · b[k×n]`, all three dense row-major: [`gemm_with`]
/// without strides.
pub fn gemm(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, c, m, k, n);
    let b = PanelSource::Dense { b, ldb: n };
    gemm_with(a, k, b, c, n, m, k, n);
}

/// Production GEMM over operands where they lie: `a` is `m×k` with row
/// stride `lda`, `b` whatever its [`PanelSource`] describes, `c` is `m×n`
/// with row stride `ldc` (only those `n` columns of each row are written).
/// Parallel over row blocks of C when the problem is big enough to amortize
/// fork/join, otherwise the blocked kernel.
#[allow(clippy::too_many_arguments)]
pub fn gemm_with(
    a: &[f32],
    lda: usize,
    b: PanelSource<'_>,
    c: &mut [f32],
    ldc: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    // Before the parallel path can chunk by zero columns.
    if m == 0 || n == 0 {
        return;
    }
    if m * n * k < PAR_THRESHOLD_MACS || m < 2 {
        blocked_upto(usize::MAX, a, lda, b, c, ldc, m, k, n);
        return;
    }
    assert!(ldc >= n && c.len() >= (m - 1) * ldc + n, "c is {m}x{n}");
    // Each worker owns a disjoint row block of C: balanced (ceil(m/threads))
    // rather than clamped to MC, so no worker idles on mid-sized m, and rounded
    // up to the register tile, so only the final block runs the row tails.
    let rows_per_block = m.div_ceil(max_threads()).next_multiple_of(MR);
    let c = &mut c[..(m - 1) * ldc + n];
    for_each_chunk_mut(c, rows_per_block * ldc, |blk, c_block| {
        // A whole block is `rows·ldc` long, the last one ends with its row.
        let mb = (c_block.len() - n) / ldc + 1;
        let a = &a[blk * rows_per_block * lda..];
        blocked_upto(usize::MAX, a, lda, b, c_block, ldc, mb, k, n);
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
/// [`gemm`] with a [`PanelSource::Transposed`] B, and so under the same bit
/// contract: the pack loop reads the `n×k` operand down its rows instead of
/// along them. This is the reference path's linear — the seed per-image
/// executor (the engine's test oracle) and `multi_head_attention`, which
/// the conformance suites compare the batched engine against.
pub fn gemm_bt(a: &[f32], b_t: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "a is {m}x{k}");
    assert_eq!(b_t.len(), n * k, "b_t is {n}x{k}");
    assert_eq!(c.len(), m * n, "c is {m}x{n}");
    let b = PanelSource::Transposed { b: b_t, ldb: k };
    gemm_with(a, k, b, c, n, m, k, n);
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
    fn identity_matrix_is_neutral() {
        let m = 5;
        let a = rand_vec(m * m, 1);
        let mut eye = vec![0.0; m * m];
        for i in 0..m {
            eye[i * m + i] = 1.0;
        }
        let mut c = vec![0.0; m * m];
        gemm(&a, &eye, &mut c, m, m, m);
        assert_eq!(c, a);
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
            assert_eq!(c_blk, c_ref, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn parallel_matches_naive_above_threshold() {
        let (m, k, n) = (300, 240, 260); // 2²⁴·² MACs
        let a = rand_vec(m * k, 21);
        let b = rand_vec(k * n, 23);
        let mut c_ref = vec![0.0; m * n];
        let mut c_par = vec![0.0; m * n];
        gemm_naive(&a, &b, &mut c_ref, m, k, n);
        gemm(&a, &b, &mut c_par, m, k, n);
        assert_eq!(c_par, c_ref);
    }

    #[test]
    fn gemm_bt_matches_explicit_transpose() {
        let (m, k, n) = (9, 17, 5);
        let a = rand_vec(m * k, 31);
        let b_t = rand_vec(n * k, 33); // n×k; b is its transpose, k×n
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
        assert_eq!(c_bt, c_ref);
    }

    #[test]
    fn overwrites_stale_output() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [1.0f32, 2.0, 3.0, 4.0];
        let mut c = [99.0f32; 4];
        gemm(&a, &b, &mut c, 2, 2, 2);
        assert_eq!(c, b);
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
        // n == 0: the parallel path would otherwise chunk by zero columns.
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
