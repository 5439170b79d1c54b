//! Differential kernel-conformance suite.
//!
//! [`gemm`] and [`gemm_bt`] — the one f32 GEMM family — are driven against
//! an exact oracle across degenerate and adversarial shapes: zeros, ones,
//! odd primes, dimensions one either side of the register tile (12×32), of
//! a K panel (256) and of the other tile and block edges, and the repo
//! benchmark's own shapes.
//!
//! The contracts pinned here are the ones CI's fingerprint gates rely on:
//!
//! * `gemm`, `gemm_bt` and every lane-tier instantiation of the loop body
//!   the host can run (SSE2, AVX2, AVX-512) are **bit for bit** the
//!   left-to-right FMA chain over `k` — `gemm_naive` — alone or split
//!   across 1/2/3/8 threads.
//! * They stay elementwise within `1e-5·k` of the unfused kernel they
//!   replaced (`oracle/gemm.rs`, verbatim).
//! * `gemm_i8`, the f32 GEMM over k-chunks of ≤ 1024, is exactly the naive
//!   integer loop: on adversarial shapes, at the chunk boundary with every
//!   operand `-128` (the largest partial sum, 2²⁴ per chunk) and with
//!   full-range values, and across 1/2/3/8 threads.
//! * The kernel's panel source cannot move a bit: through every one (dense,
//!   transposed, the implicit column matrix of a convolution, a B packed
//!   once) and over strided A and C, `gemm_with` is `gemm_naive` on the
//!   operand written out; a packed B's logical view is every bit it was
//!   packed from.
//! * `im2col` is the gather it replaced (`oracle/`, verbatim), and the 1×1
//!   conv that skips it equals the conv that does not.
//! * `max_pool2d` and `avg_pool2d_global` are the per-tap-tested loops they
//!   replaced (`oracle/`, verbatim).
//! * The three names kept for `benchmark/` (`gemm_v`, `conv2d_v`,
//!   `multi_head_attention_v`) return what they forward to.

mod oracle;

use harvest_tensor::attention::AttentionWeights;
use harvest_tensor::conv::{conv_out_dim, im2col};
use harvest_tensor::gemm::{
    blocked_upto, gemm, gemm_blocked_upto, gemm_bt, gemm_naive, gemm_with, PackedB, PanelSource,
};
use harvest_tensor::quant::{gemm_i8, gemm_i8_naive};
use harvest_tensor::{
    attention_core, avg_pool2d_global, conv2d, conv2d_v, gemm_v, lane_tier, max_pool2d,
    multi_head_attention, multi_head_attention_v, KernelVariant,
};
use proptest::prelude::*;

/// Adversarial GEMM dimension: degenerate (0, 1), odd primes that never
/// divide a tile, values one past a power-of-two edge (4, 8, 16, 32, 64),
/// and one either side of the register tile's rows (12), its columns (32)
/// and a K panel (256).
fn adversarial_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(3usize),
        Just(5usize),
        Just(7usize),
        Just(9usize),
        Just(11usize),
        Just(13usize),
        Just(17usize),
        Just(31usize),
        Just(33usize),
        Just(65usize),
        Just(255usize),
        Just(257usize),
        2usize..40,
    ]
}

fn vecf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, len..=len)
}

fn veci8(len: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(any::<i8>(), len..=len)
}

/// `1e-5·k` elementwise tolerance between two accumulation orders (floored
/// at one k so degenerate products still get a nonzero budget).
fn tol(k: usize) -> f32 {
    1e-5 * k.max(1) as f32
}

fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: idx {i}: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `gemm` is the naive triple-loop FMA chain bit for bit, on every
    /// adversarial shape.
    #[test]
    fn gemm_tracks_the_naive_oracle(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut reference = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut reference, m, k, n);
        let mut c = vec![f32::NAN; m * n];
        gemm(&a, &b, &mut c, m, k, n);
        assert_bits_eq(&reference, &c, &format!("gemm vs naive (m={m} k={k} n={n})"));
    }

    /// The FMA chain stays within the differential tolerance of the unfused
    /// 4-way-group kernel it replaced: the re-pin moved last bits, not values.
    #[test]
    fn gemm_stays_within_tolerance_of_the_kernel_it_replaced(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut old = vec![0.0f32; m * n];
        oracle::gemm::gemm_blocked_acc_body(&a, &b, &mut old, m, k, n);
        let mut c = vec![f32::NAN; m * n];
        gemm(&a, &b, &mut c, m, k, n);
        for (i, (r, v)) in old.iter().zip(&c).enumerate() {
            prop_assert!(
                (r - v).abs() <= tol(k),
                "idx {i}: |{r} - {v}| > {} (m={m} k={k} n={n})",
                tol(k)
            );
        }
    }

    /// `gemm` is deterministic: two runs produce the same bits.
    #[test]
    fn gemm_rerun_is_bit_identical(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut first = vec![0.0f32; m * n];
        let mut second = vec![f32::NAN; m * n];
        gemm(&a, &b, &mut first, m, k, n);
        gemm(&a, &b, &mut second, m, k, n);
        for (i, (x, y)) in first.iter().zip(&second).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "rerun idx {}: {} vs {}", i, x, y);
        }
    }

    /// Every lane tier the host can run is the naive chain bit for bit:
    /// wider lanes move columns between instructions, and `mul_add` is one
    /// instruction or a libm call, never another rounding sequence.
    #[test]
    fn every_lane_tier_is_bit_identical_to_the_baseline(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        assert_lane_tiers_agree(&a, &b, m, k, n);
    }

    /// The INT8 GEMM is *exact* integer arithmetic: it must reproduce the
    /// naive i32 loop bit for bit, on full-range i8 inputs (including -128)
    /// and adversarial shapes.
    #[test]
    fn int8_kernel_is_exactly_the_naive_integer_loop(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), veci8(m * k), veci8(k * n)))
    ) {
        let fast = gemm_i8(&a, &b, m, k, n);
        let slow = gemm_i8_naive(&a, &b, m, k, n);
        prop_assert_eq!(fast, slow, "m={} k={} n={}", m, k, n);
    }

    /// Dense, transposed and packed panel sources over strided operands on
    /// every adversarial shape.
    #[test]
    fn panel_sources_track_the_naive_oracle(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        assert_sources_keep_the_chain(&a, &b, m, k, n);
    }

    /// `gemm_bt` (the linear-layer layout) matches an explicit transpose
    /// followed by `gemm`.
    #[test]
    fn gemm_bt_matches_explicit_transpose(
        (m, k, n, a, bt) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(n * k)))
    ) {
        let b = transposed(&bt, n, k);
        let mut c_bt = vec![f32::NAN; m * n];
        let mut c = vec![f32::NAN; m * n];
        gemm_bt(&a, &bt, &mut c_bt, m, k, n);
        gemm(&a, &b, &mut c, m, k, n);
        for (i, (x, y)) in c.iter().zip(&c_bt).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "idx {}: {} vs {}", i, x, y);
        }
    }
}

/// Deterministic filler in [-0.5, 0.5) for the fixed-shape tests.
fn ramp(len: usize, mul: usize, modulus: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * mul % modulus) as f32 / modulus as f32) - 0.5)
        .collect()
}

/// Depths either side of and on the INT8 GEMM's 1024-deep k-chunk, and two
/// and three chunks deep, by row tails (1, 13) and column tails (1, 33).
fn int8_chunk_edge_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
    [1023, 1024, 1025, 2048, 3000]
        .into_iter()
        .flat_map(|k| [(1, k, 1), (1, k, 33), (13, k, 1), (13, k, 33)])
}

/// The extreme operands. Every one `-128` is the largest sum: each product
/// is 2¹⁴, so a full 1024-deep chunk sums to exactly 2²⁴. Every one `127` is
/// the odd case: 16 129 per product, whose sums past 2²⁴ (from the 1041st
/// term on) an f32 would round — what a chunk deeper than 1024 gets wrong.
#[test]
fn int8_gemm_is_exact_at_the_k_chunk_boundary_on_minus_128() {
    for fill in [-128i8, 127] {
        for (m, k, n) in int8_chunk_edge_shapes() {
            let (a, b) = (vec![fill; m * k], vec![fill; k * n]);
            let got = gemm_i8(&a, &b, m, k, n);
            assert_eq!(got, gemm_i8_naive(&a, &b, m, k, n), "{fill}: ({m},{k},{n})");
            let each = fill as i32 * fill as i32 * k as i32;
            assert!(got.iter().all(|&v| v == each), "{fill}: ({m},{k},{n})");
        }
    }
}

/// Full-range i8 (every value from -128 to 127) at the same depths.
#[test]
fn int8_gemm_is_exact_at_the_k_chunk_boundary_on_full_range_values() {
    let full_range = |len: usize, mul: usize| -> Vec<i8> {
        (0..len).map(|i| (i * mul % 256) as u8 as i8).collect()
    };
    for (m, k, n) in int8_chunk_edge_shapes() {
        let (a, b) = (full_range(m * k, 37), full_range(k * n, 101));
        assert_eq!(
            gemm_i8(&a, &b, m, k, n),
            gemm_i8_naive(&a, &b, m, k, n),
            "({m},{k},{n})"
        );
    }
}

/// Runs the blocked kernel capped at each lane-tier rank (baseline, AVX2,
/// AVX-512; a host without one reruns the tier below) and holds every one of
/// them to the naive FMA chain.
fn assert_lane_tiers_agree(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut chain = vec![f32::NAN; m * n];
    gemm_naive(a, b, &mut chain, m, k, n);
    for cap in [0, 1, 2] {
        let mut c = vec![f32::NAN; m * n];
        let tier = gemm_blocked_upto(cap, a, b, &mut c, m, k, n);
        assert_bits_eq(&chain, &c, &format!("{tier} vs naive (m={m} k={k} n={n})"));
    }
}

/// The blocked kernel's own edges: one short of, on and one past MC = 240,
/// a K panel (256, and 513 = three balanced panels) and NC = 512, which also
/// walks the 8-, 4- and 1-row tile tails and a 31- and a 1-column panel
/// inside a full and a partial block.
#[test]
fn lane_tiers_agree_on_cache_block_edges_and_tails() {
    for (m, k, n) in [
        (239, 255, 511),
        (240, 256, 512),
        (241, 257, 513),
        (253, 513, 33),
        (13, 257, 543),
        (1, 511, 31),
    ] {
        let (a, b) = (ramp(m * k, 37, 113), ramp(k * n, 53, 127));
        assert_lane_tiers_agree(&a, &b, m, k, n);
    }
}

/// The repo benchmark's GEMM shapes — vit96's MLP, ViT-Tiny's two attention
/// products, ResNet50's last 3×3 stage — through every entry point: each
/// lane tier alone, then `gemm` and `gemm_bt` at 1, 2, 3 and 8 threads.
#[test]
fn benchmark_shapes_are_the_naive_chain_at_every_tier_and_width() {
    for (m, k, n) in [
        (37, 192, 768),
        (257, 64, 257),
        (257, 257, 64),
        (512, 4608, 49),
    ] {
        let (a, b) = (ramp(m * k, 37, 113), ramp(k * n, 53, 127));
        assert_lane_tiers_agree(&a, &b, m, k, n);
        let bt = transposed(&b, k, n);
        let mut chain = vec![f32::NAN; m * n];
        gemm_naive(&a, &b, &mut chain, m, k, n);
        for threads in [1usize, 2, 3, 8] {
            harvest_threads::with_threads(threads, || {
                let what = format!("threads={threads} ({m},{k},{n})");
                let mut c = vec![f32::NAN; m * n];
                gemm(&a, &b, &mut c, m, k, n);
                assert_bits_eq(&chain, &c, &format!("gemm, {what}"));
                c.fill(f32::NAN);
                gemm_bt(&a, &bt, &mut c, m, k, n);
                assert_bits_eq(&chain, &c, &format!("gemm_bt, {what}"));
            });
        }
    }
}

/// `x` (`rows×cols`, dense) copied out with row stride `ld`, the slack filled
/// with a value no product contains.
fn strided(x: &[f32], rows: usize, cols: usize, ld: usize) -> Vec<f32> {
    let mut out = vec![777.0f32; (rows * ld + cols).saturating_sub(ld)];
    for (src, dst) in x.chunks_exact(cols.max(1)).zip(out.chunks_mut(ld)) {
        dst[..cols].copy_from_slice(src);
    }
    out
}

/// Holds one product through `source` to `reference` (the naive chain on the
/// operand written out): A and C strided, every lane-tier cap single-threaded
/// and `gemm_with` at 1, 2, 3 and 8 threads; C's slack columns must come
/// back untouched.
fn assert_source_keeps_the_chain(
    a: &[f32],
    source: PanelSource<'_>,
    reference: &[f32],
    (m, k, n): (usize, usize, usize),
    what: &str,
) {
    let (lda, ldc) = (k + 3, n + 5);
    let a = strided(a, m, k, lda);
    let check = |c: &[f32], how: &str| {
        for (i, row) in c.chunks(ldc).enumerate() {
            for (j, v) in row.iter().enumerate() {
                let want = if j < n { reference[i * n + j] } else { 555.0 };
                assert_eq!(
                    v.to_bits(),
                    want.to_bits(),
                    "{what}, {how}: row {i} col {j}"
                );
            }
        }
    };
    let c_len = (m * ldc + n).saturating_sub(ldc);
    for cap in [0, 1, 2] {
        let mut c = vec![555.0f32; c_len];
        let tier = blocked_upto(cap, &a, lda, source, &mut c, ldc, m, k, n);
        if m > 0 && n > 0 {
            check(&c, tier);
        }
    }
    for threads in [1usize, 2, 3, 8] {
        harvest_threads::with_threads(threads, || {
            let mut c = vec![555.0f32; c_len];
            gemm_with(&a, lda, source, &mut c, ldc, m, k, n);
            if m > 0 && n > 0 {
                check(&c, &format!("threads={threads}"));
            }
        });
    }
}

/// [`assert_source_keeps_the_chain`] for a dense `k×n` B, read as it is
/// (strided), from its transpose, and from its panels packed once.
fn assert_sources_keep_the_chain(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut chain = vec![f32::NAN; m * n];
    gemm_naive(a, b, &mut chain, m, k, n);
    let dense = strided(b, k, n, n + 2);
    let source = PanelSource::Dense {
        b: &dense,
        ldb: n + 2,
    };
    assert_source_keeps_the_chain(
        a,
        source,
        &chain,
        (m, k, n),
        &format!("dense ({m},{k},{n})"),
    );
    let bt = strided(&transposed(b, k, n), n, k, k + 1);
    let source = PanelSource::Transposed { b: &bt, ldb: k + 1 };
    let what = format!("transposed ({m},{k},{n})");
    assert_source_keeps_the_chain(a, source, &chain, (m, k, n), &what);
    let packed = PackedB::new(PanelSource::Dense { b, ldb: n }, k, n);
    let what = format!("packed ({m},{k},{n})");
    assert_source_keeps_the_chain(a, PanelSource::Packed(&packed), &chain, (m, k, n), &what);
}

/// Strided operands and both matrix sources on the kernel's own edges — one
/// either side of the register tile's rows (12) and columns (32) and of a K
/// panel (256) — on `k = 0`, the two-panel `k = 257`, `m < MR`, a staged
/// column tail, the parallel row split, more than one block of A (so that B
/// is packed ahead) and on the benchmark's shapes.
#[test]
fn panel_sources_keep_the_chain_on_tile_edges_and_benchmark_shapes() {
    let mut shapes = vec![
        (5, 0, 37),
        (3, 9, 70),
        (7, 257, 45),
        (300, 240, 260),
        (253, 513, 33),
        (37, 192, 768),
        (257, 64, 257),
        (257, 257, 64),
        (512, 4608, 49),
    ];
    for m in [11, 12, 13] {
        for n in [31, 32, 33] {
            shapes.extend([255, 256, 257].map(|k| (m, k, n)));
        }
    }
    for (m, k, n) in shapes {
        let (a, b) = (ramp(m * k, 37, 113), ramp(k * n, 53, 127));
        assert_sources_keep_the_chain(&a, &b, m, k, n);
    }
}

/// The implicit column matrix: a conv's GEMM through `PanelSource::Im2col`
/// is the naive chain on the matrix `im2col` writes out — ResNet50's 3×3
/// stride-1 and stride-2 stages at the benchmark's sizes, and small
/// geometries where the kernel overhangs or exceeds the image, the padding
/// is wider than the kernel, a panel spans many output lines, or lines are
/// wide enough for whole panel rows to be one strided stretch (strides 1, 2
/// and 3: the stem's 7×7 stride-2 among them).
#[test]
fn implicit_im2col_is_the_naive_chain_on_the_materialized_columns() {
    // (m = cout, cin, h, w, kernel, stride, pad)
    for (m, cin, h, w, kernel, stride, pad) in [
        (64, 64, 56, 56, 3, 1, 1),
        (128, 128, 56, 56, 3, 2, 1),
        (13, 3, 9, 7, 7, 2, 3),
        (5, 2, 1, 1, 3, 1, 1),
        (5, 2, 2, 13, 1, 2, 0),
        (4, 3, 5, 4, 1, 1, 3),
        (7, 1, 12, 3, 3, 1, 2),
        (250, 2, 6, 40, 3, 1, 1),
        (9, 3, 10, 224, 7, 2, 3),
        (4, 1, 4, 200, 3, 3, 1),
    ] {
        let (k, n) = (
            cin * kernel * kernel,
            conv_out_dim(h, kernel, stride, pad) * conv_out_dim(w, kernel, stride, pad),
        );
        let input = ramp(cin * h * w, 37, 113);
        let a = ramp(m * k, 53, 127);
        let mut columns = vec![f32::NAN; k * n];
        im2col(&input, cin, h, w, kernel, stride, pad, &mut columns);
        let mut chain = vec![f32::NAN; m * n];
        gemm_naive(&a, &columns, &mut chain, m, k, n);
        let source = PanelSource::Im2col {
            input: &input,
            cin,
            h,
            w,
            kernel,
            stride,
            pad,
        };
        let what = format!("im2col {cin}x{h}x{w} k{kernel} s{stride} p{pad} -> {m}");
        assert_source_keeps_the_chain(&a, source, &chain, (m, k, n), &what);
    }
}

/// A packed B is the matrix it was packed from: its logical view gives back
/// every input bit — NaN payloads, both zeros and infinities included — in
/// either order, whether it was packed from the row-major matrix or from its
/// transpose, and a clone and a repack over it hold the same bits; the tail
/// columns past `n` of the last panel are zero.
#[test]
fn packed_b_gives_back_every_bit_it_was_packed_from() {
    let odd = [
        f32::from_bits(0x7fc0_0001),
        f32::from_bits(0xffa0_5a5a),
        -0.0,
        0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE / 3.0,
        -1.5,
    ];
    for n in [1, 16, 31, 32, 33] {
        for k in [1, 255, 256, 257, 768] {
            let b: Vec<f32> = ramp(k * n, 53, 127)
                .into_iter()
                .enumerate()
                .map(|(i, v)| {
                    if i % 5 == 0 {
                        odd[i / 5 % odd.len()]
                    } else {
                        v
                    }
                })
                .collect();
            let bt = transposed(&b, k, n);
            let dense = PackedB::new(PanelSource::Dense { b: &b, ldb: n }, k, n);
            let from_t = PackedB::new(PanelSource::Transposed { b: &bt, ldb: k }, k, n);
            let mut over = PackedB::zeros(k, n);
            over.repack(PanelSource::Packed(&dense));
            for (packed, how) in [
                (&dense, "dense"),
                (&from_t, "transposed"),
                (&dense.clone(), "clone"),
                (&over, "repack"),
            ] {
                let what = format!("{how} k={k} n={n}");
                assert_eq!((packed.k(), packed.n()), (k, n), "{what}");
                assert_eq!(packed.panels().len(), n.div_ceil(32) * 32 * k, "{what}");
                let mut view = vec![7.0f32; k * n];
                packed.unpack(&mut view, n, 1);
                assert_bits_eq(&b, &view, &format!("{what}, k×n view"));
                packed.unpack(&mut view, 1, k);
                assert_bits_eq(&bt, &view, &format!("{what}, n×k view"));
                let tail = packed.panels()[(n.div_ceil(32) - 1) * 32 * k..]
                    .chunks_exact(32)
                    .flat_map(|row| &row[(n - 1) % 32 + 1..]);
                assert!(tail.into_iter().all(|v| v.to_bits() == 0), "{what}, tail");
                assert_eq!(packed.get(k - 1, n - 1).to_bits(), b[k * n - 1].to_bits());
            }
        }
    }
}

/// Pooling against the loops it replaced, on ResNet50's stem (112×112,
/// kernel 3, stride 2, pad 1) and on shapes where the window overhangs every
/// side, exceeds the image, or the padding is at least the kernel — with
/// NaNs, both zeros and infinities among the values, since a max that
/// compares differently would pick differently among them.
#[test]
fn pooling_is_the_per_tap_loop_it_replaced_bitwise() {
    let edges = [f32::NAN, -0.0, 0.0, f32::NEG_INFINITY, f32::INFINITY, -1.5];
    for (n, c, h, w, kernel, stride, pad) in [
        (2usize, 3usize, 112usize, 112usize, 3usize, 2usize, 1usize),
        (1, 2, 1, 1, 1, 1, 0),
        (1, 2, 1, 1, 3, 1, 1),
        (2, 1, 2, 3, 5, 1, 2),
        (1, 2, 4, 5, 2, 2, 0),
        (1, 1, 3, 3, 2, 1, 2),
        (1, 2, 5, 4, 3, 3, 3),
        (1, 1, 7, 9, 3, 2, 0),
    ] {
        let mut input = ramp(n * c * h * w, 37, 113);
        for (slot, edge) in input.iter_mut().step_by(5).zip(edges.iter().cycle()) {
            *slot = *edge;
        }
        let what = format!("{n}x{c}x{h}x{w} kernel={kernel} stride={stride} pad={pad}");
        let want = oracle::max_pool2d(&input, n, c, h, w, kernel, stride, pad);
        let mut got = vec![f32::NAN; want.len()];
        max_pool2d(&input, n, c, h, w, kernel, stride, pad, &mut got);
        assert_bits_eq(&want, &got, &format!("max pool {what}"));
        let want = oracle::avg_pool2d_global(&input, n, c, h, w);
        let mut got = vec![f32::NAN; want.len()];
        avg_pool2d_global(&input, n, c, h, w, &mut got);
        assert_bits_eq(&want, &got, &format!("avg pool {what}"));
    }
}

/// The transpose of a row-major `rows×cols` matrix: `b` (k×n) as the n×k
/// operand `gemm_bt` takes, or back.
fn transposed(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = vec![0.0f32; cols * rows];
    for j in 0..cols {
        for p in 0..rows {
            t[j * rows + p] = x[p * cols + j];
        }
    }
    t
}

/// The dispatcher runs the widest tier CPUID reports; a cap holds it to
/// narrower ones. Both wide tiers need `fma` beside their vector width: a
/// host without it runs the baseline, where `mul_add` is a libm call.
#[test]
fn dispatcher_picks_the_widest_detected_tier() {
    #[cfg(target_arch = "x86_64")]
    let tiers: &[&str] = if !is_x86_feature_detected!("fma") {
        &["sse2", "sse2", "sse2"]
    } else if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
        &["sse2", "avx2", "avx512"]
    } else if is_x86_feature_detected!("avx2") {
        &["sse2", "avx2", "avx2"]
    } else {
        &["sse2", "sse2", "sse2"]
    };
    #[cfg(not(target_arch = "x86_64"))]
    let tiers: &[&str] = &["baseline"; 3];
    assert_eq!(lane_tier(), tiers[2]);
    for (cap, want) in tiers.iter().enumerate() {
        assert_eq!(gemm_blocked_upto(cap, &[], &[], &mut [], 0, 0, 0), *want);
    }
}

/// `im2col` against the per-element gather it replaced, over every geometry
/// class: kernels that fit, overhang or exceed the image, both strides, and
/// padding from none to wider than the image itself.
#[test]
fn im2col_is_the_gather_it_replaced_bitwise() {
    let cin = 2;
    for (h, w) in [(1usize, 1usize), (2, 13), (5, 7), (7, 5), (9, 4), (12, 3)] {
        let input = ramp(cin * h * w, 37, 113);
        for kernel in [1usize, 3, 7] {
            for stride in [1usize, 2] {
                for pad in [0usize, 1, 3] {
                    let cols = cin
                        * kernel
                        * kernel
                        * conv_out_dim(h, kernel, stride, pad)
                        * conv_out_dim(w, kernel, stride, pad);
                    let mut want = vec![f32::NAN; cols];
                    let mut got = vec![f32::NAN; cols];
                    oracle::im2col(&input, cin, h, w, kernel, stride, pad, &mut want);
                    im2col(&input, cin, h, w, kernel, stride, pad, &mut got);
                    assert_bits_eq(
                        &want,
                        &got,
                        &format!("{h}x{w} kernel={kernel} stride={stride} pad={pad}"),
                    );
                }
            }
        }
    }
}

/// A 1×1 / stride-1 / pad-0 conv feeds the input planes to the GEMM
/// directly; that must equal im2col-then-GEMM.
#[test]
fn pointwise_conv_shortcut_equals_the_im2col_path_bitwise() {
    let (imgs, cin, cout, h, w) = (2usize, 3usize, 5usize, 7usize, 9usize);
    let input = ramp(imgs * cin * h * w, 37, 113);
    let weight = ramp(cout * cin, 53, 127);
    let bias = ramp(cout, 11, 17);
    let got = conv2d(&input, &weight, &bias, imgs, cin, h, w, cout, 1, 1, 0);
    let mut want = vec![f32::NAN; imgs * cout * h * w];
    let mut col = vec![f32::NAN; cin * h * w];
    for (img_in, img_out) in input
        .chunks_exact(cin * h * w)
        .zip(want.chunks_exact_mut(cout * h * w))
    {
        oracle::im2col(img_in, cin, h, w, 1, 1, 0, &mut col);
        gemm(&weight, &col, img_out, cout, cin, h * w);
        for (plane, &b) in img_out.chunks_exact_mut(h * w).zip(&bias) {
            plane.iter_mut().for_each(|v| *v += b);
        }
    }
    assert_bits_eq(&want, &got, "pointwise conv");
}

/// Thread splits may not change a single bit: each worker owns a disjoint
/// row block and every element's chain is fixed. The first shape stays
/// under the 2²⁴-MAC parallel threshold; the others cross it, with a split
/// that leaves an `m % 12` tail in the last block and one that leaves
/// workers idle. Whatever the split and whichever lane tier the dispatcher
/// picked, `gemm` is the naive chain, and `gemm_bt` is `gemm` behind a
/// transpose at every width. `gemm_i8` on the same shapes, its operands
/// filled from the ramp's full i8 range, is the naive integer loop at every
/// width: the second and third shapes cross the threshold in its first
/// k-chunk, and the third and fourth run two and three k-chunks.
#[test]
fn gemm_is_bit_identical_across_thread_counts() {
    for (m, k, n) in [
        (96, 70, 50),
        (300, 240, 260),
        (67, 1030, 259),
        (9, 3000, 700),
    ] {
        let (a, b) = (ramp(m * k, 37, 113), ramp(k * n, 53, 127));
        let bt = transposed(&b, k, n);
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                let mut c = vec![f32::NAN; m * n];
                let mut c_bt = vec![f32::NAN; m * n];
                gemm(&a, &b, &mut c, m, k, n);
                gemm_bt(&a, &bt, &mut c_bt, m, k, n);
                assert_bits_eq(&c, &c_bt, &format!("gemm_bt, threads={threads}"));
                c
            })
        };
        let sequential = run(1);
        let mut chain = vec![f32::NAN; m * n];
        gemm_naive(&a, &b, &mut chain, m, k, n);
        assert_bits_eq(&chain, &sequential, &format!("gemm vs naive ({m},{k},{n})"));
        for threads in [2usize, 3, 8] {
            let what = format!("threads={threads} ({m},{k},{n})");
            assert_bits_eq(&sequential, &run(threads), &what);
        }
        let to_i8 = |x: &[f32]| -> Vec<i8> {
            x.iter()
                .map(|&v| (((v + 0.5) * 256.0) as i32 - 128) as i8)
                .collect()
        };
        let (a8, b8) = (to_i8(&a), to_i8(&b));
        let integer_loop = gemm_i8_naive(&a8, &b8, m, k, n);
        for threads in [1usize, 2, 3, 8] {
            let got = harvest_threads::with_threads(threads, || gemm_i8(&a8, &b8, m, k, n));
            assert_eq!(
                got, integer_loop,
                "gemm_i8, threads={threads} ({m},{k},{n})"
            );
        }
    }
}

/// A conv over several images at a GEMM past the parallel threshold, and an
/// attention block with its per-head fan-out.
struct Composite {
    input: Vec<f32>,
    weight: Vec<f32>,
    bias: Vec<f32>,
    x: Vec<f32>,
    w_qkv: Vec<f32>,
    w_out: Vec<f32>,
}

impl Composite {
    const CONV: (usize, usize, usize, usize) = (3, 16, 24, 40); // imgs, cin, cout, hw
    const ATTN: (usize, usize, usize) = (70, 96, 3); // seq, dim, heads

    fn new() -> Self {
        let (imgs, cin, cout, hw) = Self::CONV;
        let (s, d, _) = Self::ATTN;
        Composite {
            input: ramp(imgs * cin * hw * hw, 37, 113),
            weight: ramp(cout * cin * 9, 53, 127),
            bias: ramp(cout, 11, 17),
            x: ramp(s * d, 37, 113),
            w_qkv: ramp(3 * d * d, 53, 127),
            w_out: ramp(d * d, 29, 101),
        }
    }

    fn attention_weights(&self) -> AttentionWeights<'_> {
        AttentionWeights {
            w_qkv: &self.w_qkv,
            b_qkv: &[],
            w_out: &self.w_out,
            b_out: &[],
        }
    }

    fn conv(&self) -> Vec<f32> {
        let (imgs, cin, cout, hw) = Self::CONV;
        conv2d(
            &self.input,
            &self.weight,
            &self.bias,
            imgs,
            cin,
            hw,
            hw,
            cout,
            3,
            1,
            1,
        )
    }

    fn attention(&self) -> Vec<f32> {
        let (s, d, heads) = Self::ATTN;
        multi_head_attention(&self.x, s, d, heads, &self.attention_weights())
    }
}

/// The image fan-out of `conv2d` and the head fan-out of
/// `multi_head_attention` hand out disjoint outputs too.
#[test]
fn conv_and_attention_are_bit_identical_across_thread_counts() {
    let c = Composite::new();
    let run = |threads: usize| harvest_threads::with_threads(threads, || (c.conv(), c.attention()));
    let (conv_seq, attn_seq) = run(1);
    for threads in [2usize, 3, 8] {
        let (conv, attn) = run(threads);
        assert_bits_eq(&conv_seq, &conv, &format!("conv2d, threads={threads}"));
        assert_bits_eq(&attn_seq, &attn, &format!("attention, threads={threads}"));
    }
}

/// `attention_core` over a stack of images fans out equal blocks of the
/// stack's query rows, so a block can end in one image and begin in the next
/// (3 × 70 rows over 8 threads: blocks of 27). Whatever the split, every
/// image comes out as its own core run alone.
#[test]
fn attention_core_over_a_stack_is_each_image_alone_at_every_width() {
    let (imgs, s, d, heads) = (3, 70, 96, 3);
    let qkv = ramp(imgs * s * 3 * d, 37, 113);
    let mut alone = vec![f32::NAN; imgs * s * d];
    for (qkv, mixed) in qkv.chunks(s * 3 * d).zip(alone.chunks_mut(s * d)) {
        harvest_threads::with_threads(1, || attention_core(qkv, s, d, heads, mixed));
    }
    for threads in [1usize, 2, 3, 4, 8] {
        let mut stacked = vec![f32::NAN; imgs * s * d];
        harvest_threads::with_threads(threads, || attention_core(&qkv, s, d, heads, &mut stacked));
        assert_bits_eq(&alone, &stacked, &format!("stack, threads={threads}"));
    }
}

/// The names `benchmark/` still imports are forwards, nothing else.
#[test]
fn compat_forwards_return_what_they_forward_to() {
    let v = KernelVariant::Scalar;
    assert_eq!(v.name(), "scalar");

    let (m, k, n) = (67, 259, 131);
    let (a, b) = (ramp(m * k, 37, 113), ramp(k * n, 53, 127));
    let (mut direct, mut forwarded) = (vec![f32::NAN; m * n], vec![f32::NAN; m * n]);
    gemm(&a, &b, &mut direct, m, k, n);
    gemm_v(v, &a, &b, &mut forwarded, m, k, n);
    assert_bits_eq(&direct, &forwarded, "gemm_v");

    let c = Composite::new();
    let (imgs, cin, cout, hw) = Composite::CONV;
    let forwarded = conv2d_v(
        v, &c.input, &c.weight, &c.bias, imgs, cin, hw, hw, cout, 3, 1, 1,
    );
    assert_bits_eq(&c.conv(), &forwarded, "conv2d_v");

    let (s, d, heads) = Composite::ATTN;
    let forwarded = multi_head_attention_v(v, &c.x, s, d, heads, &c.attention_weights());
    assert_bits_eq(&c.attention(), &forwarded, "multi_head_attention_v");
}
