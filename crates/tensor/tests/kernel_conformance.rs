//! Differential kernel-conformance suite.
//!
//! Every GEMM variant ([`KernelVariant`] plus every autotunable
//! [`MicroShape`]) is driven against independent oracles across degenerate
//! and adversarial shapes — zeros, ones, odd primes, and dimensions sitting
//! just past a micro-kernel tile boundary (4/8/16/32/64 + 1) so the packed
//! edge-tile paths are always exercised.
//!
//! The contracts pinned here are the ones CI's fingerprint gates rely on:
//!
//! * `Scalar` is deterministic (re-running produces the same bits), and every
//!   lane-tier instantiation of its loop body the host can run (SSE2, AVX2,
//!   AVX-512) produces those same bits, alone or split across threads.
//! * `Unrolled` is **bit-identical** to `Scalar` (same accumulation order).
//! * Every FMA/AVX-512 micro-shape is **bit-identical** to the sequential
//!   [`gemm_fma_oracle`] chain — for every shape, tile edge, and thread
//!   split — which is what makes the tuned kernels safe to swap freely.
//! * Everything is elementwise within `1e-5·k` of the naive triple loop.
//! * The packed INT8 kernel is exactly the naive integer loop.
//! * `im2col` is the gather it replaced (`oracle/`, verbatim), and the 1×1
//!   conv that skips it equals the conv that does not.

mod oracle;

use harvest_tensor::conv::{conv_out_dim, im2col};
use harvest_tensor::gemm::{gemm_blocked_upto, gemm_naive};
use harvest_tensor::quant::{gemm_i8, gemm_i8_naive};
use harvest_tensor::tune::{self, MicroShape};
use harvest_tensor::{
    conv2d, conv2d_v, gemm_bt_v, gemm_fma_oracle, gemm_v, gemm_with_shape, lane_tier,
    multi_head_attention, multi_head_attention_v, KernelVariant,
};
use proptest::prelude::*;

/// Adversarial GEMM dimension: degenerate (0, 1), odd primes that never
/// divide a tile, and values one past each micro-tile boundary
/// (MR ∈ {3,4,6,8}, NR ∈ {8,16,24,32}, plus the 64-wide unrolled j-block).
fn adversarial_dim() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(3usize),
        Just(5usize),
        Just(7usize),
        Just(9usize),
        Just(13usize),
        Just(17usize),
        Just(31usize),
        Just(33usize),
        Just(65usize),
        2usize..40,
    ]
}

fn vecf(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-1.0f32..1.0, len..=len)
}

fn veci8(len: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(any::<i8>(), len..=len)
}

/// `1e-5·k` elementwise tolerance from the issue contract (floored at one
/// k so degenerate products still get a nonzero budget).
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

    /// Every `KernelVariant` stays within the differential tolerance of the
    /// naive triple-loop oracle, on every adversarial shape.
    #[test]
    fn every_variant_tracks_the_naive_oracle(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut reference = vec![0.0f32; m * n];
        gemm_naive(&a, &b, &mut reference, m, k, n);
        for variant in KernelVariant::available() {
            let mut c = vec![f32::NAN; m * n];
            gemm_v(variant, &a, &b, &mut c, m, k, n);
            for (i, (r, v)) in reference.iter().zip(&c).enumerate() {
                prop_assert!(
                    (r - v).abs() <= tol(k),
                    "{}: idx {i}: |{r} - {v}| > {} (m={m} k={k} n={n})",
                    variant.name(), tol(k)
                );
            }
        }
    }

    /// Scalar is deterministic: two runs of the default kernel produce the
    /// same bits, and `Unrolled` reproduces them exactly.
    #[test]
    fn scalar_rerun_and_unrolled_are_bit_identical(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut first = vec![0.0f32; m * n];
        let mut second = vec![f32::NAN; m * n];
        let mut unrolled = vec![f32::NAN; m * n];
        gemm_v(KernelVariant::Scalar, &a, &b, &mut first, m, k, n);
        gemm_v(KernelVariant::Scalar, &a, &b, &mut second, m, k, n);
        gemm_v(KernelVariant::Unrolled, &a, &b, &mut unrolled, m, k, n);
        for (i, (x, y)) in first.iter().zip(&second).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "rerun idx {}: {} vs {}", i, x, y);
        }
        for (i, (x, y)) in first.iter().zip(&unrolled).enumerate() {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "unrolled idx {}: {} vs {}", i, x, y);
        }
    }

    /// Every lane tier the host can run is the baseline instantiation bit
    /// for bit: wider lanes move columns between instructions, never an
    /// element's rounding sequence.
    #[test]
    fn every_lane_tier_is_bit_identical_to_the_baseline(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        assert_lane_tiers_agree(&a, &b, m, k, n);
    }

    /// Every micro-shape the autotuner may pick obeys its bit contract:
    /// `Unrolled` equals Scalar, every SIMD shape equals the sequential FMA
    /// oracle — so swapping the tuned shape can never change results.
    #[test]
    fn every_tunable_shape_honours_its_bit_contract(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(k * n)))
    ) {
        let mut scalar = vec![0.0f32; m * n];
        let mut fma = vec![0.0f32; m * n];
        gemm_v(KernelVariant::Scalar, &a, &b, &mut scalar, m, k, n);
        gemm_fma_oracle(&a, &b, &mut fma, m, k, n);
        for shape in tune::search_space() {
            let mut c = vec![f32::NAN; m * n];
            gemm_with_shape(shape, &a, &b, &mut c, m, k, n);
            let oracle = if shape == MicroShape::Unrolled { &scalar } else { &fma };
            for (i, (x, y)) in oracle.iter().zip(&c).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} idx {}: {} vs {} (m={} k={} n={})",
                    shape.name(), i, x, y, m, k, n
                );
            }
        }
    }

    /// The packed INT8 kernel is *exact* integer arithmetic: every SIMD
    /// dispatch path must reproduce the naive i32 loop bit for bit, on
    /// full-range i8 inputs (including -128) and adversarial shapes.
    #[test]
    fn int8_kernel_is_exactly_the_naive_integer_loop(
        (m, k, n, a, b) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), veci8(m * k), veci8(k * n)))
    ) {
        let fast = gemm_i8(&a, &b, m, k, n);
        let slow = gemm_i8_naive(&a, &b, m, k, n);
        prop_assert_eq!(fast, slow, "m={} k={} n={}", m, k, n);
    }

    /// `gemm_bt_v` (the linear-layer layout) matches an explicit transpose
    /// followed by `gemm_v`, for every variant.
    #[test]
    fn gemm_bt_variants_match_explicit_transpose(
        (m, k, n, a, bt) in (adversarial_dim(), adversarial_dim(), adversarial_dim())
            .prop_flat_map(|(m, k, n)| (Just(m), Just(k), Just(n), vecf(m * k), vecf(n * k)))
    ) {
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        for variant in KernelVariant::available() {
            let mut c_bt = vec![f32::NAN; m * n];
            let mut c = vec![f32::NAN; m * n];
            gemm_bt_v(variant, &a, &bt, &mut c_bt, m, k, n);
            gemm_v(variant, &a, &b, &mut c, m, k, n);
            for (i, (x, y)) in c.iter().zip(&c_bt).enumerate() {
                prop_assert_eq!(
                    x.to_bits(), y.to_bits(),
                    "{} idx {}: {} vs {}", variant.name(), i, x, y
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Composite kernels: the Unrolled variant of conv/attention is
    /// bit-identical to the default path, and the Simd variant stays within
    /// the differential tolerance of it.
    #[test]
    fn conv_variants_agree_with_default_path(
        ((imgs, cin, cout, hw), input, weight) in (1usize..3, 1usize..4, 1usize..5, 3usize..10)
            .prop_flat_map(|dims| {
                let (imgs, cin, cout, hw) = dims;
                (Just(dims), vecf(imgs * cin * hw * hw), vecf(cout * cin * 9))
            })
    ) {
        let base = conv2d(&input, &weight, &[], imgs, cin, hw, hw, cout, 3, 1, 1);
        let unrolled = conv2d_v(
            KernelVariant::Unrolled, &input, &weight, &[], imgs, cin, hw, hw, cout, 3, 1, 1,
        );
        assert_bits_eq(&base, &unrolled, "conv unrolled");
        let simd = conv2d_v(
            KernelVariant::Simd, &input, &weight, &[], imgs, cin, hw, hw, cout, 3, 1, 1,
        );
        let k = cin * 9;
        for (i, (x, y)) in base.iter().zip(&simd).enumerate() {
            prop_assert!((x - y).abs() <= tol(k), "conv simd idx {i}: {x} vs {y}");
        }
    }

    #[test]
    fn attention_variants_agree_with_default_path(
        ((s, hd, heads), x, w_qkv, w_out) in (2usize..10, 1usize..3, 1usize..3)
            .prop_flat_map(|dims| {
                let (s, hd, heads) = dims;
                let d = hd * 8 * heads;
                (Just(dims), vecf(s * d), vecf(3 * d * d), vecf(d * d))
            })
    ) {
        let d = hd * 8 * heads;
        let w = harvest_tensor::attention::AttentionWeights {
            w_qkv: &w_qkv,
            b_qkv: &[],
            w_out: &w_out,
            b_out: &[],
        };
        let base = multi_head_attention(&x, s, d, heads, &w);
        let unrolled = multi_head_attention_v(KernelVariant::Unrolled, &x, s, d, heads, &w);
        assert_bits_eq(&base, &unrolled, "attention unrolled");
        let simd = multi_head_attention_v(KernelVariant::Simd, &x, s, d, heads, &w);
        // Four chained GEMMs (QKV, QKᵀ, attn·V, out) plus softmax: give the
        // composite the summed per-GEMM budget over the largest k (= dim).
        let budget = 4.0 * tol(d) * 10.0;
        for (i, (a, b)) in base.iter().zip(&simd).enumerate() {
            prop_assert!((a - b).abs() <= budget, "attention simd idx {i}: {a} vs {b}");
        }
    }
}

/// Deterministic filler in [-0.5, 0.5) for the fixed-shape tests.
fn ramp(len: usize, mul: usize, modulus: usize) -> Vec<f32> {
    (0..len)
        .map(|i| ((i * mul % modulus) as f32 / modulus as f32) - 0.5)
        .collect()
}

/// Runs the blocked kernel capped at each lane-tier rank (AVX2, AVX-512; a
/// host without one reruns the tier below) and holds it to rank 0.
fn assert_lane_tiers_agree(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    let mut base = vec![f32::NAN; m * n];
    let baseline = gemm_blocked_upto(0, a, b, &mut base, m, k, n);
    for cap in [1, 2] {
        let mut c = vec![f32::NAN; m * n];
        let tier = gemm_blocked_upto(cap, a, b, &mut c, m, k, n);
        assert_bits_eq(
            &base,
            &c,
            &format!("{tier} vs {baseline} (m={m} k={k} n={n})"),
        );
    }
}

/// The blocked kernel's own edges: one short of, on and one past each of
/// MC = 64, KC = 256 and NC = 512, which also walks every `m % 4` row tail
/// and `k % 4` accumulation tail inside a full and a partial block.
#[test]
fn lane_tiers_agree_on_cache_block_edges_and_tails() {
    for m in [63usize, 64, 65, 66] {
        for k in [255usize, 256, 257, 258] {
            for n in [511usize, 512, 513] {
                let (a, b) = (ramp(m * k, 37, 113), ramp(k * n, 53, 127));
                assert_lane_tiers_agree(&a, &b, m, k, n);
            }
        }
    }
}

/// The dispatcher runs the widest tier CPUID reports; a cap holds it to
/// narrower ones.
#[test]
fn dispatcher_picks_the_widest_detected_tier() {
    #[cfg(target_arch = "x86_64")]
    let tiers: &[&str] =
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vl") {
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
/// directly; that must equal im2col-then-GEMM for every variant.
#[test]
fn pointwise_conv_shortcut_equals_the_im2col_path_bitwise() {
    let (imgs, cin, cout, h, w) = (2usize, 3usize, 5usize, 7usize, 9usize);
    let input = ramp(imgs * cin * h * w, 37, 113);
    let weight = ramp(cout * cin, 53, 127);
    let bias = ramp(cout, 11, 17);
    for variant in KernelVariant::available() {
        let got = conv2d_v(
            variant, &input, &weight, &bias, imgs, cin, h, w, cout, 1, 1, 0,
        );
        let mut want = vec![f32::NAN; imgs * cout * h * w];
        let mut col = vec![f32::NAN; cin * h * w];
        for (img_in, img_out) in input
            .chunks_exact(cin * h * w)
            .zip(want.chunks_exact_mut(cout * h * w))
        {
            oracle::im2col(img_in, cin, h, w, 1, 1, 0, &mut col);
            gemm_v(variant, &weight, &col, img_out, cout, cin, h * w);
            for (plane, &b) in img_out.chunks_exact_mut(h * w).zip(&bias) {
                plane.iter_mut().for_each(|v| *v += b);
            }
        }
        assert_bits_eq(&want, &got, &format!("pointwise conv, {}", variant.name()));
    }
}

/// Thread splits may not change a single bit, for any variant: each worker
/// owns a disjoint row block and the per-element accumulation order is
/// fixed (Scalar/Unrolled) or a full-k register chain (Simd). The first
/// shape stays under the 2²⁰-MAC parallel threshold; the others cross it,
/// with a split that leaves an `m % 4` tail in the last block and one that
/// leaves workers idle. Whatever the split and whichever lane tier the
/// dispatcher picked, `Scalar` is the baseline instantiation run in one
/// piece.
#[test]
fn all_variants_are_bit_identical_across_thread_counts() {
    for (m, k, n) in [(96, 70, 50), (150, 120, 130), (67, 259, 131), (9, 300, 515)] {
        let (a, b) = (ramp(m * k, 37, 113), ramp(k * n, 53, 127));
        for variant in KernelVariant::available() {
            let run = |threads: usize| {
                harvest_threads::with_threads(threads, || {
                    let mut c = vec![f32::NAN; m * n];
                    gemm_v(variant, &a, &b, &mut c, m, k, n);
                    c
                })
            };
            let sequential = run(1);
            if variant == KernelVariant::Scalar {
                let mut base = vec![f32::NAN; m * n];
                gemm_blocked_upto(0, &a, &b, &mut base, m, k, n);
                assert_bits_eq(
                    &base,
                    &sequential,
                    &format!("scalar vs baseline tier ({m},{k},{n})"),
                );
            }
            for threads in [2usize, 3, 8] {
                let what = format!("{}: threads={threads} ({m},{k},{n})", variant.name());
                assert_bits_eq(&sequential, &run(threads), &what);
            }
        }
    }
}

/// Autotuner artifact round-trip: tune, write the JSON artifact, reload it,
/// and get back exactly the shape that won.
#[test]
fn tune_artifact_round_trips_through_disk() {
    let report = tune::tune(48, 1);
    assert!(!report.entries.is_empty());
    let dir = std::env::temp_dir().join(format!("harvest-tune-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("TUNE.json");
    std::fs::write(&path, report.to_json()).unwrap();
    let loaded = tune::load_artifact(&path).expect("artifact parses");
    assert_eq!(
        loaded, report.best,
        "reloaded shape differs from tuned best"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The `Simd` variant honours whatever shape the loaded artifact activates;
/// with no artifact it must still be a valid member of the search space.
#[test]
fn active_shape_is_always_in_the_search_space() {
    assert!(tune::search_space().contains(&tune::active_shape()));
}
