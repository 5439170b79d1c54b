//! Contract suite for the libm-free `exp` and the three kernels built on it
//! and on the fixed-lane row fold: `gelu`, `softmax_rows`, `layernorm`.
//!
//! Three kinds of contract:
//!
//! * **Accuracy**, against the f64 formula over a strided sweep of every f32
//!   bit pattern, and against the kernels these replaced (`oracle/`,
//!   verbatim) on model-like inputs and through whole ViT-shaped forwards.
//! * **Edges**: overflow to `+inf`, underflow straight to `0` with no
//!   denormal in between, NaN in NaN out, and GELU's sign, bound and
//!   infinities.
//! * **ReLU**, now a select under the lane tiers, against the conditional
//!   store it replaced (`oracle/`, verbatim), bit for bit.
//! * **Bit identity**: a slice equals its elements one at a time whatever its
//!   length and alignment, every lane tier equals the baseline, every pool
//!   width equals the sequential run, and the row fold's order is the one
//!   written down here, index by index.

mod oracle;

use harvest_tensor::gemm::{gemm, gemm_bt};
use harvest_tensor::ops::{exp, gelu_upto, relu_upto, softmax_rows_upto};
use harvest_tensor::{add_bias, gelu, layernorm, softmax_rows, Tensor};

/// Distance from `want` in units of the f32 spacing at `want`.
fn ulps(got: f32, want: f64) -> f64 {
    let w = (want as f32).abs().max(f32::MIN_POSITIVE);
    let spacing = f32::from_bits(w.to_bits() + 1) - w;
    (got as f64 - want).abs() / spacing as f64
}

/// Every `stride`-th f32 bit pattern, both signs, NaNs and infinities
/// included.
fn every_f32(stride: u32) -> impl Iterator<Item = f32> {
    (0..=u32::MAX / stride).map(move |i| f32::from_bits(i * stride))
}

/// The tanh-approximation GELU in f64, with the two constants the f32 kernels
/// use.
fn gelu_f64(x: f64) -> f64 {
    let u = 0.797_884_6f32 as f64 * (x + 0.044715f32 as f64 * x * x * x);
    0.5 * x * (1.0 + u.tanh())
}

fn gelu1(x: f32) -> f32 {
    let mut one = [x];
    gelu(&mut one);
    one[0]
}

/// Roughly normal values of standard deviation `sigma` (twelve uniforms).
fn gaussian(len: usize, seed: u64, sigma: f32) -> Vec<f32> {
    let uniform = Tensor::random(&[12 * len], seed, 1.0);
    uniform
        .data()
        .chunks_exact(12)
        .map(|c| c.iter().sum::<f32>() * 0.5 * sigma)
        .collect()
}

fn assert_bits_eq(want: &[f32], got: &[f32], what: &str) {
    assert_eq!(want.len(), got.len(), "{what}: length");
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert_eq!(w.to_bits(), g.to_bits(), "{what}: idx {i}: {w} vs {g}");
    }
}

#[test]
fn exp_tracks_f64_over_every_binade_and_saturates_cleanly() {
    let mut worst = 0.0f64;
    for x in every_f32(1 << 10) {
        let e = exp(x);
        if x.is_nan() {
            assert!(e.is_nan(), "exp(NaN) = {e}");
            continue;
        }
        // No gradual underflow: a denormal result would cost a microcode
        // assist here and in every GEMM the value is fed to.
        assert!(e == 0.0 || e >= f32::MIN_POSITIVE, "exp({x}) = {e:e}");
        let want = (x as f64).exp();
        if x >= 89.0 || (want as f32).is_infinite() {
            assert_eq!(e, f32::INFINITY, "exp({x})");
        } else if x < -87.3 {
            assert_eq!(e.to_bits(), 0, "exp({x}) = {e:e}");
        } else {
            let err = ulps(e, want);
            assert!(
                err <= 2.0,
                "exp({x}) = {e}, f64 says {want:e}: {err:.2} ulp"
            );
            worst = worst.max(err);
        }
    }
    assert!(worst > 0.4, "the sweep compared nothing: worst {worst}");
    assert_eq!(exp(0.0), 1.0);
    assert_eq!(exp(-0.0), 1.0);
    assert_eq!(exp(-104.0), 0.0);
    assert_eq!(exp(f32::NEG_INFINITY), 0.0);
    assert!(exp(-87.3) >= f32::MIN_POSITIVE);
}

#[test]
fn gelu_tracks_f64_and_keeps_its_sign_bound_and_edges() {
    for x in every_f32(1 << 10) {
        let g = gelu1(x);
        if !x.is_finite() {
            continue;
        }
        assert!(g.is_finite(), "gelu({x}) = {g}");
        assert!(g.abs() <= x.abs(), "|gelu({x})| = |{g}| > |x|");
        assert!(
            g == 0.0 || g.is_sign_negative() == x.is_sign_negative(),
            "gelu({x}) = {g} changed sign"
        );
        let want = gelu_f64(x as f64);
        assert!(
            (g as f64 - want).abs() <= 1e-7 || ulps(g, want) <= 3.0,
            "gelu({x}) = {g}, f64 says {want:e}: {:.2} ulp",
            ulps(g, want)
        );
    }
    assert!(gelu1(f32::NAN).is_nan());
    assert_eq!(gelu1(f32::INFINITY), f32::INFINITY);
    // The negative tail reaches -0 through x / (1 + inf); an `exp` that
    // stopped at its largest finite value would give -3e38 / 1.65e38 = -1.8.
    assert_eq!(gelu1(-3e38).to_bits(), (-0.0f32).to_bits());
    assert_eq!(gelu1(f32::MIN).to_bits(), (-0.0f32).to_bits());
    assert_eq!(gelu1(0.0).to_bits(), 0);
    assert_eq!(gelu1(-0.0).to_bits(), (-0.0f32).to_bits());
    assert_eq!(gelu1(f32::MAX), f32::MAX);
}

/// `1e-6` absolute where the value is below 1, relative above.
fn assert_close_to_oracle(want: &[f32], got: &[f32], what: &str) {
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        assert!(
            (w - g).abs() <= 1e-6 * w.abs().max(1.0),
            "{what}: idx {i}: oracle {w}, shipped {g}"
        );
    }
}

#[test]
fn kernels_track_the_libm_ones_they_replaced_on_model_like_inputs() {
    for (seed, sigma) in [(1u64, 0.3f32), (2, 1.0), (3, 3.0)] {
        let src = gaussian(257 * 768, seed, sigma);
        let (mut want, mut got) = (src.clone(), src.clone());
        oracle::gelu(&mut want);
        gelu(&mut got);
        assert_close_to_oracle(&want, &got, &format!("gelu sigma {sigma}"));

        for cols in [16usize, 37, 257] {
            let src = gaussian(67 * cols, seed + 10, sigma);
            let (mut want, mut got) = (src.clone(), src);
            oracle::softmax_rows(&mut want, cols);
            softmax_rows(&mut got, cols);
            assert_close_to_oracle(&want, &got, &format!("softmax {cols} sigma {sigma}"));
        }

        for d in [37usize, 192, 768] {
            let src = gaussian(67 * d, seed + 20, sigma);
            let gamma = gaussian(d, seed + 30, 1.0);
            let beta = gaussian(d, seed + 40, 0.1);
            let (mut want, mut got) = (src.clone(), src);
            oracle::layernorm(&mut want, d, &gamma, &beta, 1e-5);
            layernorm(&mut got, d, &gamma, &beta, 1e-5);
            assert_close_to_oracle(&want, &got, &format!("layernorm {d} sigma {sigma}"));
        }
    }
}

/// The three kernels a ViT forward takes from `ops`, as a set to swap.
struct Kernels {
    gelu: fn(&mut [f32]),
    softmax_rows: fn(&mut [f32], usize),
    layernorm: fn(&mut [f32], usize, &[f32], &[f32], f32),
}

/// `x · wᵀ + b` with the engine's weight initialization: uniform in
/// `±1/sqrt(fan_in)`, a fresh stream per call.
fn linear(x: &[f32], rows: usize, cin: usize, cout: usize, seed: &mut u64) -> Vec<f32> {
    *seed += 2;
    let scale = 1.0 / (cin as f32).sqrt();
    let w = Tensor::random(&[cout * cin], *seed, scale);
    let b = Tensor::random(&[cout], *seed + 1, scale);
    let mut y = vec![0.0f32; rows * cout];
    gemm_bt(x, w.data(), &mut y, rows, cin, cout);
    add_bias(&mut y, b.data());
    y
}

/// Logits of a pre-norm ViT over `tokens` already-embedded tokens, built
/// from the crate's GEMMs and the given kernel set, operation for operation
/// what the engine runs for `harvest_models::vit`.
fn vit_logits(k: &Kernels, tokens: usize, dim: usize, depth: usize, heads: usize) -> Vec<f32> {
    let (ones, zeros) = (vec![1.0f32; dim], vec![0.0f32; dim]);
    let head_dim = dim / heads;
    let mut seed = 0xA11CEu64;
    let mut x = Tensor::random(&[tokens * dim], seed, 1.0).data().to_vec();
    for _ in 0..depth {
        let mut h = x.clone();
        (k.layernorm)(&mut h, dim, &ones, &zeros, 1e-5);
        let qkv = linear(&h, tokens, dim, 3 * dim, &mut seed);
        let mut mixed = vec![0.0f32; tokens * dim];
        for head in 0..heads {
            let part = |which: usize| -> Vec<f32> {
                qkv.chunks_exact(3 * dim)
                    .flat_map(|row| {
                        let at = which * dim + head * head_dim;
                        row[at..at + head_dim].iter().copied()
                    })
                    .collect()
            };
            let (q, key, v) = (part(0), part(1), part(2));
            let mut scores = vec![0.0f32; tokens * tokens];
            gemm_bt(&q, &key, &mut scores, tokens, head_dim, tokens);
            let scale = 1.0 / (head_dim as f32).sqrt();
            scores.iter_mut().for_each(|s| *s *= scale);
            (k.softmax_rows)(&mut scores, tokens);
            let mut out = vec![0.0f32; tokens * head_dim];
            gemm(&scores, &v, &mut out, tokens, tokens, head_dim);
            for (row, o) in mixed.chunks_exact_mut(dim).zip(out.chunks_exact(head_dim)) {
                row[head * head_dim..(head + 1) * head_dim].copy_from_slice(o);
            }
        }
        let attn = linear(&mixed, tokens, dim, dim, &mut seed);
        x.iter_mut().zip(&attn).for_each(|(x, a)| *x += a);

        let mut h = x.clone();
        (k.layernorm)(&mut h, dim, &ones, &zeros, 1e-5);
        let mut hidden = linear(&h, tokens, dim, 4 * dim, &mut seed);
        (k.gelu)(&mut hidden);
        let mlp = linear(&hidden, tokens, 4 * dim, dim, &mut seed);
        x.iter_mut().zip(&mlp).for_each(|(x, m)| *x += m);
    }
    (k.layernorm)(&mut x, dim, &ones, &zeros, 1e-5);
    linear(&x[..dim], 1, dim, 16, &mut seed)
}

/// ViT-Tiny (257 tokens, depth 12) and the benchmark's `vit96` (37 tokens,
/// depth 3), both dim 192 with 3 heads: twelve blocks of rounding differences
/// may not add up to more than `1e-5` of the logits' size.
#[test]
fn vit_logits_stay_within_1e5_of_the_libm_forward() {
    let shipped = Kernels {
        gelu,
        softmax_rows,
        layernorm,
    };
    let replaced = Kernels {
        gelu: oracle::gelu,
        softmax_rows: oracle::softmax_rows,
        layernorm: oracle::layernorm,
    };
    for (tokens, depth) in [(257usize, 12usize), (37, 3)] {
        let want = vit_logits(&replaced, tokens, 192, depth, 3);
        let got = vit_logits(&shipped, tokens, 192, depth, 3);
        let err = harvest_tensor::quant::relative_error(&want, &got);
        assert!(
            err <= 1e-5,
            "{tokens} tokens, depth {depth}: relative error {err:e}\n{want:?}\n{got:?}"
        );
        assert!(want.iter().any(|v| v.abs() > 1e-2), "degenerate logits");
    }
}

/// `gelu` and `softmax_rows`' exp pass are pointwise: a vectorized body, its
/// scalar tail and a one-element call must all be the same function, at
/// every length across several vector widths and every start alignment.
#[test]
fn slices_of_every_length_and_alignment_equal_their_elements() {
    let src = gaussian(16 + 67, 7, 2.0);
    for start in 0..16 {
        for len in 0..=67 {
            let window = &src[start..start + len];
            let mut got = window.to_vec();
            gelu(&mut got);
            let want: Vec<f32> = window.iter().map(|&v| gelu1(v)).collect();
            assert_bits_eq(&want, &got, &format!("gelu start {start} len {len}"));

            if len > 0 {
                let mut got = window.to_vec();
                softmax_rows(&mut got, len);
                assert_bits_eq(
                    &softmax_spec(window),
                    &got,
                    &format!("softmax start {start} len {len}"),
                );
                let gamma = &src[..len];
                let mut got = window.to_vec();
                layernorm(&mut got, len, gamma, gamma, 1e-5);
                assert_bits_eq(
                    &layernorm_spec(window, gamma, gamma, 1e-5),
                    &got,
                    &format!("layernorm start {start} len {len}"),
                );
            }
        }
    }
}

/// The row-sum order, written out by index: lane `l` of 16 adds elements
/// `l, l + 16, ...` of the whole 16-blocks in order starting from `0.0`; the
/// lanes fold 16 → 8 → 4 → 2 → 1, lane `l` taking lane `l + width`; the
/// `len % 16` tail is added last, one element at a time.
fn lane_sum_spec(values: &[f32]) -> f32 {
    let body = values.len() / 16 * 16;
    let mut lanes = [0.0f32; 16];
    for (l, lane) in lanes.iter_mut().enumerate() {
        let mut i = l;
        while i < body {
            *lane += values[i];
            i += 16;
        }
    }
    let s8: Vec<f32> = (0..8).map(|l| lanes[l] + lanes[l + 8]).collect();
    let s4: Vec<f32> = (0..4).map(|l| s8[l] + s8[l + 4]).collect();
    let s2 = [s4[0] + s4[2], s4[1] + s4[3]];
    let mut sum = s2[0] + s2[1];
    for &v in &values[body..] {
        sum += v;
    }
    sum
}

fn softmax_spec(row: &[f32]) -> Vec<f32> {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let e: Vec<f32> = row.iter().map(|&v| exp(v - max)).collect();
    let inv = 1.0 / lane_sum_spec(&e);
    e.iter().map(|&v| v * inv).collect()
}

fn layernorm_spec(row: &[f32], gamma: &[f32], beta: &[f32], eps: f32) -> Vec<f32> {
    let d = row.len() as f32;
    let mean = lane_sum_spec(row) / d;
    let squares: Vec<f32> = row.iter().map(|&v| (v - mean) * (v - mean)).collect();
    let inv_std = 1.0 / (lane_sum_spec(&squares) / d + eps).sqrt();
    row.iter()
        .zip(gamma.iter().zip(beta))
        .map(|(&v, (g, b))| (v - mean) * inv_std * g + b)
        .collect()
}

/// Each lane tier the host can run (a host without one reruns the tier
/// below) against the baseline instantiation, on the shapes the models use
/// and on lengths that leave every kind of vector tail.
#[test]
fn every_lane_tier_equals_the_baseline() {
    for len in [0usize, 1, 15, 16, 17, 63, 64, 65, 257, 257 * 768] {
        let src = gaussian(len, 11, 2.0);
        let mut base = src.clone();
        let baseline = gelu_upto(0, &mut base);
        for cap in [1, 2, usize::MAX] {
            let mut got = src.clone();
            let tier = gelu_upto(cap, &mut got);
            assert_bits_eq(
                &base,
                &got,
                &format!("gelu {tier} vs {baseline}, len {len}"),
            );
        }
    }
    assert_eq!(gelu_upto(usize::MAX, &mut []), harvest_tensor::lane_tier());
    for cols in [1usize, 5, 16, 17, 37, 67, 257] {
        let src = gaussian(9 * cols, 13, 2.0);
        let mut base = src.clone();
        softmax_rows_upto(0, &mut base, cols);
        for cap in [1, 2, usize::MAX] {
            let mut got = src.clone();
            softmax_rows_upto(cap, &mut got, cols);
            assert_bits_eq(&base, &got, &format!("softmax cap {cap}, cols {cols}"));
        }
    }
}

/// Rows are independent and a row's fold order is fixed, so splitting the
/// rows across a pool changes nothing; both kernels go parallel at `1 << 16`
/// elements, and both sides of that are held to the sequential run.
#[test]
fn softmax_and_layernorm_are_identical_at_every_pool_width() {
    let cols = 257;
    for rows in [(1 << 16) / cols, (1 << 16) / cols + 1] {
        let src = gaussian(rows * cols, 17, 2.0);
        let gamma = gaussian(cols, 19, 1.0);
        let run = |threads: usize| {
            harvest_threads::with_threads(threads, || {
                let (mut s, mut l) = (src.clone(), src.clone());
                softmax_rows(&mut s, cols);
                layernorm(&mut l, cols, &gamma, &gamma, 1e-5);
                (s, l)
            })
        };
        let (softmax_1, layernorm_1) = run(1);
        for threads in [2usize, 3, 8] {
            let (s, l) = run(threads);
            assert_bits_eq(
                &softmax_1,
                &s,
                &format!("softmax {rows} rows, {threads} threads"),
            );
            assert_bits_eq(
                &layernorm_1,
                &l,
                &format!("layernorm {rows} rows, {threads} threads"),
            );
        }
    }
}

/// A NaN or an infinity in a softmax row must come out as NaNs, not be
/// clamped away: the engine's integrity scan looks for exactly that. A row
/// whose spread exceeds what f32 can hold is not poisoned: its far entries
/// are exactly 0 and the rest still sum to 1.
#[test]
fn softmax_keeps_a_poisoned_row_poisoned_and_a_saturated_row_clean() {
    for poison in [f32::NAN, f32::INFINITY] {
        let mut row = gaussian(37, 23, 1.0);
        row[20] = poison;
        softmax_rows(&mut row, 37);
        assert!(row.iter().any(|v| v.is_nan()), "{poison} vanished: {row:?}");
    }
    let mut row = gaussian(37, 23, 1.0);
    row[20] = f32::NEG_INFINITY;
    softmax_rows(&mut row, 37);
    assert_eq!(row[20], 0.0);
    assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);

    let mut rows = gaussian(5 * 257, 29, 60.0);
    softmax_rows(&mut rows, 257);
    for row in rows.chunks_exact(257) {
        assert!(row.contains(&0.0), "the row did not saturate");
        assert!((row.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }
}

/// `relu` as a select is the conditional store it replaced, bit for bit:
/// negatives (denormals and `-inf` included) become `+0.0`, and `-0.0`, a
/// NaN of either sign and everything positive keep their bits — at every
/// lane-tier cap and at lengths that leave every kind of vector tail.
#[test]
fn relu_is_the_conditional_store_it_replaced_at_every_tier() {
    let edges = [
        0.0f32,
        -0.0,
        f32::NAN,
        -f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::from_bits(1),
        -f32::from_bits(1),
        f32::from_bits(0x007f_ffff),
        -f32::from_bits(0x007f_ffff),
        f32::MAX,
        f32::MIN,
        1.0,
        -1.0,
    ];
    for len in [0usize, 1, 15, 16, 17, 31, 32, 33, 257, 64 * 112 * 112] {
        let mut src = gaussian(len, 31, 2.0);
        for (slot, edge) in src.iter_mut().step_by(3).zip(edges.iter().cycle()) {
            *slot = *edge;
        }
        let mut want = src.clone();
        oracle::relu(&mut want);
        for cap in [0, 1, 2, usize::MAX] {
            let mut got = src.clone();
            let tier = relu_upto(cap, &mut got);
            assert_bits_eq(&want, &got, &format!("relu {tier}, len {len}"));
        }
    }
    assert_eq!(relu_upto(usize::MAX, &mut []), harvest_tensor::lane_tier());
}
