//! The batched executor held to the seed per-image forward pass
//! (`oracle/reference.rs`, verbatim): within 1e-4 relative everywhere, and
//! bit for bit on the ViT and linear-attention graphs, where both paths
//! run one accumulation order.

mod oracle;

use harvest_engine::Executor;
use harvest_models::{rwkv_vision, vit, Graph, GraphBuilder, Op, Shape, VitConfig};
use harvest_tensor::Tensor;
use oracle::reference::forward_reference;
use proptest::prelude::*;

fn small_vit() -> Graph {
    vit(
        "small",
        &VitConfig {
            dim: 64,
            depth: 3,
            heads: 2,
            patch: 4,
            img: 16,
            mlp_ratio: 4,
            classes: 7,
        },
    )
}

fn relative_l2(a: &Tensor, b: &Tensor) -> f64 {
    harvest_tensor::quant::relative_error(a.data(), b.data())
}

#[test]
fn batched_matches_reference_within_tolerance_vit() {
    // The batched engine reorders GEMM accumulation (pre-transposed
    // blocked kernel vs per-call gemm_bt); logits must stay within
    // 1e-4 relative of the seed per-image path.
    let g = small_vit();
    let exec = Executor::new(&g, 11);
    let xs: Vec<Tensor> = (0..4)
        .map(|i| Tensor::random(&[3, 16, 16], 50 + i, 1.0))
        .collect();
    let batch = exec.forward_batch(&xs);
    for (x, y) in xs.iter().zip(&batch) {
        let r = forward_reference(&g, 11, false, x);
        let err = relative_l2(&r, y);
        assert!(err < 1e-4, "relative error {err}");
        assert_eq!(r.argmax(), y.argmax());
    }
}

#[test]
fn default_variant_batched_equals_reference_bitwise() {
    // With the scalar GEMM both paths run one accumulation order, and
    // gelu, softmax, layernorm and φ give an element the same bits
    // wherever it sits in a batch buffer: BENCH.json's
    // `rel_err_vs_reference` of exactly 0 depends on it.
    let cfg = VitConfig {
        dim: 48,
        depth: 2,
        heads: 3,
        patch: 4,
        img: 20,
        mlp_ratio: 4,
        classes: 7,
    };
    for g in [vit("vit", &cfg), rwkv_vision("rwkv", &cfg)] {
        let exec = Executor::new(&g, 23);
        let xs: Vec<Tensor> = (0..5)
            .map(|i| Tensor::random(&[3, 20, 20], 700 + i, 1.0))
            .collect();
        for (x, y) in xs.iter().zip(&exec.forward_batch(&xs)) {
            assert_eq!(&forward_reference(&g, 23, false, x), y, "{}", g.name());
        }
    }
}

#[test]
fn batched_matches_reference_within_tolerance_cnn() {
    let (mut b, input) = GraphBuilder::new("cnn", Shape::Chw { c: 3, h: 16, w: 16 });
    let conv = b.push(
        "conv",
        Op::Conv2d {
            cin: 3,
            cout: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
            bias: true,
        },
        &[input],
    );
    let bn = b.push("bn", Op::BatchNorm { channels: 8 }, &[conv]);
    let relu = b.push("relu", Op::Relu, &[bn]);
    let pool = b.push(
        "pool",
        Op::MaxPool {
            kernel: 2,
            stride: 2,
            pad: 0,
        },
        &[relu],
    );
    let gap = b.push("gap", Op::GlobalAvgPool, &[pool]);
    let fc = b.push(
        "fc",
        Op::Linear {
            cin: 8,
            cout: 5,
            bias: true,
        },
        &[gap],
    );
    let sm = b.push("sm", Op::Softmax, &[fc]);
    let g = b.finish(sm);
    let exec = Executor::new(&g, 4);
    let xs: Vec<Tensor> = (0..3)
        .map(|i| Tensor::random(&[3, 16, 16], 70 + i, 1.0))
        .collect();
    let batch = exec.forward_batch(&xs);
    for (x, y) in xs.iter().zip(&batch) {
        let r = forward_reference(&g, 4, false, x);
        assert!(relative_l2(&r, y) < 1e-4);
    }
}

#[test]
fn rwkv_batched_matches_reference() {
    let cfg = VitConfig {
        dim: 64,
        depth: 2,
        heads: 2,
        patch: 4,
        img: 16,
        mlp_ratio: 4,
        classes: 5,
    };
    let g = rwkv_vision("rwkv", &cfg);
    let exec = Executor::new(&g, 17);
    let xs: Vec<Tensor> = (0..3)
        .map(|i| Tensor::random(&[3, 16, 16], 500 + i, 1.0))
        .collect();
    let batch = exec.forward_batch(&xs);
    for (x, y) in xs.iter().zip(&batch) {
        let r = forward_reference(&g, 17, false, x);
        assert!(relative_l2(&r, y) < 1e-4);
    }
}

/// Small ViTs that run real forwards.
fn exec_vit_config() -> impl Strategy<Value = VitConfig> {
    (
        1usize..=2,
        1usize..=2,
        prop_oneof![Just(1usize), Just(2)],
        prop_oneof![Just(2usize), Just(4)],
    )
        .prop_map(|(dim_x32, depth, heads, patch)| VitConfig {
            dim: dim_x32 * 32 * heads,
            depth,
            heads,
            patch,
            img: patch * 4,
            mlp_ratio: 4,
            classes: 5,
        })
}

fn rel_err(a: &Tensor, b: &Tensor) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (x, y) in a.data().iter().zip(b.data()) {
        num += ((x - y) as f64).powi(2);
        den += (*y as f64).powi(2);
    }
    (num / den.max(1e-12)).sqrt()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_forward_matches_reference_and_is_bit_stable(
        (cfg, b, seed) in (exec_vit_config(), 1usize..=4, 0u64..1000)
    ) {
        let g = vit("prop-exec", &cfg);
        let exec = Executor::new(&g, 1000 + seed);
        let side = cfg.img;
        let inputs: Vec<Tensor> = (0..b)
            .map(|i| Tensor::random(&[3, side, side], seed * 31 + i as u64, 1.0))
            .collect();
        let batched = exec.forward_batch(&inputs);
        prop_assert_eq!(batched.len(), b);
        // Bit-identical on rerun: the batched path is deterministic.
        let rerun = exec.forward_batch(&inputs);
        for (x, y) in batched.iter().zip(&rerun) {
            prop_assert_eq!(x.data(), y.data());
        }
        // And within 1e-4 relative error of the seed per-image reference.
        for (img, out) in inputs.iter().zip(&batched) {
            let reference = forward_reference(&g, 1000 + seed, false, img);
            let err = rel_err(out, &reference);
            prop_assert!(err < 1e-4, "rel err {err} at b={b}");
        }
    }
}
