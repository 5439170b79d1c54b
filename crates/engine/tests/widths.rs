//! The same logits at every batch size and pool width, on the models the
//! repo benchmark serves.
//!
//! The pool splits a forward three ways — row blocks of C in a large GEMM,
//! images in a conv, blocks of the batch's query rows in the attention core
//! (which span image boundaries when the batch is smaller than the pool) —
//! and none of them may reach a bit: an image's logits are those of its own
//! single-threaded forward, whatever batch it rides in and however many
//! threads share the work, with or without the activation guard.

use harvest_engine::{ActivationGuard, Executor};
use harvest_models::{resnet50, rwkv_vision, vit, vit_small, vit_tiny, Graph, Shape, VitConfig};
use harvest_tensor::Tensor;

fn bits(outputs: &[Tensor]) -> Vec<u32> {
    outputs
        .iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// At B ∈ {1, 3, 8} and 1/2/3/8 threads: the batch equals its images run
/// one by one on one thread, and the guarded pass (no faults) equals both.
fn assert_same_bits_at_every_width(graph: &Graph) {
    let exec = Executor::new(graph, 42);
    let guard = ActivationGuard {
        range_limit: Some(1e30),
    };
    let Shape::Chw { c, h, w } = graph.input_shape() else {
        panic!("image models only");
    };
    let xs: Vec<Tensor> = (0..8)
        .map(|i| Tensor::random(&[c, h, w], 9000 + i, 1.0))
        .collect();
    let alone: Vec<Tensor> =
        harvest_threads::with_threads(1, || xs.iter().map(|x| exec.forward(x)).collect());
    for b in [1usize, 3, 8] {
        let (xs, want) = (&xs[..b], bits(&alone[..b]));
        for threads in [1usize, 2, 3, 8] {
            let what = format!("{} B={b} threads={threads}", graph.name());
            harvest_threads::with_threads(threads, || {
                assert_eq!(want, bits(&exec.forward_batch(xs)), "{what}");
                let mut sink = Vec::new();
                let guarded = exec.run(xs, Some(&guard), None, &mut sink);
                assert!(guarded.violation.is_none(), "{what}: clean pass tripped");
                let sink_bits: Vec<u32> = sink.iter().map(|v| v.to_bits()).collect();
                assert_eq!(want, sink_bits, "{what}: guarded");
            });
        }
    }
}

#[test]
fn vit_tiny_is_the_same_bits_at_every_width() {
    assert_same_bits_at_every_width(&vit_tiny(16));
}

#[test]
fn vit_small_is_the_same_bits_at_every_width() {
    assert_same_bits_at_every_width(&vit_small(16));
}

#[test]
fn resnet50_is_the_same_bits_at_every_width() {
    assert_same_bits_at_every_width(&resnet50(16));
}

/// ViT-Tiny's geometry (257 tokens) with linear attention in place of
/// softmax attention.
#[test]
fn rwkv_vision_is_the_same_bits_at_every_width() {
    let cfg = VitConfig {
        dim: 192,
        depth: 2,
        heads: 3,
        patch: 2,
        img: 32,
        mlp_ratio: 4,
        classes: 16,
    };
    assert_same_bits_at_every_width(&rwkv_vision("rwkv", &cfg));
}

/// The repo benchmark's two wire models: `vit96` (37 tokens) and the wire
/// front-end's default `tiny16` (17 tokens).
#[test]
fn wire_models_are_the_same_bits_at_every_width() {
    let vit96 = VitConfig {
        dim: 192,
        depth: 3,
        heads: 3,
        patch: 16,
        img: 96,
        mlp_ratio: 4,
        classes: 16,
    };
    let tiny16 = VitConfig {
        dim: 32,
        depth: 1,
        heads: 2,
        patch: 4,
        img: 16,
        mlp_ratio: 2,
        classes: 4,
    };
    assert_same_bits_at_every_width(&vit("vit96", &vit96));
    assert_same_bits_at_every_width(&vit("tiny16", &tiny16));
}
