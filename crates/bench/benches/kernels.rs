//! Kernel microbenches: the real tensor substrate (GEMM tiers, conv,
//! attention, image ops) and the DES core.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harvest_simkit::{Server, Sim, SimTime};
use harvest_tensor::attention::AttentionWeights;
use harvest_tensor::gemm::{gemm, gemm_blocked, gemm_naive};
use harvest_tensor::{
    conv2d, gelu, layernorm, multi_head_attention, resize_bilinear, softmax_rows, Tensor,
};
use std::hint::black_box;

fn gemm_tiers(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/gemm_tiers_256");
    let n = 256;
    let a = vec![0.5f32; n * n];
    let b = vec![0.25f32; n * n];
    let mut out = vec![0.0f32; n * n];
    group.bench_function("naive", |bch| {
        bch.iter(|| gemm_naive(black_box(&a), black_box(&b), &mut out, n, n, n))
    });
    group.bench_function("blocked", |bch| {
        bch.iter(|| gemm_blocked(black_box(&a), black_box(&b), &mut out, n, n, n))
    });
    group.bench_function("parallel", |bch| {
        bch.iter(|| gemm(black_box(&a), black_box(&b), &mut out, n, n, n))
    });
    group.finish();
}

fn conv(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/conv2d");
    group.sample_size(10);
    // ResNet stem-like: 3->64, 7x7 s2 on 224².
    let input = vec![0.1f32; 3 * 224 * 224];
    let weight = vec![0.01f32; 64 * 3 * 7 * 7];
    group.bench_function("stem_7x7_s2", |b| {
        b.iter(|| black_box(conv2d(&input, &weight, &[], 1, 3, 224, 224, 64, 7, 2, 3)))
    });
    group.finish();
}

fn attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/attention");
    // ViT-Tiny block: seq 257, dim 192, heads 3.
    let (seq, dim, heads) = (257usize, 192usize, 3usize);
    let x = vec![0.1f32; seq * dim];
    let w_qkv = vec![0.01f32; 3 * dim * dim];
    let w_out = vec![0.01f32; dim * dim];
    let weights = AttentionWeights {
        w_qkv: &w_qkv,
        b_qkv: &[],
        w_out: &w_out,
        b_out: &[],
    };
    group.bench_function("vit_tiny_block", |b| {
        b.iter(|| {
            black_box(multi_head_attention(
                black_box(&x),
                seq,
                dim,
                heads,
                &weights,
            ))
        })
    });
    group.finish();
}

fn image_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/image");
    for (from, to) in [(256usize, 224usize), (3840, 224)] {
        let input = vec![0.5f32; 3 * from * from.min(2160)];
        let h = from.min(2160);
        group.bench_with_input(
            BenchmarkId::new("resize", format!("{from}->{to}")),
            &to,
            |b, &to| b.iter(|| black_box(resize_bilinear(&input, 3, h, from, to, to))),
        );
    }
    group.finish();
}

/// The pointwise and row kernels between a ViT block's GEMMs, on inputs
/// spread like its activations: a transcendental's cost can depend on its
/// argument (libm's `tanhf` took 6 ns on |x| < 0.5 and 23 ns on these), so a
/// small-argument ramp does not see it. Each iteration starts from a fresh
/// copy of the input; the copy is ~0.1 ns per element of every row.
fn norm_act(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/norm_act");
    let mut row = |name: &str, src: &[f32], op: &dyn Fn(&mut [f32])| {
        let mut buf = src.to_vec();
        group.bench_function(name, |b| {
            b.iter(|| {
                buf.copy_from_slice(src);
                op(black_box(&mut buf))
            })
        });
    };
    // Uniform in ±scale: standard deviation 1 at ±1.73, and the ±3 range a
    // block's MLP hidden layer actually spans.
    let hidden = |scale: f32| Tensor::random(&[257 * 768], 7, scale).into_vec();
    row("gelu_257x768_sigma1", &hidden(1.73), &gelu);
    row("gelu_257x768_pm3", &hidden(3.0), &gelu);
    let scores = Tensor::random(&[257 * 257], 8, 3.0).into_vec();
    let gamma = Tensor::random(&[257], 9, 1.0).into_vec();
    row("softmax_257x257", &scores, &|x| softmax_rows(x, 257));
    row("layernorm_257x257", &scores, &|x| {
        layernorm(x, 257, &gamma, &gamma, 1e-5)
    });
    group.finish();
}

fn des_core(c: &mut Criterion) {
    c.bench_function("kernels/des_100k_events", |b| {
        b.iter(|| {
            let mut sim = Sim::new();
            let server = Server::new("s", 4);
            for i in 0..100_000u64 {
                server.submit(&mut sim, SimTime::from_nanos(i % 977), |_, _| {});
            }
            sim.run();
            black_box(server.completed())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = gemm_tiers, conv, attention, image_ops, norm_act, des_core
}
criterion_main!(benches);
