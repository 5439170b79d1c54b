//! Codec benches: AJPG encode/decode across the dataset image sizes — the
//! measured ground truth behind the Fig 7 decode-cost model — and the model
//! transform at the two wire shapes the repo benchmark serves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use harvest_imaging::{ajpg_decode, ajpg_encode, rtif_decode, rtif_encode, AjpgOptions};
use harvest_imaging::{FieldScene, SynthImageSpec};
use harvest_preproc::preprocess_decoded;
use std::hint::black_box;

fn ajpg(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/ajpg");
    group.sample_size(10);
    // Sizes matching Table 2's datasets (Fruits, Corn/Weed, Plant Village),
    // then the `wire_decode512_sat` body size.
    for size in [100usize, 224, 256, 512] {
        let img = FieldScene::LeafCloseup.render(&SynthImageSpec {
            width: size,
            height: size,
            seed: 7,
        });
        let encoded = ajpg_encode(&img, &AjpgOptions::default());
        group.throughput(Throughput::Elements((size * size) as u64));
        group.bench_with_input(BenchmarkId::new("encode", size), &size, |b, _| {
            b.iter(|| black_box(ajpg_encode(&img, &AjpgOptions::default()).len()))
        });
        group.bench_with_input(BenchmarkId::new("decode", size), &size, |b, _| {
            b.iter(|| black_box(ajpg_decode(&encoded).unwrap().pixels()))
        });
    }
    group.finish();
}

fn rtif(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec/rtif");
    group.sample_size(10);
    let img = FieldScene::RowCrop.render(&SynthImageSpec {
        width: 233,
        height: 233,
        seed: 7,
    });
    let encoded = rtif_encode(&img);
    group.bench_function("encode_233", |b| {
        b.iter(|| black_box(rtif_encode(&img).len()))
    });
    group.bench_function("decode_233", |b| {
        b.iter(|| black_box(rtif_decode(&encoded).unwrap().pixels()))
    });
    group.finish();
}

fn decode_cost_ratio(c: &mut Criterion) {
    // The TIFF-vs-JPEG claim in one number: same pixel count, two formats.
    let mut group = c.benchmark_group("codec/format_comparison_224");
    group.sample_size(10);
    let img = FieldScene::RowCrop.render(&SynthImageSpec {
        width: 224,
        height: 224,
        seed: 3,
    });
    let jpg = ajpg_encode(&img, &AjpgOptions::default());
    let raw = rtif_encode(&img);
    group.bench_function("ajpg_decode", |b| {
        b.iter(|| black_box(ajpg_decode(&jpg).unwrap().pixels()))
    });
    group.bench_function("rtif_decode", |b| {
        b.iter(|| black_box(rtif_decode(&raw).unwrap().pixels()))
    });
    group.finish();
}

fn transform(c: &mut Criterion) {
    // Decoded image → model tensor at the wire workloads' shapes:
    // 512 px → 16 px (`wire_decode512_sat`) and 128 px → 96 px (`wire_vit96_*`).
    let mut group = c.benchmark_group("codec/preprocess_decoded");
    group.sample_size(10);
    for (from, to) in [(512usize, 16usize), (128, 96)] {
        let img = FieldScene::RowCrop.render(&SynthImageSpec {
            width: from,
            height: from,
            seed: 7,
        });
        group.throughput(Throughput::Elements((to * to) as u64));
        let id = BenchmarkId::new(format!("{from}"), to);
        group.bench_with_input(id, &to, |b, &to| {
            b.iter(|| black_box(preprocess_decoded(&img, to).len()))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = ajpg, rtif, decode_cost_ratio, transform
}
criterion_main!(benches);
