//! The executor's patch embedding — one token GEMM per image against the
//! patch weight packed once — held bit for bit to the strided convolution
//! plus token transpose it replaced (`oracle/patch_embed.rs`, verbatim), on
//! patch-embed-only graphs at the zoo's three geometries (the benchmark's
//! vit96, ViT-Tiny, and the wire's default tiny16 model), B ∈ {1, 3}, with
//! the pool at one thread and at the host default. The oracle reads its
//! weights through `for_each_buffer`, so the out-major view of the packed
//! weight is held to the panels the GEMM multiplies.

mod oracle;

use harvest_engine::Executor;
use harvest_models::{Graph, GraphBuilder, Op, Shape};
use harvest_tensor::Tensor;
use oracle::patch_embed::patch_embed_conv;

/// `(name, img, dim, patch)`, three input channels each.
const GEOMETRIES: [(&str, usize, usize, usize); 3] = [
    ("vit96", 96, 192, 16),
    ("vit_tiny", 32, 192, 2),
    ("tiny16", 16, 32, 4),
];

fn patch_embed_graph(img: usize, dim: usize, patch: usize) -> Graph {
    let (mut b, input) = GraphBuilder::new(
        "patch-embed",
        Shape::Chw {
            c: 3,
            h: img,
            w: img,
        },
    );
    let embed = b.push(
        "embed",
        Op::PatchEmbed {
            in_ch: 3,
            dim,
            patch,
        },
        &[input],
    );
    b.finish(embed)
}

#[test]
fn token_gemm_is_the_conv_it_replaced_bitwise() {
    for (name, img, dim, patch) in GEOMETRIES {
        let g = patch_embed_graph(img, dim, patch);
        let exec = Executor::new(&g, 0x5eed);
        // Node 1's four tensors, in role order: weight (out-major), bias,
        // cls, pos.
        let mut weights: Vec<Vec<f32>> = Vec::new();
        exec.materialized().for_each_buffer(|id, buf| {
            assert_eq!(id, 1 << 3 | weights.len() as u64, "{name}");
            weights.push(buf.to_vec());
        });
        assert_eq!(weights.len(), 4, "{name}");
        assert_eq!(weights[0].len(), dim * 3 * patch * patch, "{name}");
        for b in [1usize, 3] {
            let xs: Vec<Tensor> = (0..b as u64)
                .map(|i| Tensor::random(&[3, img, img], 90 + i, 1.0))
                .collect();
            let stacked: Vec<f32> = xs.iter().flat_map(|x| x.data().to_vec()).collect();
            let want = harvest_threads::with_threads(1, || {
                patch_embed_conv(
                    &stacked,
                    &weights[0],
                    &weights[1],
                    &weights[2],
                    &weights[3],
                    b,
                    (3, img, img),
                    dim,
                    patch,
                )
            });
            for threads in [1, harvest_threads::max_threads()] {
                let got: Vec<f32> = harvest_threads::with_threads(threads, || {
                    exec.forward_batch(&xs)
                        .iter()
                        .flat_map(|t| t.data().to_vec())
                        .collect()
                });
                assert_eq!(got.len(), want.len(), "{name} B={b}");
                for (i, (x, y)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        x.to_bits(),
                        y.to_bits(),
                        "{name} B={b} threads={threads}: element {i}: {x} vs {y}"
                    );
                }
            }
        }
    }
}
