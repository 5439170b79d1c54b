//! Multi-head self-attention forward pass.
//!
//! The ViT models in Table 3 spend their attention FLOPs in four GEMMs (QKV
//! projection, QKᵀ, attn·V, output projection) plus a row softmax; this
//! module composes exactly those kernels so the executable path and the
//! analytic FLOPs model in `harvest-models` count the same operations.

use crate::gemm::{gemm_bt, gemm_with, KernelVariant, PanelSource};
use crate::ops::{add_bias, softmax_rows};
use harvest_threads::{for_each_chunk_mut, max_threads};

/// Packed multi-head attention weights (all row-major, `[out][in]` layout,
/// i.e. applied via x · Wᵀ like `torch.nn.Linear`).
pub struct AttentionWeights<'a> {
    /// `[3·dim, dim]` fused QKV projection.
    pub w_qkv: &'a [f32],
    /// `[3·dim]` QKV bias (may be empty).
    pub b_qkv: &'a [f32],
    /// `[dim, dim]` output projection.
    pub w_out: &'a [f32],
    /// `[dim]` output bias (may be empty).
    pub b_out: &'a [f32],
}

/// The attention core: `softmax(Q·Kᵀ / √head_dim) · V` per image and head,
/// over any number of images stacked row-wise. Q, K and V are read from the
/// `[seq, 3·dim]` rows of `qkv` where the fused projection left them
/// (`[q | k | v]`, head `h` at columns `h·head_dim..`) and head `h` is
/// written into its columns of `mixed`'s `[seq, dim]` rows.
///
/// The executor calls it once per chunk of whole images of a batch, so the
/// stack is that chunk, and `qkv` and `mixed` are the chunk's scratch rows.
/// Equal blocks of query rows — of the whole stack, so that a stack smaller
/// than the pool still fills it — fan out in one region; a block that spans
/// two images runs each image's part against that image's K and V. When
/// the executor's chunks are themselves the pool's tasks, the core runs on
/// one thread. No element's arithmetic depends on the split.
pub fn attention_core(qkv: &[f32], seq: usize, dim: usize, heads: usize, mixed: &mut [f32]) {
    assert_eq!(qkv.len(), mixed.len() * 3);
    if seq == 0 || dim == 0 {
        return;
    }
    assert_eq!(mixed.len() % (seq * dim), 0, "whole images");
    let head_dim = dim / heads;
    let scale = 1.0 / (head_dim as f32).sqrt();
    let ld = 3 * dim;
    let block = (mixed.len() / dim).div_ceil(max_threads());
    for_each_chunk_mut(mixed, block * dim, |blk, mixed| {
        crate::scratch::with_f32(block.min(seq) * seq, |scores| {
            let (mut row, mut rest) = (blk * block, mixed);
            while !rest.is_empty() {
                // This block's rows of the image `row` falls in.
                let rows = (seq - row % seq).min(rest.len() / dim);
                let (mixed, tail) = rest.split_at_mut(rows * dim);
                let image = &qkv[row / seq * seq * ld..][..seq * ld];
                let q = &qkv[row * ld..];
                let scores = &mut scores[..rows * seq];
                for off in (0..dim).step_by(head_dim) {
                    // scores = Q · Kᵀ / sqrt(d): [rows, seq]
                    let k = PanelSource::Transposed {
                        b: &image[dim + off..],
                        ldb: ld,
                    };
                    gemm_with(&q[off..], ld, k, scores, seq, rows, head_dim, seq);
                    for s in scores.iter_mut() {
                        *s *= scale;
                    }
                    softmax_rows(scores, seq);
                    // out = scores · V: [rows, head_dim]
                    let v = PanelSource::Dense {
                        b: &image[2 * dim + off..],
                        ldb: ld,
                    };
                    let out = &mut mixed[off..];
                    gemm_with(scores, seq, v, out, dim, rows, seq, head_dim);
                }
                (row, rest) = (row + rows, tail);
            }
        });
    });
}

/// Multi-head self-attention over a `[seq, dim]` sequence. Returns
/// `[seq, dim]`.
pub fn multi_head_attention(
    x: &[f32],
    seq: usize,
    dim: usize,
    heads: usize,
    w: &AttentionWeights<'_>,
) -> Vec<f32> {
    assert_eq!(x.len(), seq * dim);
    assert!(
        heads > 0 && dim.is_multiple_of(heads),
        "dim {dim} not divisible by heads {heads}"
    );
    assert_eq!(w.w_qkv.len(), 3 * dim * dim);
    assert_eq!(w.w_out.len(), dim * dim);
    // Fused QKV projection: [seq, 3·dim].
    let mut qkv = vec![0.0f32; seq * 3 * dim];
    gemm_bt(x, w.w_qkv, &mut qkv, seq, dim, 3 * dim);
    if !w.b_qkv.is_empty() {
        add_bias(&mut qkv, w.b_qkv);
    }
    let mut mixed = vec![0.0f32; seq * dim];
    attention_core(&qkv, seq, dim, heads, &mut mixed);
    // Output projection.
    let mut y = vec![0.0f32; seq * dim];
    gemm_bt(&mixed, w.w_out, &mut y, seq, dim, dim);
    if !w.b_out.is_empty() {
        add_bias(&mut y, w.b_out);
    }
    y
}

/// [`multi_head_attention`]; kept for `benchmark/` (see [`KernelVariant`]).
pub fn multi_head_attention_v(
    _variant: KernelVariant,
    x: &[f32],
    seq: usize,
    dim: usize,
    heads: usize,
    w: &AttentionWeights<'_>,
) -> Vec<f32> {
    multi_head_attention(x, seq, dim, heads, w)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(dim: usize) -> Vec<f32> {
        let mut m = vec![0.0f32; dim * dim];
        for i in 0..dim {
            m[i * dim + i] = 1.0;
        }
        m
    }

    /// QKV weight that maps x -> (q, k, v) all equal to x (three stacked
    /// identities), so attention degenerates to softmax-weighted averaging
    /// of the input rows.
    fn identity_qkv(dim: usize) -> Vec<f32> {
        let eye = identity(dim);
        let mut w = Vec::with_capacity(3 * dim * dim);
        for _ in 0..3 {
            w.extend_from_slice(&eye);
        }
        w
    }

    #[test]
    fn uniform_rows_attend_to_themselves_exactly() {
        // If all rows are identical, the attention-weighted average of V rows
        // equals any single row regardless of the softmax weights.
        let (seq, dim, heads) = (4, 8, 2);
        let row: Vec<f32> = (0..dim).map(|i| i as f32 * 0.1).collect();
        let x: Vec<f32> = (0..seq).flat_map(|_| row.clone()).collect();
        let w_qkv = identity_qkv(dim);
        let w_out = identity(dim);
        let weights = AttentionWeights {
            w_qkv: &w_qkv,
            b_qkv: &[],
            w_out: &w_out,
            b_out: &[],
        };
        let y = multi_head_attention(&x, seq, dim, heads, &weights);
        for s in 0..seq {
            for j in 0..dim {
                assert!((y[s * dim + j] - row[j]).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn output_rows_are_convex_combinations_of_values() {
        // With identity QKV/out, each output row is a softmax-weighted convex
        // combination of input rows — so it must lie inside the input range.
        let (seq, dim, heads) = (6, 4, 1);
        let x: Vec<f32> = (0..seq * dim)
            .map(|i| ((i * 37 % 17) as f32 / 17.0) * 2.0 - 1.0)
            .collect();
        let w_qkv = identity_qkv(dim);
        let w_out = identity(dim);
        let weights = AttentionWeights {
            w_qkv: &w_qkv,
            b_qkv: &[],
            w_out: &w_out,
            b_out: &[],
        };
        let y = multi_head_attention(&x, seq, dim, heads, &weights);
        for j in 0..dim {
            let col_min = (0..seq)
                .map(|s| x[s * dim + j])
                .fold(f32::INFINITY, f32::min);
            let col_max = (0..seq)
                .map(|s| x[s * dim + j])
                .fold(f32::NEG_INFINITY, f32::max);
            for s in 0..seq {
                let v = y[s * dim + j];
                assert!(
                    v >= col_min - 1e-5 && v <= col_max + 1e-5,
                    "row {s} col {j}: {v} outside [{col_min}, {col_max}]"
                );
            }
        }
    }

    #[test]
    fn heads_partition_matches_single_head_when_uniform() {
        // On identical rows the result is row-copy for any head count.
        let (seq, dim) = (3, 12);
        let row: Vec<f32> = (0..dim).map(|i| (i as f32).cos()).collect();
        let x: Vec<f32> = (0..seq).flat_map(|_| row.clone()).collect();
        let w_qkv = identity_qkv(dim);
        let w_out = identity(dim);
        let weights = AttentionWeights {
            w_qkv: &w_qkv,
            b_qkv: &[],
            w_out: &w_out,
            b_out: &[],
        };
        let y1 = multi_head_attention(&x, seq, dim, 1, &weights);
        let y3 = multi_head_attention(&x, seq, dim, 3, &weights);
        for (a, b) in y1.iter().zip(&y3) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn biases_are_applied() {
        let (seq, dim, heads) = (2, 4, 1);
        let x = vec![0.0f32; seq * dim];
        let w_qkv = vec![0.0f32; 3 * dim * dim];
        let w_out = identity(dim);
        // v-bias = 1s so every value row is all-ones; output bias adds 10.
        let mut b_qkv = vec![0.0f32; 3 * dim];
        for b in &mut b_qkv[2 * dim..] {
            *b = 1.0;
        }
        let b_out = vec![10.0f32; dim];
        let weights = AttentionWeights {
            w_qkv: &w_qkv,
            b_qkv: &b_qkv,
            w_out: &w_out,
            b_out: &b_out,
        };
        let y = multi_head_attention(&x, seq, dim, heads, &weights);
        assert!(y.iter().all(|&v| (v - 11.0).abs() < 1e-5), "{y:?}");
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn indivisible_heads_panics() {
        let weights = AttentionWeights {
            w_qkv: &[0.0; 3 * 9],
            b_qkv: &[],
            w_out: &[0.0; 9],
            b_out: &[],
        };
        multi_head_attention(&[0.0; 3], 1, 3, 2, &weights);
    }
}
