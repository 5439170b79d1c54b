//! `patch_embed_conv`: the executor's batched patch embedding before its
//! token GEMM, the body kept verbatim — a strided convolution with kernel =
//! stride = patch over the whole batch, then a per-image transpose of the
//! `[dim][n_patches]` planes into token rows 1..s, the cls token in row 0,
//! and the positional embedding added. Only the executor's bindings became
//! arguments (`weight` is the out-major `[dim][in_ch·p²]` conv weight) and
//! its arena buffers became `Vec`s.

use harvest_tensor::conv2d_into;

/// The `b` images of `x` (`[b, in_ch, h, w]`) embedded as `b` sequences of
/// `s = (h/patch)·(w/patch) + 1` rows of `dim`.
#[allow(clippy::too_many_arguments)]
pub fn patch_embed_conv(
    x: &[f32],
    weight: &[f32],
    bias: &[f32],
    cls: &[f32],
    pos: &[f32],
    b: usize,
    (in_ch, h, w): (usize, usize, usize),
    dim: usize,
    patch: usize,
) -> Vec<f32> {
    let (gh, gw) = (h / patch, w / patch);
    let n_patches = gh * gw;
    let (s, d) = (n_patches + 1, dim);
    // Strided conv with kernel = stride = patch, whole batch at
    // once, then per-image token rearrangement.
    let mut conv = vec![0.0f32; b * dim * n_patches];
    conv2d_into(
        x, weight, bias, b, in_ch, h, w, dim, patch, patch, 0, &mut conv,
    );
    let mut seq = vec![0.0f32; b * s * d];
    // Token rearrangement is a pure per-image transpose+add:
    // parallel over images, each task owning one sequence slice.
    harvest_threads::for_each_chunk_mut(&mut seq[..b * s * d], s * d, |img, seq_img| {
        let conv_img = &conv[img * dim * n_patches..(img + 1) * dim * n_patches];
        seq_img[..d].copy_from_slice(cls);
        for p in 0..n_patches {
            for c in 0..d {
                seq_img[(p + 1) * d + c] = conv_img[c * n_patches + p];
            }
        }
        for (v, p) in seq_img.iter_mut().zip(pos) {
            *v += p;
        }
    });
    seq
}
