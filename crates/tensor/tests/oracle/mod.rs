//! Kernels as they stood before they were rewritten, verbatim, for the
//! differential suites: nothing here may be "improved".
//!
//! * `im2col` before it became a row copy: the per-element bounds-checked
//!   gather (`conv_out_dim` repointed at the crate). `kernel_conformance.rs`
//!   holds the shipped one to it bit for bit.
//! * `gelu`, `softmax_rows` and `layernorm` as they were while libm's `tanhf`
//!   and `expf` and a serial `sum += v` were inside them. `transcendentals.rs`
//!   holds the shipped ones to these within a tolerance; their bits depend on
//!   the host's libm, which is why they were replaced.
//! * `relu` while it was a conditional store, and `max_pool2d` /
//!   `avg_pool2d_global` while every tap was bounds-tested and each forward
//!   got a fresh `Vec`. `transcendentals.rs` and `kernel_conformance.rs`
//!   hold the shipped ones to these bit for bit.
//! * `gemm::gemm_blocked_acc_body`, the unfused 4-way-group GEMM loop body
//!   every fingerprint was pinned to before the FMA chain replaced it.
//!   `kernel_conformance.rs` holds the shipped kernel within `1e-5·k` of it.

#![allow(dead_code)]

pub mod gemm;

use harvest_tensor::conv::conv_out_dim;
use harvest_threads::for_each_chunk_mut;

/// Lay out input patches as columns: output is `[cin·k·k] × [oh·ow]`.
#[allow(clippy::too_many_arguments)]
pub fn im2col(
    input: &[f32],
    cin: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    out: &mut [f32],
) {
    let oh = conv_out_dim(h, kernel, stride, pad);
    let ow = conv_out_dim(w, kernel, stride, pad);
    assert_eq!(out.len(), cin * kernel * kernel * oh * ow);
    for c in 0..cin {
        let plane = &input[c * h * w..(c + 1) * h * w];
        for ky in 0..kernel {
            for kx in 0..kernel {
                let row = ((c * kernel + ky) * kernel + kx) * oh * ow;
                for oy in 0..oh {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    let out_row = &mut out[row + oy * ow..row + (oy + 1) * ow];
                    if iy < 0 || iy >= h as isize {
                        out_row.fill(0.0);
                        continue;
                    }
                    let iy = iy as usize;
                    for (ox, slot) in out_row.iter_mut().enumerate() {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        *slot = if ix < 0 || ix >= w as isize {
                            0.0
                        } else {
                            plane[iy * w + ix as usize]
                        };
                    }
                }
            }
        }
    }
}

/// In-place tanh-approximation GELU (the approximation PyTorch ships for
/// ViTs; exact-erf differences are ~1e-3 and irrelevant here).
pub fn gelu(x: &mut [f32]) {
    const C: f32 = 0.797_884_6; // sqrt(2/pi)
    for v in x.iter_mut() {
        let x3 = *v * *v * *v;
        *v = 0.5 * *v * (1.0 + (C * (*v + 0.044715 * x3)).tanh());
    }
}

/// Numerically-stable softmax over each row of a `rows × cols` matrix.
pub fn softmax_rows(x: &mut [f32], cols: usize) {
    assert!(cols > 0 && x.len().is_multiple_of(cols));
    let apply = |row: &mut [f32]| {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    };
    if x.len() >= 1 << 16 {
        for_each_chunk_mut(x, cols, |_, row| apply(row));
    } else {
        x.chunks_exact_mut(cols).for_each(apply);
    }
}

/// LayerNorm over the last dimension of a `rows × d` matrix, with affine
/// gamma/beta parameters.
pub fn layernorm(x: &mut [f32], d: usize, gamma: &[f32], beta: &[f32], eps: f32) {
    assert!(d > 0 && x.len().is_multiple_of(d));
    assert_eq!(gamma.len(), d);
    assert_eq!(beta.len(), d);
    let apply = |row: &mut [f32]| {
        let mean = row.iter().sum::<f32>() / d as f32;
        let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / d as f32;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (j, v) in row.iter_mut().enumerate() {
            *v = (*v - mean) * inv_std * gamma[j] + beta[j];
        }
    };
    if x.len() >= 1 << 16 {
        for_each_chunk_mut(x, d, |_, row| apply(row));
    } else {
        x.chunks_exact_mut(d).for_each(apply);
    }
}

/// In-place ReLU.
pub fn relu(x: &mut [f32]) {
    for v in x.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Max pooling over an NCHW batch. Padding is `-inf`-semantics (ignored).
#[allow(clippy::too_many_arguments)]
pub fn max_pool2d(
    input: &[f32],
    n: usize,
    c: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    assert_eq!(input.len(), n * c * h * w);
    let oh = conv_out_dim(h, kernel, stride, pad);
    let ow = conv_out_dim(w, kernel, stride, pad);
    let mut out = vec![0.0f32; n * c * oh * ow];
    for (plane_in, plane_out) in input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = f32::NEG_INFINITY;
                for ky in 0..kernel {
                    let iy = (oy * stride + ky) as isize - pad as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..kernel {
                        let ix = (ox * stride + kx) as isize - pad as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        let v = plane_in[iy as usize * w + ix as usize];
                        if v > best {
                            best = v;
                        }
                    }
                }
                plane_out[oy * ow + ox] = best;
            }
        }
    }
    out
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`.
pub fn avg_pool2d_global(input: &[f32], n: usize, c: usize, h: usize, w: usize) -> Vec<f32> {
    assert_eq!(input.len(), n * c * h * w);
    let spatial = h * w;
    assert!(spatial > 0);
    let mut out = vec![0.0f32; n * c];
    for (i, plane) in input.chunks_exact(spatial).enumerate() {
        out[i] = plane.iter().sum::<f32>() / spatial as f32;
    }
    out
}
