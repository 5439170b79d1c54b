//! Convolution and pooling via im2col + GEMM.
//!
//! im2col is how the paper's engines (cuDNN/TensorRT implicit GEMM) treat
//! convolution computationally — a conv is a GEMM of shape
//! `[cout] × [cin·k·k] · [cin·k·k] × [oh·ow]` — so building it this way keeps
//! our host kernels and the analytic FLOPs model in exact agreement.

use crate::gemm::{gemm, KernelVariant};
use harvest_threads::for_each_zipped_chunks;

/// Shape of a conv output for given input spatial size and geometry.
pub fn conv_out_dim(in_dim: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0);
    (in_dim + 2 * pad).saturating_sub(kernel) / stride + 1
}

/// Lay out input patches as columns: output is `[cin·k·k] × [oh·ow]`.
///
/// Row `(c, ky, kx)` of the column matrix is, per output line `oy`, one
/// stretch of input line `oy·stride + ky − pad` starting at `kx − pad`,
/// every `stride`-th pixel, with zeros where that runs off the image. The
/// stretch that stays inside depends on `kx` alone, so it is found once per
/// row and each line is a border fill plus a copy (stride 1) or a strided
/// walk.
#[doc(hidden)]
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
    assert_eq!(input.len(), cin * h * w);
    assert_eq!(out.len(), cin * kernel * kernel * oh * ow);
    for c in 0..cin {
        let plane = &input[c * h * w..(c + 1) * h * w];
        for ky in 0..kernel {
            for kx in 0..kernel {
                let row = ((c * kernel + ky) * kernel + kx) * oh * ow;
                // Output columns lo..hi read inside the line:
                // 0 <= ox·stride + kx − pad < w.
                let lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
                let hi = (w + pad).saturating_sub(kx).div_ceil(stride).clamp(lo, ow);
                for oy in 0..oh {
                    let out_row = &mut out[row + oy * ow..row + (oy + 1) * ow];
                    let iy = oy * stride + ky;
                    if iy < pad || iy - pad >= h || lo == hi {
                        out_row.fill(0.0);
                        continue;
                    }
                    let line = &plane[(iy - pad) * w..(iy - pad + 1) * w];
                    let first = lo * stride + kx - pad;
                    out_row[..lo].fill(0.0);
                    out_row[hi..].fill(0.0);
                    if stride == 1 {
                        out_row[lo..hi].copy_from_slice(&line[first..first + (hi - lo)]);
                    } else {
                        let taps = line[first..].iter().step_by(stride);
                        for (slot, &v) in out_row[lo..hi].iter_mut().zip(taps) {
                            *slot = v;
                        }
                    }
                }
            }
        }
    }
}

/// 2-D convolution over an NCHW batch.
///
/// * `input`  — `[n, cin, h, w]`
/// * `weight` — `[cout, cin, k, k]`
/// * `bias`   — `[cout]` or empty
///
/// Returns `[n, cout, oh, ow]`. Images in the batch are processed in
/// parallel (each worker owns one output image and one im2col scratch
/// buffer).
#[allow(clippy::too_many_arguments)]
pub fn conv2d(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    let oh = conv_out_dim(h, kernel, stride, pad);
    let ow = conv_out_dim(w, kernel, stride, pad);
    let mut output = vec![0.0f32; n * cout * oh * ow];
    conv2d_into(
        input,
        weight,
        bias,
        n,
        cin,
        h,
        w,
        cout,
        kernel,
        stride,
        pad,
        &mut output,
    );
    output
}

/// [`conv2d`]; kept for `benchmark/` (see [`KernelVariant`]).
#[allow(clippy::too_many_arguments)]
pub fn conv2d_v(
    _variant: KernelVariant,
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
) -> Vec<f32> {
    conv2d(input, weight, bias, n, cin, h, w, cout, kernel, stride, pad)
}

/// [`conv2d`] writing into a caller-provided output buffer of
/// `n·cout·oh·ow` elements — lets batched executors recycle activation
/// buffers instead of allocating per layer.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_into(
    input: &[f32],
    weight: &[f32],
    bias: &[f32],
    n: usize,
    cin: usize,
    h: usize,
    w: usize,
    cout: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    output: &mut [f32],
) {
    assert_eq!(input.len(), n * cin * h * w, "input shape");
    assert_eq!(weight.len(), cout * cin * kernel * kernel, "weight shape");
    assert!(bias.is_empty() || bias.len() == cout, "bias shape");
    let oh = conv_out_dim(h, kernel, stride, pad);
    let ow = conv_out_dim(w, kernel, stride, pad);
    let col_rows = cin * kernel * kernel;
    let out_spatial = oh * ow;
    assert_eq!(output.len(), n * cout * out_spatial, "output shape");
    if out_spatial == 0 || cout == 0 || n == 0 {
        return;
    }

    // A 1×1 / stride-1 / pad-0 conv's column matrix is the input planes
    // themselves (`[cin] × [h·w]`), so it needs no im2col.
    let pointwise = kernel == 1 && stride == 1 && pad == 0;
    let per_image = |img_in: &[f32], img_out: &mut [f32]| {
        if pointwise {
            gemm(weight, img_in, img_out, cout, cin, out_spatial);
        } else {
            crate::scratch::with_f32(col_rows * out_spatial, |col| {
                im2col(img_in, cin, h, w, kernel, stride, pad, col);
                gemm(weight, col, img_out, cout, col_rows, out_spatial);
            });
        }
        if !bias.is_empty() {
            for (c, plane) in img_out.chunks_exact_mut(out_spatial).enumerate() {
                let b = bias[c];
                for v in plane.iter_mut() {
                    *v += b;
                }
            }
        }
    };

    // One task per image; a single image runs on the caller, outside any
    // pool region, so its GEMM is free to split rows across the pool.
    let (in_len, out_len) = (cin * h * w, cout * out_spatial);
    for_each_zipped_chunks(input, in_len, output, out_len, |_, i, o| per_image(i, o));
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn out_dim_formula() {
        assert_eq!(conv_out_dim(224, 7, 2, 3), 112);
        assert_eq!(conv_out_dim(56, 3, 1, 1), 56);
        assert_eq!(conv_out_dim(56, 1, 1, 0), 56);
        assert_eq!(conv_out_dim(112, 3, 2, 1), 56);
        assert_eq!(conv_out_dim(5, 3, 1, 0), 3);
    }

    #[test]
    fn identity_kernel_passthrough() {
        // 1x1 conv with identity weight = copy.
        let input: Vec<f32> = (0..9).map(|i| i as f32).collect();
        let out = conv2d(&input, &[1.0], &[], 1, 1, 3, 3, 1, 1, 1, 0);
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_sum_kernel() {
        // All-ones 3x3 kernel over all-ones 3x3 input, pad 1: centre sees 9,
        // edges 6, corners 4.
        let input = vec![1.0f32; 9];
        let weight = vec![1.0f32; 9];
        let out = conv2d(&input, &weight, &[], 1, 1, 3, 3, 1, 3, 1, 1);
        assert_eq!(out.len(), 9);
        assert_eq!(out[4], 9.0);
        assert_eq!(out[1], 6.0);
        assert_eq!(out[0], 4.0);
    }

    #[test]
    fn stride_downsamples() {
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let out = conv2d(&input, &[1.0], &[], 1, 1, 4, 4, 1, 1, 2, 0);
        assert_eq!(out, vec![0.0, 2.0, 8.0, 10.0]);
    }

    #[test]
    fn bias_is_added_per_channel() {
        let input = vec![0.0f32; 4];
        let weight = vec![0.0f32; 2]; // two 1x1 output channels
        let out = conv2d(&input, &weight, &[3.0, -1.0], 1, 1, 2, 2, 2, 1, 1, 0);
        assert_eq!(&out[..4], &[3.0; 4]);
        assert_eq!(&out[4..], &[-1.0; 4]);
    }

    #[test]
    fn multi_channel_sums_over_input_channels() {
        // Two input channels, 1x1 kernel with weights [2, 3].
        let input = vec![1.0, 1.0, 1.0, 1.0, 10.0, 10.0, 10.0, 10.0];
        let weight = vec![2.0, 3.0];
        let out = conv2d(&input, &weight, &[], 1, 2, 2, 2, 1, 1, 1, 0);
        assert!(out.iter().all(|&v| (v - 32.0).abs() < 1e-6));
    }

    #[test]
    fn batch_matches_per_image() {
        let img0: Vec<f32> = (0..27).map(|i| i as f32 * 0.1).collect();
        let img1: Vec<f32> = (0..27).map(|i| (27 - i) as f32 * 0.1).collect();
        let weight: Vec<f32> = (0..4 * 3).map(|i| (i as f32 * 0.01).sin()).collect();
        // cin=3, 3x3 input, cout=4, k=1
        let batched: Vec<f32> = conv2d(
            &[img0.clone(), img1.clone()].concat(),
            &weight,
            &[],
            2,
            3,
            3,
            3,
            4,
            1,
            1,
            0,
        );
        let solo0 = conv2d(&img0, &weight, &[], 1, 3, 3, 3, 4, 1, 1, 0);
        let solo1 = conv2d(&img1, &weight, &[], 1, 3, 3, 3, 4, 1, 1, 0);
        assert_eq!(&batched[..solo0.len()], &solo0[..]);
        assert_eq!(&batched[solo0.len()..], &solo1[..]);
    }

    #[test]
    fn maxpool_known() {
        let input = vec![
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            9.0, 10.0, 13.0, 14.0, //
            11.0, 12.0, 15.0, 16.0,
        ];
        let out = max_pool2d(&input, 1, 1, 4, 4, 2, 2, 0);
        assert_eq!(out, vec![4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_padding_ignored() {
        let input = vec![-5.0f32; 4];
        let out = max_pool2d(&input, 1, 1, 2, 2, 3, 1, 1);
        // Every window sees only real (negative) values, never the pad.
        assert!(out.iter().all(|&v| v == -5.0));
    }

    #[test]
    fn global_avg_pool() {
        let input = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let out = avg_pool2d_global(&input, 1, 2, 2, 2);
        assert_eq!(out, vec![2.5, 25.0]);
    }
}
