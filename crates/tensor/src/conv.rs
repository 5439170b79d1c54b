//! Convolution as an implicit GEMM, and pooling.
//!
//! A conv is the GEMM `[cout] × [cin·k·k] · [cin·k·k] × [oh·ow]`, which is
//! how the paper's engines (cuDNN/TensorRT implicit GEMM) treat it and what
//! keeps our host kernels and the analytic FLOPs model in exact agreement.
//! The `[cin·k·k] × [oh·ow]` column matrix is never built: the blocked
//! kernel packs each panel of it straight from the image planes
//! ([`PanelSource::Im2col`]). [`im2col`] writes the same matrix out for the
//! tests.

use crate::gemm::{gemm_with, KernelVariant, PanelSource};
use harvest_threads::for_each_zipped_chunks;

/// Shape of a conv output for given input spatial size and geometry.
pub fn conv_out_dim(in_dim: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    assert!(stride > 0);
    (in_dim + 2 * pad).saturating_sub(kernel) / stride + 1
}

/// Lay out input patches as columns: output is `[cin·k·k] × [oh·ow]`, the
/// matrix [`PanelSource::Im2col`] stands for, written by its pack loop. The
/// conformance suite's materializer; no forward path calls it.
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
    let columns = conv_out_dim(h, kernel, stride, pad) * conv_out_dim(w, kernel, stride, pad);
    assert_eq!(input.len(), cin * h * w);
    assert_eq!(out.len(), cin * kernel * kernel * columns);
    let source = PanelSource::Im2col {
        input,
        cin,
        h,
        w,
        kernel,
        stride,
        pad,
    };
    source.pack(0, 0, columns, out, columns);
}

/// 2-D convolution over an NCHW batch.
///
/// * `input`  — `[n, cin, h, w]`
/// * `weight` — `[cout, cin, k, k]`
/// * `bias`   — `[cout]` or empty
///
/// Returns `[n, cout, oh, ow]`. Images in the batch are processed in
/// parallel (each worker owns one output image).
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

    // One task per image; a single image runs on the caller, outside any
    // pool region, so its GEMM is free to split rows across the pool.
    let (in_len, out_len) = (cin * h * w, cout * out_spatial);
    for_each_zipped_chunks(input, in_len, output, out_len, |_, input, img_out| {
        // A 1×1 / stride-1 / pad-0 conv's column matrix is the input planes
        // themselves (`[cin] × [h·w]`).
        let b = if kernel == 1 && stride == 1 && pad == 0 {
            let ldb = out_spatial;
            PanelSource::Dense { b: input, ldb }
        } else {
            PanelSource::Im2col {
                input,
                cin,
                h,
                w,
                kernel,
                stride,
                pad,
            }
        };
        let (rows, cols) = (col_rows, out_spatial);
        gemm_with(weight, rows, b, img_out, cols, cout, rows, cols);
        for (plane, b) in img_out.chunks_exact_mut(out_spatial).zip(bias) {
            for v in plane.iter_mut() {
                *v += b;
            }
        }
    });
}

/// Max pooling over an NCHW batch into `out` (`n·c·oh·ow`). Padding is
/// `-inf`-semantics (ignored): each output clips its window to the image
/// once and then takes the taps that are left, in row-major order, with no
/// test per tap.
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
    out: &mut [f32],
) {
    assert_eq!(input.len(), n * c * h * w);
    let oh = conv_out_dim(h, kernel, stride, pad);
    let ow = conv_out_dim(w, kernel, stride, pad);
    assert_eq!(out.len(), n * c * oh * ow);
    // The taps of output `o` that land on a `size`-long axis of the image.
    let taps = |o: usize, size: usize| {
        pad.saturating_sub(o * stride)..kernel.min((size + pad).saturating_sub(o * stride))
    };
    for (plane_in, plane_out) in input.chunks_exact(h * w).zip(out.chunks_exact_mut(oh * ow)) {
        for (oy, line_out) in plane_out.chunks_exact_mut(ow).enumerate() {
            let ys = taps(oy, h);
            for (ox, slot) in line_out.iter_mut().enumerate() {
                let xs = taps(ox, w);
                let first = ox * stride + xs.start - pad;
                let mut best = f32::NEG_INFINITY;
                for ky in ys.clone() {
                    let line = &plane_in[(oy * stride + ky - pad) * w..][..w];
                    for &v in line.get(first..first + xs.len()).unwrap_or(&[]) {
                        if v > best {
                            best = v;
                        }
                    }
                }
                *slot = best;
            }
        }
    }
}

/// Global average pooling: `[n, c, h, w] -> [n, c]`, into `out`.
pub fn avg_pool2d_global(input: &[f32], n: usize, c: usize, h: usize, w: usize, out: &mut [f32]) {
    assert_eq!(input.len(), n * c * h * w);
    assert_eq!(out.len(), n * c);
    let spatial = h * w;
    assert!(spatial > 0);
    for (slot, plane) in out.iter_mut().zip(input.chunks_exact(spatial)) {
        *slot = plane.iter().sum::<f32>() / spatial as f32;
    }
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
        let mut out = [0.0f32; 4];
        max_pool2d(&input, 1, 1, 4, 4, 2, 2, 0, &mut out);
        assert_eq!(out, [4.0, 8.0, 12.0, 16.0]);
    }

    #[test]
    fn maxpool_padding_ignored() {
        let input = vec![-5.0f32; 4];
        let mut out = [0.0f32; 4];
        max_pool2d(&input, 1, 1, 2, 2, 3, 1, 1, &mut out);
        // Every window sees only real (negative) values, never the pad.
        assert!(out.iter().all(|&v| v == -5.0));
    }

    #[test]
    fn global_avg_pool() {
        let input = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let mut out = [0.0f32; 2];
        avg_pool2d_global(&input, 1, 2, 2, 2, &mut out);
        assert_eq!(out, [2.5, 25.0]);
    }
}
