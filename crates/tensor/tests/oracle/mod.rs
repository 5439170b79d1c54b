//! `conv::im2col` as it stood before it became a row copy: the per-element
//! bounds-checked gather, verbatim (`conv_out_dim` repointed at the crate).
//! `kernel_conformance.rs` holds the shipped one to it bit for bit, so
//! nothing here may be "improved".

use harvest_tensor::conv::conv_out_dim;

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
