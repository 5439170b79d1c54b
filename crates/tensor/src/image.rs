//! Image preprocessing kernels: layout conversion, bilinear resize, crops,
//! per-channel normalization and perspective warp.
//!
//! These are the executable counterparts of the Fig. 7 preprocessing stages:
//! torchvision-style resize/crop/normalize for the vision models, and the
//! OpenCV-style perspective transform the CRSA ground-vehicle feed needs.
//! All kernels operate on planar CHW f32 (model layout); the u8 HWC entry
//! points mirror decoded-image layout.

use harvest_threads::for_each_zipped_chunks;

/// Convert interleaved HWC u8 (decoded-image layout) to planar CHW f32 in
/// `[0, 1]`.
pub fn hwc_u8_to_chw(pixels: &[u8], h: usize, w: usize, channels: usize) -> Vec<f32> {
    assert_eq!(pixels.len(), h * w * channels);
    let mut out = vec![0.0f32; channels * h * w];
    for c in 0..channels {
        let plane = &mut out[c * h * w..(c + 1) * h * w];
        for (i, v) in plane.iter_mut().enumerate() {
            *v = pixels[i * channels + c] as f32 / 255.0;
        }
    }
    out
}

/// Convert planar CHW f32 in `[0, 1]` back to interleaved HWC u8 (clamping).
pub fn chw_to_hwc_u8(chw: &[f32], h: usize, w: usize, channels: usize) -> Vec<u8> {
    assert_eq!(chw.len(), channels * h * w);
    let mut out = vec![0u8; h * w * channels];
    for c in 0..channels {
        let plane = &chw[c * h * w..(c + 1) * h * w];
        for (i, &v) in plane.iter().enumerate() {
            out[i * channels + c] = (v.clamp(0.0, 1.0) * 255.0).round() as u8;
        }
    }
    out
}

/// Bilinear sampling along one axis resized from `n` to `out` samples
/// (align-corners=false, half-pixel centres — the torchvision default):
/// per output index, the two source indices and the weight of the second.
pub fn bilinear_taps(n: usize, out: usize) -> Vec<(usize, usize, f32)> {
    assert!(n > 0 && out > 0);
    let scale = n as f32 / out as f32;
    (0..out)
        .map(|o| {
            let f = ((o as f32 + 0.5) * scale - 0.5).clamp(0.0, (n - 1) as f32);
            let i0 = f.floor() as usize;
            (i0, (i0 + 1).min(n - 1), f - i0 as f32)
        })
        .collect()
}

/// Bilinear resize of a CHW image to `oh × ow` (see [`bilinear_taps`]).
pub fn resize_bilinear(
    input: &[f32],
    channels: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
) -> Vec<f32> {
    assert_eq!(input.len(), channels * h * w);
    let mut out = vec![0.0f32; channels * oh * ow];
    let (ys, xs) = (bilinear_taps(h, oh), bilinear_taps(w, ow));
    let per_plane = |(plane_in, plane_out): (&[f32], &mut [f32])| {
        for (row_out, &(y0, y1, wy)) in plane_out.chunks_exact_mut(ow).zip(&ys) {
            for (v, &(x0, x1, wx)) in row_out.iter_mut().zip(&xs) {
                let p00 = plane_in[y0 * w + x0];
                let p01 = plane_in[y0 * w + x1];
                let p10 = plane_in[y1 * w + x0];
                let p11 = plane_in[y1 * w + x1];
                let top = p00 * (1.0 - wx) + p01 * wx;
                let bot = p10 * (1.0 - wx) + p11 * wx;
                *v = top * (1.0 - wy) + bot * wy;
            }
        }
    };
    if channels * oh * ow >= 1 << 18 {
        for_each_zipped_chunks(input, h * w, &mut out, oh * ow, |_, i, o| per_plane((i, o)));
    } else {
        input
            .chunks_exact(h * w)
            .zip(out.chunks_exact_mut(oh * ow))
            .for_each(per_plane);
    }
    out
}

/// A decoded image straight to model input: interleaved HWC u8 → `[0, 1]`
/// → bilinear resize to `oh × ow` → per-channel `(x - mean) / std` → planar
/// CHW f32, one channel per `mean` entry. Bit-identical to [`hwc_u8_to_chw`]
/// → [`resize_bilinear`] (or not, at the same size: identity taps weigh the
/// second sample by exactly 0) → [`normalize_chw`], but it reads only the at
/// most `4·oh·ow` source pixels the taps name and builds no full-size floats.
pub fn resize_normalize_hwc_u8(
    pixels: &[u8],
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    mean: &[f32],
    std: &[f32],
) -> Vec<f32> {
    let channels = mean.len();
    assert_eq!(std.len(), channels);
    assert_eq!(pixels.len(), h * w * channels);
    let unit: [f32; 256] = std::array::from_fn(|v| v as f32 / 255.0);
    let (ys, xs) = (bilinear_taps(h, oh), bilinear_taps(w, ow));
    let mut out = vec![0.0f32; channels * oh * ow];
    for (c, plane) in out.chunks_exact_mut(oh * ow).enumerate() {
        let (mean, inv) = (mean[c], 1.0 / std[c]);
        for (row_out, &(y0, y1, wy)) in plane.chunks_exact_mut(ow).zip(&ys) {
            // Channel `c` of a source row: sample `x` is at `x * channels`.
            let row0 = &pixels[y0 * w * channels + c..];
            let row1 = &pixels[y1 * w * channels + c..];
            let p = |row: &[u8], x: usize| unit[row[x * channels] as usize];
            for (v, &(x0, x1, wx)) in row_out.iter_mut().zip(&xs) {
                let top = p(row0, x0) * (1.0 - wx) + p(row0, x1) * wx;
                let bot = p(row1, x0) * (1.0 - wx) + p(row1, x1) * wx;
                *v = (top * (1.0 - wy) + bot * wy - mean) * inv;
            }
        }
    }
    out
}

/// Per-channel `(x - mean) / std` normalization of a CHW image, in place.
pub fn normalize_chw(x: &mut [f32], channels: usize, mean: &[f32], std: &[f32]) {
    assert_eq!(mean.len(), channels);
    assert_eq!(std.len(), channels);
    assert!(x.len().is_multiple_of(channels));
    let spatial = x.len() / channels;
    for (c, plane) in x.chunks_exact_mut(spatial).enumerate() {
        let inv = 1.0 / std[c];
        let m = mean[c];
        for v in plane.iter_mut() {
            *v = (*v - m) * inv;
        }
    }
}

/// A 3×3 projective transform (row-major), mapping output pixel coordinates
/// to source coordinates — the OpenCV `warpPerspective` convention with
/// `WARP_INVERSE_MAP`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Homography(pub [f32; 9]);

impl Homography {
    /// Identity transform.
    pub fn identity() -> Self {
        Homography([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    }

    /// The bird's-eye correction a forward-tilted ground-vehicle camera
    /// needs: rows nearer the horizon sample a wider source strip. `k`
    /// controls tilt strength (0 = identity), heights are of the *output*.
    pub fn ground_vehicle_tilt(k: f32, out_h: usize) -> Self {
        // Perspective term along y: x' = x + k·shear, w' = 1 + k·y/out_h.
        Homography([
            1.0,
            0.0,
            0.0,
            0.0,
            1.0,
            0.0,
            0.0,
            k / out_h.max(1) as f32,
            1.0,
        ])
    }

    /// Map an output (x, y) to source coordinates.
    #[inline]
    pub(crate) fn apply(&self, x: f32, y: f32) -> (f32, f32) {
        let m = &self.0;
        let sx = m[0] * x + m[1] * y + m[2];
        let sy = m[3] * x + m[4] * y + m[5];
        let sw = m[6] * x + m[7] * y + m[8];
        let inv = if sw.abs() < 1e-12 { 0.0 } else { 1.0 / sw };
        (sx * inv, sy * inv)
    }
}

/// Perspective-warp a CHW image into an `oh × ow` output using bilinear
/// sampling; out-of-source samples are zero.
pub fn perspective_warp(
    input: &[f32],
    channels: usize,
    h: usize,
    w: usize,
    oh: usize,
    ow: usize,
    homography: &Homography,
) -> Vec<f32> {
    assert_eq!(input.len(), channels * h * w);
    let mut out = vec![0.0f32; channels * oh * ow];
    let per_plane = |(plane_in, plane_out): (&[f32], &mut [f32])| {
        for oy in 0..oh {
            for ox in 0..ow {
                let (fx, fy) = homography.apply(ox as f32, oy as f32);
                if fx < 0.0 || fy < 0.0 || fx > (w - 1) as f32 || fy > (h - 1) as f32 {
                    continue; // stays zero
                }
                let x0 = fx.floor() as usize;
                let y0 = fy.floor() as usize;
                let x1 = (x0 + 1).min(w - 1);
                let y1 = (y0 + 1).min(h - 1);
                let wx = fx - x0 as f32;
                let wy = fy - y0 as f32;
                let top = plane_in[y0 * w + x0] * (1.0 - wx) + plane_in[y0 * w + x1] * wx;
                let bot = plane_in[y1 * w + x0] * (1.0 - wx) + plane_in[y1 * w + x1] * wx;
                plane_out[oy * ow + ox] = top * (1.0 - wy) + bot * wy;
            }
        }
    };
    if channels * oh * ow >= 1 << 18 {
        for_each_zipped_chunks(input, h * w, &mut out, oh * ow, |_, i, o| per_plane((i, o)));
    } else {
        input
            .chunks_exact(h * w)
            .zip(out.chunks_exact_mut(oh * ow))
            .for_each(per_plane);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwc_chw_round_trip() {
        let (h, w, c) = (3, 4, 3);
        let pixels: Vec<u8> = (0..h * w * c).map(|i| (i * 7 % 256) as u8).collect();
        let chw = hwc_u8_to_chw(&pixels, h, w, c);
        let back = chw_to_hwc_u8(&chw, h, w, c);
        assert_eq!(back, pixels);
    }

    #[test]
    fn chw_layout_is_planar() {
        // 1x2 image, RGB: pixel0=(255,0,0), pixel1=(0,255,0)
        let pixels = vec![255, 0, 0, 0, 255, 0];
        let chw = hwc_u8_to_chw(&pixels, 1, 2, 3);
        assert_eq!(chw, vec![1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn resize_identity_when_same_size() {
        let input: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let out = resize_bilinear(&input, 1, 3, 4, 3, 4);
        for (a, b) in input.iter().zip(&out) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn resize_constant_image_stays_constant() {
        let input = vec![0.7f32; 3 * 10 * 10];
        let out = resize_bilinear(&input, 3, 10, 10, 7, 13);
        assert!(out.iter().all(|&v| (v - 0.7).abs() < 1e-6));
    }

    #[test]
    fn resize_2x_upsample_of_gradient_preserves_mean() {
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let out = resize_bilinear(&input, 1, 4, 4, 8, 8);
        let mean_in: f32 = input.iter().sum::<f32>() / 16.0;
        let mean_out: f32 = out.iter().sum::<f32>() / 64.0;
        assert!((mean_in - mean_out).abs() < 0.3, "{mean_in} vs {mean_out}");
    }

    #[test]
    fn resize_values_within_input_range() {
        let input: Vec<f32> = (0..100).map(|i| ((i * 31) % 17) as f32).collect();
        let out = resize_bilinear(&input, 1, 10, 10, 23, 5);
        let lo = input.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = input.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(out.iter().all(|&v| v >= lo - 1e-5 && v <= hi + 1e-5));
    }

    #[test]
    fn fused_u8_transform_equals_the_three_passes() {
        let (h, w) = (9, 14);
        let pixels: Vec<u8> = (0..h * w * 3).map(|i| (i * 37 % 256) as u8).collect();
        let (mean, std) = ([0.5, 0.4, 0.3], [0.2, 0.25, 0.3]);
        for (oh, ow) in [(4, 5), (20, 31), (h, w), (1, 1)] {
            let mut want = resize_bilinear(&hwc_u8_to_chw(&pixels, h, w, 3), 3, h, w, oh, ow);
            normalize_chw(&mut want, 3, &mean, &std);
            let got = resize_normalize_hwc_u8(&pixels, h, w, oh, ow, &mean, &std);
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(got.len(), want.len(), "{oh}x{ow}");
        }
    }

    #[test]
    fn taps_stay_in_range_and_identity_taps_carry_no_weight() {
        for (n, out) in [(1, 7), (10, 3), (3, 10), (512, 16)] {
            for (i0, i1, wt) in bilinear_taps(n, out) {
                assert!(i0 <= i1 && i1 < n && (0.0..1.0).contains(&wt), "{n}->{out}");
            }
        }
        assert!(bilinear_taps(9, 9)
            .iter()
            .enumerate()
            .all(|(o, &(i0, _, wt))| i0 == o && wt == 0.0));
    }

    #[test]
    fn normalize_imagenet_style() {
        let mut x = vec![0.5f32; 2 * 4];
        normalize_chw(&mut x, 2, &[0.5, 0.25], &[0.5, 0.25]);
        assert!(x[..4].iter().all(|&v| v.abs() < 1e-6));
        assert!(x[4..].iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn identity_warp_is_noop() {
        let input: Vec<f32> = (0..25).map(|i| (i as f32).sin()).collect();
        let out = perspective_warp(&input, 1, 5, 5, 5, 5, &Homography::identity());
        for (a, b) in input.iter().zip(&out) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn translation_shifts_content() {
        // Source lookup at (x+1, y): output col j shows input col j+1.
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let shift = Homography([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
        let out = perspective_warp(&input, 1, 4, 4, 4, 4, &shift);
        assert!((out[0] - 1.0).abs() < 1e-5);
        assert!((out[1] - 2.0).abs() < 1e-5);
        // Column 3 maps to source column 4: out of bounds -> zero.
        assert_eq!(out[3], 0.0);
    }

    #[test]
    fn tilt_warp_preserves_range_and_hits_source() {
        let input = vec![1.0f32; 64 * 64];
        let hmg = Homography::ground_vehicle_tilt(0.5, 64);
        let out = perspective_warp(&input, 1, 64, 64, 64, 64, &hmg);
        // All in-bounds samples of a constant image are that constant.
        let nonzero = out.iter().filter(|&&v| v > 0.0).count();
        assert!(nonzero > 64 * 64 / 2, "most samples should land in-bounds");
        assert!(out.iter().all(|&v| v <= 1.0 + 1e-6));
    }
}
