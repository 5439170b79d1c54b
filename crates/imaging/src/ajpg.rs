//! AJPG: a baseline-JPEG-style lossy codec.
//!
//! Pipeline (encode): RGB → YCbCr → optional 4:2:0 chroma subsampling →
//! per-plane 8×8 DCT → quality-scaled quantization → zigzag scan →
//! DC-delta + AC run-length → exp-Golomb entropy coding.
//!
//! The format is *not* wire-compatible with JPEG (it uses exp-Golomb rather
//! than Huffman tables), but its computational profile is the same: decode
//! cost scales with pixel count and block activity, which is exactly the
//! property the Fig. 7 preprocessing characterization depends on.

use crate::bitio::{read_u32_le, BitReader, BitWriter};
use crate::dct::{dct2_8x8, idct2_8x8_dc, idct2_8x8_sparse, ZIGZAG};
use crate::image::RgbImage;

const MAGIC: &[u8; 4] = b"AJPG";

/// Largest per-axis dimension the decoder will allocate for. A corrupt
/// header can claim up to 4 Gpx per axis; anything past survey-stitch
/// scale is rejected before any plane is allocated.
const MAX_DIM: usize = 1 << 14;

/// Largest total pixel count the decoder will allocate for (~16 Mpx —
/// three f32 planes ≈ 200 MiB, the ceiling of what a decode is allowed to
/// cost).
const MAX_PIXELS: usize = 1 << 24;

/// Encoder options.
#[derive(Clone, Copy, Debug)]
pub struct AjpgOptions {
    /// Quality 1–100 (higher = larger & more faithful).
    pub quality: u8,
    /// 4:2:0 chroma subsampling.
    pub subsample: bool,
}

impl Default for AjpgOptions {
    fn default() -> Self {
        AjpgOptions {
            quality: 85,
            subsample: true,
        }
    }
}

/// Standard JPEG luminance quantization table (Annex K).
const Q_LUMA: [u16; 64] = [
    16, 11, 10, 16, 24, 40, 51, 61, 12, 12, 14, 19, 26, 58, 60, 55, 14, 13, 16, 24, 40, 57, 69, 56,
    14, 17, 22, 29, 51, 87, 80, 62, 18, 22, 37, 56, 68, 109, 103, 77, 24, 35, 55, 64, 81, 104, 113,
    92, 49, 64, 78, 87, 103, 121, 120, 101, 72, 92, 95, 98, 112, 100, 103, 99,
];

/// Standard JPEG chrominance quantization table.
const Q_CHROMA: [u16; 64] = [
    17, 18, 24, 47, 99, 99, 99, 99, 18, 21, 26, 66, 99, 99, 99, 99, 24, 26, 56, 99, 99, 99, 99, 99,
    47, 66, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
    99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99, 99,
];

/// Scale a base table by quality (libjpeg's convention).
fn scaled_table(base: &[u16; 64], quality: u8) -> [u16; 64] {
    let q = quality.clamp(1, 100) as u32;
    let scale = if q < 50 { 5000 / q } else { 200 - 2 * q };
    let mut out = [0u16; 64];
    for (o, &b) in out.iter_mut().zip(base) {
        *o = (((b as u32 * scale) + 50) / 100).clamp(1, 255) as u16;
    }
    out
}

fn rgb_to_ycbcr(r: f32, g: f32, b: f32) -> (f32, f32, f32) {
    let y = 0.299 * r + 0.587 * g + 0.114 * b;
    let cb = -0.168_736 * r - 0.331_264 * g + 0.5 * b + 128.0;
    let cr = 0.5 * r - 0.418_688 * g - 0.081_312 * b + 128.0;
    (y, cb, cr)
}

/// `v.clamp(0.0, 255.0).round() as u8`, for every `v`, without the libm
/// call or a float→int conversion (neither vectorizes). On the clamped
/// range `x + 2²³` rounds `x` to the nearest integer, ties to even, and
/// leaves it in the low mantissa bits; `x` minus that integer is exact, and
/// is `+0.5` exactly when the tie went down and `round` would go up.
#[inline]
#[allow(clippy::manual_clamp)] // `clamp` would pass a NaN through
fn round_u8(v: f32) -> u8 {
    const MAGIC: f32 = 8_388_608.0; // 2²³: one ulp is 1.0 from here to 2²⁴
    let x = v.max(0.0).min(255.0); // NaN → 0, as `NaN as u8` is
    let shifted = x + MAGIC;
    let tie_went_down = x - (shifted - MAGIC) == 0.5;
    ((shifted.to_bits() & 0xFF) + tie_went_down as u32) as u8
}

/// One row of YCbCr→RGB over whole 8-sample groups (`row` and the plane
/// rows are the padded width), `N` chroma samples to a group: 4 under
/// 4:2:0, each serving two pixels (nearest-neighbour upsampling), else 8.
/// Fixed-size arrays and plain indexed loops are what let this vectorize.
fn rgb_row<const N: usize>(row: &mut [u8], y_row: &[f32], cb_row: &[f32], cr_row: &[f32]) {
    for (c, px) in row.chunks_exact_mut(24).enumerate() {
        let y: &[f32; 8] = y_row[c * 8..].first_chunk().expect("padded to 8");
        let cb: &[f32; N] = cb_row[c * N..].first_chunk().expect("padded to 8");
        let cr: &[f32; N] = cr_row[c * N..].first_chunk().expect("padded to 8");
        // Per chroma sample: r - y, the two parts of y - g, b - y.
        let mut terms = [[0.0f32; N]; 4];
        for i in 0..N {
            let (cb, cr) = (cb[i] - 128.0, cr[i] - 128.0);
            terms[0][i] = 1.402 * cr;
            terms[1][i] = 0.344_136 * cb;
            terms[2][i] = 0.714_136 * cr;
            terms[3][i] = 1.772 * cb;
        }
        let mut rgb = [[0.0f32; 8]; 3];
        for i in 0..8 {
            let at = i * N / 8;
            rgb[0][i] = y[i] + terms[0][at];
            rgb[1][i] = y[i] - terms[1][at] - terms[2][at];
            rgb[2][i] = y[i] + terms[3][at];
        }
        for i in 0..8 {
            for (ch, values) in rgb.iter().enumerate() {
                px[3 * i + ch] = round_u8(values[i]);
            }
        }
    }
}

/// `x.round() as i64` without the libm call (exact: `x - trunc(x)` is).
#[inline]
fn round_i64(x: f32) -> i64 {
    let t = x as i64;
    let frac = x - t as f32;
    t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64
}

/// A plane padded to a multiple of 8.
struct Plane {
    padded_w: usize,
    padded_h: usize,
    data: Vec<f32>, // padded_w × padded_h
}

impl Plane {
    /// A `w × h` plane for the decoder, which writes every block of it.
    fn blank(w: usize, h: usize) -> Self {
        let (padded_w, padded_h) = (w.div_ceil(8) * 8, h.div_ceil(8) * 8);
        Plane {
            padded_w,
            padded_h,
            data: vec![0.0; padded_w * padded_h],
        }
    }

    /// `samples` (`w × h`, row-major) padded by edge replication.
    fn from_samples(w: usize, h: usize, samples: &[f32]) -> Self {
        assert_eq!(samples.len(), w * h);
        let mut plane = Plane::blank(w, h);
        for (py, row) in plane.data.chunks_exact_mut(plane.padded_w).enumerate() {
            let src = &samples[py.min(h - 1) * w..][..w];
            row[..w].copy_from_slice(src);
            row[w..].fill(src[w - 1]);
        }
        plane
    }

    fn blocks(&self) -> usize {
        (self.padded_w / 8) * (self.padded_h / 8)
    }

    /// Offset of block `bi`'s first sample.
    fn block_origin(&self, bi: usize) -> usize {
        let bw = self.padded_w / 8;
        (bi / bw) * 8 * self.padded_w + (bi % bw) * 8
    }
}

/// `table` as f32 divisors/factors, in scan order.
fn scan_order_f32(table: &[u16; 64]) -> [f32; 64] {
    ZIGZAG.map(|src| table[src] as f32)
}

/// Encode one plane's blocks: DCT, quantize, zigzag, DC-delta + AC RLE.
fn encode_plane(plane: &Plane, table: &[u16; 64], w: &mut BitWriter) {
    let divisors = scan_order_f32(table);
    let mut prev_dc = 0i64;
    for bi in 0..plane.blocks() {
        let origin = plane.block_origin(bi);
        let mut block = [0.0f32; 64];
        for (y, row) in block.chunks_exact_mut(8).enumerate() {
            let src = &plane.data[origin + y * plane.padded_w..][..8];
            for (v, &s) in row.iter_mut().zip(src) {
                *v = s - 128.0; // level shift
            }
        }
        let coeffs = dct2_8x8(&block);
        let mut quant = [0i64; 64];
        for (zi, &src) in ZIGZAG.iter().enumerate() {
            quant[zi] = round_i64(coeffs[src] / divisors[zi]);
        }
        // DC delta.
        w.put_se(quant[0] - prev_dc);
        prev_dc = quant[0];
        // AC run-length: (run-of-zeros, nonzero value)*, EOB = run 63.
        let mut run = 0u64;
        for &q in &quant[1..] {
            if q == 0 {
                run += 1;
            } else {
                w.put_ue(run);
                w.put_se(q);
                run = 0;
            }
        }
        w.put_ue(63); // EOB
    }
}

/// Decode one plane's blocks (inverse of [`encode_plane`]). Every block is
/// entropy-walked — the DC deltas chain and the AC runs move the bit
/// position, so the stream's verdict cannot depend on `wanted` — but only
/// blocks in a block row `wanted` names are dequantized and inverse-
/// transformed; the others leave their samples as they were.
fn decode_plane(
    plane: &mut Plane,
    table: &[u16; 64],
    wanted: &[bool],
    r: &mut BitReader<'_>,
) -> Result<(), String> {
    let factors = scan_order_f32(table);
    let stride = plane.padded_w;
    let mut prev_dc = 0i64;
    for bi in 0..plane.blocks() {
        let keep = wanted[bi / (stride / 8)];
        prev_dc = prev_dc
            .checked_add(r.get_se()?)
            .ok_or_else(|| format!("DC accumulator overflow in block {bi}"))?;
        // Dequantize straight off the scan, noting which coefficient rows
        // and columns the block touches.
        let mut coeffs = [0.0f32; 64];
        coeffs[0] = prev_dc as f32 * factors[0];
        let (mut rows, mut cols) = (1u8, 1u8);
        let mut zi = 1usize;
        loop {
            let run = r.get_ue()?;
            if run == 63 {
                break; // EOB
            }
            if run > 62 {
                // Valid AC runs are 0..=62 (63 coefficients); 63 is EOB.
                return Err(format!("AC run {run} out of range in block {bi}"));
            }
            zi += run as usize;
            if zi >= 64 {
                return Err(format!("AC index overflow in block {bi}"));
            }
            let level = r.get_se()?;
            if keep {
                let dst = ZIGZAG[zi];
                coeffs[dst] = level as f32 * factors[zi];
                rows |= 1 << (dst / 8);
                cols |= 1 << (dst % 8);
            }
            zi += 1;
        }
        if !keep {
            continue;
        }
        let origin = plane.block_origin(bi);
        if (rows, cols) == (1, 1) {
            let flat = idct2_8x8_dc(coeffs[0]) + 128.0;
            for y in 0..8 {
                plane.data[origin + y * stride..][..8].fill(flat);
            }
        } else {
            let block = idct2_8x8_sparse(&coeffs, rows, cols);
            for (y, src) in block.chunks_exact(8).enumerate() {
                let dst = &mut plane.data[origin + y * stride..][..8];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d = s + 128.0;
                }
            }
        }
    }
    Ok(())
}

/// 2×2 box average of a `w × h` plane, the boxes clipped at its edges.
fn halve(plane: &[f32], w: usize, h: usize) -> Vec<f32> {
    let mut out = Vec::with_capacity(w.div_ceil(2) * h.div_ceil(2));
    for sy in (0..h).step_by(2) {
        for sx in (0..w).step_by(2) {
            let (mut sum, mut n) = (0.0f32, 0.0f32);
            for row in plane[sy * w..(sy + 2).min(h) * w].chunks_exact(w) {
                for &v in &row[sx..(sx + 2).min(w)] {
                    sum += v;
                    n += 1.0;
                }
            }
            out.push(sum / n);
        }
    }
    out
}

/// Encode an RGB image to AJPG bytes.
pub fn ajpg_encode(img: &RgbImage, opts: &AjpgOptions) -> Vec<u8> {
    let (w, h) = (img.width(), img.height());
    // Colour transform into planar YCbCr.
    let mut y_plane = vec![0.0f32; w * h];
    let mut cb_plane = vec![0.0f32; w * h];
    let mut cr_plane = vec![0.0f32; w * h];
    for (i, px) in img.data().chunks_exact(3).enumerate() {
        let (y, cb, cr) = rgb_to_ycbcr(px[0] as f32, px[1] as f32, px[2] as f32);
        y_plane[i] = y;
        cb_plane[i] = cb;
        cr_plane[i] = cr;
    }

    // Chroma subsampling.
    let (cw, ch, cb_s, cr_s) = if opts.subsample {
        let (cb_s, cr_s) = (halve(&cb_plane, w, h), halve(&cr_plane, w, h));
        (w.div_ceil(2), h.div_ceil(2), cb_s, cr_s)
    } else {
        (w, h, cb_plane, cr_plane)
    };

    let q_luma = scaled_table(&Q_LUMA, opts.quality);
    let q_chroma = scaled_table(&Q_CHROMA, opts.quality);

    let mut bits = BitWriter::new();
    encode_plane(&Plane::from_samples(w, h, &y_plane), &q_luma, &mut bits);
    encode_plane(&Plane::from_samples(cw, ch, &cb_s), &q_chroma, &mut bits);
    encode_plane(&Plane::from_samples(cw, ch, &cr_s), &q_chroma, &mut bits);
    let payload = bits.finish();

    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(w as u32).to_le_bytes());
    out.extend_from_slice(&(h as u32).to_le_bytes());
    out.push(opts.quality);
    out.push(opts.subsample as u8);
    out.extend_from_slice(&payload);
    out
}

/// Decode AJPG bytes back to an RGB image: [`ajpg_decode_rows`] with every
/// row.
pub fn ajpg_decode(bytes: &[u8]) -> Result<RgbImage, String> {
    ajpg_decode_rows(bytes, |_, h| 0..h)
}

/// Decode AJPG bytes, producing only the image rows `rows(w, h)` names —
/// the others stay black (all zero). `rows` is called once, with the
/// header's dimensions, after they have passed every header check; each
/// row it names must be below `h`.
///
/// The verdict is [`ajpg_decode`]'s for every stream, error text included,
/// and every named row is its row byte for byte: the whole entropy stream
/// is still walked, while dequantization and the inverse DCT run only for
/// the luma block rows holding a named row and the chroma block rows
/// holding its chroma row, and colour conversion only for the named rows.
pub fn ajpg_decode_rows<R>(
    bytes: &[u8],
    rows: impl FnOnce(usize, usize) -> R,
) -> Result<RgbImage, String>
where
    R: IntoIterator<Item = usize>,
{
    if bytes.get(..4) != Some(MAGIC.as_slice()) {
        return Err("not an AJPG stream".into());
    }
    let w = read_u32_le(bytes, 4)? as usize;
    let h = read_u32_le(bytes, 8)? as usize;
    let quality = *bytes.get(12).ok_or("truncated AJPG header")?;
    let subsample = *bytes.get(13).ok_or("truncated AJPG header")? != 0;
    if w == 0 || h == 0 {
        return Err("degenerate dimensions".into());
    }
    if w > MAX_DIM || h > MAX_DIM || w * h > MAX_PIXELS {
        return Err(format!("implausible dimensions {w}x{h}"));
    }
    let (cw, ch, step) = if subsample {
        (w.div_ceil(2), h.div_ceil(2), 2)
    } else {
        (w, h, 1)
    };

    // The named rows, and the block rows of each plane they reach.
    let mut named = vec![false; h];
    let mut luma_rows = vec![false; h.div_ceil(8)];
    let mut chroma_rows = vec![false; ch.div_ceil(8)];
    for yy in rows(w, h) {
        assert!(yy < h, "row {yy} of a {h}-row image");
        named[yy] = true;
        luma_rows[yy / 8] = true;
        chroma_rows[yy / step / 8] = true;
    }

    let q_luma = scaled_table(&Q_LUMA, quality);
    let q_chroma = scaled_table(&Q_CHROMA, quality);

    let mut r = BitReader::new(&bytes[14..]);
    let mut y_plane = Plane::blank(w, h);
    let mut cb_plane = Plane::blank(cw, ch);
    let mut cr_plane = Plane::blank(cw, ch);
    decode_plane(&mut y_plane, &q_luma, &luma_rows, &mut r)?;
    decode_plane(&mut cb_plane, &q_chroma, &chroma_rows, &mut r)?;
    decode_plane(&mut cr_plane, &q_chroma, &chroma_rows, &mut r)?;

    // Colour conversion, a padded row at a time; under 4:2:0 each chroma
    // row serves two image rows.
    let mut img = RgbImage::new(w, h);
    let mut row = vec![0u8; y_plane.padded_w * 3];
    let convert = if subsample {
        rgb_row::<4> as fn(&mut [u8], &[f32], &[f32], &[f32])
    } else {
        rgb_row::<8> as _
    };
    for (yy, out) in img.data_mut().chunks_exact_mut(w * 3).enumerate() {
        if !named[yy] {
            continue;
        }
        let y_row = &y_plane.data[yy * y_plane.padded_w..];
        let cb_row = &cb_plane.data[yy / step * cb_plane.padded_w..];
        let cr_row = &cr_plane.data[yy / step * cr_plane.padded_w..];
        convert(&mut row, y_row, cb_row, cr_row);
        out.copy_from_slice(&row[..w * 3]);
    }
    Ok(img)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::psnr;
    use crate::synth::{FieldScene, SynthImageSpec};

    #[test]
    fn libm_free_rounding_is_round_for_every_kind_of_float() {
        let reference = |v: f32| v.clamp(0.0, 255.0).round() as u8;
        // A stride through every exponent and sign (NaNs and infinities
        // included), then every tie and near-tie in range.
        for bits in (0..=u32::MAX).step_by(251) {
            let v = f32::from_bits(bits);
            assert_eq!(round_u8(v), reference(v), "{v:?} ({bits:#x})");
        }
        for k in 0..=256 {
            for centre in [k as f32, k as f32 + 0.5] {
                for ulps in -64i32..=64 {
                    let v = f32::from_bits((centre.to_bits() as i32 + ulps).max(0) as u32);
                    assert_eq!(round_u8(v), reference(v), "{v:?}");
                    assert_eq!(round_u8(-v), 0, "{v:?} negated");
                }
            }
        }
        for x in (-20_480..=20_480).map(|i| i as f32 / 8.0) {
            assert_eq!(round_i64(x), x.round() as i64, "{x}");
        }
    }

    #[test]
    fn solid_image_round_trips_nearly_exactly() {
        let img = RgbImage::solid(20, 12, [90, 160, 70]);
        let bytes = ajpg_encode(
            &img,
            &AjpgOptions {
                quality: 90,
                subsample: false,
            },
        );
        let back = ajpg_decode(&bytes).unwrap();
        assert!(psnr(&img, &back) > 40.0, "psnr {}", psnr(&img, &back));
    }

    #[test]
    fn field_image_quality_90_is_faithful() {
        let img = FieldScene::RowCrop.render(&SynthImageSpec {
            width: 96,
            height: 64,
            seed: 7,
        });
        let bytes = ajpg_encode(
            &img,
            &AjpgOptions {
                quality: 90,
                subsample: true,
            },
        );
        let back = ajpg_decode(&bytes).unwrap();
        let p = psnr(&img, &back);
        assert!(p > 25.0, "psnr {p}");
    }

    #[test]
    fn lower_quality_means_smaller_files() {
        let img = FieldScene::RowCrop.render(&SynthImageSpec {
            width: 128,
            height: 128,
            seed: 3,
        });
        let hi = ajpg_encode(
            &img,
            &AjpgOptions {
                quality: 95,
                subsample: true,
            },
        );
        let lo = ajpg_encode(
            &img,
            &AjpgOptions {
                quality: 30,
                subsample: true,
            },
        );
        assert!(lo.len() < hi.len(), "q30 {} vs q95 {}", lo.len(), hi.len());
    }

    #[test]
    fn subsampling_shrinks_output() {
        let img = FieldScene::RowCrop.render(&SynthImageSpec {
            width: 64,
            height: 64,
            seed: 9,
        });
        let full = ajpg_encode(
            &img,
            &AjpgOptions {
                quality: 85,
                subsample: false,
            },
        );
        let sub = ajpg_encode(
            &img,
            &AjpgOptions {
                quality: 85,
                subsample: true,
            },
        );
        assert!(sub.len() < full.len());
    }

    #[test]
    fn non_multiple_of_8_dimensions_work() {
        for (w, h) in [(9, 7), (61, 61), (233, 13)] {
            let img = FieldScene::RowCrop.render(&SynthImageSpec {
                width: w,
                height: h,
                seed: 1,
            });
            let bytes = ajpg_encode(&img, &AjpgOptions::default());
            let back = ajpg_decode(&bytes).unwrap();
            assert_eq!(back.width(), w);
            assert_eq!(back.height(), h);
            assert!(psnr(&img, &back) > 20.0);
        }
    }

    #[test]
    fn garbage_input_is_rejected_not_panicking() {
        assert!(ajpg_decode(b"nope").is_err());
        assert!(ajpg_decode(b"AJPG\x00\x00\x00\x00\x00\x00\x00\x00\x55\x01").is_err());
        // Valid header, truncated payload.
        let img = RgbImage::solid(16, 16, [1, 2, 3]);
        let mut bytes = ajpg_encode(&img, &AjpgOptions::default());
        bytes.truncate(15);
        assert!(ajpg_decode(&bytes).is_err());
    }

    #[test]
    fn quality_scaling_table_extremes() {
        let t100 = scaled_table(&Q_LUMA, 100);
        assert!(t100.iter().all(|&v| v == 1), "q100 ~ lossless-ish");
        let t1 = scaled_table(&Q_LUMA, 1);
        assert!(t1.iter().all(|&v| v == 255), "q1 saturates at 255");
        let t50 = scaled_table(&Q_LUMA, 50);
        assert_eq!(t50, Q_LUMA);
    }

    #[test]
    fn encoded_size_scales_with_pixels() {
        let small = FieldScene::RowCrop.render(&SynthImageSpec {
            width: 61,
            height: 61,
            seed: 5,
        });
        let large = FieldScene::RowCrop.render(&SynthImageSpec {
            width: 244,
            height: 244,
            seed: 5,
        });
        let sb = ajpg_encode(&small, &AjpgOptions::default());
        let lb = ajpg_encode(&large, &AjpgOptions::default());
        let ratio = lb.len() as f64 / sb.len() as f64;
        assert!(ratio > 4.0, "16x pixels should be >4x bytes, got {ratio}");
    }
}
