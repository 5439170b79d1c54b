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

use super::bitio::{read_u32_le, BitReader, BitWriter};
use super::dct::{dct2_8x8, idct2_8x8, ZIGZAG};
use harvest_imaging::RgbImage;

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

fn ycbcr_to_rgb(y: f32, cb: f32, cr: f32) -> (f32, f32, f32) {
    let cb = cb - 128.0;
    let cr = cr - 128.0;
    let r = y + 1.402 * cr;
    let g = y - 0.344_136 * cb - 0.714_136 * cr;
    let b = y + 1.772 * cb;
    (r, g, b)
}

/// A plane padded to a multiple of 8 by edge replication.
struct Plane {
    w: usize,
    h: usize,
    padded_w: usize,
    padded_h: usize,
    data: Vec<f32>, // padded_w × padded_h
}

impl Plane {
    fn from_samples(w: usize, h: usize, samples: &[f32]) -> Self {
        assert_eq!(samples.len(), w * h);
        let padded_w = w.div_ceil(8) * 8;
        let padded_h = h.div_ceil(8) * 8;
        let mut data = vec![0.0f32; padded_w * padded_h];
        for py in 0..padded_h {
            let sy = py.min(h - 1);
            for px in 0..padded_w {
                let sx = px.min(w - 1);
                data[py * padded_w + px] = samples[sy * w + sx];
            }
        }
        Plane {
            w,
            h,
            padded_w,
            padded_h,
            data,
        }
    }

    fn blocks(&self) -> usize {
        (self.padded_w / 8) * (self.padded_h / 8)
    }

    fn block(&self, bi: usize) -> [f32; 64] {
        let bw = self.padded_w / 8;
        let (by, bx) = (bi / bw, bi % bw);
        let mut out = [0.0f32; 64];
        for y in 0..8 {
            let row = (by * 8 + y) * self.padded_w + bx * 8;
            out[y * 8..(y + 1) * 8].copy_from_slice(&self.data[row..row + 8]);
        }
        out
    }

    fn set_block(&mut self, bi: usize, block: &[f32; 64]) {
        let bw = self.padded_w / 8;
        let (by, bx) = (bi / bw, bi % bw);
        for y in 0..8 {
            let row = (by * 8 + y) * self.padded_w + bx * 8;
            self.data[row..row + 8].copy_from_slice(&block[y * 8..(y + 1) * 8]);
        }
    }
}

/// Encode one plane's blocks: DCT, quantize, zigzag, DC-delta + AC RLE.
fn encode_plane(plane: &Plane, table: &[u16; 64], w: &mut BitWriter) {
    let mut prev_dc = 0i64;
    for bi in 0..plane.blocks() {
        let mut block = plane.block(bi);
        for v in block.iter_mut() {
            *v -= 128.0; // level shift
        }
        let coeffs = dct2_8x8(&block);
        let mut quant = [0i64; 64];
        for (zi, &src) in ZIGZAG.iter().enumerate() {
            quant[zi] = (coeffs[src] / table[src] as f32).round() as i64;
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

/// Decode one plane's blocks (inverse of [`encode_plane`]).
fn decode_plane(plane: &mut Plane, table: &[u16; 64], r: &mut BitReader<'_>) -> Result<(), String> {
    let mut prev_dc = 0i64;
    for bi in 0..plane.blocks() {
        let mut quant = [0i64; 64];
        prev_dc = prev_dc
            .checked_add(r.get_se()?)
            .ok_or_else(|| format!("DC accumulator overflow in block {bi}"))?;
        quant[0] = prev_dc;
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
            quant[zi] = r.get_se()?;
            zi += 1;
        }
        let mut coeffs = [0.0f32; 64];
        for (zi, &dst) in ZIGZAG.iter().enumerate() {
            coeffs[dst] = quant[zi] as f32 * table[dst] as f32;
        }
        let mut block = idct2_8x8(&coeffs);
        for v in block.iter_mut() {
            *v += 128.0;
        }
        plane.set_block(bi, &block);
    }
    Ok(())
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

    // Chroma subsampling (2×2 box average).
    let (cw, ch, cb_s, cr_s) = if opts.subsample {
        let cw = w.div_ceil(2);
        let ch = h.div_ceil(2);
        let mut cb_s = vec![0.0f32; cw * ch];
        let mut cr_s = vec![0.0f32; cw * ch];
        for oy in 0..ch {
            for ox in 0..cw {
                let mut sum_cb = 0.0;
                let mut sum_cr = 0.0;
                let mut n = 0.0;
                for dy in 0..2 {
                    let sy = oy * 2 + dy;
                    if sy >= h {
                        continue;
                    }
                    for dx in 0..2 {
                        let sx = ox * 2 + dx;
                        if sx >= w {
                            continue;
                        }
                        sum_cb += cb_plane[sy * w + sx];
                        sum_cr += cr_plane[sy * w + sx];
                        n += 1.0;
                    }
                }
                cb_s[oy * cw + ox] = sum_cb / n;
                cr_s[oy * cw + ox] = sum_cr / n;
            }
        }
        (cw, ch, cb_s, cr_s)
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

/// Decode AJPG bytes back to an RGB image.
pub fn ajpg_decode(bytes: &[u8]) -> Result<RgbImage, String> {
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
    let (cw, ch) = if subsample {
        (w.div_ceil(2), h.div_ceil(2))
    } else {
        (w, h)
    };

    let q_luma = scaled_table(&Q_LUMA, quality);
    let q_chroma = scaled_table(&Q_CHROMA, quality);

    let mut r = BitReader::new(&bytes[14..]);
    let mut y_plane = Plane::from_samples(w, h, &vec![0.0; w * h]);
    let mut cb_plane = Plane::from_samples(cw, ch, &vec![0.0; cw * ch]);
    let mut cr_plane = Plane::from_samples(cw, ch, &vec![0.0; cw * ch]);
    decode_plane(&mut y_plane, &q_luma, &mut r)?;
    decode_plane(&mut cb_plane, &q_chroma, &mut r)?;
    decode_plane(&mut cr_plane, &q_chroma, &mut r)?;

    let mut img = RgbImage::new(w, h);
    for yy in 0..h {
        for xx in 0..w {
            let y = y_plane.data[yy * y_plane.padded_w + xx];
            let (cx, cy) = if subsample {
                (xx / 2, yy / 2)
            } else {
                (xx, yy)
            };
            let cb = cb_plane.data[cy * cb_plane.padded_w + cx];
            let cr = cr_plane.data[cy * cr_plane.padded_w + cx];
            let (r, g, b) = ycbcr_to_rgb(y, cb, cr);
            img.put(
                xx,
                yy,
                [
                    r.clamp(0.0, 255.0).round() as u8,
                    g.clamp(0.0, 255.0).round() as u8,
                    b.clamp(0.0, 255.0).round() as u8,
                ],
            );
        }
    }
    let _ = (y_plane.w, y_plane.h); // sizes carried for clarity
    Ok(img)
}
