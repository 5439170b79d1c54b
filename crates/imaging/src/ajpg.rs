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
use crate::dct::{dct2_8x8, idct2_8x8_dc, idct2_8x8_sparse, idct2_8x8_sparse_rows, ZIGZAG};
use crate::image::RgbImage;
use std::ops::Range;

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
    /// `samples` (`w × h`, row-major) padded by edge replication.
    fn from_samples(w: usize, h: usize, samples: &[f32]) -> Self {
        assert_eq!(samples.len(), w * h);
        let (padded_w, padded_h) = (w.div_ceil(8) * 8, h.div_ceil(8) * 8);
        let mut plane = Plane {
            padded_w,
            padded_h,
            data: vec![0.0; padded_w * padded_h],
        };
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

/// Walk one plane's blocks, `bw × bh` of them in raster order (the inverse
/// of [`encode_plane`]). Every block is entropy-walked — the DC deltas chain
/// and the AC runs move the bit position, so the stream's verdict cannot
/// depend on `keep` — but only a block `keep(by, bx)` names is dequantized
/// and handed to `inverse` with the masks of the coefficient rows and
/// columns it touches (see [`idct2_8x8_sparse_rows`]).
fn walk_plane(
    (bw, bh): (usize, usize),
    table: &[u16; 64],
    r: &mut BitReader<'_>,
    keep: impl Fn(usize, usize) -> bool,
    mut inverse: impl FnMut(usize, usize, &[f32; 64], u8, u8),
) -> Result<(), String> {
    let factors = scan_order_f32(table);
    let mut prev_dc = 0i64;
    let mut coeffs = [0.0f32; 64];
    let mut bi = 0usize;
    for by in 0..bh {
        for bx in 0..bw {
            let keep = keep(by, bx);
            prev_dc = prev_dc
                .checked_add(r.get_se()?)
                .ok_or_else(|| format!("DC accumulator overflow in block {bi}"))?;
            // Dequantize straight off the scan, noting which coefficient
            // rows and columns the block touches.
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
            if keep {
                coeffs[0] = prev_dc as f32 * factors[0];
                inverse(by, bx, &coeffs, rows, cols);
                coeffs = [0.0; 64];
            }
            bi += 1;
        }
    }
    Ok(())
}

/// The rows and block columns of one plane that a sampled decode keeps.
struct GridPlane<'a> {
    /// Plane rows, ascending, no repeats.
    rows: &'a [usize],
    /// Block columns, ascending, no repeats: grid row `i` holds row
    /// `rows[i]` of each of them, eight samples apiece.
    blocks: &'a [usize],
}

/// Decode one `w × h` plane at the rows and block columns `grid` names,
/// into `out` (`grid.rows.len()` rows of `8 · grid.blocks.len()` samples),
/// walking the whole plane: only a block in a kept block column and holding
/// a kept row is dequantized, and in it only those rows are
/// inverse-transformed. `spans` and `slots` are scratch.
fn decode_plane_grid(
    (w, h): (usize, usize),
    table: &[u16; 64],
    grid: &GridPlane<'_>,
    (spans, slots): (&mut Vec<(Range<usize>, u8)>, &mut Vec<usize>),
    out: &mut [f32],
    r: &mut BitReader<'_>,
) -> Result<(), String> {
    let (bw, bh) = (w.div_ceil(8), h.div_ceil(8));
    let rows = grid.rows;
    // Per block row: the grid rows in it and the mask of their rows in the
    // block. Per block column: its place among the kept ones, or none.
    spans.clear();
    spans.extend((0..bh).map(|by| {
        let span = rows.partition_point(|&y| y < 8 * by)..rows.partition_point(|&y| y < 8 * by + 8);
        let mask = rows[span.clone()]
            .iter()
            .fold(0u8, |m, &y| m | 1 << (y % 8));
        (span, mask)
    }));
    slots.clear();
    slots.resize(bw, usize::MAX);
    for (slot, &bx) in grid.blocks.iter().enumerate() {
        slots[bx] = slot;
    }
    let stride = 8 * grid.blocks.len();
    let keep = |by: usize, bx: usize| spans[by].1 != 0 && slots[bx] != usize::MAX;
    walk_plane((bw, bh), table, r, keep, |by, bx, coeffs, rmask, cmask| {
        let (span, outputs) = &spans[by];
        let at = 8 * slots[bx];
        if (rmask, cmask) == (1, 1) {
            let flat = idct2_8x8_dc(coeffs[0]) + 128.0;
            for i in span.clone() {
                out[i * stride + at..][..8].fill(flat);
            }
        } else {
            // Every row kept (the full decode, a dense pick): the whole
            // transform, whose constant row mask compiles to no per-row test.
            let block = match *outputs {
                0xFF => idct2_8x8_sparse(coeffs, rmask, cmask),
                some => idct2_8x8_sparse_rows(coeffs, rmask, cmask, some),
            };
            for i in span.clone() {
                let src = &block[rows[i] % 8 * 8..][..8];
                for (d, &s) in out[i * stride + at..][..8].iter_mut().zip(src) {
                    *d = s + 128.0;
                }
            }
        }
    })
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

/// An AJPG header that passed every check.
struct Header {
    w: usize,
    h: usize,
    quality: u8,
    subsample: bool,
}

impl Header {
    /// The first 14 bytes of `bytes`, checked; each rejection's text is the
    /// decoder's.
    fn read(bytes: &[u8]) -> Result<Self, String> {
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
        Ok(Header {
            w,
            h,
            quality,
            subsample,
        })
    }

    /// How many image samples share a chroma sample along each axis: 2
    /// under 4:2:0, else 1.
    fn step(&self) -> usize {
        1 + self.subsample as usize
    }

    /// The chroma planes' width and height.
    fn chroma_size(&self) -> (usize, usize) {
        (self.w.div_ceil(self.step()), self.h.div_ceil(self.step()))
    }

    /// The luma and chroma quantization tables.
    fn tables(&self) -> ([u16; 64], [u16; 64]) {
        (
            scaled_table(&Q_LUMA, self.quality),
            scaled_table(&Q_CHROMA, self.quality),
        )
    }
}

/// Decode AJPG bytes back to an RGB image: [`AjpgGrid::decode`] at every
/// pixel, its grid rows (the padded width) cut to the image's in place.
pub fn ajpg_decode(bytes: &[u8]) -> Result<RgbImage, String> {
    let mut grid = AjpgGrid::default();
    let mut size = (0, 0);
    grid.decode(bytes, |w, h| {
        size = (w, h);
        (0..h, 0..w)
    })?;
    let ((w, h), padded) = (size, grid.width());
    let mut rgb = grid.rgb;
    for y in 1..h {
        rgb.copy_within(3 * y * padded..3 * (y * padded + w), 3 * y * w);
    }
    rgb.truncate(3 * w * h);
    Ok(RgbImage::from_raw(w, h, rgb))
}

/// Makes `set` the values of `from`, ascending, without repeats.
fn collect_set(set: &mut Vec<usize>, from: impl IntoIterator<Item = usize>) {
    set.clear();
    set.extend(from);
    set.sort_unstable();
    set.dedup();
}

/// An AJPG decode at chosen pixels, and the buffers it keeps from call to
/// call so that a thread decoding body after body allocates them once.
#[derive(Default)]
pub struct AjpgGrid {
    /// The sampled image rows, and the luma block columns holding a
    /// sampled column; then the chroma rows and block columns they reach.
    /// Each ascending, without repeats.
    rows: Vec<usize>,
    blocks: Vec<usize>,
    chroma_rows: Vec<usize>,
    chroma_blocks: Vec<usize>,
    /// Luma at the grid, then Cb and Cr at its chroma grid.
    samples: Vec<f32>,
    /// [`decode_plane_grid`]'s scratch.
    spans: Vec<(Range<usize>, u8)>,
    slots: Vec<usize>,
    /// The decoded grid, RGB.
    rgb: Vec<u8>,
}

impl AjpgGrid {
    /// Decode an AJPG stream at the pixels `pick` names. Once the header
    /// has passed every check, `pick(w, h)` returns the rows and the columns
    /// to sample, in any order and with repeats, each inside the image;
    /// only those rows are decoded, and in them only the 8-pixel blocks
    /// holding one of those columns. Grid row [`Self::row`]`(y)` of
    /// [`Self::rgb`] is image row `y`, and [`Self::column`] says where in it
    /// a sampled column is; each of those pixels is byte for byte the one
    /// [`ajpg_decode`], this decode at every pixel, returns.
    ///
    /// Every stream gets one verdict whatever is sampled, error text
    /// included: every block is still entropy-walked, while dequantization
    /// runs only for the blocks the grid reaches, the inverse DCT only for
    /// their rows in it, and colour conversion only at the grid. Nothing
    /// is allocated beyond the grid, at most one row of the image's width
    /// rounded up to 8 per sampled row. A failed call leaves the grid
    /// empty.
    pub fn decode<R, C>(
        &mut self,
        bytes: &[u8],
        pick: impl FnOnce(usize, usize) -> (R, C),
    ) -> Result<(), String>
    where
        R: IntoIterator<Item = usize>,
        C: IntoIterator<Item = usize>,
    {
        let decoded = self.decode_picked(bytes, pick);
        if decoded.is_err() {
            self.rows.clear();
            self.blocks.clear();
        }
        decoded
    }

    fn decode_picked<R, C>(
        &mut self,
        bytes: &[u8],
        pick: impl FnOnce(usize, usize) -> (R, C),
    ) -> Result<(), String>
    where
        R: IntoIterator<Item = usize>,
        C: IntoIterator<Item = usize>,
    {
        let hd = Header::read(bytes)?;
        let (w, h, step) = (hd.w, hd.h, hd.step());
        let (rows, cols) = pick(w, h);
        let AjpgGrid {
            rows: luma_rows,
            blocks,
            chroma_rows,
            chroma_blocks,
            samples,
            spans,
            slots,
            rgb,
        } = self;
        collect_set(luma_rows, rows);
        assert!(
            luma_rows.last().is_none_or(|&y| y < h),
            "rows of a {h}-row image"
        );
        collect_set(
            blocks,
            cols.into_iter().map(|x| {
                assert!(x < w, "columns of a {w}-wide image");
                x / 8
            }),
        );
        collect_set(chroma_rows, luma_rows.iter().map(|&y| y / step));
        collect_set(chroma_blocks, blocks.iter().map(|&bx| bx / step));
        let luma = GridPlane {
            rows: luma_rows,
            blocks,
        };
        let chroma = GridPlane {
            rows: chroma_rows,
            blocks: chroma_blocks,
        };

        let (stride, cstride) = (8 * blocks.len(), 8 * chroma_blocks.len());
        let (luma_len, chroma_len) = (luma_rows.len() * stride, chroma_rows.len() * cstride);
        // Every sample and byte of the grid is written below, so growing
        // the buffers is the only filling they need.
        samples.resize(luma_len + 2 * chroma_len, 0.0);
        let (y, rest) = samples.split_at_mut(luma_len);
        let (cb, cr) = rest.split_at_mut(chroma_len);
        let (q_luma, q_chroma) = hd.tables();
        let chroma_size = hd.chroma_size();
        let mut r = BitReader::new(&bytes[14..]);
        decode_plane_grid((w, h), &q_luma, &luma, (spans, slots), y, &mut r)?;
        decode_plane_grid(chroma_size, &q_chroma, &chroma, (spans, slots), cb, &mut r)?;
        decode_plane_grid(chroma_size, &q_chroma, &chroma, (spans, slots), cr, &mut r)?;

        rgb.resize(luma_len * 3, 0);
        let planes = (&*y, &*cb, &*cr);
        if hd.subsample {
            grid_rgb::<4>(rgb, planes, &luma, &chroma);
        } else {
            grid_rgb::<8>(rgb, planes, &luma, &chroma);
        }
        Ok(())
    }

    /// The grid the last successful [`Self::decode`] made: [`Self::width`]
    /// RGB pixels to a row, a row per sampled image row.
    pub fn rgb(&self) -> &[u8] {
        &self.rgb[..3 * self.width() * self.rows.len()]
    }

    /// Pixels to a grid row.
    pub fn width(&self) -> usize {
        8 * self.blocks.len()
    }

    /// The grid row holding image row `y`, one the last [`Self::decode`]
    /// sampled.
    pub fn row(&self, y: usize) -> usize {
        self.rows.binary_search(&y).expect("a sampled row")
    }

    /// Where image column `x`, one the last [`Self::decode`] sampled, sits
    /// in a grid row.
    pub fn column(&self, x: usize) -> usize {
        let slot = self
            .blocks
            .binary_search(&(x / 8))
            .expect("a sampled column");
        8 * slot + x % 8
    }
}

/// Colour conversion of a sampled decode with [`rgb_row`], a run of
/// adjacent luma block columns at a time: luma block column `bx` takes its
/// chroma from chroma block column `8·bx / step / 8`, starting at sample
/// `8·bx / step % 8` (`N` = `8 / step` chroma samples to a block), so a run
/// reads adjacent chroma too.
fn grid_rgb<const N: usize>(
    rgb: &mut [u8],
    (y, cb, cr): (&[f32], &[f32], &[f32]),
    luma: &GridPlane<'_>,
    chroma: &GridPlane<'_>,
) {
    let step = 8 / N;
    let (stride, cstride) = (8 * luma.blocks.len(), 8 * chroma.blocks.len());
    let mut ci = 0;
    for (i, &yy) in luma.rows.iter().enumerate() {
        while chroma.rows[ci] < yy / step {
            ci += 1;
        }
        let (mut j, mut cj) = (0, 0);
        while j < luma.blocks.len() {
            let bx = luma.blocks[j];
            let mut end = j + 1;
            while end < luma.blocks.len() && luma.blocks[end] == bx + (end - j) {
                end += 1;
            }
            while chroma.blocks[cj] < bx / step {
                cj += 1;
            }
            let at = ci * cstride + cj * 8 + bx * N % 8;
            let out = &mut rgb[(i * stride + 8 * j) * 3..(i * stride + 8 * end) * 3];
            rgb_row::<N>(out, &y[i * stride + 8 * j..], &cb[at..], &cr[at..]);
            j = end;
        }
    }
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
