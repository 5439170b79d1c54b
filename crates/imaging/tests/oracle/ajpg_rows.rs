//! The wire's ingest as it stood before it decoded straight into the
//! tensor: `decode_for` (from `harvest-preproc`'s `real.rs`) and the
//! row-sampled AJPG decoder it called, `ajpg_decode_rows` with the
//! constants and helpers it reaches, copied verbatim from `src/ajpg.rs`
//! (encoder and unit tests dropped, `crate::` paths repointed to the
//! shipped `bitio` and `dct`, which have oracles of their own). `ingest/`
//! holds `harvest_preproc::ingest` to `preprocess_decoded` of this decode,
//! so nothing here may be "improved".

use harvest_imaging::bitio::{read_u32_le, BitReader};
use harvest_imaging::dct::{idct2_8x8_dc, idct2_8x8_sparse, ZIGZAG};
use harvest_imaging::{decode_auto, RgbImage};
use harvest_tensor::bilinear_taps;

const MAGIC: &[u8; 4] = b"AJPG";

/// Largest per-axis dimension the decoder will allocate for. A corrupt
/// header can claim up to 4 Gpx per axis; anything past survey-stitch
/// scale is rejected before any plane is allocated.
const MAX_DIM: usize = 1 << 14;

/// Largest total pixel count the decoder will allocate for (~16 Mpx —
/// three f32 planes ≈ 200 MiB, the ceiling of what a decode is allowed to
/// cost).
const MAX_PIXELS: usize = 1 << 24;

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

/// Decode a request body for [`preprocess_decoded`] at `out_res` (which
/// must be positive, as there). The format is sniffed as [`decode_auto`]
/// sniffs it, with the same `Ok`/`Err` and error text for every body, but
/// an AJPG body is decoded only in the source rows the resize's bilinear
/// taps name ([`ajpg_decode_rows`]); every other row is black. The tensor
/// `preprocess_decoded` makes from it is bit-identical to the one it makes
/// from the full decode. RTIF bodies decode in full.
pub fn decode_for(bytes: &[u8], out_res: usize) -> Result<RgbImage, String> {
    if bytes.get(..4) != Some(b"AJPG".as_slice()) {
        return decode_auto(bytes);
    }
    ajpg_decode_rows(bytes, |_, h| {
        bilinear_taps(h, out_res)
            .into_iter()
            .flat_map(|(y0, y1, _)| [y0, y1])
    })
}
