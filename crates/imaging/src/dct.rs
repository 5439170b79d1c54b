//! 8×8 type-II DCT and its inverse, the transform stage of the AJPG codec.
//!
//! Separable, over a `static` basis. Every output is the same sum of the
//! same products in the same order as the textbook triple loop, so the
//! bits never depend on how the loops are arranged: the forward transform
//! is laid out for the vectorizer, and the inverse skips coefficient rows
//! and columns that are entirely zero. Skipping is exact, not approximate:
//! a zero coefficient contributes a `±0.0` term, and adding `±0.0` to an
//! accumulator seeded with `+0.0` never changes a bit (such an accumulator
//! can never hold `-0.0`).

/// Orthonormal 8-point DCT-II basis: `BASIS[k][n] = s(k)·cos((2n+1)kπ/16)`
/// with `s(0) = √⅛`, `s(k) = √¼`, as f32 arithmetic and `cosf` produce it
/// (a test holds the table to that formula). A table rather than a
/// computation so that decoded pixels do not depend on the host's libm.
#[rustfmt::skip]
static BASIS: [[f32; 8]; 8] = [
    [0.35355338, 0.35355338, 0.35355338, 0.35355338, 0.35355338, 0.35355338, 0.35355338, 0.35355338],
    [0.49039263, 0.4157348, 0.2777851, 0.09754512, -0.09754516, -0.27778518, -0.41573483, -0.49039266],
    [0.46193975, 0.19134171, -0.19134176, -0.4619398, -0.46193975, -0.19134156, 0.1913418, 0.46193978],
    [0.4157348, -0.09754516, -0.49039266, -0.277785, 0.27778503, 0.49039263, 0.097545035, -0.4157349],
    [0.35355338, -0.35355338, -0.35355332, 0.3535535, 0.35355338, -0.35355362, -0.35355327, 0.3535534],
    [0.2777851, -0.49039266, 0.09754521, 0.41573468, -0.4157349, -0.09754464, 0.49039266, -0.27778503],
    [0.19134171, -0.46193975, 0.46193987, -0.19134195, -0.19134192, 0.46193966, -0.46193987, 0.19134195],
    [0.09754512, -0.277785, 0.41573468, -0.4903926, 0.49039263, -0.41573507, 0.27778557, -0.097544834],
];

/// Forward 8×8 DCT-II of a block (row-major), orthonormal scaling.
pub fn dct2_8x8(block: &[f32; 64]) -> [f32; 64] {
    // Rows: tmp[y][k] = Σₙ block[y][n]·BASIS[k][n], all eight k at once.
    let mut tmp = [0.0f32; 64];
    for (src, dst) in block.chunks_exact(8).zip(tmp.chunks_exact_mut(8)) {
        for (n, &v) in src.iter().enumerate() {
            for (acc, basis_k) in dst.iter_mut().zip(&BASIS) {
                *acc += v * basis_k[n];
            }
        }
    }
    // Columns: out[k][x] = Σₙ tmp[n][x]·BASIS[k][n], all eight x at once.
    let mut out = [0.0f32; 64];
    for (dst, basis_k) in out.chunks_exact_mut(8).zip(&BASIS) {
        for (src, &b) in tmp.chunks_exact(8).zip(basis_k) {
            for (acc, &v) in dst.iter_mut().zip(src) {
                *acc += v * b;
            }
        }
    }
    out
}

/// Inverse 8×8 DCT (DCT-III with orthonormal scaling).
pub fn idct2_8x8(coeffs: &[f32; 64]) -> [f32; 64] {
    idct2_8x8_sparse(coeffs, 0xFF, 0xFF)
}

/// The indices of the set bits of `mask`, ascending, and how many.
#[inline]
fn set_bits(mask: u8) -> ([usize; 8], usize) {
    let (mut idx, mut len) = ([0usize; 8], 0);
    for k in 0..8 {
        idx[len] = k;
        len += (mask >> k & 1) as usize;
    }
    (idx, len)
}

/// [`idct2_8x8`] for a block whose nonzero coefficients all lie in the
/// rows set in `rows` and the columns set in `cols` (bit `k` = row or
/// column `k`; naming more than that is harmless). Same bits as the dense
/// transform (see the module docs).
pub fn idct2_8x8_sparse(coeffs: &[f32; 64], rows: u8, cols: u8) -> [f32; 64] {
    idct2_8x8_sparse_rows(coeffs, rows, cols, 0xFF)
}

/// The output rows `outputs` names (bit `n` = row `n`) of
/// [`idct2_8x8_sparse`], the same bits; the others are left zero. A decode
/// that reads a few rows of a block transforms only those.
#[inline]
pub(crate) fn idct2_8x8_sparse_rows(
    coeffs: &[f32; 64],
    rows: u8,
    cols: u8,
    outputs: u8,
) -> [f32; 64] {
    let ((rows, nrows), (cols, ncols)) = (set_bits(rows), set_bits(cols));
    let mut out = [0.0f32; 64];
    for (n, dst) in out.chunks_exact_mut(8).enumerate() {
        if outputs >> n & 1 == 1 {
            dst.copy_from_slice(&idct_row(coeffs, &rows[..nrows], &cols[..ncols], n));
        }
    }
    out
}

/// Output row `n` over the live coefficient rows and columns.
#[inline(always)]
fn idct_row(coeffs: &[f32; 64], rows: &[usize], cols: &[usize], n: usize) -> [f32; 8] {
    // Columns: tmp[x] = Σₖ coeffs[k][x]·BASIS[k][n] over the live rows.
    let mut tmp = [0.0f32; 8];
    for &k in rows {
        for (a, &c) in tmp.iter_mut().zip(&coeffs[k * 8..k * 8 + 8]) {
            *a += c * BASIS[k][n];
        }
    }
    // Rows: out[x] = Σₖ tmp[k]·BASIS[k][x] over the live columns (tmp is
    // +0.0 at a column that held no coefficient).
    let mut out = [0.0f32; 8];
    for &k in cols {
        for (a, &b) in out.iter_mut().zip(&BASIS[k]) {
            *a += tmp[k] * b;
        }
    }
    out
}

/// Every sample of the inverse DCT of a block whose only coefficient is
/// `dc`: with one live row and column both passes are one product each,
/// and `BASIS[0]` is the same value eight times.
#[inline]
pub fn idct2_8x8_dc(dc: f32) -> f32 {
    0.0 + (0.0 + dc * BASIS[0][0]) * BASIS[0][0]
}

/// Zigzag scan order for an 8×8 block (JPEG's order).
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_table_is_the_formula_in_f32() {
        for (k, row) in BASIS.iter().enumerate() {
            let s = if k == 0 {
                (1.0f32 / 8.0).sqrt()
            } else {
                (2.0f32 / 8.0).sqrt()
            };
            for (n, &v) in row.iter().enumerate() {
                let angle = (std::f32::consts::PI * (2.0 * n as f32 + 1.0) * k as f32) / 16.0;
                assert_eq!(v.to_bits(), (s * angle.cos()).to_bits(), "BASIS[{k}][{n}]");
            }
        }
        // What the DC-only shortcut leans on.
        assert!(BASIS[0]
            .iter()
            .all(|v| v.to_bits() == BASIS[0][0].to_bits()));
    }

    #[test]
    fn round_trip_is_identity() {
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37 % 251) as f32) - 125.0;
        }
        let coeffs = dct2_8x8(&block);
        let back = idct2_8x8(&coeffs);
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_block_has_only_dc() {
        let block = [100.0f32; 64];
        let coeffs = dct2_8x8(&block);
        // Orthonormal DC of a constant c block = 8c.
        assert!((coeffs[0] - 800.0).abs() < 1e-2, "DC {}", coeffs[0]);
        for (i, &c) in coeffs.iter().enumerate().skip(1) {
            assert!(c.abs() < 1e-3, "AC[{i}] = {c}");
        }
    }

    #[test]
    fn energy_is_preserved() {
        // Parseval: orthonormal transform preserves the L2 norm.
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as f32 * 0.7).sin() * 100.0;
        }
        let coeffs = dct2_8x8(&block);
        let e_in: f32 = block.iter().map(|v| v * v).sum();
        let e_out: f32 = coeffs.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() < e_in * 1e-4, "{e_in} vs {e_out}");
    }

    #[test]
    fn horizontal_cosine_lands_on_one_row_coefficient() {
        // A pure horizontal cosine of frequency k has energy only at (0, k).
        let k = 3;
        let mut block = [0.0f32; 64];
        for y in 0..8 {
            for n in 0..8 {
                block[y * 8 + n] =
                    ((std::f32::consts::PI * (2.0 * n as f32 + 1.0) * k as f32) / 16.0).cos();
            }
        }
        let coeffs = dct2_8x8(&block);
        let peak = coeffs[k].abs();
        for (i, &c) in coeffs.iter().enumerate() {
            if i != k {
                assert!(c.abs() < peak * 1e-3 + 1e-4, "leak at {i}: {c}");
            }
        }
    }

    #[test]
    fn named_output_rows_are_the_whole_transforms_rows() {
        let mut coeffs = [0.0f32; 64];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = ((i * 53 % 97) as f32 - 48.0) * 3.5;
        }
        for (rows, cols) in [(0xFF, 0xFF), (0x03, 0x81), (0x01, 0x01)] {
            let whole = idct2_8x8_sparse(&coeffs, rows, cols);
            for outputs in [0u8, 0x01, 0x80, 0x5A, 0xFF] {
                let some = idct2_8x8_sparse_rows(&coeffs, rows, cols, outputs);
                for n in 0..8 {
                    let want = if outputs >> n & 1 == 1 {
                        whole[n * 8..n * 8 + 8].to_vec()
                    } else {
                        vec![0.0; 8]
                    };
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&some[n * 8..n * 8 + 8]), bits(&want), "row {n}");
                }
            }
        }
    }

    #[test]
    fn zigzag_is_a_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i], "duplicate {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Spot-check the canonical start of JPEG's order.
        assert_eq!(&ZIGZAG[..6], &[0, 1, 8, 16, 9, 2]);
        assert_eq!(ZIGZAG[63], 63);
    }
}
