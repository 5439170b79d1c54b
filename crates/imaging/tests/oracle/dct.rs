//! 8×8 type-II DCT and its inverse, the transform stage of the AJPG codec.
//!
//! Straightforward separable implementation with a precomputed 8×8 basis —
//! clarity over raw speed; the codec's cost profile (per-block work
//! proportional to pixel count) is what the preprocessing study needs.

/// Orthonormal 8-point DCT-II basis: `BASIS[k][n] = s(k)·cos((2n+1)kπ/16)`.
fn basis() -> [[f32; 8]; 8] {
    let mut b = [[0.0f32; 8]; 8];
    for (k, row) in b.iter_mut().enumerate() {
        let s = if k == 0 {
            (1.0f32 / 8.0).sqrt()
        } else {
            (2.0f32 / 8.0).sqrt()
        };
        for (n, v) in row.iter_mut().enumerate() {
            *v = s * ((std::f32::consts::PI * (2.0 * n as f32 + 1.0) * k as f32) / 16.0).cos();
        }
    }
    b
}

/// Forward 8×8 DCT-II of a block (row-major), orthonormal scaling.
pub fn dct2_8x8(block: &[f32; 64]) -> [f32; 64] {
    let b = basis();
    let mut tmp = [0.0f32; 64];
    // Rows
    for y in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += block[y * 8 + n] * b[k][n];
            }
            tmp[y * 8 + k] = acc;
        }
    }
    // Columns
    let mut out = [0.0f32; 64];
    for x in 0..8 {
        for k in 0..8 {
            let mut acc = 0.0;
            for n in 0..8 {
                acc += tmp[n * 8 + x] * b[k][n];
            }
            out[k * 8 + x] = acc;
        }
    }
    out
}

/// Inverse 8×8 DCT (DCT-III with orthonormal scaling).
pub fn idct2_8x8(coeffs: &[f32; 64]) -> [f32; 64] {
    let b = basis();
    let mut tmp = [0.0f32; 64];
    // Columns
    for x in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += coeffs[k * 8 + x] * b[k][n];
            }
            tmp[n * 8 + x] = acc;
        }
    }
    // Rows
    let mut out = [0.0f32; 64];
    for y in 0..8 {
        for n in 0..8 {
            let mut acc = 0.0;
            for k in 0..8 {
                acc += tmp[y * 8 + k] * b[k][n];
            }
            out[y * 8 + n] = acc;
        }
    }
    out
}

/// Zigzag scan order for an 8×8 block (JPEG's order).
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];
