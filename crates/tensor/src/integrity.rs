//! Buffer-integrity primitives: checksums, corruption scans, and the
//! bit-flip injector.
//!
//! Silent data corruption (a flipped DRAM bit in a weight matrix, a bad
//! activation value out of a failing cache line) does not crash a forward
//! pass — it ships wrong logits. This module supplies the *mechanics* the
//! detection layers above are built from:
//!
//! * [`checksum_f32`] — an order-sensitive FNV-1a 64 hash over the exact bit
//!   patterns of a buffer. Any single-bit change anywhere changes the sum,
//!   so it detects arbitrarily small weight corruption (a low mantissa bit
//!   included), which no magnitude-based scan can.
//! * [`scan_f32`] / [`ScanReport`] — a cheap one-pass NaN/Inf/max-|v| scan,
//!   the "activation sentinel" primitive: catches the exponent-bit flips
//!   that explode values without paying for a reference re-run.
//! * [`flip_bit_in`] — the injector: flip one chosen bit of one chosen
//!   element. *Which* elements and bits get flipped is decided elsewhere
//!   (`harvest_simkit::fault::FaultPlan`'s pure hash coins); this is only
//!   the mutation.
//! * [`max_abs_gap`] — the comparator for cross-check detection and for
//!   ground-truth escape classification. It is a true metric (triangle
//!   inequality holds exactly), which the recovery layer's "detect ⇒ no
//!   escape" guarantee depends on.

/// FNV-1a 64 offset basis: the value a fold starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Order-sensitive FNV-1a 64 checksum over the little-endian bit patterns
/// of `data`. Bit-exact: two buffers collide only if every element has the
/// same bits in the same order (up to hash collisions).
pub fn checksum_f32(data: &[f32]) -> u64 {
    let mut h = FNV_OFFSET;
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Fold `bytes` into a running FNV-1a 64 `hash`, one byte at a time.
/// Starting from [`FNV_OFFSET`], folding a buffer in any number of pieces
/// gives its [`checksum_bytes`].
#[inline]
pub fn fnv1a_fold(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a 64 over raw bytes (encoded inputs, quantized weights).
pub fn checksum_bytes(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a_fold(&mut h, data);
    h
}

/// Result of a one-pass corruption scan over a buffer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ScanReport {
    /// NaN elements seen.
    pub nan: u64,
    /// ±Inf elements seen.
    pub inf: u64,
    /// Largest finite |v| seen.
    pub max_abs: f32,
}

impl ScanReport {
    /// Does the scan indicate corruption: any non-finite value, or (when a
    /// limit is given) a finite value outside ±`range_limit`?
    pub fn violates(&self, range_limit: Option<f32>) -> bool {
        self.nan > 0 || self.inf > 0 || range_limit.is_some_and(|lim| self.max_abs > lim)
    }
}

/// One pass over `data` counting NaN/Inf and tracking the finite max-|v|.
pub fn scan_f32(data: &[f32]) -> ScanReport {
    let mut r = ScanReport::default();
    for &v in data {
        if v.is_nan() {
            r.nan += 1;
        } else if v.is_infinite() {
            r.inf += 1;
        } else {
            r.max_abs = r.max_abs.max(v.abs());
        }
    }
    r
}

/// Flip bit `bit` (0 = LSB of the mantissa, 31 = sign) of `data[idx]`.
pub fn flip_bit_in(data: &mut [f32], idx: usize, bit: u32) {
    debug_assert!(bit < 32);
    data[idx] = f32::from_bits(data[idx].to_bits() ^ (1u32 << bit));
}

/// Largest absolute element-wise difference between `a` and `b`. Any
/// non-finite element on either side yields `f32::INFINITY` (NaN would
/// otherwise poison the max and compare as "close"). A true metric on
/// finite buffers: `max_abs_gap(a, c) <= max_abs_gap(a, b) +
/// max_abs_gap(b, c)`, the property the detection-tolerance margins in the
/// recovery layer rely on.
pub fn max_abs_gap(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "gap over mismatched buffers");
    let mut gap = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        let d = (x - y).abs();
        if !d.is_finite() {
            return f32::INFINITY;
        }
        gap = gap.max(d);
    }
    gap
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let data: Vec<f32> = (0..257).map(|i| (i as f32) * 0.37 - 40.0).collect();
        let base = checksum_f32(&data);
        for (idx, bit) in [(0usize, 0u32), (1, 22), (100, 23), (200, 30), (256, 31)] {
            let mut corrupt = data.clone();
            flip_bit_in(&mut corrupt, idx, bit);
            assert_ne!(
                checksum_f32(&corrupt),
                base,
                "flip ({idx}, bit {bit}) went unnoticed"
            );
        }
    }

    #[test]
    fn checksum_is_order_sensitive() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [3.0f32, 2.0, 1.0];
        assert_ne!(checksum_f32(&a), checksum_f32(&b));
        assert_eq!(checksum_f32(&a), checksum_f32(&[1.0, 2.0, 3.0]));
    }

    #[test]
    fn byte_checksum_matches_known_fnv_vector() {
        // FNV-1a 64 of empty input is the offset basis.
        assert_eq!(checksum_bytes(&[]), 0xcbf2_9ce4_8422_2325);
        // And of "a": (basis ^ 0x61) * prime.
        assert_eq!(checksum_bytes(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn scan_counts_nan_inf_and_tracks_range() {
        let data = [
            1.0f32,
            -3.5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            2.0,
        ];
        let r = scan_f32(&data);
        assert_eq!(r.nan, 1);
        assert_eq!(r.inf, 2);
        assert_eq!(r.max_abs, 3.5);
        assert!(r.violates(None));
        let clean = scan_f32(&[0.5f32, -0.25]);
        assert!(!clean.violates(None));
        assert!(!clean.violates(Some(1.0)));
        assert!(clean.violates(Some(0.4)));
    }

    #[test]
    fn flip_bit_round_trips() {
        let mut data = [0.75f32, -123.5];
        let orig = data;
        flip_bit_in(&mut data, 0, 30);
        assert_ne!(data[0], orig[0]);
        flip_bit_in(&mut data, 0, 30);
        assert_eq!(data, orig);
        // Sign bit negates.
        flip_bit_in(&mut data, 1, 31);
        assert_eq!(data[1], 123.5);
    }

    #[test]
    fn gap_is_a_metric_and_nan_safe() {
        let a = [1.0f32, 2.0];
        let b = [1.5f32, 1.0];
        let c = [0.0f32, 0.0];
        assert_eq!(max_abs_gap(&a, &a), 0.0);
        assert_eq!(max_abs_gap(&a, &b), 1.0);
        assert!(max_abs_gap(&a, &c) <= max_abs_gap(&a, &b) + max_abs_gap(&b, &c));
        assert_eq!(max_abs_gap(&a, &[f32::NAN, 2.0]), f32::INFINITY);
        assert_eq!(max_abs_gap(&a, &[f32::INFINITY, 2.0]), f32::INFINITY);
    }
}
