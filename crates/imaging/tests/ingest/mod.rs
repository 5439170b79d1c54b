//! The wire's ingest entry held to the full decode. For one body,
//! `harvest_preproc::decode_for` at every output size the wire can ask for
//! — 1, 16, 96 and the image's own height — must give `decode_auto`'s
//! verdict, error text included; when both decode, every row the resize
//! taps is the full decode's row byte for byte, every other row is black,
//! and the model-ready tensors are bit-identical.

use harvest_imaging::{decode_auto, RgbImage};
use harvest_preproc::{decode_for, preprocess_decoded};
use harvest_tensor::bilinear_taps;

/// The header's height, if the body is long enough to claim one.
fn claimed_height(bytes: &[u8]) -> Option<usize> {
    Some(u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?) as usize)
}

/// Checks `decode_for` against `decode_auto` on `bytes`; returns the
/// latter's verdict for the caller's own bookkeeping.
pub fn decode_for_agrees(bytes: &[u8], case: &str) -> Result<RgbImage, String> {
    let full = decode_auto(bytes);
    let own = match &full {
        Ok(img) => img.height(),
        Err(_) => claimed_height(bytes).unwrap_or(1).clamp(1, 1 << 14),
    };
    for out_res in [1, 16, 96, own] {
        let sampled = decode_for(bytes, out_res);
        let (full, sampled) = match (&full, sampled) {
            (Ok(full), Ok(sampled)) => (full, sampled),
            (full, sampled) => {
                assert_eq!(
                    sampled.as_ref().err(),
                    full.as_ref().err(),
                    "{case} @{out_res}"
                );
                continue;
            }
        };
        assert_eq!(
            (sampled.width(), sampled.height()),
            (full.width(), full.height()),
            "{case} @{out_res}"
        );
        // An RTIF body decodes in full, so there every row must match.
        let mut tapped = vec![bytes.starts_with(b"RTIF"); full.height()];
        for (y0, y1, _) in bilinear_taps(full.height(), out_res) {
            tapped[y0] = true;
            tapped[y1] = true;
        }
        let row = full.width() * 3;
        let rows = full
            .data()
            .chunks_exact(row)
            .zip(sampled.data().chunks_exact(row));
        for (y, (want, got)) in rows.enumerate() {
            if tapped[y] {
                assert!(got == want, "{case} @{out_res}: tapped row {y} differs");
            } else {
                assert!(
                    got.iter().all(|&b| b == 0),
                    "{case} @{out_res}: row {y} not black"
                );
            }
        }
        let bits = |img: &RgbImage| -> Vec<u32> {
            let t = preprocess_decoded(img, out_res);
            t.data().iter().map(|v| v.to_bits()).collect()
        };
        assert!(
            bits(&sampled) == bits(full),
            "{case} @{out_res}: tensors differ"
        );
    }
    full
}
