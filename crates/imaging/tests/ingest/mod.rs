//! The wire's ingest entry held to the full decode. For one body,
//! `harvest_preproc::ingest` at every output size the wire can ask for —
//! 1, 7, 16, 96 and the image's own height — must give the verdict of
//! `preprocess_decoded(&decode_auto(body)?, out_res)`, error text
//! included, and when both decode, the same tensor bit for bit. The ingest
//! it replaced (`oracle/ajpg_rows.rs`'s `decode_for`, verbatim) is held to
//! the same verdict and bits.

use crate::oracle::ajpg_rows::decode_for;
use harvest_imaging::{decode_auto, RgbImage};
use harvest_preproc::{ingest, preprocess_decoded};
use harvest_tensor::Tensor;

/// The header's height, if the body is long enough to claim one.
fn claimed_height(bytes: &[u8]) -> Option<usize> {
    Some(u32::from_le_bytes(bytes.get(8..12)?.try_into().ok()?) as usize)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// Checks `ingest` (and the oracle `decode_for`) against `decode_auto` →
/// `preprocess_decoded` on `bytes`; returns `decode_auto`'s verdict for the
/// caller's own bookkeeping.
pub fn ingest_agrees(bytes: &[u8], case: &str) -> Result<RgbImage, String> {
    let full = decode_auto(bytes);
    let own = match &full {
        Ok(img) => img.height(),
        Err(_) => claimed_height(bytes).unwrap_or(1).clamp(1, 1 << 14),
    };
    for out_res in [1, 7, 16, 96, own] {
        let want = full.as_ref().map(|img| preprocess_decoded(img, out_res));
        let old = decode_for(bytes, out_res).map(|img| preprocess_decoded(&img, out_res));
        for (got, which) in [(ingest(bytes, out_res), "ingest"), (old, "decode_for")] {
            match (&want, got) {
                (Ok(want), Ok(got)) => {
                    assert_eq!(got.shape(), &[3, out_res, out_res], "{case} @{out_res}");
                    assert!(
                        bits(&got) == bits(want),
                        "{case} @{out_res}: {which}'s tensor differs"
                    );
                }
                (want, got) => assert_eq!(
                    got.err(),
                    want.as_ref().err().map(|e| e.to_string()),
                    "{case} @{out_res}: {which}'s verdict"
                ),
            }
        }
    }
    full
}
