//! Fuzz-ish decoder robustness: drive both codecs with streams mangled by
//! the deterministic input-corruption injector ([`FaultPlan::corrupt_input`])
//! and with hand-built hostile headers. The contract under test is the
//! integrity layer's foundation — a corrupt byte stream must surface as
//! `Err`, never as a panic, an abort, or a runaway allocation. Every stream
//! also goes through the wire's ingest entry (`ingest/`), which must reach
//! the full decode's verdict, error text included, and its tensor.

mod ingest;
mod oracle;

use harvest_imaging::{ajpg_decode, rtif_decode, ImageFormat, RgbImage};
use harvest_imaging::{FieldScene, SynthImageSpec};
use harvest_simkit::FaultPlan;

fn sample_image() -> RgbImage {
    FieldScene::RowCrop.render(&SynthImageSpec {
        width: 48,
        height: 36,
        seed: 11,
    })
}

fn decode(fmt: &ImageFormat, bytes: &[u8]) -> Result<RgbImage, String> {
    fmt.decode(bytes)
}

#[test]
fn injector_mangled_streams_never_panic_either_codec() {
    let img = sample_image();
    let plan = FaultPlan::new(0xC0_FFEE).with_input_corruption(0.999);
    for fmt in [
        ImageFormat::camera_default(),
        ImageFormat::Ajpg {
            quality: 40,
            subsample: false,
        },
        ImageFormat::Rtif,
    ] {
        let clean = fmt.encode(&img);
        let mut corrupted = 0u32;
        let mut rejected = 0u32;
        for id in 0..200u64 {
            let mut bytes = clean.clone();
            if plan.corrupt_input(id, &mut bytes) {
                corrupted += 1;
                // The only acceptable outcomes are a decoded image or an
                // error — reaching the next iteration proves no panic.
                if decode(&fmt, &bytes).is_err() {
                    rejected += 1;
                }
                let _ = ingest::ingest_agrees(&bytes, &format!("{} id {id}", fmt.label()));
            }
        }
        assert!(corrupted > 150, "{}: injector barely fired", fmt.label());
        assert!(
            rejected > 0,
            "{}: no mangled stream was ever rejected",
            fmt.label()
        );
    }
}

#[test]
fn injector_corruption_is_deterministic_per_id() {
    let img = sample_image();
    let clean = rtif_encode_bytes(&img);
    let plan = FaultPlan::new(42).with_input_corruption(0.9);
    for id in 0..50u64 {
        let mut a = clean.clone();
        let mut b = clean.clone();
        assert_eq!(
            plan.corrupt_input(id, &mut a),
            plan.corrupt_input(id, &mut b)
        );
        assert_eq!(a, b, "id {id}: corruption must be a pure function of id");
    }
}

fn rtif_encode_bytes(img: &RgbImage) -> Vec<u8> {
    ImageFormat::Rtif.encode(img)
}

#[test]
fn hostile_ajpg_headers_are_rejected_without_allocation() {
    let img = sample_image();
    let mut bytes = ImageFormat::camera_default().encode(&img);
    // Claim a ~4-billion-pixel-per-axis image: must fail fast on the
    // dimension cap, not attempt a multi-GiB plane allocation.
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    let err = ajpg_decode(&bytes).unwrap_err();
    assert!(err.contains("implausible"), "got: {err}");
    ingest::ingest_agrees(&bytes, "4G x 4G").unwrap_err();
    // Dimensions under the per-axis cap whose product is still huge.
    bytes[4..8].copy_from_slice(&16384u32.to_le_bytes());
    bytes[8..12].copy_from_slice(&16384u32.to_le_bytes());
    assert!(ajpg_decode(&bytes).is_err());
    ingest::ingest_agrees(&bytes, "16384 x 16384").unwrap_err();
    // Header cut mid-field.
    assert!(ajpg_decode(&bytes[..7]).is_err());
    assert!(ajpg_decode(&bytes[..13]).is_err());
    ingest::ingest_agrees(&bytes[..7], "7-byte stream").unwrap_err();
    let clean = ImageFormat::camera_default().encode(&img);
    ingest::ingest_agrees(&clean[..13], "13-byte stream").unwrap_err();
    // A zero axis either way round (the resize's taps need a positive
    // height), one past the per-axis cap, and an area one past the pixel
    // cap with both axes under it.
    for (w, h, what) in [
        (0u32, 36u32, "0 x N"),
        (48, 0, "N x 0"),
        (16385, 36, "MAX_DIM + 1"),
        (48, 16385, "N x (MAX_DIM + 1)"),
        (16384, 1025, "area over MAX_PIXELS"),
    ] {
        let mut bytes = ImageFormat::camera_default().encode(&img);
        bytes[4..8].copy_from_slice(&w.to_le_bytes());
        bytes[8..12].copy_from_slice(&h.to_le_bytes());
        let err = ingest::ingest_agrees(&bytes, what).unwrap_err();
        assert!(ajpg_decode(&bytes).is_err(), "{what}: {err}");
    }
}

#[test]
fn hostile_rtif_headers_are_rejected_without_allocation() {
    let img = sample_image();
    let mut bytes = ImageFormat::Rtif.encode(&img);
    bytes[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
    bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(rtif_decode(&bytes).is_err());
    assert!(rtif_decode(&bytes[..6]).is_err());
    assert!(rtif_decode(&bytes[..11]).is_err());
}

#[test]
fn every_byte_truncation_of_an_ajpg_stream_errors_or_decodes() {
    let img = FieldScene::LeafCloseup.render(&SynthImageSpec {
        width: 24,
        height: 24,
        seed: 3,
    });
    let clean = ImageFormat::camera_default().encode(&img);
    for cut in 0..clean.len() {
        // Exhaustive truncation sweep: no prefix may panic. (Short
        // prefixes must error; longer ones may decode if only padding was
        // lost.)
        let res = ajpg_decode(&clean[..cut]);
        let _ = ingest::ingest_agrees(&clean[..cut], &format!("cut {cut}"));
        if cut < 14 {
            assert!(res.is_err(), "cut {cut}: accepted a headerless stream");
        }
    }
}

#[test]
fn single_bit_flips_in_the_entropy_stream_never_panic() {
    let img = FieldScene::LeafCloseup.render(&SynthImageSpec {
        width: 16,
        height: 16,
        seed: 5,
    });
    let clean = ImageFormat::camera_default().encode(&img);
    for byte in 14..clean.len() {
        for bit in 0..8 {
            let mut bytes = clean.clone();
            bytes[byte] ^= 1 << bit;
            let _ = ajpg_decode(&bytes); // Ok or Err both fine; no panic.
            let _ = ingest::ingest_agrees(&bytes, &format!("byte {byte} bit {bit}"));
        }
    }
}
