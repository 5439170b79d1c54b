//! # harvest-imaging
//!
//! Image substrate for the HARVEST reproduction: an 8-bit RGB container, a
//! deterministic synthetic *field image* generator (standing in for the
//! proprietary agriculture datasets), and two real codecs —
//!
//! * **AJPG**, a baseline-JPEG-style lossy codec (RGB→YCbCr, optional 4:2:0
//!   chroma subsampling, 8×8 DCT, quality-scaled quantization, zigzag RLE,
//!   exp-Golomb entropy coding). The paper's preprocessing study (Fig. 7)
//!   hinges on decode cost varying with format and pixel count; with a real
//!   codec that cost is *measured* rather than asserted.
//! * **RTIF**, a trivially-packed raw container, standing in for the TIFF
//!   images some datasets ship (large, cheap to decode — the other end of
//!   the decode-cost spectrum).
//!
//! All generation is seeded: the same dataset/sample id always produces the
//! same bytes, which keeps every experiment reproducible.

pub(crate) mod ajpg;
pub(crate) mod analysis;
pub mod bitio;
pub mod dct;
pub mod image;
pub(crate) mod rtif;
pub mod stitch;
pub(crate) mod synth;

pub use ajpg::{ajpg_decode, ajpg_decode_rows, ajpg_encode, AjpgOptions};
pub use analysis::{heatmap, residue_cover_fraction};
pub use image::{psnr, RgbImage};
pub use rtif::{rtif_decode, rtif_encode};
pub use stitch::{capture_survey, stitch, tile_mosaic, SurveyGrid};
pub use synth::{FieldScene, SynthImageSpec};

/// On-disk image format, as the dataset registry sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ImageFormat {
    /// JPEG-style lossy (quality 1–100, 4:2:0 when `subsample`).
    Ajpg { quality: u8, subsample: bool },
    /// Raw packed RGB (TIFF-like): big files, near-free decode.
    Rtif,
}

impl ImageFormat {
    /// Reasonable camera default: quality-85 subsampled AJPG.
    pub fn camera_default() -> Self {
        ImageFormat::Ajpg {
            quality: 85,
            subsample: true,
        }
    }

    /// Encode an image in this format.
    pub fn encode(&self, img: &RgbImage) -> Vec<u8> {
        match *self {
            ImageFormat::Ajpg { quality, subsample } => {
                ajpg_encode(img, &AjpgOptions { quality, subsample })
            }
            ImageFormat::Rtif => rtif_encode(img),
        }
    }

    /// Decode bytes produced by [`ImageFormat::encode`].
    pub fn decode(&self, bytes: &[u8]) -> Result<RgbImage, String> {
        match *self {
            ImageFormat::Ajpg { .. } => ajpg_decode(bytes),
            ImageFormat::Rtif => rtif_decode(bytes),
        }
    }

    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            ImageFormat::Ajpg { .. } => "ajpg",
            ImageFormat::Rtif => "rtif",
        }
    }
}

/// Decode a byte stream whose format is unknown, sniffing the container
/// magic — the entry point for request bodies arriving over a wire, where
/// no dataset registry says what the client sent. Same hardening contract
/// as the codecs themselves: any byte soup returns `Err`, never panics.
pub fn decode_auto(bytes: &[u8]) -> Result<RgbImage, String> {
    match bytes.get(..4) {
        Some(b"AJPG") => ajpg_decode(bytes),
        Some(b"RTIF") => rtif_decode(bytes),
        _ => Err("unrecognized image container (expected AJPG or RTIF magic)".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_dispatch_round_trips() {
        let img = RgbImage::checkerboard(32, 24, 8);
        for fmt in [
            ImageFormat::Rtif,
            ImageFormat::Ajpg {
                quality: 90,
                subsample: false,
            },
        ] {
            let bytes = fmt.encode(&img);
            let back = fmt.decode(&bytes).expect("decode");
            assert_eq!(back.width(), 32);
            assert_eq!(back.height(), 24);
        }
    }

    #[test]
    fn decode_auto_sniffs_both_containers_and_rejects_soup() {
        let img = RgbImage::checkerboard(24, 16, 4);
        for fmt in [
            ImageFormat::Rtif,
            ImageFormat::Ajpg {
                quality: 90,
                subsample: false,
            },
        ] {
            let bytes = fmt.encode(&img);
            let back = decode_auto(&bytes).expect("sniffed decode");
            assert_eq!((back.width(), back.height()), (24, 16));
        }
        assert!(decode_auto(b"").is_err());
        assert!(decode_auto(b"AJP").is_err(), "short of the magic");
        assert!(decode_auto(b"PNG\r\x1a\n").is_err());
        // Magic alone is not a valid stream either — the codec must still
        // reject the truncated remainder, not panic.
        assert!(decode_auto(b"AJPG").is_err());
        assert!(decode_auto(b"RTIF\x01\x02").is_err());
    }

    #[test]
    fn ajpg_is_smaller_than_raw_on_smooth_images() {
        let img = RgbImage::solid(64, 64, [120, 140, 90]);
        let raw = ImageFormat::Rtif.encode(&img);
        let jpg = ImageFormat::Ajpg {
            quality: 85,
            subsample: true,
        }
        .encode(&img);
        assert!(
            jpg.len() * 4 < raw.len(),
            "jpg {} vs raw {}",
            jpg.len(),
            raw.len()
        );
    }
}
