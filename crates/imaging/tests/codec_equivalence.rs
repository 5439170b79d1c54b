//! The bit-identity contract of the word-level, sparse-aware codec, held
//! against the codec it replaced (`oracle/`, verbatim): same decoded
//! pixels, same encoded bytes, same `Ok`/`Err` — and the same error text —
//! for every stream, whole or damaged. Every stream also goes through the
//! wire's ingest entry (`ingest/`), held to the full decode's verdict and
//! tensor.

mod ingest;
mod oracle;

use harvest_imaging::bitio::{BitReader, BitWriter};
use harvest_imaging::dct::{dct2_8x8, idct2_8x8, idct2_8x8_dc, idct2_8x8_sparse};
use harvest_imaging::{
    ajpg_decode, ajpg_encode, AjpgOptions, FieldScene, RgbImage, SynthImageSpec,
};
use oracle::bitio::{BitReader as BitwiseReader, BitWriter as BitwiseWriter};

const SCENES: [FieldScene; 4] = [
    FieldScene::RowCrop,
    FieldScene::LeafCloseup,
    FieldScene::FruitStudio,
    FieldScene::GroundFeed,
];

fn oracle_options(opts: &AjpgOptions) -> oracle::ajpg::AjpgOptions {
    oracle::ajpg::AjpgOptions {
        quality: opts.quality,
        subsample: opts.subsample,
    }
}

/// SplitMix64: the suites' only randomness, fixed per test.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn bits_of(block: &[f32; 64]) -> Vec<u32> {
    block.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn streams_and_pixels_match_the_oracle_across_sizes_qualities_and_scenes() {
    let sizes = [(1, 1), (7, 9), (8, 8), (17, 33), (233, 233), (512, 512)];
    for (si, &(width, height)) in sizes.iter().enumerate() {
        for (ci, scene) in SCENES.iter().enumerate() {
            let img = scene.render(&SynthImageSpec {
                width,
                height,
                seed: (si * 4 + ci) as u64,
            });
            for quality in [1, 30, 85, 100] {
                for subsample in [true, false] {
                    let opts = AjpgOptions { quality, subsample };
                    let case = format!("{scene:?} {width}x{height} q{quality} 420={subsample}");
                    let stream = ajpg_encode(&img, &opts);
                    let reference = oracle::ajpg::ajpg_encode(&img, &oracle_options(&opts));
                    assert!(stream == reference, "{case}: encoded bytes differ");
                    let pixels = ajpg_decode(&stream).expect("decodes");
                    let expected = oracle::ajpg::ajpg_decode(&stream).expect("oracle decodes");
                    assert!(pixels == expected, "{case}: decoded pixels differ");
                    ingest::ingest_agrees(&stream, &case).expect("decodes");
                }
            }
        }
    }
}

#[test]
fn flat_and_checkerboard_extremes_match_the_oracle() {
    // Flat images are all DC-only blocks; a 1-px checkerboard fills every
    // coefficient row and column; 8-px cells align with the block grid.
    let images = [
        RgbImage::solid(40, 24, [0, 0, 0]),
        RgbImage::solid(40, 24, [255, 255, 255]),
        RgbImage::solid(33, 17, [90, 160, 70]),
        RgbImage::checkerboard(32, 32, 1),
        RgbImage::checkerboard(48, 40, 8),
    ];
    for (i, img) in images.iter().enumerate() {
        for quality in [1, 50, 100] {
            for subsample in [true, false] {
                let opts = AjpgOptions { quality, subsample };
                let stream = ajpg_encode(img, &opts);
                assert!(
                    stream == oracle::ajpg::ajpg_encode(img, &oracle_options(&opts)),
                    "image {i} q{quality} 420={subsample}: encoded bytes differ"
                );
                let case = format!("image {i} q{quality} 420={subsample}");
                assert_eq!(
                    ajpg_decode(&stream),
                    oracle::ajpg::ajpg_decode(&stream),
                    "{case}"
                );
                ingest::ingest_agrees(&stream, &case).expect("decodes");
            }
        }
    }
}

#[test]
fn ingest_matches_the_full_decode_on_ragged_oblong_bodies_either_subsampling() {
    // Width and height sampled apart and not multiples of 8: the grid's
    // columns and rows, and chroma blocks the image only partly covers.
    for (si, &(width, height)) in [(9, 7), (61, 47), (100, 37), (37, 100), (233, 64), (512, 24)]
        .iter()
        .enumerate()
    {
        for (ci, scene) in SCENES.iter().enumerate() {
            let img = scene.render(&SynthImageSpec {
                width,
                height,
                seed: (si * 4 + ci) as u64,
            });
            for quality in [1, 85] {
                for subsample in [true, false] {
                    let stream = ajpg_encode(&img, &AjpgOptions { quality, subsample });
                    let case = format!("{scene:?} {width}x{height} q{quality} 420={subsample}");
                    ingest::ingest_agrees(&stream, &case).expect("decodes");
                }
            }
        }
    }
}

/// The streams `corrupt_streams.rs` damages, plus one without subsampling.
fn corpus() -> Vec<Vec<u8>> {
    let render = |scene: FieldScene, width, height, seed| {
        scene.render(&SynthImageSpec {
            width,
            height,
            seed,
        })
    };
    let camera = AjpgOptions::default();
    let full = AjpgOptions {
        quality: 40,
        subsample: false,
    };
    vec![
        ajpg_encode(&render(FieldScene::LeafCloseup, 24, 24, 3), &camera),
        ajpg_encode(&render(FieldScene::LeafCloseup, 16, 16, 5), &camera),
        ajpg_encode(&render(FieldScene::RowCrop, 48, 36, 11), &camera),
        ajpg_encode(&render(FieldScene::RowCrop, 48, 36, 11), &full),
    ]
}

#[test]
fn every_truncation_gets_the_oracles_verdict() {
    for (i, clean) in corpus().iter().enumerate() {
        for cut in 0..=clean.len() {
            let case = format!("stream {i} cut at {cut}");
            assert_eq!(
                ajpg_decode(&clean[..cut]),
                oracle::ajpg::ajpg_decode(&clean[..cut]),
                "{case}"
            );
            let _ = ingest::ingest_agrees(&clean[..cut], &case);
        }
    }
}

#[test]
fn every_single_bit_flip_gets_the_oracles_verdict() {
    for (i, clean) in corpus().iter().enumerate() {
        let (mut accepted, mut rejected) = (0, 0);
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                let case = format!("stream {i} byte {byte} bit {bit}");
                let got = ajpg_decode(&bytes);
                assert_eq!(got, oracle::ajpg::ajpg_decode(&bytes), "{case}");
                let _ = ingest::ingest_agrees(&bytes, &case);
                match got {
                    Ok(_) => accepted += 1,
                    Err(_) => rejected += 1,
                }
            }
        }
        assert!(
            accepted > 0 && rejected > 0,
            "stream {i}: the sweep must reach both verdicts ({accepted} ok, {rejected} err)"
        );
    }
}

/// Both readers from bit `offset` of `bytes`: the same sequence of
/// exp-Golomb results, error text included, and the same positions.
fn assert_same_ue_reads(bytes: &[u8], offset: usize, what: &str) {
    let mut fast = BitReader::new(bytes);
    let mut slow = BitwiseReader::new(bytes);
    for _ in 0..offset {
        assert_eq!(fast.get_bit(), slow.get_bit());
    }
    loop {
        let (got, want) = (fast.get_ue(), slow.get_ue());
        assert_eq!(
            got,
            want,
            "{what}: offset {offset} at bit {}",
            slow.bit_pos()
        );
        if want.is_err() {
            break;
        }
        assert_eq!(fast.bit_pos(), slow.bit_pos(), "{what}: offset {offset}");
    }
}

#[test]
fn word_reads_equal_bitwise_reads_at_every_offset() {
    let mut rng = Rng(0xB175);
    for round in 0..40 {
        // A stream of codes of mixed lengths, values up to 2^40.
        let mut w = BitwiseWriter::new();
        for _ in 0..rng.below(40) {
            let width = rng.below(41);
            w.put_ue(rng.next() >> (63 - width));
        }
        let bytes = w.finish();
        // Started at any offset the codes are misaligned soup; both
        // readers must still agree on every value and on where and how
        // the stream ends — which sweeps the last eight bytes.
        for offset in 0..bytes.len() * 8 + 1 {
            assert_same_ue_reads(&bytes, offset, &format!("round {round}"));
        }
        for offset in 0..bytes.len() * 8 {
            let mut fast = BitReader::new(&bytes);
            let mut slow = BitwiseReader::new(&bytes);
            for _ in 0..offset {
                fast.get_bit().unwrap();
                slow.get_bit().unwrap();
            }
            loop {
                let n = rng.below(66) as u8;
                let (got, want) = (fast.get_bits(n), slow.get_bits(n));
                assert_eq!(got, want, "round {round} offset {offset} n {n}");
                if want.is_err() {
                    break;
                }
                let (got, want) = (fast.get_se(), slow.get_se());
                assert_eq!(got, want, "round {round} offset {offset}");
                if want.is_err() {
                    break;
                }
            }
        }
    }
}

#[test]
fn long_codes_and_codes_cut_short_read_like_the_oracle() {
    // Codes of 59 to 127 bits — past what the window holds at any
    // alignment, up to the longest the format allows — behind 0..8 bits of
    // lead-in, then every byte prefix of that stream: exhaustion mid-code.
    for zeros in 29..=63u32 {
        for lead in 0..8u8 {
            let mut w = BitwiseWriter::new();
            w.put_bits(0xFF, lead);
            let lo = (1u64 << zeros) - 1;
            for v in [lo, lo + (0x5A5A_5A5A_5A5A_5A5A & lo), lo * 2] {
                w.put_ue(v);
            }
            let bytes = w.finish();
            let what = format!("{zeros} zeros");
            assert_same_ue_reads(&bytes, lead as usize, &what);
            for cut in 0..bytes.len() {
                assert_same_ue_reads(&bytes[..cut], (lead as usize).min(cut * 8), &what);
            }
        }
    }
    // A run of zeros either side of 64: shorter is a long code the stream
    // cannot finish (exhausted), 64 or more is malformed.
    for zero_bits in 50..=80 {
        for lead in 0..8u8 {
            let mut w = BitwiseWriter::new();
            w.put_bits(0xFF, lead);
            w.put_bits(0, 40);
            w.put_bits(0, zero_bits - 40);
            w.put_bits(0xFF, 8);
            let bytes = w.finish();
            assert_same_ue_reads(&bytes, lead as usize, &format!("run of {zero_bits}"));
        }
    }
}

#[test]
fn writer_emits_the_oracles_bytes() {
    let mut rng = Rng(0x3417E);
    for round in 0..200 {
        let mut fast = BitWriter::new();
        let mut slow = BitwiseWriter::new();
        for _ in 0..rng.below(60) {
            match rng.below(4) {
                0 => {
                    let (v, n) = (rng.next(), rng.below(65) as u8);
                    fast.put_bits(v, n);
                    slow.put_bits(v, n);
                }
                1 => {
                    let v = rng.next() >> rng.below(64);
                    fast.put_ue(v - (v == u64::MAX) as u64);
                    slow.put_ue(v - (v == u64::MAX) as u64);
                }
                2 => {
                    let v = (rng.next() >> rng.below(64)) as i64 / 2;
                    let v = if rng.below(2) == 0 { v } else { -v };
                    fast.put_se(v);
                    slow.put_se(v);
                }
                _ => {
                    let bit = rng.below(2) == 1;
                    fast.put_bit(bit);
                    slow.put_bit(bit);
                }
            }
            assert_eq!(fast.bit_len(), slow.bit_len(), "round {round}");
        }
        assert_eq!(fast.finish(), slow.finish(), "round {round}");
    }
}

#[test]
fn sparse_and_dc_only_inverse_transforms_equal_the_dense_oracle() {
    let mut rng = Rng(0x1DC7);
    let coefficient = |rng: &mut Rng| {
        let magnitude = (rng.below(2041) as f32) * [1.0, 3.0, 16.0, 255.0][rng.below(4) as usize];
        if rng.below(2) == 0 {
            magnitude
        } else {
            -magnitude
        }
    };
    for round in 0..4000 {
        // Coefficients confined to a random set of rows and columns, some
        // of them zero inside it, as the decoder's scan leaves them.
        let (rows, cols) = (rng.below(256) as u8, rng.below(256) as u8);
        let mut coeffs = [0.0f32; 64];
        for (i, c) in coeffs.iter_mut().enumerate() {
            let live = rows >> (i / 8) & 1 == 1 && cols >> (i % 8) & 1 == 1;
            if live && rng.below(3) > 0 {
                *c = coefficient(&mut rng);
            }
        }
        let want = bits_of(&oracle::dct::idct2_8x8(&coeffs));
        assert_eq!(
            bits_of(&idct2_8x8_sparse(&coeffs, rows, cols)),
            want,
            "round {round}: masks {rows:08b}/{cols:08b}"
        );
        // Wider masks than needed, and the dense entry point, change nothing.
        assert_eq!(bits_of(&idct2_8x8_sparse(&coeffs, 0xFF, 0xFF)), want);
        assert_eq!(bits_of(&idct2_8x8(&coeffs)), want);
        assert_eq!(
            bits_of(&dct2_8x8(&coeffs)),
            bits_of(&oracle::dct::dct2_8x8(&coeffs)),
            "round {round}: forward transform"
        );
    }
    // DC only, zero included: one value, sixty-four times.
    for step in -2040..=2040 {
        for scale in [1.0f32, 16.0, 255.0] {
            let dc = step as f32 * scale;
            let mut coeffs = [0.0f32; 64];
            coeffs[0] = dc;
            let want = bits_of(&oracle::dct::idct2_8x8(&coeffs));
            assert!(
                want.iter().all(|&b| b == idct2_8x8_dc(dc).to_bits()),
                "dc {dc}"
            );
        }
    }
}
