//! Row-sampled decoding held to the decoder it generalizes (`oracle/
//! ajpg_full.rs`, verbatim): `ajpg_decode` is its every-row case, and
//! `ajpg_decode_rows` with any row set reaches the same `Ok`/`Err` — error
//! text included — for every stream, whole or damaged, with each named row
//! byte for byte the full decode's row and every other row black.

mod oracle;

use harvest_imaging::{
    ajpg_decode, ajpg_decode_rows, ajpg_encode, AjpgOptions, FieldScene, RgbImage, SynthImageSpec,
};

/// SplitMix64: the suite's only randomness, fixed per test.
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

/// Row sets of every shape for an `h`-row image: none, all, one at each
/// end, every `k`-th from a random start, a random scatter, and repeats.
fn row_sets(h: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    let mut sets = vec![
        vec![],
        (0..h).collect(),
        vec![0],
        vec![h - 1],
        vec![h / 2; 3],
    ];
    for k in [2, 7, 8, 9, 16, 32] {
        let start = rng.below(k as u64) as usize;
        sets.push((start..h).step_by(k).collect());
    }
    sets.push(
        (0..rng.below(6))
            .map(|_| rng.below(h as u64) as usize)
            .collect(),
    );
    sets
}

/// `ajpg_decode_rows(bytes, rows)` against the oracle's full decode.
fn assert_rows_agree(bytes: &[u8], rows: &[usize], case: &str) {
    let want = oracle::ajpg_full::ajpg_decode(bytes);
    let mut seen = None;
    let got = ajpg_decode_rows(bytes, |w, h| {
        seen = Some((w, h));
        rows.iter().copied().filter(move |&y| y < h)
    });
    let (want, got) = match (want, got) {
        (Ok(want), Ok(got)) => (want, got),
        (want, got) => {
            assert_eq!(got.err(), want.err(), "{case}");
            return;
        }
    };
    let dims = (want.width(), want.height());
    assert_eq!(
        seen,
        Some(dims),
        "{case}: rows called with the header's size"
    );
    assert_eq!((got.width(), got.height()), dims, "{case}");
    let row = want.width() * 3;
    for (y, (w, g)) in want
        .data()
        .chunks_exact(row)
        .zip(got.data().chunks_exact(row))
        .enumerate()
    {
        if rows.contains(&y) {
            assert!(g == w, "{case}: named row {y} differs");
        } else {
            assert!(g.iter().all(|&b| b == 0), "{case}: row {y} not black");
        }
    }
}

fn render(scene: FieldScene, width: usize, height: usize, seed: u64) -> RgbImage {
    scene.render(&SynthImageSpec {
        width,
        height,
        seed,
    })
}

#[test]
fn every_row_set_reads_the_oracles_rows_across_sizes_and_subsampling() {
    let mut rng = Rng(0x20E5);
    let scenes = [
        FieldScene::RowCrop,
        FieldScene::LeafCloseup,
        FieldScene::FruitStudio,
        FieldScene::GroundFeed,
    ];
    let sizes = [
        (1, 1),
        (7, 9),
        (8, 8),
        (17, 33),
        (61, 47),
        (128, 128),
        (233, 64),
    ];
    for (si, &(w, h)) in sizes.iter().enumerate() {
        for (ci, &scene) in scenes.iter().enumerate() {
            let img = render(scene, w, h, (si * 4 + ci) as u64);
            for quality in [1, 50, 85, 100] {
                for subsample in [true, false] {
                    let stream = ajpg_encode(&img, &AjpgOptions { quality, subsample });
                    let case = format!("{scene:?} {w}x{h} q{quality} 420={subsample}");
                    assert!(
                        ajpg_decode(&stream) == oracle::ajpg_full::ajpg_decode(&stream),
                        "{case}: the every-row case is the full decode"
                    );
                    for rows in row_sets(h, &mut rng) {
                        assert_rows_agree(&stream, &rows, &format!("{case} rows {rows:?}"));
                    }
                }
            }
        }
    }
}

#[test]
fn damaged_streams_get_the_oracles_verdict_for_any_row_set() {
    let mut rng = Rng(0xDA3A6E);
    let corpus = [
        ajpg_encode(
            &render(FieldScene::LeafCloseup, 24, 24, 3),
            &AjpgOptions::default(),
        ),
        ajpg_encode(
            &render(FieldScene::RowCrop, 48, 36, 11),
            &AjpgOptions {
                quality: 40,
                subsample: false,
            },
        ),
    ];
    for (i, clean) in corpus.iter().enumerate() {
        // Every truncation, then every single bit flip, each under a fresh
        // row set: a verdict that depended on which rows are decoded would
        // show as a mismatch somewhere in the sweep.
        for cut in 0..=clean.len() {
            let rows = row_sets(36, &mut rng).swap_remove(rng.below(12) as usize);
            assert_rows_agree(&clean[..cut], &rows, &format!("stream {i} cut {cut}"));
        }
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                let rows = row_sets(36, &mut rng).swap_remove(rng.below(12) as usize);
                assert_rows_agree(&bytes, &rows, &format!("stream {i} byte {byte} bit {bit}"));
            }
        }
    }
}

#[test]
fn rows_are_asked_for_only_after_the_header_passes() {
    let clean = ajpg_encode(
        &render(FieldScene::RowCrop, 48, 36, 11),
        &AjpgOptions::default(),
    );
    let mut hostile = Vec::new();
    for (w, h) in [
        (0u32, 36u32),
        (48, 0),
        (16385, 36),
        (16384, 1025),
        (u32::MAX, 1),
    ] {
        let mut bytes = clean.clone();
        bytes[4..8].copy_from_slice(&w.to_le_bytes());
        bytes[8..12].copy_from_slice(&h.to_le_bytes());
        hostile.push(bytes);
    }
    hostile.extend((0..14).map(|cut| clean[..cut].to_vec()));
    for bytes in &hostile {
        let got = ajpg_decode_rows(bytes, |w, h| -> Vec<usize> {
            panic!("rows asked for a rejected {w}x{h} header")
        });
        assert_eq!(got.err(), oracle::ajpg_full::ajpg_decode(bytes).err());
    }
}
