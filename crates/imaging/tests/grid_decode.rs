//! Sampled decoding held to the full decoder (`oracle/ajpg_full.rs`,
//! verbatim): `ajpg_decode`, the grid at every pixel, returns that
//! decoder's image, and `AjpgGrid::decode` with any rows and columns
//! reaches the same `Ok`/`Err` — error text included —
//! for every stream, whole or damaged, with each pixel where a named row
//! crosses a named column byte for byte the full decode's. One grid is
//! reused for every call, as a server thread reuses it, so a buffer left
//! over from a larger or smaller stream would show.

mod oracle;

use harvest_imaging::{
    ajpg_decode, ajpg_encode, AjpgGrid, AjpgOptions, FieldScene, RgbImage, SynthImageSpec,
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

/// Index sets of every shape for an axis of `n`, ascending without
/// repeats: none, all, one at each end, the middle, every `k`-th from a
/// random start, and a random scatter.
fn index_sets(n: usize, rng: &mut Rng) -> Vec<Vec<usize>> {
    let mut sets = vec![vec![], (0..n).collect(), vec![0], vec![n - 1], vec![n / 2]];
    for k in [2, 7, 8, 9, 16, 32] {
        let start = rng.below(k as u64) as usize;
        sets.push((start..n).step_by(k).collect());
    }
    let mut scatter: Vec<usize> = (0..rng.below(6))
        .map(|_| rng.below(n as u64) as usize)
        .collect();
    scatter.sort_unstable();
    scatter.dedup();
    sets.push(scatter);
    sets
}

/// One of [`index_sets`], at random.
fn any_set(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut sets = index_sets(n, rng);
    let pick = rng.below(sets.len() as u64) as usize;
    sets.swap_remove(pick)
}

/// `grid.decode` against the oracle's full decode, at the rows and columns
/// `pick` chooses from the dimensions the header claims (as the wire's
/// ingest chooses them), handed over backwards and then again forwards: in
/// no order, each named twice. A failed call must leave the grid empty.
fn assert_grid_agrees(
    grid: &mut AjpgGrid,
    bytes: &[u8],
    pick: impl FnOnce(usize, usize) -> (Vec<usize>, Vec<usize>),
    case: &str,
) {
    let want = oracle::ajpg_full::ajpg_decode(bytes);
    let mut picked = None;
    let got = grid.decode(bytes, |w, h| {
        let (_, (rows, cols)) = picked.insert(((w, h), pick(w, h)));
        let twice = |set: &Vec<usize>| {
            set.iter()
                .rev()
                .chain(set.iter())
                .copied()
                .collect::<Vec<_>>()
        };
        (twice(rows), twice(cols))
    });
    let want = match (want, got) {
        (Ok(want), Ok(())) => want,
        (want, got) => {
            assert_eq!(got.err(), want.err(), "{case}");
            assert_eq!((grid.width(), grid.rgb().len()), (0, 0), "{case}");
            return;
        }
    };
    let ((w, h), (rows, cols)) = picked.expect("the header passed");
    let case = format!("{case} rows {rows:?} cols {cols:?}");
    assert_eq!((w, h), (want.width(), want.height()), "{case}");
    let width = grid.width();
    assert_eq!(grid.rgb().len(), rows.len() * width * 3, "{case}");
    for &y in &rows {
        for &x in &cols {
            let at = (grid.row(y) * width + grid.column(x)) * 3;
            let (got, want) = (
                &grid.rgb()[at..at + 3],
                &want.data()[(y * w + x) * 3..][..3],
            );
            assert!(got == want, "{case}: pixel ({x}, {y}) differs");
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
fn every_grid_reads_the_oracles_pixels_across_sizes_and_subsampling() {
    let mut rng = Rng(0x20E5);
    let mut grid = AjpgGrid::default();
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
                        "{case}: the shipped full decode is the oracle's"
                    );
                    for rows in index_sets(h, &mut rng) {
                        let cols = any_set(w, &mut rng);
                        assert_grid_agrees(&mut grid, &stream, |_, _| (rows, cols), &case);
                    }
                }
            }
        }
    }
}

#[test]
fn damaged_streams_get_the_oracles_verdict_for_any_grid() {
    let mut rng = Rng(0xDA3A6E);
    let mut grid = AjpgGrid::default();
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
    // The grid is chosen from the dimensions the damaged header claims; a
    // header the decoder rejects must be rejected with the oracle's text.
    let mut check = |bytes: &[u8], case: &str| {
        let pick = |w, h| (any_set(h, &mut rng), any_set(w, &mut rng));
        assert_grid_agrees(&mut grid, bytes, pick, case);
    };
    for (i, clean) in corpus.iter().enumerate() {
        // Every truncation, then every single bit flip, each with a fresh
        // pick: a verdict that depended on which samples are decoded would
        // show as a mismatch somewhere in the sweep.
        for cut in 0..=clean.len() {
            check(&clean[..cut], &format!("stream {i} cut {cut}"));
        }
        for byte in 0..clean.len() {
            for bit in 0..8 {
                let mut bytes = clean.clone();
                bytes[byte] ^= 1 << bit;
                check(&bytes, &format!("stream {i} byte {byte} bit {bit}"));
            }
        }
    }
}

#[test]
fn hostile_headers_get_the_oracles_verdict_before_any_grid() {
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
    let mut grid = AjpgGrid::default();
    for bytes in &hostile {
        let want = oracle::ajpg_full::ajpg_decode(bytes).err();
        assert!(want.is_some());
        assert_eq!(ajpg_decode(bytes).err(), want);
        // The header is rejected before anything is picked.
        let unpicked = grid.decode(bytes, |_, _| -> (Vec<usize>, Vec<usize>) {
            panic!("a rejected header's dimensions reached the pick")
        });
        assert_eq!(unpicked.err(), want);
    }
}
