//! Agronomic image analysis: the downstream outputs HARVEST's applications
//! actually produce.
//!
//! The paper's motivating applications include "residue cover on soil
//! surface estimation" (the CRSA pipeline's purpose). The estimator is the
//! simple colour-threshold version agronomists use as a baseline — enough to
//! turn a classified mosaic into the heatmap outputs Fig 3a describes.

use crate::image::RgbImage;

/// Fraction of pixels classified as crop residue (bright, straw-coloured
/// material against darker soil): `r > threshold`, warm-toned, and bright.
pub fn residue_cover_fraction(img: &RgbImage) -> f64 {
    let mut residue = 0usize;
    for px in img.data().chunks_exact(3) {
        let (r, g, b) = (px[0] as i32, px[1] as i32, px[2] as i32);
        let brightness = r + g + b;
        // Straw: bright and warm (red/green above blue), not vegetation
        // (green not dominant over red). Threshold sits between bare-soil
        // brightness (~250) and full straw (~490).
        if brightness > 330 && r >= g && g > b {
            residue += 1;
        }
    }
    residue as f64 / img.pixels() as f64
}

/// A coarse per-cell heatmap of a scalar estimator over an image — the
/// "fine-grained heatmaps and other visual outputs" of the offline
/// workflow. Returns row-major cell values.
pub fn heatmap(
    img: &RgbImage,
    cells_x: usize,
    cells_y: usize,
    estimator: impl Fn(&RgbImage) -> f64,
) -> Vec<f64> {
    assert!(cells_x > 0 && cells_y > 0);
    assert!(
        img.width() >= cells_x && img.height() >= cells_y,
        "image smaller than grid"
    );
    let cw = img.width() / cells_x;
    let ch = img.height() / cells_y;
    let mut out = Vec::with_capacity(cells_x * cells_y);
    for cy in 0..cells_y {
        for cx in 0..cells_x {
            let mut cell = RgbImage::new(cw, ch);
            for y in 0..ch {
                for x in 0..cw {
                    cell.put(x, y, img.get(cx * cw + x, cy * ch + y));
                }
            }
            out.push(estimator(&cell));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{FieldScene, SynthImageSpec};

    #[test]
    fn solid_straw_is_all_residue() {
        let img = RgbImage::solid(16, 16, [190, 170, 130]);
        assert!((residue_cover_fraction(&img) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn solid_soil_is_neither() {
        let img = RgbImage::solid(16, 16, [110, 85, 60]);
        assert_eq!(residue_cover_fraction(&img), 0.0);
    }

    #[test]
    fn solid_canopy_is_no_residue() {
        let img = RgbImage::solid(16, 16, [60, 130, 55]);
        assert_eq!(residue_cover_fraction(&img), 0.0);
    }

    #[test]
    fn ground_feed_scene_has_meaningful_residue() {
        // The synthetic CRSA generator paints ~30% residue streaks below
        // the horizon; the estimator should land in a plausible band.
        let img = FieldScene::GroundFeed.render(&SynthImageSpec {
            width: 256,
            height: 256,
            seed: 9,
        });
        let f = residue_cover_fraction(&img);
        assert!((0.02..0.5).contains(&f), "residue fraction {f}");
    }

    #[test]
    fn heatmap_partitions_the_image() {
        let mut img = RgbImage::solid(64, 64, [110, 85, 60]); // soil
                                                              // Paint the top-left quadrant with straw.
        for y in 0..32 {
            for x in 0..32 {
                img.put(x, y, [190, 170, 130]);
            }
        }
        let cells = heatmap(&img, 2, 2, residue_cover_fraction);
        assert_eq!(cells.len(), 4);
        assert!((cells[0] - 1.0).abs() < 1e-9, "top-left {}", cells[0]);
        assert!(cells[1] < 1e-9);
        assert!(cells[2] < 1e-9);
        assert!(cells[3] < 1e-9);
    }

    #[test]
    #[should_panic(expected = "smaller than grid")]
    fn oversized_grid_rejected() {
        heatmap(&RgbImage::new(4, 4), 8, 8, residue_cover_fraction);
    }
}
