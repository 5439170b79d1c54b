//! Seed-addressed sample generation.
//!
//! `Sampler` turns a [`DatasetSpec`] into concrete samples. Metadata (size,
//! class) is cheap and computed without rendering; encoded bytes are
//! produced on demand by rendering the synthetic scene and running the real
//! codec, so experiments that only need sizes/costs never pay for pixels.

use crate::registry::{DatasetId, DatasetSpec};
use harvest_imaging::{RgbImage, SynthImageSpec};
use harvest_simkit::SimRng;

/// Cheap per-sample metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleMeta {
    /// Which dataset this sample belongs to.
    pub dataset: DatasetId,
    /// Sample index within the dataset.
    pub index: u32,
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Ground-truth class (`None` for CRSA).
    pub class: Option<u32>,
}

impl SampleMeta {
    /// Pixel count.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

/// A fully materialized sample: metadata + encoded bytes.
#[derive(Clone, Debug)]
pub struct EncodedSample {
    /// Sample metadata.
    pub meta: SampleMeta,
    /// Encoded bytes in the dataset's on-disk format.
    pub bytes: Vec<u8>,
}

/// Deterministic sample generator for one dataset.
pub struct Sampler {
    spec: &'static DatasetSpec,
    seed: u64,
}

impl Sampler {
    /// Sampler for `id`, namespaced by `seed` (one experiment = one seed).
    pub fn new(id: DatasetId, seed: u64) -> Self {
        Sampler {
            spec: DatasetSpec::get(id),
            seed,
        }
    }

    /// The dataset's registry entry.
    pub fn spec(&self) -> &'static DatasetSpec {
        self.spec
    }

    fn rng_for(&self, index: u32) -> SimRng {
        // Mix dataset, experiment seed, and index into one stream seed.
        SimRng::new(
            self.seed
                ^ (self.spec.id.index() as u64) << 48
                ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// Metadata for sample `index` (no pixel work).
    pub fn meta(&self, index: u32) -> SampleMeta {
        assert!(
            index < self.spec.samples,
            "index {index} beyond {}",
            self.spec.samples
        );
        let mut rng = self.rng_for(index);
        let (width, height) = self.spec.size_dist.sample(&mut rng);
        let class = self.spec.classes.map(|n| rng.below(n as u64) as u32);
        SampleMeta {
            dataset: self.spec.id,
            index,
            width,
            height,
            class,
        }
    }

    /// Render the synthetic image for sample `index` (decoded form).
    pub fn render(&self, index: u32) -> RgbImage {
        let meta = self.meta(index);
        self.spec.scene.render(&SynthImageSpec {
            width: meta.width,
            height: meta.height,
            seed: self.seed ^ (index as u64) << 16 ^ self.spec.id.index() as u64,
        })
    }

    /// Full sample: metadata plus encoded bytes in the dataset format.
    pub fn encode(&self, index: u32) -> EncodedSample {
        let meta = self.meta(index);
        let img = self.render(index);
        EncodedSample {
            meta,
            bytes: self.spec.format.encode(&img),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ALL_DATASETS;

    #[test]
    fn meta_is_deterministic() {
        let s1 = Sampler::new(DatasetId::WeedSoybean, 99);
        let s2 = Sampler::new(DatasetId::WeedSoybean, 99);
        for i in [0u32, 1, 17, 500] {
            assert_eq!(s1.meta(i), s2.meta(i));
        }
    }

    #[test]
    fn different_experiment_seeds_differ_for_varied_datasets() {
        let a = Sampler::new(DatasetId::WeedSoybean, 1);
        let b = Sampler::new(DatasetId::WeedSoybean, 2);
        let differing = (0..50)
            .filter(|&i| a.meta(i).width != b.meta(i).width)
            .count();
        assert!(differing > 10, "only {differing} differ");
    }

    #[test]
    fn classes_are_in_range_for_all_datasets() {
        for spec in &ALL_DATASETS {
            let s = Sampler::new(spec.id, 7);
            for meta in (0..64).map(|i| s.meta(i)) {
                match (spec.classes, meta.class) {
                    (Some(n), Some(c)) => assert!(c < n, "{:?}: class {c} >= {n}", spec.id),
                    (None, None) => {}
                    other => panic!("{:?}: class mismatch {other:?}", spec.id),
                }
            }
        }
    }

    #[test]
    fn fixed_datasets_have_fixed_sizes() {
        let s = Sampler::new(DatasetId::PlantVillage, 3);
        for meta in (0..32).map(|i| s.meta(i)) {
            assert_eq!((meta.width, meta.height), (256, 256));
        }
    }

    #[test]
    fn encode_round_trips_through_dataset_format() {
        let s = Sampler::new(DatasetId::Fruits360, 5);
        let sample = s.encode(0);
        assert_eq!((sample.meta.width, sample.meta.height), (100, 100));
        let img = s.spec().format.decode(&sample.bytes).expect("decode");
        assert_eq!(img.width(), 100);
        assert_eq!(img.height(), 100);
    }

    #[test]
    fn render_matches_meta_dimensions_for_varied() {
        let s = Sampler::new(DatasetId::SpittleBug, 5);
        for i in 0..5 {
            let meta = s.meta(i);
            let img = s.render(i);
            assert_eq!(img.width(), meta.width);
            assert_eq!(img.height(), meta.height);
        }
    }

    #[test]
    #[should_panic(expected = "beyond")]
    fn out_of_range_index_panics() {
        Sampler::new(DatasetId::Crsa, 1).meta(992);
    }

    #[test]
    fn raw_format_bytes_match_pixel_count() {
        let s = Sampler::new(DatasetId::WeedSoybean, 11);
        let sample = s.encode(3);
        assert_eq!(sample.bytes.len(), 12 + sample.meta.pixels() * 3);
    }
}
