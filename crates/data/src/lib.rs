//! # harvest-data
//!
//! The six agriculture datasets of the paper's Table 2, reconstructed as
//! deterministic synthetic generators. Each dataset carries:
//!
//! * the published class and sample counts,
//! * the image-size distribution of Fig. 4 (fixed sizes for Plant Village /
//!   Fruits-360 / Corn Growth Stage / CRSA; varied, mode-centred
//!   distributions for Weed-Soybean 233×233 and Spittle-Bug 61×61),
//! * an encoding format (JPEG-style AJPG vs raw RTIF — the TIFF stand-in),
//!   which is what drives the per-dataset decode-cost differences in Fig. 7,
//! * a synthetic scene family so generated samples have plausible content,
//! * and the CRSA flag for dataset-specific perspective preprocessing.
//!
//! Everything is seed-addressed: `sample i` of a dataset always produces the
//! same size, class and bytes.

pub(crate) mod registry;
pub mod sampler;
pub mod sizedist;

pub use registry::{DatasetId, DatasetSpec, ALL_DATASETS};
pub use sampler::{EncodedSample, SampleMeta, Sampler};
pub use sizedist::SizeDist;
