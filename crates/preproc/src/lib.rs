//! # harvest-preproc
//!
//! The preprocessing frameworks of the paper's §4.2 / Fig. 7:
//!
//! * **DALI-style GPU pipelines** at output resolutions 224 / 96 / 32,
//!   running at batch 64 — modelled analytically against the platform's
//!   GPU-preprocessing rates (hardware JPEG engines on A100/Jetson, SM
//!   decode on V100).
//! * **torchvision-style CPU baseline** (`PyTorch@BS1`) and an
//!   **OpenCV-style CPU path** (`CV2@BS1`, the one carrying CRSA's
//!   perspective transform) — modelled analytically *and* executable for
//!   real on the host via [`real::run_real`], which decodes with the real
//!   AJPG/RTIF codecs and transforms with the real `harvest-tensor`
//!   kernels.
//!
//! Every pipeline = dataset-specific stage (CRSA perspective) + model
//! transform (decode → resize → normalize → layout), matching §3's
//! decomposition of request latency into dataset preprocessing, model
//! preprocessing and inference.

pub mod cost;
pub mod method;
pub mod real;

pub use cost::{PreprocCostModel, PreprocPoint};
pub use method::PreprocMethod;
pub use real::{ingest, preprocess_decoded, run_real, RealPreprocResult};
