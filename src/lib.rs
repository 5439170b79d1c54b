//! # HARVEST Inference — reproduction workspace facade
//!
//! This crate re-exports the full HARVEST reproduction stack so examples and
//! integration tests can `use harvest::...` a single dependency. The real
//! implementation lives in the `crates/*` workspace members:
//!
//! * [`simkit`] — deterministic discrete-event simulation core
//! * [`tensor`] — real parallel CPU kernels (GEMM, conv, attention, image ops)
//! * [`imaging`] — synthetic field imagery + JPEG-style/raw codecs
//! * [`data`] — the six agriculture datasets of Table 2 / Fig. 4
//! * [`models`] — layer IR + the ViT/ResNet zoo of Table 3
//! * [`hw`] — the V100/A100/Jetson platform models of Table 1
//! * [`perf`] — MFU, memory and energy models behind Figs 5–6 and 8
//! * [`engine`] — TensorRT-analog engine compiler + memory planner
//! * [`preproc`] — DALI/PyTorch/OpenCV preprocessing framework models (Fig 7)
//! * [`serving`] — Triton-analog serving simulator (online/offline/real-time)
//! * [`core`] — the public pipeline facade and experiment runners (Fig 8 et al.)

pub use harvest_core as core;
pub use harvest_data as data;
pub use harvest_engine as engine;
pub use harvest_hw as hw;
pub use harvest_imaging as imaging;
pub use harvest_models as models;
pub use harvest_perf as perf;
pub use harvest_preproc as preproc;
pub use harvest_serving as serving;
pub use harvest_simkit as simkit;
pub use harvest_tensor as tensor;

pub use harvest_core::prelude;
