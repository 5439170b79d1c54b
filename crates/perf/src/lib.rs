//! # harvest-perf
//!
//! The quantitative performance model the paper's conclusion calls for
//! ("future work will develop comprehensive quantitative models for scalable
//! performance prediction") — built here and calibrated against every
//! datapoint the paper prints.
//!
//! * [`mfu`] — Model-FLOPs-Utilization curves. The core observation behind
//!   Figs 5–6 is hyperbolic saturation: with
//!   `MFU(bs) = mfu_inf · bs / (bs + bs_half)`, batch latency becomes
//!   `F · (bs + bs_half) / (P · mfu_inf)` — a constant floor at small batch
//!   (the non-linear region of Fig 6) turning into the linear asymptote at
//!   large batch, while achieved TFLOPS saturate (Fig 5).
//! * `memory_model` — engine memory as weights + per-image working set,
//!   with per-platform budgets; produces the Jetson OOM walls of Fig 5c
//!   (ViT-Tiny 196 / Small 64 / ResNet50 64 / Base 8) and the end-to-end
//!   walls of Fig 8 (V100 & Jetson: 64 / 32 / 2 / 32).
//! * [`mod@batch_axis`] — the exact batch-size axes the figures sweep.
//!
//! Calibration provenance: `(mfu_inf, bs_half)` pairs are pinned so that
//! throughput at each figure's labelled batch equals the labelled img/s
//! (e.g. A100 ViT-Tiny 22 879.3 img/s @BS1024 ⇒ saturated MFU ≈ 13.3 % of
//! the practical GEMM peak). `bs_half` encodes how quickly each model
//! saturates its platform — larger models saturate at smaller batches.

pub mod batch_axis;
pub mod energy;
pub(crate) mod memory_model;
pub mod mfu;

pub use batch_axis::{batch_axis, LATENCY_BOUND_60QPS_MS};
pub use energy::{EnergyModel, EnergyPoint, FleetEnergy};
pub use memory_model::{max_batch_under_memory, EngineMemoryModel, MemoryContext};
pub use mfu::{EnginePerfModel, MfuCurve};
