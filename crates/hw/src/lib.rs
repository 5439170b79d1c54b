//! # harvest-hw
//!
//! The compute-continuum platforms of the paper's Table 1, as parametric
//! device models:
//!
//! | Platform | GPU | Theory | Practical (paper-measured) |
//! |---|---|---|---|
//! | OSC Pitzer | V100 16 GB | 112 TFLOPS FP16 | 92.6 (82.68 %) |
//! | MRI | A100 40 GB | 312 TFLOPS BF16 | 236.3 (75.74 %) |
//! | Jetson Orin Nano Super | Ampere, 1024 CUDA / 32 tensor cores | 17 TFLOPS FP16 | 11.4 BF16 (67.1 %) |
//!
//! Three pieces:
//!
//! * [`platform`] — the static descriptors (cores, memory, bandwidths,
//!   launch overheads, scenario fit), each also its platform's one
//!   calibration record for the figure models (MFU anchors, batch axes,
//!   working sets, preprocessing constants).
//! * [`memory`] — a real free-list device-memory allocator with peak
//!   accounting; the engine's activation planner allocates through it.
//! * `gemm_bench` — the Table 1 microbenchmark: a roofline-style device
//!   GEMM model whose large-GEMM plateau is calibrated to the paper's
//!   practical TFLOPS, plus a *real* host GEMM measurement (run on the
//!   machine this reproduction executes on) so the efficiency-gap story is
//!   demonstrated on real silicon too.

pub(crate) mod gemm_bench;
pub mod memory;
pub(crate) mod network;
pub mod platform;

pub use gemm_bench::{device_gemm_time, host_gemm_gflops, measure_practical_tflops, GemmShape};
pub use memory::{AllocError, Allocation, MemoryPool};
pub use network::NetworkLink;
pub use platform::{DeploymentScenario, PlatformId, PlatformSpec, ALL_PLATFORMS};
