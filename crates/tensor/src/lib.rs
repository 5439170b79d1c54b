//! # harvest-tensor
//!
//! Real, executable CPU tensor kernels for the HARVEST reproduction.
//!
//! The paper's measurements run on GPUs we do not have; those are modelled
//! analytically in `harvest-hw`/`harvest-perf`. This crate is the part of the
//! stack that is *not* simulated: data-parallel f32 kernels (blocked GEMM,
//! implicit-GEMM convolution, multi-head attention, normalization, image
//! preprocessing ops) that
//!
//! 1. give the model zoo an executable forward pass (used by the engine's
//!    real-execution path and by correctness tests), and
//! 2. serve as the CPU-preprocessing ground truth behind the Fig. 7
//!    "PyTorch/OpenCV on CPU" baselines — the decode/resize/normalize/warp
//!    costs we report for the host are measured on these kernels.
//!
//! Parallel regions hand disjoint row, channel or image blocks to the
//! `harvest-threads` pool (`for_each_chunk_mut`, `for_each_zipped_chunks`,
//! `par_map`); every block is computed in a fixed order from read-only
//! inputs, so results are bit-identical at every pool width.

pub mod attention;
pub mod conv;
pub mod gemm;
pub mod image;
pub mod integrity;
pub mod ops;
pub mod peak;
pub mod quant;
pub mod scratch;
pub mod tensor;

pub use attention::{attention_core, multi_head_attention, multi_head_attention_v};
pub use conv::{avg_pool2d_global, conv2d, conv2d_into, conv2d_v, max_pool2d};
pub use gemm::{
    gemm, gemm_naive, gemm_v, gemm_with, lane_tier, KernelVariant, PackedB, PanelSource,
};
pub use image::{
    bilinear_taps, chw_to_hwc_u8, hwc_u8_to_chw, normalize_chw, perspective_warp, resize_bilinear,
    resize_normalize_hwc_u8, Homography,
};
pub use integrity::{checksum_bytes, checksum_f32, flip_bit_in, max_abs_gap, scan_f32, ScanReport};
pub use ops::{add_bias, batchnorm_inference, gelu, layernorm, relu, softmax_rows};
pub use quant::{
    dequantize, gemm_i8, gemm_i8_naive, quantize_symmetric, quantized_gemm, QuantizedTensor,
};
pub use tensor::Tensor;
