//! Replaced engine code, kept verbatim outside the library as correctness
//! oracles, so nothing here may be "improved":
//!
//! * `reference` — the seed per-image executor, the oracle for `Executor`'s
//!   batched forward: weights regenerated from the seed on every call,
//!   linears through `gemm_bt`, the INT8 path re-transposing and
//!   re-quantizing per call. It shares no code with the engine it checks —
//!   the weight derivation and the linear-attention recurrence are copies.
//! * `patch_embed` — the batched patch embedding as a strided convolution
//!   plus a token transpose, which the token GEMM on the packed patch weight
//!   replaced.
#![allow(dead_code)]

pub mod patch_embed;
pub mod reference;
