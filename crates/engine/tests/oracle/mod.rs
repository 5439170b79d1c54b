//! Replaced engine code, kept verbatim outside the library as correctness
//! oracles, so nothing here may be "improved":
//!
//! * `artifact` — the `HVWA` encoder and the staged decoder that hashed
//!   every payload byte four times and overwrote a random template, which
//!   the one-pass loader replaced.
//! * `reference` — the seed per-image executor, the oracle for `Executor`'s
//!   batched forward: weights regenerated from the seed on every call,
//!   linears through `gemm_bt`, the INT8 path re-transposing and
//!   re-quantizing per call. It shares no code with the engine it checks —
//!   the weight derivation and the linear-attention recurrence are copies.
//! * `patch_embed` — the batched patch embedding as a strided convolution
//!   plus a token transpose, which the token GEMM on the packed patch weight
//!   replaced.
//! * `whole_batch` — the `Mlp` and `Attention` nodes run once over all
//!   `B·s` rows of a batch, the hidden and `qkv` buffers batch-sized, which
//!   the walk in chunks of rows sized to the cache replaced.
#![allow(dead_code)]

pub mod artifact;
pub mod patch_embed;
pub mod reference;
pub mod whole_batch;
