//! The seed per-image executor, kept verbatim outside the library as the
//! correctness oracle for `Executor`'s batched forward: weights regenerated
//! from the seed on every call, linears through `gemm_bt`, the INT8 path
//! re-transposing and re-quantizing per call. It shares no code with the
//! engine it checks — the weight derivation and the linear-attention
//! recurrence are copies — so nothing here may be "improved".
#![allow(dead_code)]

pub mod reference;
