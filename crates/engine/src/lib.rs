//! # harvest-engine
//!
//! The inference-engine substrate — our TensorRT analog. The paper's models
//! arrive "in the platform-neutral ONNX format and internally converted to
//! the inference-oriented TensorRT format"; this crate is that conversion
//! and execution layer:
//!
//! * [`passes`] — engine compilation: kernel-fusion passes over the layer IR
//!   (Conv+BN+ReLU, Linear+GELU, Add+ReLU, …) producing an execution plan
//!   with a realistic *launch count* (launch overhead is what bends the
//!   small-batch end of Fig 6 on the Jetson).
//! * [`planner`] — activation memory planning: liveness analysis over the
//!   topological order, allocated through the real free-list allocator in
//!   `harvest-hw`, yielding the per-image activation peak.
//! * [`engine`] — the built engine: simulated batched execution against the
//!   calibrated performance model + the OOM-checked memory model.
//! * [`exec`] — a *real* forward pass over `harvest-tensor` kernels with
//!   deterministic weights, so the whole model zoo actually runs on the
//!   host: batched, weight-cached execution with liveness-driven buffer
//!   reuse, through one entry point ([`Executor::run`]). The seed per-image
//!   reference path is its oracle and lives outside the library, in
//!   `tests/oracle/reference.rs`.
//! * [`weights`] — the weights an executor serves from
//!   ([`MaterializedWeights`]): generated once, every matmul weight packed
//!   once into the GEMM's panels, seen in its logical order by checksums,
//!   artifacts and fault injection.
//! * [`swap`] — hot-swappable weight generations: a length-framed,
//!   checksummed artifact format ([`encode_artifact`] / [`decode_artifact`]
//!   with typed rejection), and the double-buffered [`WeightsCell`] whose
//!   numbered, fingerprinted [`Generation`]s let serving layers publish new
//!   weights under live traffic and roll back in O(1). The cell alone
//!   decides a generation's lifecycle (load, guard, settle), so both
//!   batching cores obey one contract.

pub mod engine;
pub mod exec;
pub mod passes;
pub mod planner;
pub mod swap;
pub mod weights;

pub use engine::{Engine, EngineError};
pub use exec::{
    ActivationGuard, ActivationInjection, Executor, GuardViolation, RunReport, ScratchStats,
};
pub use passes::{compile, ExecPlan, ExecStep, StepKind};
pub use planner::{plan_activations, ActivationPlan};
pub use swap::{
    decode_artifact, encode_artifact, ArtifactError, Generation, WeightsCell, ARTIFACT_MAGIC,
    ARTIFACT_VERSION,
};
pub use weights::{MaterializedWeights, WeightCorruption, WeightStore};
