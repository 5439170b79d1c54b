//! The built engine: OOM-checked, latency-modelled batched execution.

use crate::passes::{compile, ExecPlan};
use harvest_hw::PlatformId;
use harvest_models::{Graph, ModelId, Precision};
use harvest_perf::{EngineMemoryModel, EnginePerfModel, MemoryContext};

/// Engine build/run failures.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// The requested max batch does not fit in device memory.
    OutOfMemory {
        /// Requested batch size.
        batch: u32,
        /// Bytes the engine would need.
        required: u64,
        /// Bytes available.
        budget: u64,
    },
    /// Batch size zero or above the built max batch.
    BadBatch {
        /// Requested batch.
        batch: u32,
        /// Built maximum.
        max_batch: u32,
    },
    /// A serving-layer configuration (batcher, admission control) failed
    /// validation before the pipeline could be wired.
    InvalidConfig(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::OutOfMemory {
                batch,
                required,
                budget,
            } => write!(
                f,
                "OOM building engine at batch {batch}: needs {required} bytes, budget {budget}"
            ),
            EngineError::BadBatch { batch, max_batch } => {
                write!(f, "batch {batch} outside (0, {max_batch}]")
            }
            EngineError::InvalidConfig(reason) => {
                write!(f, "invalid serving configuration: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A compiled, memory-checked engine for one (model, platform) pair —
/// the TensorRT-engine analog the backend serves requests with.
#[derive(Clone, Debug)]
pub struct Engine {
    model: ModelId,
    platform: PlatformId,
    max_batch: u32,
    plan: ExecPlan,
    perf: EnginePerfModel,
    memory: EngineMemoryModel,
    precision: Precision,
}

impl Engine {
    /// Build an engine for `model` on `platform` with a given max batch.
    ///
    /// Fails with [`EngineError::OutOfMemory`] when the max batch cannot be
    /// planned within the platform's memory budget — this is exactly the
    /// OOM wall of Figs 5c/6c/8.
    pub fn build(
        model: ModelId,
        platform: PlatformId,
        ctx: MemoryContext,
        max_batch: u32,
    ) -> Result<Engine, EngineError> {
        assert!(max_batch > 0);
        let graph: Graph = model.build();
        let precision = Precision::Fp16;
        let plan = compile(&graph);
        let perf = EnginePerfModel::new(platform, model);
        let memory = EngineMemoryModel::new(platform, model, ctx);
        if !memory.fits(max_batch) {
            return Err(EngineError::OutOfMemory {
                batch: max_batch,
                required: memory.engine_bytes(max_batch),
                budget: memory.budget_bytes(),
            });
        }
        Ok(Engine {
            model,
            platform,
            max_batch,
            plan,
            perf,
            memory,
            precision,
        })
    }

    /// Model served by this engine.
    pub fn model(&self) -> ModelId {
        self.model
    }
    /// Platform the engine was built for.
    pub fn platform(&self) -> PlatformId {
        self.platform
    }
    /// Maximum batch the engine was built with.
    pub fn max_batch(&self) -> u32 {
        self.max_batch
    }
    /// The fused execution plan.
    pub fn plan(&self) -> &ExecPlan {
        &self.plan
    }
    /// The calibrated performance model.
    pub fn perf(&self) -> &EnginePerfModel {
        &self.perf
    }
    /// Serving precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }
    /// Device bytes the engine occupies at its max batch.
    pub fn memory_bytes(&self) -> u64 {
        self.memory.engine_bytes(self.max_batch)
    }

    /// Simulated latency of one batch, seconds: calibrated MFU-model compute
    /// time plus per-launch overhead for the plan's kernel count.
    pub fn batch_latency_s(&self, bs: u32) -> Result<f64, EngineError> {
        if bs == 0 || bs > self.max_batch {
            return Err(EngineError::BadBatch {
                batch: bs,
                max_batch: self.max_batch,
            });
        }
        let launch = self.platform.spec().launch_overhead_us * 1e-6;
        Ok(self.perf.latency_s(bs) + launch * self.plan.launch_count() as f64)
    }

    /// Simulated steady-state throughput at a batch size, img/s.
    pub fn throughput(&self, bs: u32) -> Result<f64, EngineError> {
        Ok(bs as f64 / self.batch_latency_s(bs)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cloud_engine_builds_at_1024() {
        let e = Engine::build(
            ModelId::VitBase,
            PlatformId::MriA100,
            MemoryContext::EngineOnly,
            1024,
        )
        .expect("A100 fits ViT-Base at 1024");
        assert_eq!(e.max_batch(), 1024);
        assert!(e.memory_bytes() < PlatformId::MriA100.spec().usable_gpu_mem_bytes());
    }

    #[test]
    fn jetson_vitbase_ooms_at_16() {
        let err = Engine::build(
            ModelId::VitBase,
            PlatformId::JetsonOrinNano,
            MemoryContext::EngineOnly,
            16,
        )
        .unwrap_err();
        match err {
            EngineError::OutOfMemory {
                batch,
                required,
                budget,
            } => {
                assert_eq!(batch, 16);
                assert!(required > budget);
            }
            other => panic!("expected OOM, got {other}"),
        }
        // ...but builds at 8 (the Fig 5c label).
        assert!(Engine::build(
            ModelId::VitBase,
            PlatformId::JetsonOrinNano,
            MemoryContext::EngineOnly,
            8
        )
        .is_ok());
    }

    #[test]
    fn batch_validation() {
        let e = Engine::build(
            ModelId::VitTiny,
            PlatformId::MriA100,
            MemoryContext::EngineOnly,
            64,
        )
        .unwrap();
        assert!(matches!(
            e.batch_latency_s(0),
            Err(EngineError::BadBatch { .. })
        ));
        assert!(matches!(
            e.batch_latency_s(65),
            Err(EngineError::BadBatch { .. })
        ));
        assert!(e.batch_latency_s(64).is_ok());
    }

    #[test]
    fn launch_overhead_raises_small_batch_latency_above_pure_model() {
        let e = Engine::build(
            ModelId::ResNet50,
            PlatformId::JetsonOrinNano,
            MemoryContext::EngineOnly,
            8,
        )
        .unwrap();
        let modelled = e.perf().latency_s(1);
        let engine = e.batch_latency_s(1).unwrap();
        assert!(engine > modelled);
        // Overhead = launches × 15us on Jetson.
        let overhead = engine - modelled;
        let expected = e.plan().launch_count() as f64 * 15e-6;
        assert!((overhead - expected).abs() < 1e-9);
    }

    #[test]
    fn throughput_improves_with_batch_until_wall() {
        let e = Engine::build(
            ModelId::VitSmall,
            PlatformId::JetsonOrinNano,
            MemoryContext::EngineOnly,
            64,
        )
        .unwrap();
        let t1 = e.throughput(1).unwrap();
        let t64 = e.throughput(64).unwrap();
        assert!(t64 > 3.0 * t1, "{t1} -> {t64}");
    }
}
