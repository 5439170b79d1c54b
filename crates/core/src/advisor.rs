//! Application-specific tuning guidance.
//!
//! The paper's stated purpose is "providing end users with guidance for
//! application-specific tuning"; this module turns the calibrated models
//! into that guidance: given a platform and constraints, recommend batch
//! sizes and models.

use harvest_hw::PlatformId;
use harvest_models::{ModelId, ALL_MODELS};
use harvest_perf::{max_batch_under_memory, EngineMemoryModel, EnginePerfModel, MemoryContext};

/// A batch-size recommendation for one (platform, model) pair.
#[derive(Clone, Copy, Debug)]
pub struct BatchRecommendation {
    /// The model the recommendation is for.
    pub model: ModelId,
    /// Recommended batch size.
    pub batch: u32,
    /// Predicted batch latency at that size, ms.
    pub latency_ms: f64,
    /// Predicted throughput at that size, img/s.
    pub throughput: f64,
    /// Fraction of the model's saturated MFU reached.
    pub mfu_fraction: f64,
    /// True when memory (not latency) was the binding constraint.
    pub memory_bound: bool,
}

/// A model recommendation under a latency bound.
#[derive(Clone, Copy, Debug)]
pub struct ModelRecommendation {
    /// The chosen model.
    pub model: ModelId,
    /// Its batch recommendation.
    pub batch: BatchRecommendation,
}

/// The tuning advisor for one platform.
#[derive(Clone, Copy, Debug)]
pub struct Advisor {
    platform: PlatformId,
    ctx: MemoryContext,
}

impl Advisor {
    /// Advisor for engine-only deployments on `platform`.
    pub fn new(platform: PlatformId) -> Self {
        Advisor {
            platform,
            ctx: MemoryContext::EngineOnly,
        }
    }

    /// Advisor for end-to-end serving deployments.
    pub fn end_to_end(platform: PlatformId) -> Self {
        Advisor {
            platform,
            ctx: MemoryContext::EndToEnd,
        }
    }

    /// The platform being advised on.
    pub fn platform(&self) -> PlatformId {
        self.platform
    }

    /// Largest batch of `model` that fits in memory on this platform
    /// (`None` when not even batch 1 fits).
    pub fn max_feasible_batch(&self, model: ModelId) -> Option<u32> {
        let mem = EngineMemoryModel::new(self.platform, model, self.ctx);
        let axis: Vec<u32> = (0..=12).map(|i| 1u32 << i).collect(); // 1..4096
        max_batch_under_memory(&mem, &axis)
    }

    /// Recommend the largest batch that satisfies `latency_bound_ms` and
    /// fits in memory — the paper's "optimal operating region" where the
    /// latency threshold intersects near-saturated MFU.
    pub fn recommend_batch(
        &self,
        model: ModelId,
        latency_bound_ms: f64,
    ) -> Option<BatchRecommendation> {
        let perf = EnginePerfModel::new(self.platform, model);
        let latency_max = perf.max_batch_under_latency(latency_bound_ms)?;
        let memory_max = self.max_feasible_batch(model)?;
        let batch = latency_max.min(memory_max).max(1);
        Some(BatchRecommendation {
            model,
            batch,
            latency_ms: perf.latency_ms(batch),
            throughput: perf.throughput(batch),
            mfu_fraction: perf.curve().mfu(batch) / perf.curve().mfu_inf,
            memory_bound: memory_max < latency_max,
        })
    }

    /// Among all four models, pick the one with the highest throughput that
    /// still meets the latency bound (the accuracy–latency trade-off's
    /// latency side; accuracy ordering is up to the application).
    pub fn recommend_model(&self, latency_bound_ms: f64) -> Option<ModelRecommendation> {
        ALL_MODELS
            .iter()
            .filter_map(|&m| self.recommend_batch(m, latency_bound_ms).map(|b| (m, b)))
            .max_by(|a, b| a.1.throughput.partial_cmp(&b.1.throughput).expect("finite"))
            .map(|(model, batch)| ModelRecommendation { model, batch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_vitbase_recommendation_matches_fig6_statement() {
        // "on V100, batch size 8 suffices" for the 60 QPS bound.
        let rec = Advisor::new(PlatformId::PitzerV100)
            .recommend_batch(ModelId::VitBase, 16.7)
            .expect("feasible");
        assert!((8..16).contains(&rec.batch), "batch {}", rec.batch);
        assert!(rec.latency_ms <= 16.7);
        assert!(!rec.memory_bound);
    }

    #[test]
    fn a100_recommendations_exceed_batch_16() {
        // "On A100 hardware, this requires batch sizes exceeding 16."
        let advisor = Advisor::new(PlatformId::MriA100);
        for model in ALL_MODELS {
            let rec = advisor.recommend_batch(model, 16.7).expect("feasible");
            assert!(rec.batch > 16, "{model:?}: {}", rec.batch);
            assert!(rec.mfu_fraction > 0.5, "{model:?} underutilized");
        }
    }

    #[test]
    fn jetson_vitbase_under_60qps_is_infeasible_or_tiny() {
        let advisor = Advisor::new(PlatformId::JetsonOrinNano);
        match advisor.recommend_batch(ModelId::VitBase, 16.7) {
            None => {} // cannot meet 60 QPS at all — acceptable outcome
            Some(rec) => assert!(rec.batch <= 2, "batch {}", rec.batch),
        }
    }

    #[test]
    fn jetson_memory_binds_vitbase_at_relaxed_latency() {
        // With a lax 200ms bound, memory (batch 8 wall) becomes binding.
        let rec = Advisor::new(PlatformId::JetsonOrinNano)
            .recommend_batch(ModelId::VitBase, 200.0)
            .expect("feasible");
        assert!(rec.memory_bound, "memory should bind: {rec:?}");
        assert!(rec.batch <= 8);
    }

    #[test]
    fn model_recommendation_prefers_high_throughput_under_bound() {
        // Under 60 QPS on the A100, ViT-Tiny wins on throughput.
        let rec = Advisor::new(PlatformId::MriA100)
            .recommend_model(16.7)
            .unwrap();
        assert_eq!(rec.model, ModelId::VitTiny);
    }

    #[test]
    fn feasible_batches_match_memory_model_axis() {
        let advisor = Advisor::new(PlatformId::JetsonOrinNano);
        // ViT-Base engine-only wall is 8 on the Jetson.
        assert_eq!(advisor.max_feasible_batch(ModelId::VitBase), Some(8));
    }

    #[test]
    fn e2e_advisor_is_stricter_than_engine_only() {
        let engine = Advisor::new(PlatformId::PitzerV100);
        let e2e = Advisor::end_to_end(PlatformId::PitzerV100);
        for model in ALL_MODELS {
            let a = engine.max_feasible_batch(model).unwrap_or(0);
            let b = e2e.max_feasible_batch(model).unwrap_or(0);
            assert!(b <= a, "{model:?}: e2e {b} > engine {a}");
        }
    }
}
