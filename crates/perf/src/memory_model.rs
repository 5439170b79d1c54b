//! Engine memory model: where the OOM walls come from.
//!
//! Engine memory = fp16 weights + `bs` × per-image working set, checked
//! against the platform's memory budget. The per-image working set bundles
//! activations, TensorRT-style tactic workspace and allocator overhead; it
//! is calibrated per (platform, model) to reproduce the paper's observed
//! walls:
//!
//! * **Engine-only (Fig 5c/6c, Jetson)**: largest running batches
//!   ViT-Tiny 196, ViT-Small 64, ResNet50 64, ViT-Base 8. On the cloud
//!   GPUs every model runs at BS 1024 (Figs 5a/5b), which bounds their
//!   working sets from above.
//! * **End-to-end (Fig 8)**: preprocessing pipelines claim a large slice of
//!   device memory first (decoded-batch buffers — a batch of 64 decoded 4K
//!   CRSA frames alone is ~1.6 GB, with float intermediates several times
//!   that), and per-image footprints grow with I/O staging. Under that
//!   squeeze V100 and Jetson land on the printed 64 / 32 / 2 / 32 walls
//!   while the A100's 40 GB keeps everything at the serving cap of 64.
//!
//! The constants are fields of each platform's `PlatformSpec` record
//! (`engine_working_set_mib`, `e2e_working_set_mib`, `preproc_pool_bytes`);
//! this module is the arithmetic over them, and [`end_to_end_batch`] is the
//! one place the end-to-end operating point is chosen.

use harvest_hw::PlatformId;
use harvest_models::{ModelId, Precision};

const MIB: u64 = 1 << 20;

/// Which deployment context the memory model describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MemoryContext {
    /// Model engine alone (Figs 5–6).
    EngineOnly,
    /// Full serving pipeline: preprocessing pool + engine (Fig 8).
    EndToEnd,
}

/// Memory model for one (platform, model, context) triple.
#[derive(Clone, Debug)]
pub struct EngineMemoryModel {
    platform: PlatformId,
    model: ModelId,
    ctx: MemoryContext,
    weight_bytes: u64,
}

impl EngineMemoryModel {
    /// Build for a triple (weights at the platform's serving precision).
    pub fn new(platform: PlatformId, model: ModelId, ctx: MemoryContext) -> Self {
        let stats = model.build().stats();
        // Engines serve in FP16/BF16 (2 bytes) on all three platforms.
        let weight_bytes = stats.weight_bytes(Precision::Fp16);
        EngineMemoryModel {
            platform,
            model,
            ctx,
            weight_bytes,
        }
    }

    /// Engine weight bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.weight_bytes
    }

    /// Per-image working set bytes.
    pub fn per_image_bytes(&self) -> u64 {
        let spec = self.platform.spec();
        let mb = match self.ctx {
            MemoryContext::EngineOnly => spec.engine_working_set_mib,
            MemoryContext::EndToEnd => spec.e2e_working_set_mib,
        }[self.model.index()];
        (mb * MIB as f64) as u64
    }

    /// Total engine memory at a batch size.
    pub fn engine_bytes(&self, bs: u32) -> u64 {
        self.weight_bytes + self.per_image_bytes() * bs as u64
    }

    /// Memory budget available to the engine in this context.
    pub fn budget_bytes(&self) -> u64 {
        let spec = self.platform.spec();
        let usable = spec.usable_gpu_mem_bytes();
        match self.ctx {
            MemoryContext::EngineOnly => usable,
            MemoryContext::EndToEnd => usable.saturating_sub(spec.preproc_pool_bytes),
        }
    }

    /// Does a batch fit?
    pub fn fits(&self, bs: u32) -> bool {
        self.engine_bytes(bs) <= self.budget_bytes()
    }
}

/// Largest batch from `axis` that fits in memory (`None` if not even the
/// smallest does).
pub fn max_batch_under_memory(model: &EngineMemoryModel, axis: &[u32]) -> Option<u32> {
    axis.iter().copied().filter(|&bs| model.fits(bs)).max()
}

/// The serving cap the paper's A100 column runs at.
const SERVING_MAX_BATCH: u32 = 64;

/// The end-to-end operating point: the largest power-of-two batch up to the
/// serving cap that fits beside the preprocessing pool — Fig 8's "@BSn"
/// label. `None` if not even batch 1 fits.
pub fn end_to_end_batch(platform: PlatformId, model: ModelId) -> Option<u32> {
    let mem = EngineMemoryModel::new(platform, model, MemoryContext::EndToEnd);
    max_batch_under_memory(&mem, &[1, 2, 4, 8, 16, 32, SERVING_MAX_BATCH])
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_models::ALL_MODELS;

    #[test]
    fn fig5c_jetson_engine_walls() {
        // Paper labels: Tiny @196, Small @64, ResNet50 @64, Base @8.
        let expect = [
            (ModelId::VitTiny, 196),
            (ModelId::VitSmall, 64),
            (ModelId::ResNet50, 64),
            (ModelId::VitBase, 8),
        ];
        for (model, wall) in expect {
            let m = EngineMemoryModel::new(
                PlatformId::JetsonOrinNano,
                model,
                MemoryContext::EngineOnly,
            );
            assert_eq!(
                max_batch_under_memory(&m, PlatformId::JetsonOrinNano.spec().batch_axis),
                Some(wall),
                "{model:?}"
            );
        }
    }

    #[test]
    fn cloud_engines_fit_bs1024() {
        // Figs 5a/5b run every model at BS 1024.
        for platform in [PlatformId::MriA100, PlatformId::PitzerV100] {
            for model in ALL_MODELS {
                let m = EngineMemoryModel::new(platform, model, MemoryContext::EngineOnly);
                assert!(m.fits(1024), "{platform:?}/{model:?}");
            }
        }
    }

    #[test]
    fn fig8_e2e_walls_v100_and_jetson() {
        // Paper Fig 8 labels (V100 and Jetson columns are identical):
        // Tiny @64, Small @32, Base @2, ResNet50 @32.
        let expect = [
            (ModelId::VitTiny, 64),
            (ModelId::VitSmall, 32),
            (ModelId::VitBase, 2),
            (ModelId::ResNet50, 32),
        ];
        for platform in [PlatformId::PitzerV100, PlatformId::JetsonOrinNano] {
            for (model, wall) in expect {
                // Serving caps batches at 64 (the A100 column's value).
                assert_eq!(
                    end_to_end_batch(platform, model),
                    Some(wall),
                    "{platform:?}/{model:?}"
                );
            }
        }
    }

    #[test]
    fn fig8_a100_runs_everything_at_the_serving_cap() {
        for model in ALL_MODELS {
            let m = EngineMemoryModel::new(PlatformId::MriA100, model, MemoryContext::EndToEnd);
            assert!(m.fits(64), "{model:?}");
        }
    }

    #[test]
    fn weights_scale_with_model_size() {
        let ctx = MemoryContext::EngineOnly;
        let tiny =
            EngineMemoryModel::new(PlatformId::MriA100, ModelId::VitTiny, ctx).weight_bytes();
        let base =
            EngineMemoryModel::new(PlatformId::MriA100, ModelId::VitBase, ctx).weight_bytes();
        // fp16: ~10.3 MiB vs ~163.7 MiB.
        assert!((tiny as f64 / MIB as f64 - 10.3).abs() < 0.5);
        assert!((base as f64 / MIB as f64 - 163.7).abs() < 2.0);
    }

    #[test]
    fn e2e_budget_is_smaller_than_engine_only() {
        for platform in [
            PlatformId::MriA100,
            PlatformId::PitzerV100,
            PlatformId::JetsonOrinNano,
        ] {
            let eo = EngineMemoryModel::new(platform, ModelId::VitTiny, MemoryContext::EngineOnly);
            let ee = EngineMemoryModel::new(platform, ModelId::VitTiny, MemoryContext::EndToEnd);
            assert!(ee.budget_bytes() < eo.budget_bytes(), "{platform:?}");
        }
    }

    #[test]
    fn memory_grows_linearly_in_batch() {
        let m = EngineMemoryModel::new(
            PlatformId::JetsonOrinNano,
            ModelId::VitSmall,
            MemoryContext::EngineOnly,
        );
        let d1 = m.engine_bytes(2) - m.engine_bytes(1);
        let d2 = m.engine_bytes(100) - m.engine_bytes(99);
        assert_eq!(d1, d2);
        assert_eq!(d1, m.per_image_bytes());
    }

    #[test]
    fn no_batch_fits_when_weights_exceed_budget() {
        // Sanity for the None path: shrink the axis to force it.
        let m = EngineMemoryModel::new(
            PlatformId::JetsonOrinNano,
            ModelId::VitBase,
            MemoryContext::EndToEnd,
        );
        // Base e2e on Jetson fits only tiny batches; an axis starting at 64
        // yields None.
        assert_eq!(max_batch_under_memory(&m, &[64, 96, 128]), None);
    }
}
