//! Fig. 5: achieved TFLOPS vs batch size per model per platform.

use harvest_hw::PlatformId;
use harvest_models::{ModelId, ALL_MODELS};
use harvest_perf::{
    batch_axis, max_batch_under_memory, EngineMemoryModel, EnginePerfModel, MemoryContext,
};
use serde::Serialize;

/// One point of a Fig. 5 series.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig5Point {
    /// Batch size.
    pub batch: u32,
    /// Achieved TFLOPS (solid line).
    pub achieved_tflops: f64,
    /// Throughput at this batch, img/s.
    pub throughput: f64,
}

/// One model's series on a platform panel.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Series {
    /// Model name.
    pub model: String,
    /// The swept points (stops at the OOM wall).
    pub points: Vec<Fig5Point>,
    /// The figure's label: peak throughput and the batch it occurs at.
    pub peak_throughput: f64,
    /// Batch size at the peak (the largest that fits).
    pub peak_batch: u32,
}

/// One platform panel of Fig. 5.
#[derive(Clone, Debug, Serialize)]
pub struct Fig5Platform {
    /// Platform short name.
    pub platform: String,
    /// Theoretical peak TFLOPS (dashed line).
    pub theoretical_tflops: f64,
    /// Practical GEMM peak TFLOPS (second dashed line).
    pub practical_tflops: f64,
    /// Per-model series.
    pub series: Vec<Fig5Series>,
}

/// Regenerate one platform panel.
pub(crate) fn fig5_platform(platform: PlatformId) -> Fig5Platform {
    let spec = platform.spec();
    let axis = batch_axis(platform);
    let series = ALL_MODELS
        .iter()
        .map(|&model| fig5_series(platform, model, axis))
        .collect();
    Fig5Platform {
        platform: platform.name().to_string(),
        theoretical_tflops: spec.theory_tflops,
        practical_tflops: spec.practical_tflops,
        series,
    }
}

fn fig5_series(platform: PlatformId, model: ModelId, axis: &[u32]) -> Fig5Series {
    let perf = EnginePerfModel::new(platform, model);
    let mem = EngineMemoryModel::new(platform, model, MemoryContext::EngineOnly);
    let wall = max_batch_under_memory(&mem, axis).unwrap_or(0);
    let points: Vec<Fig5Point> = axis
        .iter()
        .copied()
        .filter(|&bs| bs <= wall)
        .map(|bs| Fig5Point {
            batch: bs,
            achieved_tflops: perf.achieved_tflops(bs),
            throughput: perf.throughput(bs),
        })
        .collect();
    let peak = points.last().expect("at least batch 1 fits");
    Fig5Series {
        model: model.name().to_string(),
        peak_throughput: peak.throughput,
        peak_batch: peak.batch,
        points,
    }
}

/// Regenerate all three panels of Fig. 5.
pub fn fig5() -> Vec<Fig5Platform> {
    [
        PlatformId::MriA100,
        PlatformId::PitzerV100,
        PlatformId::JetsonOrinNano,
    ]
    .into_iter()
    .map(fig5_platform)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series<'a>(panel: &'a Fig5Platform, model: &str) -> &'a Fig5Series {
        panel.series.iter().find(|s| s.model == model).unwrap()
    }

    #[test]
    fn peak_labels_match_the_figure() {
        let panels = fig5();
        let a100 = &panels[0];
        let expect_a100 = [
            ("ViT_Tiny", 22_879.3, 1024),
            ("ViT_Small", 9_344.2, 1024),
            ("ViT_Base", 4_095.9, 1024),
            ("ResNet50", 16_230.7, 1024),
        ];
        for (model, tput, bs) in expect_a100 {
            let s = series(a100, model);
            assert_eq!(s.peak_batch, bs, "{model}");
            assert!(
                (s.peak_throughput - tput).abs() / tput < 0.001,
                "{model}: {}",
                s.peak_throughput
            );
        }
        let jetson = &panels[2];
        let expect_jetson = [
            ("ViT_Tiny", 1_170.1, 196),
            ("ViT_Small", 469.4, 64),
            ("ViT_Base", 201.0, 8),
            ("ResNet50", 842.9, 64),
        ];
        for (model, tput, bs) in expect_jetson {
            let s = series(jetson, model);
            assert_eq!(s.peak_batch, bs, "{model}");
            assert!(
                (s.peak_throughput - tput).abs() / tput < 0.001,
                "{model}: {}",
                s.peak_throughput
            );
        }
    }

    #[test]
    fn achieved_tflops_grow_with_batch_and_stay_below_practical() {
        for panel in fig5() {
            for s in &panel.series {
                let mut prev = 0.0;
                for p in &s.points {
                    assert!(p.achieved_tflops > prev, "{}/{}", panel.platform, s.model);
                    assert!(p.achieved_tflops < panel.practical_tflops);
                    prev = p.achieved_tflops;
                }
            }
        }
    }

    #[test]
    fn jetson_series_truncate_at_oom_walls() {
        let panels = fig5();
        let jetson = &panels[2];
        assert_eq!(series(jetson, "ViT_Base").points.last().unwrap().batch, 8);
        assert_eq!(series(jetson, "ViT_Small").points.last().unwrap().batch, 64);
        // Cloud series run the full axis.
        let a100 = &panels[0];
        assert_eq!(series(a100, "ViT_Base").points.last().unwrap().batch, 1024);
    }

    #[test]
    fn v100_peaks_match_figure() {
        let panels = fig5();
        let v100 = &panels[1];
        for (model, tput) in [
            ("ViT_Tiny", 7_179.0),
            ("ViT_Small", 2_929.3),
            ("ViT_Base", 1_482.6),
            ("ResNet50", 8_107.3),
        ] {
            let s = series(v100, model);
            assert!((s.peak_throughput - tput).abs() / tput < 0.001, "{model}");
        }
    }

    #[test]
    fn mfu_gap_is_substantial_everywhere() {
        // §4.1: "a substantial gap exists between the MFU and the practical
        // upper bound" — even at the largest batch.
        for panel in fig5() {
            for s in &panel.series {
                let last = s.points.last().unwrap();
                assert!(
                    last.achieved_tflops < 0.5 * panel.practical_tflops,
                    "{}/{}: {} vs {}",
                    panel.platform,
                    s.model,
                    last.achieved_tflops,
                    panel.practical_tflops
                );
            }
        }
    }
}
