//! Fig. 6: request latency vs batch size, with the 60 QPS threshold.

use harvest_hw::PlatformId;
use harvest_models::{ModelId, ALL_MODELS};
use harvest_perf::{
    batch_axis, max_batch_under_memory, EngineMemoryModel, EnginePerfModel, MemoryContext,
    LATENCY_BOUND_60QPS_MS,
};
use serde::Serialize;

/// One point of a Fig. 6 series.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct Fig6Point {
    /// Batch size.
    pub batch: u32,
    /// Actual batch latency, ms (solid line).
    pub latency_ms: f64,
    /// Ideal fully-saturated latency, ms (dashed line).
    pub theoretical_ms: f64,
}

/// One model's series on a platform panel.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Series {
    /// Model name.
    pub model: String,
    /// Swept points (stops at the OOM wall).
    pub points: Vec<Fig6Point>,
    /// Largest batch meeting the 16.7 ms / 60 QPS bound (`None` if even
    /// batch 1 misses it).
    pub max_batch_60qps: Option<u32>,
}

/// One platform panel of Fig. 6.
#[derive(Clone, Debug, Serialize)]
pub struct Fig6Platform {
    /// Platform short name.
    pub platform: String,
    /// The 60 QPS threshold, ms (the red line).
    pub threshold_ms: f64,
    /// Per-model series.
    pub series: Vec<Fig6Series>,
}

fn fig6_series(platform: PlatformId, model: ModelId, axis: &[u32]) -> Fig6Series {
    let perf = EnginePerfModel::new(platform, model);
    let mem = EngineMemoryModel::new(platform, model, MemoryContext::EngineOnly);
    let wall = max_batch_under_memory(&mem, axis).unwrap_or(0);
    let points = axis
        .iter()
        .copied()
        .filter(|&bs| bs <= wall)
        .map(|bs| Fig6Point {
            batch: bs,
            latency_ms: perf.latency_ms(bs),
            theoretical_ms: perf.theoretical_latency_ms(bs),
        })
        .collect();
    Fig6Series {
        model: model.name().to_string(),
        points,
        max_batch_60qps: perf
            .max_batch_under_latency(LATENCY_BOUND_60QPS_MS)
            .map(|b| b.min(wall)),
    }
}

/// Regenerate one platform panel.
pub(crate) fn fig6_platform(platform: PlatformId) -> Fig6Platform {
    let axis = batch_axis(platform);
    Fig6Platform {
        platform: platform.name().to_string(),
        threshold_ms: LATENCY_BOUND_60QPS_MS,
        series: ALL_MODELS
            .iter()
            .map(|&m| fig6_series(platform, m, axis))
            .collect(),
    }
}

/// Regenerate all three panels of Fig. 6.
pub fn fig6() -> Vec<Fig6Platform> {
    [
        PlatformId::MriA100,
        PlatformId::PitzerV100,
        PlatformId::JetsonOrinNano,
    ]
    .into_iter()
    .map(fig6_platform)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series<'a>(panel: &'a Fig6Platform, model: &str) -> &'a Fig6Series {
        panel.series.iter().find(|s| s.model == model).unwrap()
    }

    #[test]
    fn actual_latency_sits_above_theoretical_with_floor() {
        for panel in fig6() {
            for s in &panel.series {
                for p in &s.points {
                    assert!(
                        p.latency_ms > p.theoretical_ms,
                        "{}/{}",
                        panel.platform,
                        s.model
                    );
                }
                // The non-linear region: at batch 1 the gap is large.
                let first = &s.points[0];
                assert!(
                    first.latency_ms > 2.0 * first.theoretical_ms,
                    "{}/{}: {} vs {}",
                    panel.platform,
                    s.model,
                    first.latency_ms,
                    first.theoretical_ms
                );
            }
        }
    }

    #[test]
    fn operating_points_match_the_papers_statements() {
        let panels = fig6();
        let a100 = &panels[0];
        for s in &a100.series {
            assert!(s.max_batch_60qps.unwrap() > 16, "{}", s.model);
        }
        let v100 = &panels[1];
        let base = series(v100, "ViT_Base");
        let max = base.max_batch_60qps.unwrap();
        assert!((8..16).contains(&max), "V100 ViT-Base max {max}");
    }

    #[test]
    fn jetson_margins_are_narrow() {
        let panels = fig6();
        let jetson = &panels[2];
        // ViT-Base cannot meet 60 QPS at all (its feasible batches are ≤8
        // and even batch 1 latency is ~12ms + launch overhead... check the
        // model directly).
        let base = series(jetson, "ViT_Base");
        match base.max_batch_60qps {
            None => {}
            Some(b) => assert!(b <= 2, "{b}"),
        }
        // Every Jetson model's operating margin is far below the cloud's.
        let a100 = &panels[0];
        for (js, cs) in jetson.series.iter().zip(&a100.series) {
            let j = js.max_batch_60qps.unwrap_or(0);
            let c = cs.max_batch_60qps.unwrap_or(0);
            assert!(j < c, "{}: jetson {j} vs a100 {c}", js.model);
        }
    }

    #[test]
    fn latency_at_figure_anchor_points() {
        // A100 ViT-Base at BS1024: throughput 4095.9 img/s ⇒ 250 ms batch.
        let panels = fig6();
        let base = series(&panels[0], "ViT_Base");
        let p1024 = base.points.iter().find(|p| p.batch == 1024).unwrap();
        assert!((p1024.latency_ms - 1024.0 / 4095.9 * 1000.0).abs() < 0.5);
    }

    #[test]
    fn threshold_is_16_7ms_everywhere() {
        for panel in fig6() {
            assert!((panel.threshold_ms - 16.7).abs() < 1e-9);
        }
    }
}
