//! Fig. 8: end-to-end pipeline latency and throughput per dataset × model ×
//! platform, at the largest batch before OOM.

use harvest_data::{DatasetId, ALL_DATASETS};
use harvest_hw::PlatformId;
use harvest_models::ALL_MODELS;
use harvest_perf::{end_to_end_batch, MemoryContext};
use harvest_serving::{run_offline, OfflineConfig, PipelineConfig};
use harvest_simkit::SimTime;
use serde::Serialize;

/// One (model × dataset) cell of a Fig. 8 panel.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Cell {
    /// Model name.
    pub model: String,
    /// Batch size used (largest before OOM, ≤ the serving cap) — the
    /// figure's "@BSn" annotation.
    pub batch: u32,
    /// Dataset name.
    pub dataset: String,
    /// Average end-to-end request latency, ms (upper panel).
    pub latency_ms: f64,
    /// Sustained throughput, img/s (lower panel).
    pub throughput: f64,
}

/// One platform panel of Fig. 8.
#[derive(Clone, Debug, Serialize)]
pub struct Fig8Platform {
    /// Platform short name.
    pub platform: String,
    /// All model × dataset cells.
    pub cells: Vec<Fig8Cell>,
}

/// Images pushed through each pipeline run (enough for steady state).
const IMAGES_PER_RUN: u32 = 1024;

/// The Fig. 8 dataset list: the five classification datasets (the figure's
/// legend omits the CRSA feed).
pub(crate) fn fig8_datasets() -> Vec<DatasetId> {
    ALL_DATASETS
        .iter()
        .map(|d| d.id)
        .filter(|&d| d != DatasetId::Crsa)
        .collect()
}

/// Regenerate one platform panel by running the offline serving scenario
/// for every model × dataset pair.
pub(crate) fn fig8_platform(platform: PlatformId) -> Fig8Platform {
    let mut cells = Vec::new();
    for &model in &ALL_MODELS {
        let Some(batch) = end_to_end_batch(platform, model) else {
            continue;
        };
        for dataset in fig8_datasets() {
            let pipeline = PipelineConfig {
                platform,
                model,
                dataset,
                preproc: crate::pipeline::preproc_method(model),
                ctx: MemoryContext::EndToEnd,
                max_batch: batch,
                max_queue_delay: SimTime::from_millis(20),
                preproc_instances: platform.spec().preproc_instances,
                engine_instances: 1,
            };
            let report = run_offline(&OfflineConfig {
                pipeline,
                images: IMAGES_PER_RUN,
            })
            .expect("batch chosen to fit");
            let dataset_name = harvest_data::DatasetSpec::get(dataset).name.to_string();
            cells.push(Fig8Cell {
                model: model.name().to_string(),
                batch,
                dataset: dataset_name,
                // Average request latency: batch residence time ≈ makespan
                // per dispatched batch group; report per-request mean via
                // throughput and batch (steady-state Little's-law form).
                latency_ms: batch as f64 / report.throughput * 1e3,
                throughput: report.throughput,
            });
        }
    }
    Fig8Platform {
        platform: platform.name().to_string(),
        cells,
    }
}

/// Regenerate all three panels of Fig. 8.
pub fn fig8() -> Vec<Fig8Platform> {
    [
        PlatformId::MriA100,
        PlatformId::PitzerV100,
        PlatformId::JetsonOrinNano,
    ]
    .into_iter()
    .map(fig8_platform)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_models::ModelId;
    use harvest_perf::EnginePerfModel;

    #[test]
    fn batch_labels_match_the_figure() {
        // A100: all @64. V100/Jetson: Tiny 64, Small 32, Base 2, RN50 32.
        for model in ALL_MODELS {
            assert_eq!(
                end_to_end_batch(PlatformId::MriA100, model),
                Some(64),
                "{model:?}"
            );
        }
        let expect = [
            (ModelId::VitTiny, 64),
            (ModelId::VitSmall, 32),
            (ModelId::VitBase, 2),
            (ModelId::ResNet50, 32),
        ];
        for platform in [PlatformId::PitzerV100, PlatformId::JetsonOrinNano] {
            for (model, bs) in expect {
                assert_eq!(
                    end_to_end_batch(platform, model),
                    Some(bs),
                    "{platform:?}/{model:?}"
                );
            }
        }
    }

    #[test]
    fn a100_large_models_approach_engine_bound() {
        // §4.3: on the A100, ViT-Base/Small hide preprocessing behind
        // inference and approach the engine's bound.
        let panel = fig8_platform(PlatformId::MriA100);
        let base_cells: Vec<&Fig8Cell> = panel
            .cells
            .iter()
            .filter(|c| c.model == "ViT_Base")
            .collect();
        let engine_bound =
            EnginePerfModel::new(PlatformId::MriA100, ModelId::VitBase).throughput(64);
        for c in base_cells {
            assert!(
                c.throughput > 0.6 * engine_bound,
                "{}: {} vs bound {engine_bound}",
                c.dataset,
                c.throughput
            );
        }
    }

    #[test]
    fn v100_small_models_are_preproc_bottlenecked() {
        // §4.3: smaller models remain preprocessing-bottlenecked,
        // particularly on the V100.
        let panel = fig8_platform(PlatformId::PitzerV100);
        let tiny: Vec<&Fig8Cell> = panel
            .cells
            .iter()
            .filter(|c| c.model == "ViT_Tiny")
            .collect();
        let engine_bound =
            EnginePerfModel::new(PlatformId::PitzerV100, ModelId::VitTiny).throughput(64);
        for c in tiny {
            assert!(
                c.throughput < 0.8 * engine_bound,
                "{}: {} vs engine {engine_bound} — should be preproc-bound",
                c.dataset,
                c.throughput
            );
        }
    }

    #[test]
    fn jetson_vitbase_degrades_most() {
        // §4.3: ViT-Base shows the most severe degradation on the Jetson.
        let panel = fig8_platform(PlatformId::JetsonOrinNano);
        let mean_tput = |model: &str| {
            let cells: Vec<f64> = panel
                .cells
                .iter()
                .filter(|c| c.model == model)
                .map(|c| c.throughput)
                .collect();
            cells.iter().sum::<f64>() / cells.len() as f64
        };
        let base = mean_tput("ViT_Base");
        for other in ["ViT_Tiny", "ViT_Small", "ResNet50"] {
            assert!(
                base < mean_tput(other) / 2.0,
                "base {base} vs {other} {}",
                mean_tput(other)
            );
        }
    }

    #[test]
    fn panel_scales_match_the_figure() {
        // Fig 8 y-axis maxima: A100 ~15000, V100 ~3000, Jetson ~800 img/s.
        let peak = |platform| {
            fig8_platform(platform)
                .cells
                .iter()
                .map(|c| c.throughput)
                .fold(f64::MIN, f64::max)
        };
        let a100 = peak(PlatformId::MriA100);
        assert!((6_000.0..18_000.0).contains(&a100), "A100 {a100}");
        let v100 = peak(PlatformId::PitzerV100);
        assert!((1_500.0..4_000.0).contains(&v100), "V100 {v100}");
        let jetson = peak(PlatformId::JetsonOrinNano);
        assert!((400.0..1_500.0).contains(&jetson), "Jetson {jetson}");
    }

    #[test]
    fn five_datasets_per_model() {
        let panel = fig8_platform(PlatformId::MriA100);
        assert_eq!(panel.cells.len(), 4 * 5);
        assert!(panel.cells.iter().all(|c| c.dataset != "CRSA"));
    }
}
