//! Drone-based offline survey (the Fig 3a workflow): a UAS flight produces
//! a batch of field imagery; after stitching, tiles are pushed through the
//! HARVEST offline pipeline on a cloud platform, producing per-tile growth-
//! stage classifications.
//!
//! ```text
//! cargo run --example drone_offline_survey --release
//! ```

use harvest::perf::end_to_end_batch;
use harvest::prelude::*;
use harvest::serving::{run_offline, OfflineConfig};

fn main() {
    // A survey of one field: ~5,000 stitched 224x224 tiles (Corn Growth
    // Stage imagery, UAS-collected per Table 2).
    let tiles = 5_000u32;
    println!("drone survey: {tiles} tiles of Corn Growth Stage imagery\n");

    // Compare the two cloud platforms the offline scenario targets, across
    // the two strongest models.
    for platform in [PlatformId::MriA100, PlatformId::PitzerV100] {
        for model in [ModelId::ResNet50, ModelId::VitBase] {
            let Some(batch) = end_to_end_batch(platform, model) else {
                println!("{} {}: does not fit", platform.name(), model.name());
                continue;
            };
            let pipeline = PipelineConfig {
                platform,
                model,
                dataset: DatasetId::CornGrowthStage,
                preproc: PreprocMethod::Dali224,
                ctx: MemoryContext::EndToEnd,
                max_batch: batch,
                max_queue_delay: SimTime::from_millis(50),
                preproc_instances: platform.spec().preproc_instances,
                engine_instances: 1,
            };
            let report = run_offline(&OfflineConfig {
                pipeline,
                images: tiles,
            })
            .expect("fits");
            println!(
                "  {:<6} {:<9} @BS{:<3}  field processed in {:>6.1}s  ({:>8.1} tiles/s, mean batch {:.1})",
                platform.name(),
                model.name(),
                batch,
                report.makespan_s,
                report.throughput,
                report.mean_batch
            );
        }
    }

    // The full Fig 3a chain, for real: simulate a small drone survey over
    // one field, stitch the overlapping captures into an orthomosaic
    // (OpenDroneMap's role), cut it into model tiles, and classify each
    // tile with the real executor — the heatmap-style output of the paper.
    println!("\nreal stitch-and-classify (the OpenDroneMap -> HARVEST chain):");
    use harvest::imaging::{
        capture_survey, stitch, tile_mosaic, FieldScene, SurveyGrid, SynthImageSpec,
    };
    let grid = SurveyGrid {
        cols: 4,
        rows: 3,
        tile_w: 256,
        tile_h: 256,
        overlap: 32,
    };
    let field = FieldScene::RowCrop.render(&SynthImageSpec {
        width: grid.mosaic_width(),
        height: grid.mosaic_height(),
        seed: 20_260_706,
    });
    let captures = capture_survey(&field, &grid);
    println!(
        "  {} captures of {}x{} -> mosaic {}x{}",
        captures.len(),
        grid.tile_w,
        grid.tile_h,
        grid.mosaic_width(),
        grid.mosaic_height()
    );
    let mosaic = stitch(&captures, &grid);
    let tiles = tile_mosaic(&mosaic, 224);
    println!("  tiled into {} inference tiles of 224x224", tiles.len());

    let graph = harvest::models::vit_base(23);
    let exec = Executor::new(&graph, 11);
    let mut strip = String::new();
    for tile in tiles.iter().take(12) {
        let chw = harvest::tensor::hwc_u8_to_chw(tile.data(), 224, 224, 3);
        let mut tensor = harvest::tensor::Tensor::from_vec(&[3, 224, 224], chw);
        harvest::tensor::normalize_chw(
            tensor.data_mut(),
            3,
            &harvest::preproc::real::NORM_MEAN,
            &harvest::preproc::real::NORM_STD,
        );
        strip.push_str(&format!("{:>3}", exec.forward(&tensor).argmax()));
    }
    println!("  growth-stage strip (first 12 tiles): {strip}");
}
