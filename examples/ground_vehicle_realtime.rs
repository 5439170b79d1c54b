//! Ground-vehicle real-time inference (the Fig 3b workflow): a GoPro feed
//! on a Jetson Orin Nano drives on-the-fly decisions. The camera runs at a
//! fixed rate; frames must clear the pipeline within a deadline or the
//! actuator works from stale data.
//!
//! ```text
//! cargo run --example ground_vehicle_realtime --release
//! ```

use harvest::prelude::*;
use harvest::serving::{run_realtime, RealTimeConfig};

fn main() {
    let platform = PlatformId::JetsonOrinNano;
    println!("ground vehicle: Jetson Orin Nano Super, 25 W, camera feeds\n");

    // Which model can actually hold a 30 fps / 33 ms loop on the edge?
    println!(
        "{:<10} {:>6} {:>10} {:>9} {:>8} {:>9}",
        "model", "fps", "processed", "dropped", "misses", "p99 ms"
    );
    for model in ALL_MODELS {
        for fps in [15.0, 30.0, 60.0] {
            let pipeline = PipelineConfig {
                platform,
                model,
                dataset: DatasetId::CornGrowthStage,
                preproc: match model.input_size() {
                    32 => PreprocMethod::Dali32,
                    _ => PreprocMethod::Dali224,
                },
                ctx: MemoryContext::EndToEnd,
                // Real-time: no batching games, smallest viable batch.
                max_batch: 1,
                max_queue_delay: SimTime::from_millis(1),
                preproc_instances: 1,
                engine_instances: 1,
            };
            let report = run_realtime(
                &RealTimeConfig {
                    pipeline,
                    fps,
                    frames: 600,
                    deadline_ms: 1000.0 / fps,
                    max_in_flight: 3,
                },
                None,
            )
            .expect("batch 1 always fits");
            println!(
                "{:<10} {:>6.0} {:>10} {:>9} {:>8} {:>9.1}",
                model.name(),
                fps,
                report.processed,
                report.dropped,
                report.deadline_misses,
                report.p99_ms
            );
        }
        println!();
    }

    // The application output itself: residue-cover estimation on a real
    // synthetic ground-feed frame (the CRSA task), as a per-cell heatmap.
    println!("residue-cover heatmap from one camera frame (4x4 cells):");
    use harvest::imaging::{heatmap, residue_cover_fraction, FieldScene, SynthImageSpec};
    let frame = FieldScene::GroundFeed.render(&SynthImageSpec {
        width: 384,
        height: 216,
        seed: 42,
    });
    let cells = heatmap(&frame, 4, 4, residue_cover_fraction);
    for row in cells.chunks(4) {
        let line: Vec<String> = row.iter().map(|v| format!("{:>5.1}%", v * 100.0)).collect();
        println!("  {}", line.join(" "));
    }
    println!();

    // The advisor's view: what the paper's guidance would tell this farmer.
    let advisor = Advisor::new(platform);
    match advisor.recommend_model(16.7) {
        Some(rec) => println!(
            "advisor: for 60 Hz actuation use {} at batch {} ({:.0} img/s, {:.1} ms)",
            rec.model.name(),
            rec.batch.batch,
            rec.batch.throughput,
            rec.batch.latency_ms
        ),
        None => println!("advisor: no model sustains 60 Hz on this device"),
    }
    match advisor.recommend_model(33.3) {
        Some(rec) => println!(
            "advisor: for 30 Hz actuation use {} at batch {} ({:.0} img/s, {:.1} ms)",
            rec.model.name(),
            rec.batch.batch,
            rec.batch.throughput,
            rec.batch.latency_ms
        ),
        None => println!("advisor: no model sustains 30 Hz on this device"),
    }
}
