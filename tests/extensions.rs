//! Integration tests for the extension layer: energy, continuum placement,
//! attention scaling, multi-model serving, cluster scale-out, quantization.

use harvest::core::continuum::{analyze, Placement};
use harvest::core::experiments::ablations::{multi_instance_ablation, quantization_error_probe};
use harvest::core::experiments::scaling::scaling_sweep;
use harvest::perf::EnergyModel;
use harvest::prelude::*;
use harvest::serving::cluster::scaling_sweep as cluster_sweep;
use harvest::serving::{HostedModel, MultiModelServer};

#[test]
fn energy_story_is_two_regime() {
    let jetson = EnergyModel::new(PlatformId::JetsonOrinNano, ModelId::ResNet50);
    let a100 = EnergyModel::new(PlatformId::MriA100, ModelId::ResNet50);
    // Single frame: edge wins.
    assert!(jetson.point(1).images_per_joule > a100.point(1).images_per_joule);
    // Saturated: cloud wins.
    let j_best = jetson.best_batch(PlatformId::JetsonOrinNano.spec().batch_axis);
    let a_best = a100.best_batch(PlatformId::MriA100.spec().batch_axis);
    assert!(a_best.images_per_joule > j_best.images_per_joule);
}

#[test]
fn continuum_keeps_4k_at_the_edge_and_small_jpegs_in_the_cloud() {
    let crsa = analyze(
        ModelId::ResNet50,
        DatasetId::Crsa,
        NetworkLink::FIVE_G,
        PlatformId::MriA100,
    );
    assert_eq!(crsa.throughput_winner, Placement::Edge);
    let fruits = analyze(
        ModelId::ResNet50,
        DatasetId::Fruits360,
        NetworkLink::FIVE_G,
        PlatformId::MriA100,
    );
    assert!(matches!(fruits.throughput_winner, Placement::Cloud(_)));
}

#[test]
fn linear_attention_wins_at_high_resolution_only() {
    let points = scaling_sweep(&[32, 512]);
    let small = points[0].vit_gmacs / points[0].rwkv_gmacs;
    let large = points[1].vit_gmacs / points[1].rwkv_gmacs;
    assert!(small < 1.5, "at 32² the advantage is small: {small}");
    assert!(large > 20.0, "at 512² it is decisive: {large}");
}

#[test]
fn multi_model_server_shares_preprocessing() {
    let mut server = MultiModelServer::new(
        PlatformId::MriA100,
        DatasetId::CornGrowthStage,
        &[
            HostedModel {
                model: ModelId::ResNet50,
                max_batch: 8,
                max_queue_delay: SimTime::from_millis(2),
            },
            HostedModel {
                model: ModelId::VitBase,
                max_batch: 8,
                max_queue_delay: SimTime::from_millis(2),
            },
        ],
    )
    .expect("fits on the A100");
    for i in 0..32u64 {
        server.submit_fanout(SimTime::from_micros(i * 1000), &[0, 1]);
    }
    server.run_to_completion();
    assert_eq!(server.completed(0), 32);
    assert_eq!(server.completed(1), 32);
    assert_eq!(server.preproc_passes(), 32, "one shared pass per request");
}

#[test]
fn cluster_scales_and_multi_instance_helps_tails() {
    let pipeline = PipelineConfig {
        platform: PlatformId::PitzerV100,
        model: ModelId::ResNet50,
        dataset: DatasetId::CornGrowthStage,
        preproc: PreprocMethod::Dali224,
        ctx: MemoryContext::EngineOnly,
        max_batch: 32,
        max_queue_delay: SimTime::from_millis(20),
        preproc_instances: 2,
        engine_instances: 1,
    };
    let sweep = cluster_sweep(&pipeline, &[1, 4], 256).unwrap();
    assert!(sweep[1].1 > 3.5 * sweep[0].1, "{sweep:?}");

    let rows = multi_instance_ablation(PlatformId::MriA100, ModelId::VitSmall, 64, 2_000.0);
    assert!(rows.last().unwrap().p99_ms < rows.first().unwrap().p99_ms);
}

#[test]
fn quantization_probe_reports_sub_percent_errors() {
    for row in quantization_error_probe(7) {
        assert!(
            row.relative_error < 0.01,
            "{}: {}",
            row.layer,
            row.relative_error
        );
    }
}

#[test]
fn residue_estimation_runs_on_dataset_samples() {
    // End-to-end application output: sample a CRSA-style frame (small
    // stand-in), estimate residue cover.
    use harvest::imaging::{residue_cover_fraction, FieldScene, SynthImageSpec};
    let frame = FieldScene::GroundFeed.render(&SynthImageSpec {
        width: 320,
        height: 180,
        seed: 3,
    });
    let f = residue_cover_fraction(&frame);
    assert!((0.0..=1.0).contains(&f));
    assert!(f > 0.01, "ground feed should show some residue: {f}");
}
