//! Cross-crate end-to-end tests: synthetic dataset sample → real codec
//! decode → real preprocessing → real model forward pass, plus the engine
//! build path.

use harvest::engine::Executor;
use harvest::models::vit_tiny;
use harvest::prelude::*;
use harvest::preproc::run_real;

#[test]
fn plant_village_sample_classifies_deterministically() {
    let sampler = Sampler::new(DatasetId::PlantVillage, 2024);
    let sample = sampler.encode(17);
    let pre = run_real(sampler.spec(), &sample, 32).expect("preproc");
    let graph = vit_tiny(39);
    let exec = Executor::new(&graph, 5);
    let a = exec.forward(&pre.tensor).argmax();
    // Re-run the whole chain: identical class.
    let sample2 = Sampler::new(DatasetId::PlantVillage, 2024).encode(17);
    let pre2 = run_real(sampler.spec(), &sample2, 32).expect("preproc");
    let b = Executor::new(&graph, 5).forward(&pre2.tensor).argmax();
    assert_eq!(a, b);
    assert!(a < 39);
}

#[test]
fn every_dataset_feeds_every_small_model() {
    // Each dataset's samples can be preprocessed into each model's input
    // shape and produce finite logits (using ViT-Tiny for speed).
    let graph = vit_tiny(10);
    let exec = Executor::new(&graph, 3);
    for spec in &ALL_DATASETS {
        if spec.id == DatasetId::Crsa {
            continue; // 4K frames are exercised in the CRSA-specific test
        }
        let sampler = Sampler::new(spec.id, 7);
        let sample = sampler.encode(0);
        let pre = run_real(spec, &sample, 32).expect("preproc");
        let logits = exec.forward(&pre.tensor);
        assert!(
            logits.data().iter().all(|v| v.is_finite()),
            "{} produced non-finite logits",
            spec.name
        );
    }
}

#[test]
#[ignore = "4K frame: slow in debug builds, run with --ignored --release"]
fn crsa_4k_frame_full_pipeline() {
    let sampler = Sampler::new(DatasetId::Crsa, 7);
    let sample = sampler.encode(0);
    assert_eq!((sample.meta.width, sample.meta.height), (3840, 2160));
    let pre = run_real(sampler.spec(), &sample, 224).expect("preproc");
    assert!(pre.dataset_stage_s > 0.0, "perspective stage must run");
    assert_eq!(pre.tensor.shape(), &[3, 224, 224]);
}

#[test]
fn engine_oom_and_recovery_path() {
    // Build at an infeasible batch, observe the structured error, then
    // rebuild at the advisor's feasible batch.
    let err = harvest::engine::Engine::build(
        ModelId::VitBase,
        PlatformId::JetsonOrinNano,
        MemoryContext::EngineOnly,
        128,
    )
    .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("OOM"), "{msg}");
    let batch = Advisor::new(PlatformId::JetsonOrinNano)
        .max_feasible_batch(ModelId::VitBase)
        .unwrap();
    let engine = harvest::engine::Engine::build(
        ModelId::VitBase,
        PlatformId::JetsonOrinNano,
        MemoryContext::EngineOnly,
        batch,
    )
    .unwrap();
    assert!(engine.throughput(batch).unwrap() > 0.0);
}

#[test]
fn deployment_facade_covers_all_three_scenarios() {
    for scenario in [
        DeploymentScenario::Online,
        DeploymentScenario::Offline,
        DeploymentScenario::RealTime,
    ] {
        let report = harvest::core::pipeline::Deployment::new(
            PlatformId::MriA100,
            ModelId::VitTiny,
            DatasetId::Fruits360,
        )
        .scenario(scenario)
        .images(128)
        .run()
        .expect("runs");
        assert!(report.completed() > 0, "{scenario:?}");
        assert!(report.throughput() > 0.0, "{scenario:?}");
    }
}
