//! Scenario-level integration tests across the serving stack.

use harvest::prelude::*;
use harvest::serving::{
    run_cluster_offline, run_offline, run_online, run_realtime, ClusterConfig, FaultInjection,
    OfflineConfig, OnlineConfig, RealTimeConfig,
};
use harvest::simkit::FaultPlan;

fn pipeline(
    platform: PlatformId,
    model: ModelId,
    dataset: DatasetId,
    batch: u32,
) -> PipelineConfig {
    PipelineConfig {
        platform,
        model,
        dataset,
        preproc: match model.input_size() {
            32 => PreprocMethod::Dali32,
            _ => PreprocMethod::Dali224,
        },
        ctx: MemoryContext::EngineOnly,
        max_batch: batch,
        max_queue_delay: SimTime::from_millis(5),
        preproc_instances: 2,
        engine_instances: 1,
    }
}

#[test]
fn online_latency_grows_with_load() {
    let run = |rate: f64| {
        run_online(
            &OnlineConfig {
                pipeline: pipeline(
                    PlatformId::PitzerV100,
                    ModelId::VitSmall,
                    DatasetId::PlantVillage,
                    32,
                ),
                arrival_rate: rate,
                requests: 800,
                seed: 9,
            },
            None,
        )
        .unwrap()
    };
    let light = run(100.0);
    let heavy = run(2_000.0);
    assert!(
        heavy.p95_ms > light.p95_ms,
        "p95 {} vs {}",
        heavy.p95_ms,
        light.p95_ms
    );
    assert!(heavy.mean_batch > light.mean_batch);
}

#[test]
fn online_is_reproducible_across_runs() {
    let cfg = OnlineConfig {
        pipeline: pipeline(
            PlatformId::MriA100,
            ModelId::ResNet50,
            DatasetId::Fruits360,
            16,
        ),
        arrival_rate: 500.0,
        requests: 300,
        seed: 123,
    };
    let a = run_online(&cfg, None).unwrap();
    let b = run_online(&cfg, None).unwrap();
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.p99_ms, b.p99_ms);
    assert_eq!(a.throughput, b.throughput);
}

#[test]
fn offline_throughput_ranks_platforms_correctly() {
    let run = |platform, batch| {
        run_offline(&OfflineConfig {
            pipeline: pipeline(
                platform,
                ModelId::ResNet50,
                DatasetId::CornGrowthStage,
                batch,
            ),
            images: 1024,
        })
        .unwrap()
        .throughput
    };
    let a100 = run(PlatformId::MriA100, 64);
    let v100 = run(PlatformId::PitzerV100, 64);
    let jetson = run(PlatformId::JetsonOrinNano, 64);
    assert!(a100 > v100, "{a100} vs {v100}");
    assert!(v100 > jetson, "{v100} vs {jetson}");
}

#[test]
fn realtime_bigger_camera_rate_never_lowers_misses() {
    let run = |fps: f64| {
        run_realtime(
            &RealTimeConfig {
                pipeline: pipeline(
                    PlatformId::JetsonOrinNano,
                    ModelId::VitSmall,
                    DatasetId::CornGrowthStage,
                    2,
                ),
                fps,
                frames: 400,
                deadline_ms: 1000.0 / fps,
                max_in_flight: 3,
            },
            None,
        )
        .unwrap()
    };
    let slow = run(15.0);
    let fast = run(90.0);
    assert!(
        fast.dropped + fast.deadline_misses >= slow.dropped + slow.deadline_misses,
        "slow {slow:?} fast {fast:?}"
    );
}

#[test]
fn faulted_runs_serialize_byte_identically_across_runs() {
    // The hard determinism bar: with an *active* fault plan (crashes,
    // transient errors — the full retry/backoff machinery exercised), two
    // runs with the same seed must produce byte-identical serialized
    // reports, floats and all.
    let online_cfg = OnlineConfig {
        pipeline: pipeline(
            PlatformId::MriA100,
            ModelId::VitTiny,
            DatasetId::PlantVillage,
            16,
        ),
        arrival_rate: 250.0,
        requests: 500,
        seed: 2024,
    };
    let faults = FaultInjection {
        plan: FaultPlan::new(77)
            .with_engine_crash(0, SimTime::from_millis(400), SimTime::from_millis(700))
            .with_transient_errors(0.05),
        policy: Default::default(),
    };
    let a = run_online(&online_cfg, Some(&faults)).unwrap();
    let b = run_online(&online_cfg, Some(&faults)).unwrap();
    assert!(
        a.resilience.retries > 0,
        "fault machinery must actually fire"
    );
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "online faulted report must be bit-reproducible"
    );

    let cluster_cfg = ClusterConfig::standard(
        pipeline(
            PlatformId::PitzerV100,
            ModelId::ResNet50,
            DatasetId::CornGrowthStage,
            32,
        ),
        3,
    );
    let cluster_faults = FaultInjection {
        plan: FaultPlan::new(5).with_engine_crash(
            2,
            SimTime::from_millis(1),
            SimTime::from_secs(20),
        ),
        policy: Default::default(),
    };
    let ca = run_cluster_offline(&cluster_cfg, 512, Some(&cluster_faults), None).unwrap();
    let cb = run_cluster_offline(&cluster_cfg, 512, Some(&cluster_faults), None).unwrap();
    assert!(
        ca.resilience.failovers > 0,
        "failover path must actually fire"
    );
    assert_eq!(
        serde_json::to_string(&ca).unwrap(),
        serde_json::to_string(&cb).unwrap(),
        "cluster faulted report must be bit-reproducible"
    );
}

#[test]
fn cluster_crash_mid_offline_run_loses_nothing() {
    let cfg = ClusterConfig::standard(
        pipeline(
            PlatformId::PitzerV100,
            ModelId::ResNet50,
            DatasetId::CornGrowthStage,
            32,
        ),
        4,
    );
    // Node 3 dies while its queue is still full and never comes back
    // within the run; every one of its batches must fail over.
    let faults = FaultInjection {
        plan: FaultPlan::new(31).with_engine_crash(
            3,
            SimTime::from_millis(10),
            SimTime::from_secs(60),
        ),
        policy: Default::default(),
    };
    let report = run_cluster_offline(&cfg, 1024, Some(&faults), None).unwrap();
    assert_eq!(report.images, 1024, "crash must not lose images");
    assert_eq!(report.resilience.lost, 0);
    assert_eq!(report.resilience.duplicated, 0);
    assert!(report.resilience.failovers > 0);
    assert_eq!(
        report.per_node_completed.iter().sum::<u64>(),
        1024,
        "per-node counts must account for every image: {:?}",
        report.per_node_completed
    );
    // The dead node keeps only what it finished before t=10ms.
    let healthy = report.per_node_completed[..3].iter().min().unwrap();
    assert!(
        report.per_node_completed[3] < *healthy,
        "dead node should trail: {:?}",
        report.per_node_completed
    );
}

#[test]
fn online_crash_timeout_retry_keeps_tail_bounded() {
    let cfg = OnlineConfig {
        pipeline: pipeline(
            PlatformId::MriA100,
            ModelId::VitSmall,
            DatasetId::Fruits360,
            16,
        ),
        arrival_rate: 150.0,
        requests: 600,
        seed: 404,
    };
    let faults = FaultInjection {
        plan: FaultPlan::new(9).with_engine_crash(
            0,
            SimTime::from_secs(1),
            SimTime::from_millis(1600),
        ),
        policy: Default::default(),
    };
    let report = run_online(&cfg, Some(&faults)).unwrap();
    assert_eq!(
        report.completed, 600,
        "timeout+retry must deliver everything"
    );
    assert_eq!(report.resilience.lost, 0);
    assert!(report.resilience.timeouts > 0);
    assert!(report.p99_ms.is_finite());
    // The tail is bounded by outage + detection + backoff, not unbounded
    // queueing: a 600 ms outage cannot push p99 past a few seconds.
    assert!(report.p99_ms < 5_000.0, "p99 {} ms", report.p99_ms);
}

#[test]
fn scenario_reports_conserve_requests() {
    let online = run_online(
        &OnlineConfig {
            pipeline: pipeline(
                PlatformId::MriA100,
                ModelId::VitTiny,
                DatasetId::SpittleBug,
                8,
            ),
            arrival_rate: 300.0,
            requests: 256,
            seed: 77,
        },
        None,
    )
    .unwrap();
    assert_eq!(online.completed, 256);
    let offline = run_offline(&OfflineConfig {
        pipeline: pipeline(
            PlatformId::MriA100,
            ModelId::VitTiny,
            DatasetId::SpittleBug,
            8,
        ),
        images: 256,
    })
    .unwrap();
    assert_eq!(offline.images, 256);
    let realtime = run_realtime(
        &RealTimeConfig {
            pipeline: pipeline(
                PlatformId::MriA100,
                ModelId::VitTiny,
                DatasetId::SpittleBug,
                1,
            ),
            fps: 30.0,
            frames: 256,
            deadline_ms: 33.3,
            max_in_flight: 4,
        },
        None,
    )
    .unwrap();
    assert_eq!(realtime.processed + realtime.dropped, 256);
}
