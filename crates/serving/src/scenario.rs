//! The three deployment scenarios of §2.2, driven over [`PipelineSim`].

use crate::resilience::{FaultContext, FaultInjection, ResilienceStats, ResilienceSummary};
use crate::server::{AdmissionConfig, PipelineConfig, PipelineSim};
use harvest_engine::EngineError;
use harvest_simkit::{SimRng, SimTime};
use std::cell::RefCell;
use std::rc::Rc;

/// Online (streaming) scenario configuration.
#[derive(Clone, Debug)]
pub struct OnlineConfig {
    /// Pipeline wiring.
    pub pipeline: PipelineConfig,
    /// Offered load, requests/second (Poisson arrivals).
    pub arrival_rate: f64,
    /// Number of requests to simulate.
    pub requests: u32,
    /// RNG seed for the arrival process.
    pub seed: u64,
}

/// Online scenario results.
#[derive(Clone, Debug, serde::Serialize)]
pub struct OnlineReport {
    /// Requests completed.
    pub completed: u64,
    /// Achieved throughput, requests/second.
    pub throughput: f64,
    /// Mean end-to-end latency, ms.
    pub mean_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 95th percentile latency, ms.
    pub p95_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Resilience metrics (all-zero counters on a healthy run).
    pub resilience: ResilienceSummary,
}

/// Run the online scenario.
pub fn run_online(config: &OnlineConfig) -> Result<OnlineReport, EngineError> {
    drive_online(config, None, None).map(|(report, ..)| report)
}

/// Run the online scenario under an active fault plan: transient errors
/// and engine crashes trigger timeout-detected retries with exponential
/// backoff, preprocessing stalls slow the preproc stage, and the report's
/// `resilience` block carries the retry/timeout/conservation accounting.
pub fn run_online_faulted(
    config: &OnlineConfig,
    faults: &FaultInjection,
) -> Result<OnlineReport, EngineError> {
    drive_online(config, None, Some(faults)).map(|(report, ..)| report)
}

/// One online run as a `(report, submitted, makespan_s, deadline_misses)`
/// tuple, the last three read by the protected pair in [`crate::overload`]
/// (misses are 0 without admission). The one body behind all four
/// `run_online*`: build the pipeline, install the fault context and
/// admission control asked for, offer Poisson arrivals, run to completion
/// and read the metrics. Admission always brings a fault context: its shared
/// stats are where shed/rejected accounting lives, fault plan or not.
pub(crate) fn drive_online(
    config: &OnlineConfig,
    admission: Option<&AdmissionConfig>,
    faults: Option<&FaultInjection>,
) -> Result<(OnlineReport, u64, f64, u64), EngineError> {
    let mut pipeline = PipelineSim::new(&config.pipeline)?;
    let no_faults = FaultInjection::default();
    let fault_state = faults.or(admission.map(|_| &no_faults)).map(|f| {
        let plan = Rc::new(f.plan.clone());
        let stats = Rc::new(RefCell::new(ResilienceStats::default()));
        pipeline.set_fault_context(FaultContext::new(plan.clone(), 0, f.policy, stats.clone()));
        (plan, stats)
    });
    if let Some(admission) = admission {
        pipeline.set_admission(admission)?;
    }
    let mut rng = SimRng::new(config.seed);
    let mut t = 0.0f64;
    for _ in 0..config.requests {
        t += rng.exponential(config.arrival_rate);
        pipeline.submit(SimTime::from_secs_f64(t));
    }
    pipeline.run_to_completion();
    let submitted = pipeline.submitted();
    let metrics = pipeline.metrics();
    let mut m = metrics.borrow_mut();
    let makespan = m.last_completion.as_secs_f64().max(1e-9);
    let misses = admission.map_or(0, |a| {
        m.latencies_ms.count_above(a.deadline.as_millis_f64()) as u64
    });
    let resilience = match &fault_state {
        Some((plan, stats)) => {
            ResilienceSummary::from_stats(&stats.borrow(), submitted, plan, 1, m.last_completion)
        }
        None => ResilienceSummary::healthy(),
    };
    let report = OnlineReport {
        completed: m.completed,
        throughput: m.completed as f64 / makespan,
        mean_ms: m.latencies_ms.mean(),
        p50_ms: m.latencies_ms.percentile(50.0),
        p95_ms: m.latencies_ms.percentile(95.0),
        p99_ms: m.latencies_ms.percentile(99.0),
        mean_batch: pipeline.mean_batch(),
        resilience,
    };
    Ok((report, submitted, makespan, misses))
}

/// Offline (batch) scenario configuration: a field's worth of images is
/// available at t = 0.
#[derive(Clone, Debug)]
pub struct OfflineConfig {
    /// Pipeline wiring.
    pub pipeline: PipelineConfig,
    /// Number of images to process.
    pub images: u32,
}

/// Offline scenario results.
#[derive(Clone, Debug, serde::Serialize)]
pub struct OfflineReport {
    /// Images processed.
    pub images: u64,
    /// Total makespan, seconds.
    pub makespan_s: f64,
    /// Sustained throughput, images/second — the Fig 8 number.
    pub throughput: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Resilience metrics (all-zero counters on a healthy run).
    pub resilience: ResilienceSummary,
}

/// Run the offline scenario.
pub fn run_offline(config: &OfflineConfig) -> Result<OfflineReport, EngineError> {
    let mut pipeline = PipelineSim::new(&config.pipeline)?;
    for _ in 0..config.images {
        pipeline.submit(SimTime::ZERO);
    }
    pipeline.run_to_completion();
    let metrics = pipeline.metrics();
    let m = metrics.borrow();
    let makespan = m.last_completion.as_secs_f64().max(1e-9);
    Ok(OfflineReport {
        images: m.completed,
        makespan_s: makespan,
        throughput: m.completed as f64 / makespan,
        mean_batch: pipeline.mean_batch(),
        resilience: ResilienceSummary::healthy(),
    })
}

/// Real-time (closed-loop camera) scenario configuration.
#[derive(Clone, Debug)]
pub struct RealTimeConfig {
    /// Pipeline wiring (batch is typically small here).
    pub pipeline: PipelineConfig,
    /// Camera frame rate, frames/second.
    pub fps: f64,
    /// Frames to simulate.
    pub frames: u32,
    /// Per-frame deadline, ms (e.g. 16.7 for 60 Hz actuation).
    pub deadline_ms: f64,
    /// Frames are dropped when this many are already in flight
    /// (bounded-staleness backpressure).
    pub max_in_flight: u32,
}

/// Real-time scenario results.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RealTimeReport {
    /// Frames offered by the camera.
    pub frames: u32,
    /// Frames actually processed.
    pub processed: u64,
    /// Frames dropped by backpressure.
    pub dropped: u64,
    /// Processed frames that missed the deadline.
    pub deadline_misses: u64,
    /// 99th percentile end-to-end latency, ms.
    pub p99_ms: f64,
    /// Sustained processing rate, frames/second.
    pub sustained_fps: f64,
    /// Resilience metrics; `resilience.skipped` counts frames the frontend
    /// shed because the engine was known-down on arrival.
    pub resilience: ResilienceSummary,
}

/// Run the real-time scenario.
pub fn run_realtime(config: &RealTimeConfig) -> Result<RealTimeReport, EngineError> {
    run_realtime_inner(config, None)
}

/// Run the real-time scenario under an active fault plan with graceful
/// degradation: frames arriving while the engine is crashed are skipped at
/// the frontend (counted in `resilience.skipped`, not submitted), stalled
/// preprocessing slows survivors (driving deadline misses up), and crashed
/// in-flight frames are retried so none are lost.
pub fn run_realtime_degraded(
    config: &RealTimeConfig,
    faults: &FaultInjection,
) -> Result<RealTimeReport, EngineError> {
    run_realtime_inner(config, Some(faults))
}

fn run_realtime_inner(
    config: &RealTimeConfig,
    faults: Option<&FaultInjection>,
) -> Result<RealTimeReport, EngineError> {
    let mut pipeline = PipelineSim::new(&config.pipeline)?;
    let fault_state = faults.map(|f| {
        let plan = Rc::new(f.plan.clone());
        let stats = Rc::new(RefCell::new(ResilienceStats::default()));
        pipeline.set_fault_context(FaultContext::new(plan.clone(), 0, f.policy, stats.clone()));
        (plan, stats)
    });
    let period = 1.0 / config.fps;
    let mut dropped = 0u64;
    // Closed-loop backpressure: the camera drops frames when too many are
    // still in flight. The pipeline is deterministic, so completion times
    // are tracked with a serialized-service estimate (arrival or previous
    // completion, whichever is later, plus the batch-1 service time).
    let service_s =
        pipeline.preproc_s() + pipeline.engine().batch_latency_s(1).expect("batch 1 fits");
    let mut est_completions: Vec<f64> = Vec::new();
    for i in 0..config.frames {
        let at = i as f64 * period;
        // Graceful degradation: a frame offered while the engine is down
        // is shed immediately instead of queueing up a retry storm — stale
        // frames are worthless to a closed-loop actuator anyway.
        if let Some((plan, stats)) = &fault_state {
            if plan.engine_down(0, SimTime::from_secs_f64(at)) {
                stats.borrow_mut().skipped += 1;
                continue;
            }
        }
        let in_flight = est_completions.iter().filter(|&&c| c > at).count();
        if in_flight >= config.max_in_flight as usize {
            dropped += 1;
            continue;
        }
        let start = est_completions.last().copied().unwrap_or(0.0).max(at);
        est_completions.push(start + service_s);
        pipeline.submit(SimTime::from_secs_f64(at));
    }
    pipeline.run_to_completion();
    let submitted = pipeline.submitted();
    let metrics = pipeline.metrics();
    let mut m = metrics.borrow_mut();
    let misses = m.latencies_ms.count_above(config.deadline_ms) as u64;
    let makespan = m.last_completion.as_secs_f64().max(1e-9);
    let resilience = match &fault_state {
        Some((plan, stats)) => {
            ResilienceSummary::from_stats(&stats.borrow(), submitted, plan, 1, m.last_completion)
        }
        None => ResilienceSummary::healthy(),
    };
    Ok(RealTimeReport {
        frames: config.frames,
        processed: m.completed,
        dropped,
        deadline_misses: misses,
        p99_ms: m.latencies_ms.percentile(99.0),
        sustained_fps: m.completed as f64 / makespan,
        resilience,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_data::DatasetId;
    use harvest_hw::PlatformId;
    use harvest_models::ModelId;
    use harvest_perf::MemoryContext;
    use harvest_preproc::PreprocMethod;

    fn base_pipeline(platform: PlatformId, model: ModelId, max_batch: u32) -> PipelineConfig {
        PipelineConfig {
            platform,
            model,
            dataset: DatasetId::CornGrowthStage,
            preproc: PreprocMethod::Dali224,
            ctx: MemoryContext::EngineOnly,
            max_batch,
            max_queue_delay: SimTime::from_millis(2),
            preproc_instances: 4,
            engine_instances: 1,
        }
    }

    #[test]
    fn online_low_load_has_low_latency() {
        let report = run_online(&OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitTiny, 32),
            arrival_rate: 100.0,
            requests: 500,
            seed: 1,
        })
        .unwrap();
        assert_eq!(report.completed, 500);
        // Light load: latency ≈ preproc + queue delay + small batch compute.
        assert!(report.p50_ms < 30.0, "p50 {}", report.p50_ms);
        assert!(report.mean_batch < 8.0, "mean batch {}", report.mean_batch);
    }

    #[test]
    fn online_throughput_tracks_offered_load_when_underutilized() {
        let report = run_online(&OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitTiny, 32),
            arrival_rate: 200.0,
            requests: 1000,
            seed: 2,
        })
        .unwrap();
        assert!(
            (report.throughput - 200.0).abs() < 30.0,
            "throughput {} vs offered 200",
            report.throughput
        );
    }

    #[test]
    fn online_higher_load_forms_bigger_batches() {
        let lo = run_online(&OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitSmall, 64),
            arrival_rate: 50.0,
            requests: 400,
            seed: 3,
        })
        .unwrap();
        let hi = run_online(&OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitSmall, 64),
            arrival_rate: 5000.0,
            requests: 400,
            seed: 3,
        })
        .unwrap();
        assert!(
            hi.mean_batch > lo.mean_batch,
            "{} vs {}",
            hi.mean_batch,
            lo.mean_batch
        );
    }

    #[test]
    fn offline_processes_everything_with_full_batches() {
        let mut pipeline = base_pipeline(PlatformId::MriA100, ModelId::ResNet50, 64);
        // Offline mode has no latency pressure: a generous queue delay lets
        // every batch fill completely.
        pipeline.max_queue_delay = SimTime::from_millis(100);
        let report = run_offline(&OfflineConfig {
            pipeline,
            images: 640,
        })
        .unwrap();
        assert_eq!(report.images, 640);
        assert!(
            (report.mean_batch - 64.0).abs() < 1.0,
            "mean batch {}",
            report.mean_batch
        );
        assert!(
            report.throughput > 1000.0,
            "offline tput {}",
            report.throughput
        );
    }

    #[test]
    fn offline_throughput_is_bounded_by_engine_model() {
        let pipeline = base_pipeline(PlatformId::PitzerV100, ModelId::VitBase, 64);
        let report = run_offline(&OfflineConfig {
            pipeline: pipeline.clone(),
            images: 1280,
        })
        .unwrap();
        let engine_bound = {
            let e = harvest_engine::Engine::build(
                ModelId::VitBase,
                PlatformId::PitzerV100,
                MemoryContext::EngineOnly,
                64,
            )
            .unwrap();
            e.throughput(64).unwrap()
        };
        assert!(
            report.throughput <= engine_bound * 1.01,
            "{} vs engine bound {engine_bound}",
            report.throughput
        );
        assert!(report.throughput > engine_bound * 0.5);
    }

    #[test]
    fn realtime_jetson_vit_tiny_keeps_up_at_30fps() {
        let mut pipeline = base_pipeline(PlatformId::JetsonOrinNano, ModelId::VitTiny, 4);
        pipeline.max_queue_delay = SimTime::from_millis(1);
        let report = run_realtime(&RealTimeConfig {
            pipeline,
            fps: 30.0,
            frames: 300,
            deadline_ms: 33.3,
            max_in_flight: 8,
        })
        .unwrap();
        assert!(report.dropped < 30, "dropped {}", report.dropped);
        assert!(report.sustained_fps > 25.0, "fps {}", report.sustained_fps);
    }

    #[test]
    fn online_faulted_crash_loses_nothing_and_retries() {
        use harvest_simkit::FaultPlan;
        let config = OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitTiny, 32),
            arrival_rate: 200.0,
            requests: 600,
            seed: 5,
        };
        let faults = FaultInjection {
            plan: FaultPlan::new(9).with_engine_crash(
                0,
                SimTime::from_millis(500),
                SimTime::from_millis(900),
            ),
            policy: Default::default(),
        };
        let report = run_online_faulted(&config, &faults).unwrap();
        assert_eq!(report.completed, 600);
        assert_eq!(report.resilience.lost, 0);
        assert_eq!(report.resilience.duplicated, 0);
        assert!(report.resilience.retries > 0, "crash must force retries");
        assert!(report.resilience.timeouts > 0);
        assert!(report.resilience.crash_aborts > 0);
        assert!(report.resilience.availability < 1.0);
        assert!(report.p99_ms.is_finite());
    }

    #[test]
    fn online_faulted_transient_errors_retry_to_completion() {
        use harvest_simkit::FaultPlan;
        let config = OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitTiny, 32),
            arrival_rate: 150.0,
            requests: 400,
            seed: 6,
        };
        let faults = FaultInjection {
            plan: FaultPlan::new(3).with_transient_errors(0.2),
            policy: Default::default(),
        };
        let report = run_online_faulted(&config, &faults).unwrap();
        assert_eq!(report.completed, 400);
        assert_eq!(report.resilience.lost, 0);
        assert_eq!(report.resilience.duplicated, 0);
        assert!(
            report.resilience.transient_errors > 40,
            "~20% of 400 should fail at least once, got {}",
            report.resilience.transient_errors
        );
        assert_eq!(
            report.resilience.retries,
            report.resilience.transient_errors
        );
    }

    #[test]
    fn healthy_faulted_run_matches_plain_run() {
        let config = OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitSmall, 16),
            arrival_rate: 120.0,
            requests: 300,
            seed: 8,
        };
        let plain = run_online(&config).unwrap();
        let faulted = run_online_faulted(&config, &FaultInjection::default()).unwrap();
        assert_eq!(plain.completed, faulted.completed);
        assert_eq!(
            plain.p99_ms, faulted.p99_ms,
            "empty plan must not perturb timing"
        );
        assert_eq!(faulted.resilience.retries, 0);
        assert_eq!(faulted.resilience.lost, 0);
    }

    #[test]
    fn realtime_degraded_skips_frames_during_outage() {
        use harvest_simkit::FaultPlan;
        let mut pipeline = base_pipeline(PlatformId::JetsonOrinNano, ModelId::VitTiny, 4);
        pipeline.max_queue_delay = SimTime::from_millis(1);
        let config = RealTimeConfig {
            pipeline,
            fps: 30.0,
            frames: 300, // 10 s of camera time
            deadline_ms: 33.3,
            max_in_flight: 8,
        };
        let faults = FaultInjection {
            plan: FaultPlan::new(4).with_engine_crash(
                0,
                SimTime::from_secs(2),
                SimTime::from_secs(3),
            ),
            policy: Default::default(),
        };
        let report = run_realtime_degraded(&config, &faults).unwrap();
        // One second of a 30 fps camera falls inside the outage.
        assert_eq!(report.resilience.skipped, 30);
        assert_eq!(report.resilience.lost, 0);
        assert_eq!(report.resilience.duplicated, 0);
        assert_eq!(
            report.processed + report.dropped + report.resilience.skipped,
            u64::from(report.frames)
        );
    }

    #[test]
    fn realtime_degraded_stall_drives_deadline_misses() {
        use harvest_simkit::FaultPlan;
        let mut pipeline = base_pipeline(PlatformId::JetsonOrinNano, ModelId::VitTiny, 4);
        pipeline.max_queue_delay = SimTime::from_millis(1);
        let config = RealTimeConfig {
            pipeline,
            fps: 30.0,
            frames: 300,
            deadline_ms: 33.3,
            max_in_flight: 64,
        };
        let healthy = run_realtime(&config).unwrap();
        let faults = FaultInjection {
            // A 40× preproc stall for 2 s mid-run.
            plan: FaultPlan::new(4).with_preproc_stall(
                0,
                SimTime::from_secs(4),
                SimTime::from_secs(6),
                40.0,
            ),
            policy: Default::default(),
        };
        let degraded = run_realtime_degraded(&config, &faults).unwrap();
        assert!(degraded.resilience.stalled > 0);
        assert!(
            degraded.deadline_misses > healthy.deadline_misses,
            "stall must cost deadlines: {} vs {}",
            degraded.deadline_misses,
            healthy.deadline_misses
        );
    }

    #[test]
    fn realtime_overload_drops_frames() {
        // ViT-Base batch-1 on the Jetson takes ~14 ms end to end: a 120 fps
        // camera (8.3 ms period) overruns it, so backpressure must drop
        // frames and survivors must miss an 8.3 ms deadline.
        let mut pipeline = base_pipeline(PlatformId::JetsonOrinNano, ModelId::VitBase, 2);
        pipeline.max_queue_delay = SimTime::from_millis(1);
        let report = run_realtime(&RealTimeConfig {
            pipeline,
            fps: 120.0,
            frames: 300,
            deadline_ms: 8.3,
            max_in_flight: 2,
        })
        .unwrap();
        assert!(report.dropped > 50, "dropped {}", report.dropped);
        assert!(
            report.deadline_misses > 0,
            "misses {}",
            report.deadline_misses
        );
        assert!(report.sustained_fps < 120.0);
    }
}
