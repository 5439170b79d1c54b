//! The three deployment scenarios of §2.2, one public driver each, every
//! one a [`Sim`] plus a `PipelineCore`: [`run_online`], [`run_offline`]
//! and [`run_realtime`] (with [`crate::overload::run_online_protected`] the
//! online driver behind admission control, and
//! [`crate::cluster::run_cluster_offline`] the offline one over several
//! nodes). The fault layer is an argument, `faults: Option<&FaultInjection>`:
//! `None` runs the healthy pipeline and reports
//! [`ResilienceSummary::healthy`], `Some` installs the plan's fault context
//! and reports its retry, timeout and conservation counters. An empty plan
//! gives the same report as `None`.

use crate::resilience::{FaultContext, FaultInjection, ResilienceSummary};
use crate::server::{AdmissionConfig, PipelineConfig, PipelineCore};
use harvest_engine::EngineError;
use harvest_simkit::{Sim, SimRng, SimTime};

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

/// Run the online scenario: Poisson arrivals, latency percentiles. Under
/// `faults`, transient errors and engine crashes trigger timeout-detected
/// retries with exponential backoff, and the report's `resilience` block
/// carries the retry/timeout/conservation accounting.
pub fn run_online(
    config: &OnlineConfig,
    faults: Option<&FaultInjection>,
) -> Result<OnlineReport, EngineError> {
    drive_online(config, None, faults).map(|(report, ..)| report)
}

/// One node's pipeline with `faults` wired in; the fault context comes back
/// for the run's [`ResilienceSummary::of`].
fn single_node(
    config: &PipelineConfig,
    faults: Option<&FaultInjection>,
) -> Result<(PipelineCore, Option<FaultContext>), EngineError> {
    let mut core = PipelineCore::new(config)?;
    let fault = faults.map(FaultInjection::context);
    if let Some(ctx) = &fault {
        core.set_fault_context(ctx.clone());
    }
    Ok((core, fault))
}

/// One online run as a `(report, submitted, makespan_s, deadline_misses)`
/// tuple, the last three read by [`crate::overload::run_online_protected`]
/// (misses are 0 without admission). The one body behind both online entry
/// points: build the pipeline, install the fault context and admission
/// control asked for, offer Poisson arrivals, run to completion and read
/// the metrics. A protection layer always brings a fault context: its
/// shared stats are where shed/rejected accounting lives, so admission
/// without `faults` runs under an empty plan.
pub(crate) fn drive_online(
    config: &OnlineConfig,
    admission: Option<&AdmissionConfig>,
    faults: Option<&FaultInjection>,
) -> Result<(OnlineReport, u64, f64, u64), EngineError> {
    let no_faults = FaultInjection::default();
    let faults = faults.or(admission.map(|_| &no_faults));
    let mut sim = Sim::new();
    let (mut core, fault) = single_node(&config.pipeline, faults)?;
    if let Some(admission) = admission {
        core.set_admission(admission)?;
    }
    let mut rng = SimRng::new(config.seed);
    let mut t = 0.0f64;
    for _ in 0..config.requests {
        t += rng.exponential(config.arrival_rate);
        core.submit(&mut sim, SimTime::from_secs_f64(t));
    }
    core.run_to_completion(&mut sim);
    let submitted = core.submitted();
    let metrics = core.metrics();
    let mut m = metrics.borrow_mut();
    let makespan = m.last_completion.as_secs_f64().max(1e-9);
    let misses = admission.map_or(0, |a| {
        m.latencies_ms.count_above(a.deadline.as_millis_f64()) as u64
    });
    let resilience = ResilienceSummary::of(fault.as_ref(), submitted, 1, m.last_completion);
    let report = OnlineReport {
        completed: m.completed,
        throughput: m.completed as f64 / makespan,
        mean_ms: m.latencies_ms.mean(),
        p50_ms: m.latencies_ms.percentile(50.0),
        p95_ms: m.latencies_ms.percentile(95.0),
        p99_ms: m.latencies_ms.percentile(99.0),
        mean_batch: core.mean_batch(),
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

/// Run the offline scenario: every image arrives at t = 0, and the makespan
/// gives the throughput.
pub fn run_offline(config: &OfflineConfig) -> Result<OfflineReport, EngineError> {
    let mut sim = Sim::new();
    let mut core = PipelineCore::new(&config.pipeline)?;
    for _ in 0..config.images {
        core.submit(&mut sim, SimTime::ZERO);
    }
    core.run_to_completion(&mut sim);
    let metrics = core.metrics();
    let m = metrics.borrow();
    let makespan = m.last_completion.as_secs_f64().max(1e-9);
    Ok(OfflineReport {
        images: m.completed,
        makespan_s: makespan,
        throughput: m.completed as f64 / makespan,
        mean_batch: core.mean_batch(),
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

/// Run the real-time scenario: a closed-loop camera with deadline-miss
/// accounting. Under `faults` it degrades gracefully: frames arriving while
/// the engine is crashed are skipped at the frontend (counted in
/// `resilience.skipped`, not submitted), and crashed in-flight frames are
/// retried so none are lost.
pub fn run_realtime(
    config: &RealTimeConfig,
    faults: Option<&FaultInjection>,
) -> Result<RealTimeReport, EngineError> {
    let mut sim = Sim::new();
    let (mut core, fault) = single_node(&config.pipeline, faults)?;
    let period = 1.0 / config.fps;
    let mut dropped = 0u64;
    // Closed-loop backpressure: the camera drops frames when too many are
    // still in flight. The pipeline is deterministic, so completion times
    // are tracked with a serialized-service estimate (arrival or previous
    // completion, whichever is later, plus the batch-1 service time).
    let service_s = core.preproc_s() + core.engine().batch_latency_s(1).expect("batch 1 fits");
    let mut est_completions: Vec<f64> = Vec::new();
    for i in 0..config.frames {
        let at = i as f64 * period;
        // Graceful degradation: a frame offered while the engine is down
        // is shed immediately instead of queueing up a retry storm — stale
        // frames are worthless to a closed-loop actuator anyway.
        if let Some(ctx) = &fault {
            if ctx.plan.engine_down(0, SimTime::from_secs_f64(at)) {
                ctx.stats.borrow_mut().skipped += 1;
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
        core.submit(&mut sim, SimTime::from_secs_f64(at));
    }
    core.run_to_completion(&mut sim);
    let submitted = core.submitted();
    let metrics = core.metrics();
    let mut m = metrics.borrow_mut();
    let misses = m.latencies_ms.count_above(config.deadline_ms) as u64;
    let makespan = m.last_completion.as_secs_f64().max(1e-9);
    let resilience = ResilienceSummary::of(fault.as_ref(), submitted, 1, m.last_completion);
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
        let report = run_online(
            &OnlineConfig {
                pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitTiny, 32),
                arrival_rate: 100.0,
                requests: 500,
                seed: 1,
            },
            None,
        )
        .unwrap();
        assert_eq!(report.completed, 500);
        // Light load: latency ≈ preproc + queue delay + small batch compute.
        assert!(report.p50_ms < 30.0, "p50 {}", report.p50_ms);
        assert!(report.mean_batch < 8.0, "mean batch {}", report.mean_batch);
    }

    #[test]
    fn online_throughput_tracks_offered_load_when_underutilized() {
        let report = run_online(
            &OnlineConfig {
                pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitTiny, 32),
                arrival_rate: 200.0,
                requests: 1000,
                seed: 2,
            },
            None,
        )
        .unwrap();
        assert!(
            (report.throughput - 200.0).abs() < 30.0,
            "throughput {} vs offered 200",
            report.throughput
        );
    }

    #[test]
    fn online_higher_load_forms_bigger_batches() {
        let lo = run_online(
            &OnlineConfig {
                pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitSmall, 64),
                arrival_rate: 50.0,
                requests: 400,
                seed: 3,
            },
            None,
        )
        .unwrap();
        let hi = run_online(
            &OnlineConfig {
                pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitSmall, 64),
                arrival_rate: 5000.0,
                requests: 400,
                seed: 3,
            },
            None,
        )
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
        let report = run_realtime(
            &RealTimeConfig {
                pipeline,
                fps: 30.0,
                frames: 300,
                deadline_ms: 33.3,
                max_in_flight: 8,
            },
            None,
        )
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
        let report = run_online(&config, Some(&faults)).unwrap();
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
        let report = run_online(&config, Some(&faults)).unwrap();
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
        use crate::batcher::ShedPolicy;
        use crate::breaker::BreakerConfig;
        use crate::cluster::{run_cluster_offline, ClusterConfig, Dispatch};
        use crate::overload::run_online_protected;
        // Every entry point, fault layer absent vs present with an empty
        // plan: the whole report must be the same, down to its `{:?}`.
        let empty = FaultInjection::default();
        let online = OnlineConfig {
            pipeline: base_pipeline(PlatformId::MriA100, ModelId::VitSmall, 16),
            arrival_rate: 120.0,
            requests: 300,
            seed: 8,
        };
        let admission = AdmissionConfig {
            max_in_flight: 32,
            max_queue: 16,
            shed: ShedPolicy::DeadlineAware {
                service_estimate: SimTime::from_millis(5),
            },
            deadline: SimTime::from_micros(16_700),
        };
        let mut realtime = base_pipeline(PlatformId::JetsonOrinNano, ModelId::VitTiny, 4);
        realtime.max_queue_delay = SimTime::from_millis(1);
        let realtime = RealTimeConfig {
            pipeline: realtime,
            fps: 30.0,
            frames: 300,
            deadline_ms: 33.3,
            max_in_flight: 8,
        };
        let run = |faults: Option<&FaultInjection>| {
            vec![
                format!("{:?}", run_online(&online, faults).unwrap()),
                format!(
                    "{:?}",
                    run_online_protected(&online, &admission, faults).unwrap()
                ),
                format!("{:?}", run_realtime(&realtime, faults).unwrap()),
            ]
        };
        let (plain, faulted) = (run(None), run(Some(&empty)));
        for (row, (p, f)) in plain.iter().zip(&faulted).enumerate() {
            assert_eq!(p, f, "entry point {row}: an empty plan moved the report");
        }
        let breaker = BreakerConfig::default();
        for dispatch in [Dispatch::RoundRobin, Dispatch::LeastLoaded] {
            let cluster = ClusterConfig {
                dispatch,
                ..ClusterConfig::standard(
                    base_pipeline(PlatformId::MriA100, ModelId::ResNet50, 32),
                    3,
                )
            };
            let run = |faults, breaker| {
                format!(
                    "{:?}",
                    run_cluster_offline(&cluster, 300, faults, breaker).unwrap()
                )
            };
            assert_eq!(run(None, None), run(Some(&empty), None), "{dispatch:?}");
            // A breaker always brings a fault context, an empty plan if none
            // was given.
            assert_eq!(
                run(None, Some(&breaker)),
                run(Some(&empty), Some(&breaker)),
                "{dispatch:?} with breakers"
            );
        }
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
        let report = run_realtime(&config, Some(&faults)).unwrap();
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
    fn realtime_overload_drops_frames() {
        // ViT-Base batch-1 on the Jetson takes ~14 ms end to end: a 120 fps
        // camera (8.3 ms period) overruns it, so backpressure must drop
        // frames and survivors must miss an 8.3 ms deadline.
        let mut pipeline = base_pipeline(PlatformId::JetsonOrinNano, ModelId::VitBase, 2);
        pipeline.max_queue_delay = SimTime::from_millis(1);
        let report = run_realtime(
            &RealTimeConfig {
                pipeline,
                fps: 120.0,
                frames: 300,
                deadline_ms: 8.3,
                max_in_flight: 2,
            },
            None,
        )
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
