//! Overload-protection sweep: offered load pushed past saturation on all
//! three platforms, with and without protection.
//!
//! Fig. 6 of the paper draws the 60 QPS line (16.7 ms) that real-time
//! field serving must hold. This experiment asks what happens when offered
//! load crosses the platform's saturation point: the unprotected pipeline
//! keeps accepting work and its queue delay (hence p99) diverges, while
//! the protected pipeline — bounded frontend, bounded batcher queue,
//! deadline-aware shedding — trades shed requests for a goodput plateau
//! and a bounded tail. Two companion scenarios exercise the other two
//! protection layers: the multi-model degradation ladder (ViT-Base →
//! Small → Tiny, Table 3's FLOPs ladder) and the per-node circuit breaker
//! on a three-node cluster ride-through.
//!
//! Everything is deterministic: repeated runs serialize byte-identically.

use harvest_data::DatasetId;
use harvest_engine::Engine;
use harvest_hw::PlatformId;
use harvest_models::ModelId;
use harvest_perf::{MemoryContext, LATENCY_BOUND_60QPS_MS};
use harvest_preproc::PreprocMethod;
use harvest_serving::{
    run_cluster_offline, run_online, run_online_protected, AdmissionConfig, BreakerConfig,
    ClusterConfig, FaultInjection, HostedModel, LadderConfig, MultiModelServer, OnlineConfig,
    PipelineConfig, RetryPolicy, ShedPolicy,
};
use harvest_simkit::{FaultPlan, SimRng, SimTime};
use serde::Serialize;

/// One (platform, load-factor) point: unprotected baseline vs protected.
#[derive(Clone, Debug, Serialize)]
pub struct OverloadRow {
    /// Platform short name.
    pub platform: String,
    /// Serving batch size.
    pub batch: u32,
    /// Offered load as a multiple of engine saturation throughput.
    pub load_factor: f64,
    /// Offered arrival rate, req/s.
    pub offered_rps: f64,
    /// Engine saturation throughput at this batch, req/s.
    pub saturation_rps: f64,
    /// Unprotected completions per second.
    pub baseline_throughput: f64,
    /// Unprotected p99 end-to-end latency, ms (diverges past saturation).
    pub baseline_p99_ms: f64,
    /// Protected requests offered.
    pub submitted: u64,
    /// Protected requests completed.
    pub completed: u64,
    /// Protected requests turned away at admission.
    pub rejected: u64,
    /// Protected requests admitted then deliberately dropped.
    pub shed: u64,
    /// Protected completions per second.
    pub throughput: f64,
    /// Protected deadline-meeting completions per second.
    pub goodput: f64,
    /// Fraction of protected completions missing the 16.7 ms bound.
    pub deadline_miss_rate: f64,
    /// Protected p99 end-to-end latency, ms (stays bounded).
    pub p99_ms: f64,
    /// `completed + shed + rejected == submitted`, nothing lost or
    /// duplicated.
    pub conserved: bool,
}

/// Degradation-ladder scenario outcome (A100 multi-model server pushed
/// past the full-quality model's capacity).
#[derive(Clone, Debug, Serialize)]
pub struct LadderScenarioReport {
    /// Offered arrival rate, req/s.
    pub offered_rps: f64,
    /// Requests submitted (all are served — the ladder degrades quality,
    /// never availability).
    pub submitted: u64,
    /// Requests served through the ladder.
    pub served: u64,
    /// Served requests that missed the deadline.
    pub misses: u64,
    /// Tier switches toward cheaper models.
    pub downgrades: u64,
    /// Tier switches back toward better models.
    pub upgrades: u64,
    /// Seconds spent serving from each tier (ViT-Base, Small, Tiny).
    pub time_in_tier_s: Vec<f64>,
    /// Tier in effect when the run ended.
    pub final_tier: usize,
}

/// Circuit-breaker ride-through outcome (3×V100 cluster, one node dies and
/// recovers mid-run).
#[derive(Clone, Debug, Serialize)]
pub struct BreakerScenarioReport {
    /// Images processed (must equal the images offered).
    pub images: u64,
    /// Breaker trips across all nodes.
    pub trips: u64,
    /// Breaker recoveries (half-open → closed).
    pub closes: u64,
    /// Dispatches routed around an open breaker.
    pub reroutes: u64,
    /// Batch re-dispatches to a sibling after crash-abort.
    pub failovers: u64,
    /// Images lost (must be zero).
    pub lost: u64,
    /// Images completed more than once (must be zero).
    pub duplicated: u64,
    /// Per-node completion counts.
    pub per_node_completed: Vec<u64>,
}

/// The full experiment artifact.
#[derive(Clone, Debug, Serialize)]
pub struct OverloadExperiment {
    /// The 60 QPS deadline every point defends, ms.
    pub deadline_ms: f64,
    /// Offered-load ladder × three platforms.
    pub sweep: Vec<OverloadRow>,
    /// Model-degradation ladder scenario.
    pub ladder: LadderScenarioReport,
    /// Circuit-breaker ride-through scenario.
    pub breaker: BreakerScenarioReport,
}

/// Load factors swept on every platform: half load, saturation, 1.5× and
/// 2× past it.
pub(crate) const LOAD_FACTORS: [f64; 4] = [0.5, 1.0, 1.5, 2.0];

const REQUESTS_PER_POINT: u32 = 1200;

/// A per-platform deadline-feasible operating point.
///
/// End-to-end latency under protection is roughly
/// `formation wait (≤ queue_delay) + in-flight batches ahead × batch
/// service + own batch service`. The rule that falls out: admit one full
/// batch (`max_in_flight = batch`) when two batch services fit inside the
/// 16.7 ms bound, otherwise serialize (`max_in_flight = 1`) and serve at
/// the platform's batch-1 rate. The formation window takes what the
/// deadline leaves over.
struct OperatingPoint {
    platform: PlatformId,
    batch: u32,
    max_in_flight: u64,
    queue_delay: SimTime,
}

fn pipeline(platform: PlatformId, batch: u32, queue_delay: SimTime) -> PipelineConfig {
    PipelineConfig {
        platform,
        model: ModelId::VitBase,
        dataset: DatasetId::CornGrowthStage,
        preproc: PreprocMethod::Dali224,
        ctx: MemoryContext::EngineOnly,
        max_batch: batch,
        max_queue_delay: queue_delay,
        preproc_instances: 4,
        engine_instances: 1,
    }
}

fn sweep_point(point: &OperatingPoint, load_factor: f64) -> OverloadRow {
    let OperatingPoint {
        platform,
        batch,
        max_in_flight,
        queue_delay,
    } = *point;
    let engine = Engine::build(ModelId::VitBase, platform, MemoryContext::EngineOnly, batch)
        .expect("sweep batch fits the platform");
    let saturation = engine.throughput(batch).expect("batch within engine max");
    let config = OnlineConfig {
        pipeline: pipeline(platform, batch, queue_delay),
        arrival_rate: load_factor * saturation,
        requests: REQUESTS_PER_POINT,
        seed: 42,
    };
    let baseline = run_online(&config, None).expect("baseline pipeline builds");
    // Deadline-aware shedding with an optimistic service estimate (batch-1
    // latency): a queued request is dropped once even an immediate solo
    // dispatch could no longer meet the 16.7 ms bound.
    let service_estimate =
        SimTime::from_secs_f64(engine.batch_latency_s(1).expect("batch 1 always fits"));
    let admission = AdmissionConfig {
        max_in_flight,
        max_queue: batch as usize * 8,
        shed: ShedPolicy::DeadlineAware { service_estimate },
        deadline: SimTime::from_micros(16_700),
    };
    let protected =
        run_online_protected(&config, &admission, None).expect("protected pipeline builds");
    OverloadRow {
        platform: platform.name().to_string(),
        batch,
        load_factor,
        offered_rps: config.arrival_rate,
        saturation_rps: saturation,
        baseline_throughput: baseline.throughput,
        baseline_p99_ms: baseline.p99_ms,
        submitted: protected.submitted,
        completed: protected.completed,
        rejected: protected.rejected,
        shed: protected.shed,
        throughput: protected.throughput,
        goodput: protected.goodput,
        deadline_miss_rate: protected.deadline_miss_rate,
        p99_ms: protected.p99_ms,
        conserved: protected.conserved(),
    }
}

fn ladder_scenario() -> LadderScenarioReport {
    // ViT-Base → Small → Tiny on the A100, offered 1.6× the Base engine's
    // saturation: holding tier 0 is impossible, so the ladder must spend
    // most of the run on a cheaper tier to keep serving. Cheaper tiers
    // batch larger and wait longer for batches to form — at batch 8 a
    // ViT-Tiny dispatch is launch-overhead bound (Fig 6's latency floor)
    // and buys almost no capacity; its cushion comes from the bigger
    // batch its shorter service time affords within the same deadline.
    let models = [
        HostedModel {
            model: ModelId::VitBase,
            max_batch: 8,
            max_queue_delay: SimTime::from_millis(2),
        },
        HostedModel {
            model: ModelId::VitSmall,
            max_batch: 16,
            max_queue_delay: SimTime::from_millis(4),
        },
        HostedModel {
            model: ModelId::VitTiny,
            max_batch: 32,
            max_queue_delay: SimTime::from_millis(8),
        },
    ];
    let base = Engine::build(
        ModelId::VitBase,
        PlatformId::MriA100,
        MemoryContext::EndToEnd,
        8,
    )
    .expect("A100 hosts ViT-Base");
    let rate = 1.6 * base.throughput(8).expect("batch within engine max");
    let mut server =
        MultiModelServer::new(PlatformId::MriA100, DatasetId::CornGrowthStage, &models)
            .expect("three ViTs fit the A100");
    server
        .enable_ladder(LadderConfig {
            deadline: SimTime::from_micros(16_700),
            window: 16,
            downgrade_miss_rate: 0.25,
            upgrade_miss_rate: 0.05,
            hold: SimTime::from_millis(250),
        })
        .expect("ladder config is valid");
    let submitted: u64 = 2400;
    let mut rng = SimRng::new(21);
    let mut t = 0.0f64;
    for _ in 0..submitted {
        t += rng.exponential(rate);
        server.submit_adaptive(SimTime::from_secs_f64(t));
    }
    server.run_to_completion();
    let summary = server.ladder_summary().expect("ladder enabled");
    LadderScenarioReport {
        offered_rps: rate,
        submitted,
        served: summary.served,
        misses: summary.misses,
        downgrades: summary.downgrades,
        upgrades: summary.upgrades,
        time_in_tier_s: summary.time_in_tier_s,
        final_tier: summary.final_tier,
    }
}

fn breaker_scenario() -> BreakerScenarioReport {
    // Three V100 nodes; node 1 dies 50 ms in and recovers at 400 ms. The
    // 1 ms/request frontend stretches dispatch across the whole arc, so
    // the breaker's full life cycle plays out: trip on crash-aborts, route
    // around while open, probe half-open after recovery, close again.
    let config = ClusterConfig {
        dispatch_overhead: SimTime::from_millis(1),
        ..ClusterConfig::standard(
            PipelineConfig {
                platform: PlatformId::PitzerV100,
                model: ModelId::ResNet50,
                dataset: DatasetId::CornGrowthStage,
                preproc: PreprocMethod::Dali224,
                ctx: MemoryContext::EngineOnly,
                max_batch: 32,
                max_queue_delay: SimTime::from_millis(20),
                preproc_instances: 2,
                engine_instances: 1,
            },
            3,
        )
    };
    let faults = FaultInjection {
        plan: FaultPlan::new(11).with_engine_crash(
            1,
            SimTime::from_millis(50),
            SimTime::from_millis(400),
        ),
        policy: RetryPolicy::default(),
    };
    let breaker = BreakerConfig {
        min_samples: 2,
        ewma_alpha: 0.5,
        cooldown: SimTime::from_millis(50),
        ..BreakerConfig::default()
    };
    let report = run_cluster_offline(&config, 900, Some(&faults), Some(&breaker))
        .expect("cluster pipeline builds");
    BreakerScenarioReport {
        images: report.images,
        trips: report.resilience.breaker_trips,
        closes: report.resilience.breaker_closes,
        reroutes: report.resilience.breaker_reroutes,
        failovers: report.resilience.failovers,
        lost: report.resilience.lost,
        duplicated: report.resilience.duplicated,
        per_node_completed: report.per_node_completed,
    }
}

/// Run the full overload experiment: the three-platform offered-load sweep
/// plus the ladder and breaker scenarios.
pub fn overload() -> OverloadExperiment {
    // A100: two batch-8 services are 12.3 ms, so a full batch can wait
    // behind another and still make 16.7 ms — formation window gets the
    // ~4 ms left over. V100: batch-1 service alone is 9.3 ms, two never
    // fit, so requests serialize. Jetson: batch-1 is 13.1 ms (batch-2
    // already breaks the bound, Fig 6's narrow margin), leaving ~1 ms of
    // slack for formation.
    let points = [
        OperatingPoint {
            platform: PlatformId::MriA100,
            batch: 8,
            max_in_flight: 8,
            queue_delay: SimTime::from_millis(4),
        },
        OperatingPoint {
            platform: PlatformId::PitzerV100,
            batch: 8,
            max_in_flight: 1,
            queue_delay: SimTime::from_millis(2),
        },
        OperatingPoint {
            platform: PlatformId::JetsonOrinNano,
            batch: 2,
            max_in_flight: 1,
            queue_delay: SimTime::from_millis(1),
        },
    ];
    let mut sweep = Vec::with_capacity(points.len() * LOAD_FACTORS.len());
    for point in &points {
        for factor in LOAD_FACTORS {
            sweep.push(sweep_point(point, factor));
        }
    }
    OverloadExperiment {
        deadline_ms: LATENCY_BOUND_60QPS_MS,
        sweep,
        ladder: ladder_scenario(),
        breaker: breaker_scenario(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_sweep_point_conserves() {
        for row in overload().sweep {
            assert!(
                row.conserved,
                "{} @ {}x: {} + {} + {} != {}",
                row.platform, row.load_factor, row.completed, row.shed, row.rejected, row.submitted
            );
        }
    }

    #[test]
    fn protection_bounds_the_tail_past_saturation() {
        let exp = overload();
        for row in &exp.sweep {
            assert!(
                row.p99_ms < LATENCY_BOUND_60QPS_MS,
                "{} @ {}x: protected p99 {} breaks the 16.7 ms bound",
                row.platform,
                row.load_factor,
                row.p99_ms
            );
        }
        for row in exp.sweep.iter().filter(|r| r.load_factor >= 1.5) {
            assert!(
                row.p99_ms < row.baseline_p99_ms / 2.0,
                "{} @ {}x: protected {} vs baseline {}",
                row.platform,
                row.load_factor,
                row.p99_ms,
                row.baseline_p99_ms
            );
            assert!(
                row.shed + row.rejected > 0,
                "{}: overload must shed",
                row.platform
            );
        }
    }

    #[test]
    fn goodput_plateaus_where_the_platform_can_serve_at_all() {
        let exp = overload();
        for (platform, _) in [("A100", 0), ("V100", 0)] {
            let rows: Vec<_> = exp
                .sweep
                .iter()
                .filter(|r| r.platform.contains(platform))
                .collect();
            let peak = rows.iter().map(|r| r.goodput).fold(0.0f64, f64::max);
            let at_2x = rows.iter().find(|r| r.load_factor == 2.0).unwrap().goodput;
            assert!(
                at_2x > 0.5 * peak,
                "{platform}: goodput collapsed past saturation ({at_2x} vs peak {peak})"
            );
        }
    }

    #[test]
    fn ladder_degrades_instead_of_dropping() {
        let exp = overload();
        assert_eq!(exp.ladder.served, exp.ladder.submitted);
        assert!(
            exp.ladder.downgrades >= 1,
            "1.6x load must force a downgrade"
        );
        assert!(
            exp.ladder.upgrades >= 1,
            "hysteresis must probe an upgrade once the cheap tier catches up"
        );
        let total: f64 = exp.ladder.time_in_tier_s.iter().sum();
        assert!(
            exp.ladder.time_in_tier_s[1..].iter().sum::<f64>() > 0.1 * total,
            "cheaper tiers must carry real time: {:?}",
            exp.ladder.time_in_tier_s
        );
    }

    #[test]
    fn breaker_rides_through_and_conserves() {
        let b = overload().breaker;
        assert_eq!(b.images, 900);
        assert_eq!(b.lost, 0);
        assert_eq!(b.duplicated, 0);
        assert!(b.trips >= 1);
        assert!(b.closes >= 1);
        assert!(b.reroutes > 0);
    }

    #[test]
    fn experiment_is_deterministic() {
        let a = serde_json::to_string(&overload()).unwrap();
        let b = serde_json::to_string(&overload()).unwrap();
        assert_eq!(a, b, "repeated runs must serialize byte-identically");
    }
}
