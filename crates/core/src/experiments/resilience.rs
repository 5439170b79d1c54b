//! Degraded-mode serving sweep: what the serving stack delivers when the
//! field deployment misbehaves.
//!
//! §3.3 of the paper notes that distributed deployment "introduces added
//! complexity" — in a real orchard or greenhouse that complexity shows up
//! as flaky edge hardware: engines rebooting, thermal-throttled
//! preprocessing, congested uplinks. This sweep injects those faults
//! (deterministically, via [`harvest_simkit::fault`]) into the online and
//! cluster scenarios and records what the resilience layer salvages:
//! throughput and tail latency under each fault intensity, plus the
//! conservation counters (lost/duplicated, both required to be zero).

use harvest_data::DatasetId;
use harvest_hw::PlatformId;
use harvest_models::ModelId;
use harvest_perf::MemoryContext;
use harvest_preproc::PreprocMethod;
use harvest_serving::{
    run_cluster_offline, run_online, ClusterConfig, Dispatch, FaultInjection, OnlineConfig,
    PipelineConfig, RetryPolicy,
};
use harvest_simkit::{FaultPlan, SimTime};
use serde::Serialize;

/// One row of the degraded-mode sweep.
#[derive(Clone, Debug, Serialize)]
pub struct ResilienceRow {
    /// Scenario driven (`online` or `cluster-rr` / `cluster-ll`).
    pub scenario: String,
    /// Human-readable description of the injected fault.
    pub injected: String,
    /// Requests/images completed.
    pub completed: u64,
    /// Achieved throughput, requests or images per second.
    pub throughput: f64,
    /// 99th-percentile end-to-end latency, ms (online rows only).
    pub p99_ms: Option<f64>,
    /// Re-dispatched request-attempts.
    pub retries: u64,
    /// Attempts detected failed via client timeout.
    pub timeouts: u64,
    /// Requests re-routed to a sibling node.
    pub failovers: u64,
    /// Requests lost (must be zero).
    pub lost: u64,
    /// Requests completed more than once (must be zero).
    pub duplicated: u64,
    /// Mean engine availability over the run.
    pub availability: f64,
}

/// The sweep's online operating point: ViT-Tiny on the A100 at 200 req/s —
/// light enough that every fault effect is attributable to the injection,
/// not to saturation.
fn online_pipeline() -> PipelineConfig {
    PipelineConfig {
        platform: PlatformId::MriA100,
        model: ModelId::VitTiny,
        dataset: DatasetId::CornGrowthStage,
        preproc: PreprocMethod::Dali224,
        ctx: MemoryContext::EngineOnly,
        max_batch: 32,
        max_queue_delay: SimTime::from_millis(2),
        preproc_instances: 4,
        engine_instances: 1,
    }
}

fn cluster_pipeline() -> PipelineConfig {
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
    }
}

fn online_row(injected: &str, plan: FaultPlan) -> ResilienceRow {
    let config = OnlineConfig {
        pipeline: online_pipeline(),
        arrival_rate: 200.0,
        requests: 600,
        seed: 42,
    };
    let faults = FaultInjection {
        plan,
        policy: RetryPolicy::default(),
    };
    let report = run_online(&config, Some(&faults)).expect("online pipeline builds");
    ResilienceRow {
        scenario: "online".into(),
        injected: injected.into(),
        completed: report.completed,
        throughput: report.throughput,
        p99_ms: Some(report.p99_ms),
        retries: report.resilience.retries,
        timeouts: report.resilience.timeouts,
        failovers: report.resilience.failovers,
        lost: report.resilience.lost,
        duplicated: report.resilience.duplicated,
        availability: report.resilience.availability,
    }
}

fn cluster_row(injected: &str, dispatch: Dispatch, plan: FaultPlan) -> ResilienceRow {
    let config = ClusterConfig {
        dispatch,
        ..ClusterConfig::standard(cluster_pipeline(), 3)
    };
    let faults = FaultInjection {
        plan,
        policy: RetryPolicy::default(),
    };
    let report =
        run_cluster_offline(&config, 600, Some(&faults), None).expect("cluster pipeline builds");
    let scenario = match dispatch {
        Dispatch::RoundRobin => "cluster-rr",
        Dispatch::LeastLoaded => "cluster-ll",
    };
    ResilienceRow {
        scenario: scenario.into(),
        injected: injected.into(),
        completed: report.images,
        throughput: report.throughput,
        p99_ms: None,
        retries: report.resilience.retries,
        timeouts: report.resilience.timeouts,
        failovers: report.resilience.failovers,
        lost: report.resilience.lost,
        duplicated: report.resilience.duplicated,
        availability: report.resilience.availability,
    }
}

/// Run the degraded-mode sweep: online crash-intensity ladder, an online
/// transient-error point, and a cluster node-outage under both dispatch
/// policies. Fully deterministic — repeated calls produce byte-identical
/// serialized rows.
pub fn resilience() -> Vec<ResilienceRow> {
    // The 600-request online run spans ~3 s; each crash window costs 150 ms
    // of engine downtime, so the ladder sweeps availability ≈ 1.00 → 0.80.
    let horizon = SimTime::from_secs(3);
    let downtime = SimTime::from_millis(150);
    let mut rows = vec![online_row("none (baseline)", FaultPlan::none())];
    for crashes in [1u32, 2, 4] {
        rows.push(online_row(
            &format!("{crashes} engine crash(es) x 150 ms"),
            FaultPlan::new(7).with_periodic_engine_crashes(1, crashes, horizon, downtime),
        ));
    }
    rows.push(online_row(
        "10% transient request errors",
        FaultPlan::new(7).with_transient_errors(0.10),
    ));
    // Cluster: node 1 dies 5 ms in and stays down past the makespan — the
    // router must move its share of the work to nodes 0 and 2.
    for dispatch in [Dispatch::RoundRobin, Dispatch::LeastLoaded] {
        rows.push(cluster_row(
            "node 1 down from t=5 ms",
            dispatch,
            FaultPlan::new(7).with_engine_crash(1, SimTime::from_millis(5), SimTime::from_secs(30)),
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_conserves_every_request() {
        for row in resilience() {
            assert_eq!(row.completed, 600, "{}/{}", row.scenario, row.injected);
            assert_eq!(row.lost, 0, "{}/{}", row.scenario, row.injected);
            assert_eq!(row.duplicated, 0, "{}/{}", row.scenario, row.injected);
        }
    }

    #[test]
    fn crash_ladder_degrades_availability_monotonically() {
        let rows = resilience();
        // Rows 0..=3 are the online crash ladder (0, 1, 2, 4 crashes).
        for w in rows[0..4].windows(2) {
            assert!(
                w[1].availability < w[0].availability,
                "{} -> {}",
                w[0].availability,
                w[1].availability
            );
            assert!(w[1].retries > w[0].retries || w[0].retries == 0);
        }
        assert_eq!(rows[0].retries, 0, "baseline is fault-free");
        assert!(rows[3].retries > 0);
        assert!(rows[3].p99_ms.unwrap().is_finite());
    }

    #[test]
    fn cluster_rows_fail_over() {
        let rows = resilience();
        for row in rows.iter().filter(|r| r.scenario.starts_with("cluster")) {
            assert!(row.failovers > 0, "{}: {}", row.scenario, row.failovers);
            assert!(row.availability < 1.0);
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let a = serde_json::to_string(&resilience()).unwrap();
        let b = serde_json::to_string(&resilience()).unwrap();
        assert_eq!(a, b, "repeated sweeps must serialize byte-identically");
    }
}
