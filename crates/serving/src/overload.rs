//! Overload-protected online serving: the admission-controlled counterpart
//! of [`crate::scenario::run_online`].
//!
//! An unprotected pipeline accepts every request, so offered load past
//! saturation makes queue delay (and p99) grow without bound — throughput
//! is preserved but every completion is stale. A protected pipeline bounds
//! the frontend (`max_in_flight`), bounds the batcher queue, and — with the
//! deadline-aware shed policy — refuses to spend GPU time on requests that
//! can no longer meet the paper's Fig-6 16.7 ms bound. The price is shed
//! work; the payoff is *goodput*: completions that actually made their
//! deadline, per second, stays at the saturation plateau and p99 stays
//! bounded.
//!
//! [`run_online_protected`] is [`crate::scenario::run_online`]'s driver with
//! the admission layer on; it takes the fault layer the same way, as
//! `faults: Option<&FaultInjection>`, and runs under an empty plan without
//! one, since shed and rejected requests are counted in the fault context.

use crate::resilience::{FaultInjection, ResilienceSummary};
use crate::scenario::{drive_online, OnlineConfig, OnlineReport};
use crate::server::AdmissionConfig;
use harvest_engine::EngineError;

/// Protected-online results. Conservation holds at every point:
/// `completed + shed + rejected == submitted` (see
/// [`OverloadReport::conserved`]).
#[derive(Clone, Debug, serde::Serialize)]
pub struct OverloadReport {
    /// Requests offered to the frontend.
    pub submitted: u64,
    /// Requests completed (deadline met or not).
    pub completed: u64,
    /// Requests turned away at admission (frontend bound or reject-new).
    pub rejected: u64,
    /// Admitted requests deliberately dropped (drop-oldest eviction or
    /// deadline-aware purge).
    pub shed: u64,
    /// Completions per second of makespan.
    pub throughput: f64,
    /// Deadline-meeting completions per second of makespan — the number
    /// overload protection exists to defend.
    pub goodput: f64,
    /// Fraction of completions that missed the deadline.
    pub deadline_miss_rate: f64,
    /// Mean end-to-end latency of completions, ms.
    pub mean_ms: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// Mean dispatched batch size.
    pub mean_batch: f64,
    /// Time of the last completion, seconds.
    pub makespan_s: f64,
    /// Full resilience counters (shed/rejected/lost/duplicated included).
    pub resilience: ResilienceSummary,
}

impl OverloadReport {
    /// The tentpole invariant: every offered request is accounted for
    /// exactly once and nothing was silently lost or double-counted.
    pub fn conserved(&self) -> bool {
        self.completed + self.shed + self.rejected == self.submitted
            && self.resilience.lost == 0
            && self.resilience.duplicated == 0
    }
}

/// Run the online scenario with overload protection enabled. Under
/// `faults`, admission control and the retry machinery compose and the
/// conservation invariant must still hold; without, the admission layer's
/// accounting runs under an empty plan.
pub fn run_online_protected(
    config: &OnlineConfig,
    admission: &AdmissionConfig,
    faults: Option<&FaultInjection>,
) -> Result<OverloadReport, EngineError> {
    drive_online(config, Some(admission), faults).map(protected_report)
}

fn protected_report(
    (r, submitted, makespan_s, misses): (OnlineReport, u64, f64, u64),
) -> OverloadReport {
    OverloadReport {
        submitted,
        completed: r.completed,
        rejected: r.resilience.rejected,
        shed: r.resilience.shed,
        throughput: r.throughput,
        goodput: r.completed.saturating_sub(misses) as f64 / makespan_s,
        deadline_miss_rate: if r.completed == 0 {
            0.0
        } else {
            misses as f64 / r.completed as f64
        },
        mean_ms: r.mean_ms,
        p50_ms: r.p50_ms,
        p99_ms: r.p99_ms,
        mean_batch: r.mean_batch,
        makespan_s,
        resilience: r.resilience,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::ShedPolicy;
    use crate::scenario::run_online;
    use crate::server::PipelineConfig;
    use harvest_data::DatasetId;
    use harvest_hw::PlatformId;
    use harvest_models::ModelId;
    use harvest_perf::MemoryContext;
    use harvest_preproc::PreprocMethod;
    use harvest_simkit::SimTime;

    fn pipeline(max_batch: u32) -> PipelineConfig {
        PipelineConfig {
            platform: PlatformId::MriA100,
            model: ModelId::VitBase,
            dataset: DatasetId::CornGrowthStage,
            preproc: PreprocMethod::Dali224,
            ctx: MemoryContext::EngineOnly,
            max_batch,
            max_queue_delay: SimTime::from_millis(2),
            preproc_instances: 4,
            engine_instances: 1,
        }
    }

    fn saturation_rate(max_batch: u32) -> f64 {
        harvest_engine::Engine::build(
            ModelId::VitBase,
            PlatformId::MriA100,
            MemoryContext::EngineOnly,
            max_batch,
        )
        .unwrap()
        .throughput(max_batch)
        .unwrap()
    }

    fn deadline_aware_admission(service_ms: u64) -> AdmissionConfig {
        AdmissionConfig {
            max_in_flight: 64,
            max_queue: 64,
            shed: ShedPolicy::DeadlineAware {
                service_estimate: SimTime::from_millis(service_ms),
            },
            deadline: SimTime::from_micros(16_700),
        }
    }

    #[test]
    fn protected_run_conserves_every_request() {
        let config = OnlineConfig {
            pipeline: pipeline(8),
            arrival_rate: 2.0 * saturation_rate(8),
            requests: 800,
            seed: 7,
        };
        let report = run_online_protected(&config, &deadline_aware_admission(5), None).unwrap();
        assert!(
            report.conserved(),
            "completed {} + shed {} + rejected {} != submitted {}",
            report.completed,
            report.shed,
            report.rejected,
            report.submitted
        );
        assert!(report.shed + report.rejected > 0, "2x load must shed");
    }

    #[test]
    fn protection_bounds_p99_while_baseline_diverges() {
        let rate = 2.0 * saturation_rate(8);
        let config = OnlineConfig {
            pipeline: pipeline(8),
            arrival_rate: rate,
            requests: 1200,
            seed: 11,
        };
        let baseline = run_online(&config, None).unwrap();
        let protected = run_online_protected(&config, &deadline_aware_admission(5), None).unwrap();
        assert!(
            protected.p99_ms < baseline.p99_ms / 4.0,
            "protected p99 {} should be far below baseline {}",
            protected.p99_ms,
            baseline.p99_ms
        );
        assert!(protected.goodput > 0.0);
    }

    #[test]
    fn unbounded_admission_matches_plain_online_run() {
        // Protection with every bound disabled and reject-new (which never
        // fires on an unbounded queue) must not perturb the simulation.
        let config = OnlineConfig {
            pipeline: pipeline(8),
            arrival_rate: 0.5 * saturation_rate(8),
            requests: 400,
            seed: 3,
        };
        let plain = run_online(&config, None).unwrap();
        let admission = AdmissionConfig {
            max_in_flight: 0,
            max_queue: 0,
            shed: ShedPolicy::RejectNew,
            deadline: SimTime::from_secs(3600),
        };
        let protected = run_online_protected(&config, &admission, None).unwrap();
        assert_eq!(plain.completed, protected.completed);
        assert_eq!(plain.p99_ms, protected.p99_ms);
        assert_eq!(protected.shed + protected.rejected, 0);
    }

    #[test]
    fn protection_composes_with_fault_injection() {
        use harvest_simkit::FaultPlan;
        let config = OnlineConfig {
            pipeline: pipeline(8),
            arrival_rate: 1.5 * saturation_rate(8),
            requests: 600,
            seed: 13,
        };
        let faults = FaultInjection {
            plan: FaultPlan::new(17)
                .with_engine_crash(0, SimTime::from_millis(100), SimTime::from_millis(250))
                .with_transient_errors(0.05),
            policy: Default::default(),
        };
        let report =
            run_online_protected(&config, &deadline_aware_admission(5), Some(&faults)).unwrap();
        assert!(report.conserved(), "faults must not break conservation");
        assert!(report.resilience.retries > 0);
    }

    #[test]
    fn frontend_bound_rejects_beyond_in_flight_limit() {
        let config = OnlineConfig {
            pipeline: pipeline(8),
            arrival_rate: 4.0 * saturation_rate(8),
            requests: 500,
            seed: 19,
        };
        let admission = AdmissionConfig {
            max_in_flight: 16,
            max_queue: 0,
            shed: ShedPolicy::RejectNew,
            deadline: SimTime::from_micros(16_700),
        };
        let report = run_online_protected(&config, &admission, None).unwrap();
        assert!(report.rejected > 0, "4x load against a 16-deep frontend");
        assert!(report.conserved());
    }
}
