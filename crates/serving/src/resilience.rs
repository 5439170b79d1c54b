//! Resilience machinery for the serving simulator: retry policy, shared
//! fault-run accounting, and the failure-handling context threaded through
//! the pipeline's event handlers.
//!
//! The failure model (what goes wrong, and when) lives in
//! [`harvest_simkit::FaultPlan`]; this module owns the *reaction*: timeout
//! detection, bounded exponential-backoff retry with deterministic jitter,
//! failover routing between cluster nodes, and the conservation accounting
//! (zero requests lost, zero duplicated) the fault-path tests assert.

use crate::batcher::QueuedRequest;
use crate::breaker::BreakerBank;
use harvest_simkit::{FaultPlan, Sim, SimRng, SimTime};
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// How the pipeline reacts to failed attempts.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Client-side failure-detection latency: a crash-aborted attempt is
    /// noticed this long after the engine died, then retried.
    pub timeout: SimTime,
    /// Attempt budget per request/batch. Attempts beyond the budget run in
    /// last-resort drain mode: scheduled for after the fault clears and
    /// exempt from further fault coins, so no work is ever lost.
    pub max_attempts: u32,
    /// First retry delay; doubles each attempt.
    pub backoff_base: SimTime,
    /// Upper bound on the (pre-jitter) retry delay.
    pub backoff_cap: SimTime,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: SimTime::from_millis(50),
            max_attempts: 6,
            backoff_base: SimTime::from_millis(10),
            backoff_cap: SimTime::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// Retry delay for `attempt` (0-based) of request `id`: exponential
    /// backoff capped at `backoff_cap`, scaled by a deterministic jitter in
    /// `[0.5, 1.5)` drawn from a [`SimRng`] keyed on `(seed, id, attempt)`
    /// so concurrent retries desynchronize without perturbing any other
    /// consumer's random stream.
    pub fn backoff(&self, seed: u64, id: u64, attempt: u32) -> SimTime {
        let exp = attempt.min(20);
        let base = self
            .backoff_base
            .as_nanos()
            .saturating_mul(1u64 << exp)
            .min(self.backoff_cap.as_nanos());
        let mut rng =
            SimRng::new(seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32));
        let jitter = 0.5 + rng.f64();
        SimTime::from_nanos((base as f64 * jitter) as u64)
    }
}

/// A fault plan plus the policy for reacting to it — the fault layer a
/// scenario entry point takes as `Option<&FaultInjection>`.
#[derive(Clone, Debug, Default)]
pub struct FaultInjection {
    /// What goes wrong, and when.
    pub plan: FaultPlan,
    /// How the pipeline reacts.
    pub policy: RetryPolicy,
}

impl FaultInjection {
    /// A run's fault context: node 0's view of a shared copy of the plan,
    /// with fresh stats. Cluster drivers clone it once per node.
    pub(crate) fn context(&self) -> FaultContext {
        let stats = Rc::new(RefCell::new(ResilienceStats::default()));
        FaultContext::new(Rc::new(self.plan.clone()), 0, self.policy, stats)
    }
}

/// Mutable counters shared by every fault-aware event handler in a run.
#[derive(Debug, Default)]
pub(crate) struct ResilienceStats {
    /// Re-dispatched request-attempts (transient retries + crash retries).
    pub retries: u64,
    /// Request-attempts whose failure was detected by client timeout.
    pub timeouts: u64,
    /// Per-request transient errors hit (each one causes a retry).
    pub transient_errors: u64,
    /// Requests re-routed to a different node after their node crashed.
    pub failovers: u64,
    /// Batches aborted by an engine-crash window.
    pub crash_aborts: u64,
    /// Real-time frames skipped at the frontend because the engine was
    /// known-down on arrival (graceful degradation).
    pub skipped: u64,
    /// Queued requests deliberately dropped by admission control (evicted
    /// by drop-oldest or purged as unable to meet their deadline).
    pub shed: u64,
    /// Requests turned away at admission (frontend in-flight bound or a
    /// full reject-new batcher queue).
    pub rejected: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_trips: u64,
    /// Circuit-breaker half-open → closed recoveries.
    pub breaker_closes: u64,
    /// Requests dispatched away from their ring-order node because its
    /// breaker was open.
    pub breaker_reroutes: u64,
    /// Requests observed completing more than once (must stay zero).
    pub duplicated: u64,
    completed_ids: BTreeSet<u64>,
}

impl ResilienceStats {
    /// Record request `id` completing; detects duplicate completions.
    pub(crate) fn record_completion(&mut self, id: u64) {
        if !self.completed_ids.insert(id) {
            self.duplicated += 1;
        }
    }

    /// Distinct requests that completed at least once.
    pub(crate) fn distinct_completed(&self) -> u64 {
        self.completed_ids.len() as u64
    }
}

/// Resilience metrics attached to every scenario report. A healthy run
/// reports all-zero counters and availability 1.
#[derive(Clone, Debug, PartialEq, serde::Serialize)]
pub struct ResilienceSummary {
    /// Re-dispatched request-attempts.
    pub retries: u64,
    /// Attempts detected failed via client timeout.
    pub timeouts: u64,
    /// Transient per-request errors hit.
    pub transient_errors: u64,
    /// Requests re-routed across nodes.
    pub failovers: u64,
    /// Batches aborted by engine crashes.
    pub crash_aborts: u64,
    /// Frames skipped at the frontend (real-time degradation).
    pub skipped: u64,
    /// Requests deliberately dropped by admission control after admission.
    pub shed: u64,
    /// Requests turned away at admission.
    pub rejected: u64,
    /// Circuit-breaker transitions into the open state.
    pub breaker_trips: u64,
    /// Circuit-breaker half-open → closed recoveries.
    pub breaker_closes: u64,
    /// Requests routed around an open breaker at dispatch.
    pub breaker_reroutes: u64,
    /// Accepted requests that never completed *and* were never deliberately
    /// shed or rejected — must be zero (conservation:
    /// completed + shed + rejected = submitted).
    pub lost: u64,
    /// Requests that completed more than once — must be zero.
    pub duplicated: u64,
    /// Mean engine availability over the run's span (1.0 = no downtime).
    pub availability: f64,
}

impl ResilienceSummary {
    /// The all-healthy summary used by non-faulted runs.
    pub fn healthy() -> Self {
        ResilienceSummary {
            retries: 0,
            timeouts: 0,
            transient_errors: 0,
            failovers: 0,
            crash_aborts: 0,
            skipped: 0,
            shed: 0,
            rejected: 0,
            breaker_trips: 0,
            breaker_closes: 0,
            breaker_reroutes: 0,
            lost: 0,
            duplicated: 0,
            availability: 1.0,
        }
    }

    /// Summarize a run: from its fault context's stats and plan when it had
    /// one, [`ResilienceSummary::healthy`] otherwise.
    pub(crate) fn of(
        fault: Option<&FaultContext>,
        accepted: u64,
        nodes: u32,
        until: SimTime,
    ) -> Self {
        match fault {
            Some(ctx) => Self::from_stats(&ctx.stats.borrow(), accepted, &ctx.plan, nodes, until),
            None => Self::healthy(),
        }
    }

    /// Summarize a faulted run: counters from `stats`, conservation from
    /// `accepted` (requests actually admitted to the pipeline), and
    /// availability as the mean over `nodes` of each engine's uptime
    /// fraction across `[0, until)`.
    pub(crate) fn from_stats(
        stats: &ResilienceStats,
        accepted: u64,
        plan: &FaultPlan,
        nodes: u32,
        until: SimTime,
    ) -> Self {
        let availability = if nodes == 0 {
            1.0
        } else {
            (0..nodes)
                .map(|n| plan.engine_availability(n, until))
                .sum::<f64>()
                / f64::from(nodes)
        };
        ResilienceSummary {
            retries: stats.retries,
            timeouts: stats.timeouts,
            transient_errors: stats.transient_errors,
            failovers: stats.failovers,
            crash_aborts: stats.crash_aborts,
            skipped: stats.skipped,
            shed: stats.shed,
            rejected: stats.rejected,
            breaker_trips: stats.breaker_trips,
            breaker_closes: stats.breaker_closes,
            breaker_reroutes: stats.breaker_reroutes,
            lost: accepted.saturating_sub(stats.distinct_completed() + stats.shed + stats.rejected),
            duplicated: stats.duplicated,
            availability,
        }
    }
}

/// Failover callback: `(sim, batch, from_node, attempt)` re-routes a batch
/// whose node crashed. Installed by the cluster driver; absent on
/// single-node runs (which retry in place).
pub(crate) type FailoverFn = Rc<dyn Fn(&mut Sim, Vec<QueuedRequest>, u32, u32)>;

/// Per-node fault-handling context threaded into the pipeline's hooks.
#[derive(Clone)]
pub(crate) struct FaultContext {
    pub(crate) plan: Rc<FaultPlan>,
    pub(crate) node: u32,
    pub(crate) policy: RetryPolicy,
    pub(crate) stats: Rc<RefCell<ResilienceStats>>,
    pub(crate) failover: Rc<RefCell<Option<FailoverFn>>>,
    pub(crate) breakers: Option<Rc<BreakerBank>>,
}

impl FaultContext {
    /// Context for `node`, sharing `plan` and `stats` with sibling nodes.
    pub(crate) fn new(
        plan: Rc<FaultPlan>,
        node: u32,
        policy: RetryPolicy,
        stats: Rc<RefCell<ResilienceStats>>,
    ) -> Self {
        FaultContext {
            plan,
            node,
            policy,
            stats,
            failover: Rc::new(RefCell::new(None)),
            breakers: None,
        }
    }

    /// Attach the cluster's per-node circuit breakers: completions and
    /// crash aborts on this context's node feed its breaker.
    pub(crate) fn set_breakers(&mut self, bank: Rc<BreakerBank>) {
        self.breakers = Some(bank);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let policy = RetryPolicy {
            timeout: SimTime::from_millis(10),
            max_attempts: 8,
            backoff_base: SimTime::from_millis(10),
            backoff_cap: SimTime::from_millis(80),
        };
        let d0 = policy.backoff(1, 7, 0);
        let d3 = policy.backoff(1, 7, 3);
        let d6 = policy.backoff(1, 7, 6);
        // Jitter is in [0.5, 1.5): attempt 0 ∈ [5, 15) ms, attempt 3 ∈ [40,
        // 120) ms, attempt 6 capped at 80 ms pre-jitter → ∈ [40, 120) ms.
        assert!(
            d0 >= SimTime::from_millis(5) && d0 < SimTime::from_millis(15),
            "{d0:?}"
        );
        assert!(
            d3 >= SimTime::from_millis(40) && d3 < SimTime::from_millis(120),
            "{d3:?}"
        );
        assert!(d6 < SimTime::from_millis(120), "{d6:?}");
        assert_eq!(d3, policy.backoff(1, 7, 3), "deterministic");
        assert_ne!(
            policy.backoff(1, 7, 0),
            policy.backoff(1, 8, 0),
            "jitter varies by id"
        );
    }

    #[test]
    fn duplicate_completions_are_detected() {
        let mut stats = ResilienceStats::default();
        stats.record_completion(3);
        stats.record_completion(4);
        stats.record_completion(3);
        assert_eq!(stats.duplicated, 1);
        assert_eq!(stats.distinct_completed(), 2);
    }

    #[test]
    fn summary_conservation_and_availability() {
        let plan = FaultPlan::new(1).with_engine_crash(
            0,
            SimTime::from_millis(0),
            SimTime::from_millis(50),
        );
        let mut stats = ResilienceStats::default();
        for id in 0..9 {
            stats.record_completion(id);
        }
        let s = ResilienceSummary::from_stats(&stats, 10, &plan, 1, SimTime::from_millis(100));
        assert_eq!(s.lost, 1);
        assert!((s.availability - 0.5).abs() < 1e-9);
    }
}
