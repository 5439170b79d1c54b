//! Dynamic batching logic (the Triton dynamic batcher's decision rule),
//! plus bounded-queue admission control.
//!
//! Requests accumulate in a queue. A batch dispatches when either
//! (a) `preferred_batch` requests are waiting, or (b) the oldest request
//! has waited `max_queue_delay`. The queue is bounded (`max_queue`); when
//! it is full the configured [`ShedPolicy`] decides what gives way, and a
//! deadline-aware policy additionally purges requests that can no longer
//! meet their latency bound (the paper's Fig-6 16.7 ms line). Pure data
//! structure — the DES driver calls [`DynamicBatcher::offer`] /
//! [`DynamicBatcher::poll`] and acts on the returned batches, keeping the
//! policy unit-testable without a simulator.
//!
//! The two triggers are built from two smaller calls,
//! [`DynamicBatcher::admit`] (the bounded queue and shed policy, no
//! dispatch) and [`DynamicBatcher::take_oldest`] (the oldest
//! `min(queued, preferred_batch)` requests, whatever their age). A caller
//! that knows when its engine is idle — the wire pool in `harvest-net` —
//! uses those two directly and dispatches work-conservingly instead of by
//! size or delay; the simulator keeps Triton's rule.

use harvest_simkit::SimTime;
use std::collections::VecDeque;

/// What happens when a request arrives at a full queue (or, for the
/// deadline-aware policy, whenever the queue is inspected).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ShedPolicy {
    /// Turn the arriving request away; the queue is untouched.
    RejectNew,
    /// Evict the oldest queued request(s) to make room for the new one.
    DropOldest,
    /// Purge queued requests that can no longer meet their deadline given
    /// the estimated service time, then reject the newcomer only if the
    /// queue is still full or the newcomer itself is already hopeless.
    DeadlineAware {
        /// Estimated time from dispatch to completion, used to decide
        /// whether a deadline is still reachable.
        service_estimate: SimTime,
    },
}

/// Batcher misconfiguration, reported by [`BatcherConfig::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatcherConfigError {
    /// `preferred_batch` must be at least 1.
    ZeroPreferredBatch,
}

impl std::fmt::Display for BatcherConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatcherConfigError::ZeroPreferredBatch => {
                write!(f, "preferred_batch must be at least 1")
            }
        }
    }
}

impl std::error::Error for BatcherConfigError {}

/// Batcher policy knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BatcherConfig {
    /// Dispatch as soon as this many requests are queued.
    pub preferred_batch: u32,
    /// Dispatch a partial batch once the oldest request is this old.
    pub max_queue_delay: SimTime,
    /// Queue bound; `0` means unbounded (the pre-admission-control
    /// behavior). Defaults to 4096. A bound *below* `preferred_batch` is
    /// legal and selects a latency-biased regime: the size trigger can never
    /// fire, so short batches leave on the delay trigger and the shed policy
    /// works the full queue hard.
    pub max_queue: usize,
    /// What gives way when the queue is full.
    pub shed: ShedPolicy,
}

impl BatcherConfig {
    /// Default queue bound: deep enough that no tier-1 workload ever
    /// touches it (the size trigger keeps the queue below one preferred
    /// batch), shallow enough to bound memory under true overload.
    pub(crate) const DEFAULT_MAX_QUEUE: usize = 4096;

    /// A config with the default bound and reject-new shedding.
    pub fn new(preferred_batch: u32, max_queue_delay: SimTime) -> Self {
        BatcherConfig {
            preferred_batch,
            max_queue_delay,
            max_queue: Self::DEFAULT_MAX_QUEUE,
            shed: ShedPolicy::RejectNew,
        }
    }

    /// Check the knobs for consistency.
    pub fn validate(&self) -> Result<(), BatcherConfigError> {
        if self.preferred_batch == 0 {
            return Err(BatcherConfigError::ZeroPreferredBatch);
        }
        Ok(())
    }
}

/// A queued request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedRequest {
    /// Request id (caller-assigned).
    pub id: u64,
    /// When it entered the batcher.
    pub enqueued: SimTime,
    /// When it originally arrived at the frontend (for end-to-end latency;
    /// equals `enqueued` unless the caller supplies an earlier arrival).
    arrival: SimTime,
    /// Absolute completion deadline, when the caller runs deadline-aware
    /// admission (`None` otherwise).
    deadline: Option<SimTime>,
}

impl QueuedRequest {
    /// Original frontend arrival time.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Absolute completion deadline, if one was attached at admission.
    pub fn deadline(&self) -> Option<SimTime> {
        self.deadline
    }
}

/// Result of offering one request to the batcher.
#[derive(Debug, Default)]
pub struct Admission {
    /// Was the offered request enqueued (or immediately dispatched)?
    pub admitted: bool,
    /// Previously queued requests evicted to make room or purged as
    /// hopeless — every one must be accounted by the caller.
    pub shed: Vec<QueuedRequest>,
    /// A full batch, if the size trigger fired.
    pub batch: Option<Vec<QueuedRequest>>,
}

/// Result of polling the delay trigger.
#[derive(Debug, Default)]
pub struct Poll {
    /// Queued requests purged as hopeless (deadline-aware policy only).
    pub shed: Vec<QueuedRequest>,
    /// The partial batch, if the oldest request's deadline had passed.
    pub batch: Option<Vec<QueuedRequest>>,
}

/// The dynamic batcher state machine.
#[derive(Clone, Debug)]
pub struct DynamicBatcher {
    config: BatcherConfig,
    queue: VecDeque<QueuedRequest>,
    dispatched_batches: u64,
    dispatched_requests: u64,
    shed_requests: u64,
    rejected_requests: u64,
}

impl DynamicBatcher {
    /// New batcher with a policy; fails on an inconsistent config instead
    /// of panicking.
    pub fn new(config: BatcherConfig) -> Result<Self, BatcherConfigError> {
        config.validate()?;
        Ok(DynamicBatcher {
            config,
            queue: VecDeque::new(),
            dispatched_batches: 0,
            dispatched_requests: 0,
            shed_requests: 0,
            rejected_requests: 0,
        })
    }

    /// The policy.
    pub fn config(&self) -> BatcherConfig {
        self.config
    }

    /// Requests currently queued.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Batches dispatched so far.
    pub fn dispatched_batches(&self) -> u64 {
        self.dispatched_batches
    }

    /// Requests dispatched so far.
    pub fn dispatched_requests(&self) -> u64 {
        self.dispatched_requests
    }

    /// Queued requests evicted or purged so far.
    pub fn shed_requests(&self) -> u64 {
        self.shed_requests
    }

    /// Offered requests turned away at admission so far.
    pub fn rejected_requests(&self) -> u64 {
        self.rejected_requests
    }

    /// Mean dispatched batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.dispatched_batches == 0 {
            0.0
        } else {
            self.dispatched_requests as f64 / self.dispatched_batches as f64
        }
    }

    /// Offer a request to the bounded queue, applying the shed policy; the
    /// full admission outcome reports rejection, evictions, and any batch
    /// the size trigger produced. This is [`DynamicBatcher::admit`] followed
    /// by the size trigger.
    pub fn offer(
        &mut self,
        id: u64,
        now: SimTime,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> Admission {
        let mut out = self.admit(id, now, arrival, deadline);
        if out.admitted && self.queue.len() >= self.config.preferred_batch as usize {
            out.batch = self.take_oldest();
        }
        out
    }

    /// Admission alone: apply the queue bound and the shed policy, enqueue
    /// the request if it is admitted, and never dispatch
    /// (`Admission::batch` stays `None`). For a caller that decides itself
    /// when work leaves the queue — the wire pool takes a batch with
    /// [`DynamicBatcher::take_oldest`] whenever a worker is idle — so the
    /// queue bound governs everything not yet running.
    pub fn admit(
        &mut self,
        id: u64,
        now: SimTime,
        arrival: SimTime,
        deadline: Option<SimTime>,
    ) -> Admission {
        let mut out = Admission {
            admitted: true,
            ..Admission::default()
        };
        if let ShedPolicy::DeadlineAware { service_estimate } = self.config.shed {
            self.purge_hopeless(now, service_estimate, &mut out.shed);
            if let Some(d) = deadline {
                if now + service_estimate > d {
                    // The newcomer itself can no longer make its deadline:
                    // admitting it would only waste a queue slot.
                    out.admitted = false;
                }
            }
        }
        if out.admitted && self.config.max_queue != 0 && self.queue.len() >= self.config.max_queue {
            match self.config.shed {
                ShedPolicy::DropOldest => {
                    // The loop guard saw a full queue, so pop_front yields a
                    // victim — but never panic on the admission hot path: an
                    // unexpectedly empty queue just means there is room.
                    while self.queue.len() >= self.config.max_queue {
                        match self.queue.pop_front() {
                            Some(victim) => out.shed.push(victim),
                            None => break,
                        }
                    }
                }
                ShedPolicy::RejectNew | ShedPolicy::DeadlineAware { .. } => {
                    out.admitted = false;
                }
            }
        }
        if out.admitted {
            self.queue.push_back(QueuedRequest {
                id,
                enqueued: now,
                arrival,
                deadline,
            });
        } else {
            self.rejected_requests += 1;
        }
        self.shed_requests += out.shed.len() as u64;
        out
    }

    /// Dispatch the oldest `min(queued, preferred_batch)` requests as one
    /// batch, whatever their age; `None` when the queue is empty.
    pub fn take_oldest(&mut self) -> Option<Vec<QueuedRequest>> {
        let n = self.queue.len().min(self.config.preferred_batch as usize);
        if n == 0 {
            return None;
        }
        let batch: Vec<QueuedRequest> = self.queue.drain(..n).collect();
        self.dispatched_batches += 1;
        self.dispatched_requests += batch.len() as u64;
        Some(batch)
    }

    /// Drain queued requests that can no longer complete by their deadline.
    fn purge_hopeless(
        &mut self,
        now: SimTime,
        service_estimate: SimTime,
        shed: &mut Vec<QueuedRequest>,
    ) {
        let mut kept = VecDeque::with_capacity(self.queue.len());
        for req in self.queue.drain(..) {
            match req.deadline {
                Some(d) if now + service_estimate > d => shed.push(req),
                _ => kept.push_back(req),
            }
        }
        self.queue = kept;
    }

    /// When the delay trigger would next fire (`None` when empty).
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.queue
            .front()
            .map(|r| r.enqueued + self.config.max_queue_delay)
    }

    /// Fire the delay trigger, first purging hopeless requests under the
    /// deadline-aware policy; the outcome reports both the purge and any
    /// dispatched partial batch.
    pub fn poll(&mut self, now: SimTime) -> Poll {
        let mut out = Poll::default();
        if let ShedPolicy::DeadlineAware { service_estimate } = self.config.shed {
            self.purge_hopeless(now, service_estimate, &mut out.shed);
        }
        self.shed_requests += out.shed.len() as u64;
        if self.next_deadline().is_some_and(|due| now >= due) {
            out.batch = self.take_oldest();
        }
        out
    }

    /// Drain everything immediately (offline mode end-of-stream flush).
    pub fn flush(&mut self) -> Vec<Vec<QueuedRequest>> {
        std::iter::from_fn(|| self.take_oldest()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(batch: u32, delay_ms: u64) -> BatcherConfig {
        BatcherConfig::new(batch, SimTime::from_millis(delay_ms))
    }

    fn batcher(config: BatcherConfig) -> DynamicBatcher {
        DynamicBatcher::new(config).expect("valid config")
    }

    #[test]
    fn size_trigger_fires_at_preferred_batch() {
        let mut b = batcher(cfg(4, 100));
        let t = SimTime::ZERO;
        assert!(b.offer(0, t, t, None).batch.is_none());
        assert!(b.offer(1, t, t, None).batch.is_none());
        assert!(b.offer(2, t, t, None).batch.is_none());
        let batch = b
            .offer(3, t, t, None)
            .batch
            .expect("4th request completes the batch");
        assert_eq!(batch.len(), 4);
        assert_eq!(
            batch.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(b.queued(), 0);
    }

    #[test]
    fn delay_trigger_dispatches_partial_batch() {
        let mut b = batcher(cfg(8, 10));
        b.offer(0, SimTime::from_millis(0), SimTime::from_millis(0), None);
        b.offer(1, SimTime::from_millis(2), SimTime::from_millis(2), None);
        assert_eq!(b.next_deadline(), Some(SimTime::from_millis(10)));
        assert!(b.poll(SimTime::from_millis(9)).batch.is_none());
        let batch = b
            .poll(SimTime::from_millis(10))
            .batch
            .expect("deadline reached");
        assert_eq!(batch.len(), 2);
        assert_eq!(b.next_deadline(), None);
    }

    #[test]
    fn overflow_stays_queued_after_size_trigger() {
        let mut b = batcher(cfg(2, 100));
        assert!(b
            .offer(0, SimTime::ZERO, SimTime::ZERO, None)
            .batch
            .is_none());
        assert!(b
            .offer(1, SimTime::ZERO, SimTime::ZERO, None)
            .batch
            .is_some());
        assert!(b
            .offer(2, SimTime::ZERO, SimTime::ZERO, None)
            .batch
            .is_none());
        assert_eq!(b.queued(), 1);
    }

    #[test]
    fn flush_drains_in_preferred_chunks() {
        let mut b = batcher(cfg(4, 1000));
        for i in 0..10u64 {
            // push returns full batches at 4 and 8; re-queue sizes shrink.
            let _ = b.offer(i, SimTime::ZERO, SimTime::ZERO, None);
        }
        // 10 pushed, two batches of 4 already dispatched, 2 remain.
        assert_eq!(b.queued(), 2);
        let rest = b.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].len(), 2);
        assert_eq!(b.dispatched_requests(), 10);
        assert_eq!(b.dispatched_batches(), 3);
    }

    #[test]
    fn mean_batch_accounts_partials() {
        let mut b = batcher(cfg(4, 10));
        for i in 0..4u64 {
            let _ = b.offer(i, SimTime::ZERO, SimTime::ZERO, None);
        }
        b.offer(4, SimTime::ZERO, SimTime::ZERO, None);
        let _ = b.poll(SimTime::from_millis(10));
        assert_eq!(b.dispatched_batches(), 2);
        assert!((b.mean_batch() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn fifo_order_is_preserved_across_triggers() {
        let mut b = batcher(cfg(3, 5));
        b.offer(10, SimTime::from_millis(0), SimTime::from_millis(0), None);
        b.offer(11, SimTime::from_millis(1), SimTime::from_millis(1), None);
        let batch = b.poll(SimTime::from_millis(6)).batch.unwrap();
        assert_eq!(batch[0].id, 10);
        assert_eq!(batch[1].id, 11);
    }

    #[test]
    fn empty_batcher_has_no_deadline() {
        let b = batcher(cfg(4, 10));
        assert_eq!(b.next_deadline(), None);
        assert_eq!(b.mean_batch(), 0.0);
    }

    #[test]
    fn invalid_configs_are_errors_not_panics() {
        assert_eq!(
            DynamicBatcher::new(cfg(0, 10)).unwrap_err(),
            BatcherConfigError::ZeroPreferredBatch
        );
        // A queue shorter than the preferred batch is legal: the size
        // trigger simply never fires and the delay trigger does the work.
        let mut small = cfg(8, 10);
        small.max_queue = 4;
        assert!(small.validate().is_ok());
        let mut unbounded = cfg(8, 10);
        unbounded.max_queue = 0;
        assert!(unbounded.validate().is_ok());
    }

    #[test]
    fn reject_new_bounds_the_queue() {
        let mut config = cfg(4, 1000);
        config.max_queue = 4;
        let mut b = batcher(config);
        // Four admits fire the size trigger and drain the queue...
        for i in 0..4u64 {
            let _ = b.offer(i, SimTime::ZERO, SimTime::ZERO, None);
        }
        assert_eq!(b.queued(), 0);
        // ...then three more sit queued; the queue bound only bites once
        // the backlog stops draining (simulate by never polling).
        for i in 4..8u64 {
            let out = b.offer(i, SimTime::ZERO, SimTime::ZERO, None);
            assert!(out.admitted);
        }
        assert_eq!(b.queued(), 0, "size trigger fired again");
    }

    #[test]
    fn reject_new_turns_away_when_full() {
        // The bound can only bind below the size trigger, so use a queue
        // shorter than the preferred batch (the latency-biased regime).
        let mut config = cfg(32, 1000);
        config.max_queue = 16;
        let mut b = batcher(config);
        for i in 0..16u64 {
            assert!(b.offer(i, SimTime::ZERO, SimTime::ZERO, None).admitted);
        }
        let out = b.offer(16, SimTime::ZERO, SimTime::ZERO, None);
        assert!(!out.admitted);
        assert!(out.shed.is_empty());
        assert_eq!(b.queued(), 16);
        assert_eq!(b.rejected_requests(), 1);
    }

    #[test]
    fn drop_oldest_evicts_the_front() {
        let mut config = cfg(32, 1000);
        config.max_queue = 16;
        config.shed = ShedPolicy::DropOldest;
        let mut b = batcher(config);
        for i in 0..16u64 {
            assert!(b.offer(i, SimTime::ZERO, SimTime::ZERO, None).admitted);
        }
        let out = b.offer(16, SimTime::ZERO, SimTime::ZERO, None);
        assert!(out.admitted);
        assert_eq!(out.shed.len(), 1);
        assert_eq!(out.shed[0].id, 0, "oldest request gives way");
        assert_eq!(b.queued(), 16);
        assert_eq!(b.shed_requests(), 1);
    }

    #[test]
    fn deadline_aware_purges_hopeless_requests() {
        let mut config = cfg(16, 1000);
        config.shed = ShedPolicy::DeadlineAware {
            service_estimate: SimTime::from_millis(5),
        };
        let mut b = batcher(config);
        let deadline = |ms| Some(SimTime::from_millis(ms));
        // Request 0 must finish by t=8ms; request 1 by t=100ms.
        b.offer(0, SimTime::ZERO, SimTime::ZERO, deadline(8));
        b.offer(1, SimTime::ZERO, SimTime::ZERO, deadline(100));
        // At t=4ms, 4+5 > 8: request 0 is hopeless and is purged on the
        // next interaction.
        let out = b.offer(
            2,
            SimTime::from_millis(4),
            SimTime::from_millis(4),
            deadline(100),
        );
        assert!(out.admitted);
        assert_eq!(out.shed.len(), 1);
        assert_eq!(out.shed[0].id, 0);
        assert_eq!(b.queued(), 2);
        // A newcomer that is already hopeless is rejected outright.
        let out = b.offer(
            3,
            SimTime::from_millis(99),
            SimTime::from_millis(99),
            deadline(100),
        );
        assert!(!out.admitted);
    }

    #[test]
    fn poll_purges_hopeless_before_forming_the_batch() {
        let mut config = cfg(16, 2);
        config.shed = ShedPolicy::DeadlineAware {
            service_estimate: SimTime::from_millis(5),
        };
        let mut b = batcher(config);
        // Deadline 6 ms is reachable at t=0 (0 + 5 <= 6) so request 0 is
        // admitted, but hopeless by the poll at t=2 (2 + 5 > 6).
        b.offer(
            0,
            SimTime::ZERO,
            SimTime::ZERO,
            Some(SimTime::from_millis(6)),
        );
        b.offer(
            1,
            SimTime::ZERO,
            SimTime::ZERO,
            Some(SimTime::from_millis(50)),
        );
        let out = b.poll(SimTime::from_millis(2));
        assert_eq!(out.shed.len(), 1, "request 0 can no longer make t=6ms");
        let batch = out.batch.expect("delay trigger fired");
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].id, 1);
    }

    #[test]
    fn conservation_across_policies() {
        for shed in [
            ShedPolicy::RejectNew,
            ShedPolicy::DropOldest,
            ShedPolicy::DeadlineAware {
                service_estimate: SimTime::from_millis(3),
            },
        ] {
            let mut config = cfg(4, 10);
            config.max_queue = 4;
            config.shed = shed;
            let mut b = batcher(config);
            let mut dispatched = 0u64;
            let mut shed_seen = 0u64;
            for i in 0..200u64 {
                let now = SimTime::from_millis(i / 3);
                let out = b.offer(i, now, now, Some(now + SimTime::from_millis(6)));
                shed_seen += out.shed.len() as u64;
                dispatched += out.batch.map_or(0, |v| v.len() as u64);
            }
            for batch in b.flush() {
                dispatched += batch.len() as u64;
            }
            assert_eq!(
                dispatched + shed_seen + b.rejected_requests(),
                200,
                "{shed:?}: {} dispatched, {} shed, {} rejected",
                dispatched,
                shed_seen,
                b.rejected_requests()
            );
            assert_eq!(b.shed_requests(), shed_seen);
        }
    }
}
