//! `DynamicBatcher` as it stood before `offer` was split into `admit` plus
//! the size trigger, verbatim, for the differential proptests in `prop.rs`:
//! nothing here may be "improved". The DES and `RealBatchServer` call
//! `offer` / `poll` / `flush`, and the shipped ones are held to these
//! request for request.

#![allow(dead_code)]

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
    /// behavior). Defaults to [`BatcherConfig::DEFAULT_MAX_QUEUE`]. A bound
    /// *below* `preferred_batch` is legal and selects a latency-biased
    /// regime: the size trigger can never fire, so short batches leave on
    /// the delay trigger and the shed policy works the full queue hard.
    pub max_queue: usize,
    /// What gives way when the queue is full.
    pub shed: ShedPolicy,
}

impl BatcherConfig {
    /// Default queue bound: deep enough that no tier-1 workload ever
    /// touches it (the size trigger keeps the queue below one preferred
    /// batch), shallow enough to bound memory under true overload.
    pub const DEFAULT_MAX_QUEUE: usize = 4096;

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

    /// Enqueue a request; returns a full batch if the size trigger fired.
    /// Under a bounded queue the request may be rejected or evict older
    /// ones — use [`DynamicBatcher::offer`] to observe those outcomes.
    pub fn push(&mut self, id: u64, now: SimTime) -> Option<Vec<QueuedRequest>> {
        self.offer(id, now, now, None).batch
    }

    /// Enqueue a request that originally arrived at the frontend at
    /// `arrival` (≤ `now`); returns a full batch if the size trigger fired.
    pub fn push_with_arrival(
        &mut self,
        id: u64,
        now: SimTime,
        arrival: SimTime,
    ) -> Option<Vec<QueuedRequest>> {
        self.offer(id, now, arrival, None).batch
    }

    /// Offer a request to the bounded queue, applying the shed policy; the
    /// full admission outcome reports rejection, evictions, and any batch
    /// the size trigger produced.
    pub fn offer(
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
            if self.queue.len() >= self.config.preferred_batch as usize {
                out.batch = Some(self.take(self.config.preferred_batch as usize));
            }
        } else {
            self.rejected_requests += 1;
        }
        self.shed_requests += out.shed.len() as u64;
        out
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

    /// Fire the delay trigger: dispatch the waiting partial batch if the
    /// oldest request's deadline has passed.
    pub fn poll_deadline(&mut self, now: SimTime) -> Option<Vec<QueuedRequest>> {
        self.poll(now).batch
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
        if let Some(front) = self.queue.front() {
            if now >= front.enqueued + self.config.max_queue_delay {
                let n = self.queue.len().min(self.config.preferred_batch as usize);
                out.batch = Some(self.take(n));
            }
        }
        out
    }

    /// Drain everything immediately (offline mode end-of-stream flush).
    pub fn flush(&mut self) -> Vec<Vec<QueuedRequest>> {
        let mut batches = Vec::new();
        while !self.queue.is_empty() {
            let n = self.queue.len().min(self.config.preferred_batch as usize);
            batches.push(self.take(n));
        }
        batches
    }

    fn take(&mut self, n: usize) -> Vec<QueuedRequest> {
        let batch: Vec<QueuedRequest> = self.queue.drain(..n).collect();
        self.dispatched_batches += 1;
        self.dispatched_requests += batch.len() as u64;
        batch
    }
}
