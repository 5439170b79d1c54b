//! # harvest-serving
//!
//! The serving layer — our NVIDIA-Triton analog, §3's "backend request
//! orchestration", run on the deterministic DES core:
//!
//! * [`batcher`] — the dynamic batcher: requests accumulate until either
//!   the preferred batch size is reached or the queue-delay deadline
//!   expires. Pure logic, independently testable.
//! * [`server`] — the simulated pipeline: request source → preprocessing
//!   stage (GPU DALI-style or CPU pool) → dynamic batcher → engine
//!   instance(s), with preprocessing/inference overlap falling out of the
//!   queueing structure.
//! * [`scenario`] — the three §2.2 deployment scenarios, one entry point
//!   each: **online** (Poisson arrivals, latency percentiles), **offline**
//!   (a field's worth of images enqueued at once, makespan → throughput),
//!   and **real-time** (a closed-loop 60 fps camera with deadline-miss
//!   accounting). The fault layer is an argument
//!   (`faults: Option<&FaultInjection>`), and so are the protection layers:
//!   admission control ([`run_online_protected`]) and circuit breakers
//!   ([`run_cluster_offline`]'s `breaker`). A protection layer always runs
//!   under a fault context, an empty plan if none was given.
//! * [`resilience`] — the reaction layer for injected faults
//!   ([`harvest_simkit::fault`]): timeout-detected retries with bounded
//!   exponential backoff, cross-node failover, skip-frame degradation, and
//!   conservation accounting (zero lost, zero duplicated).
//! * [`breaker`] — per-node circuit breakers: failure/latency EWMAs trip a
//!   node open, half-open probes re-admit it.
//! * [`overload`] — admission-controlled online serving: bounded queues,
//!   shed policies, deadline-aware dropping, and goodput accounting.
//! * `realexec` ([`RealBatchServer`]) — the batcher driving *actual* host
//!   inference: dispatched batches run through the batched execution engine
//!   and completions carry real logits; the weight generation they run on
//!   is decided by the engine's `WeightsCell` (load, guard, settle).
//! * [`limits`] — shared serving limits: the body-size / queue / in-flight
//!   bounds the wire front-end and the queueing layer must agree on, with
//!   drift-catching validation (single source of truth).
//! * [`integrity`] — silent-data-corruption defense on the real path:
//!   deterministic bit-flip injection, a detector ladder (weight checksums,
//!   activation sentinels, oracle cross-check), re-materialize-and-retry
//!   recovery, and breaker-backed node quarantine, all under conservation-
//!   checked counters.
//! * [`fleet`] — fleet-scale continuum serving: region-sharded clusters
//!   replaying million-user [`harvest_simkit::trace`] workloads on the
//!   conservative-sync [`harvest_simkit::fleet`] engine, with per-node
//!   breakers, crash-plan faults, cross-region WAN failover, energy
//!   rollups, and XOR-ledger conservation checks — bit-identical at every
//!   worker thread count.

pub mod batcher;
pub mod breaker;
pub mod cluster;
pub mod fleet;
pub mod integrity;
pub mod limits;
pub(crate) mod multimodel;
pub mod overload;
pub(crate) mod realexec;
pub mod resilience;
pub mod scenario;
pub mod server;

pub use batcher::{BatcherConfig, BatcherConfigError, DynamicBatcher, ShedPolicy};
pub use breaker::{BreakerConfig, BreakerState, CircuitBreaker};
pub use cluster::{run_cluster_offline, ClusterConfig, ClusterReport, Dispatch};
pub use fleet::{run_fleet, FleetConfig, FleetReport, ShardReport, ShardStats};
pub use integrity::{
    ClusterOutcome, DetectorConfig, IntegrityCluster, IntegrityStats, DETECT_TOL, ESCAPE_TOL,
};
pub use limits::{LimitsError, ServingLimits};
pub use multimodel::{HostedModel, LadderConfig, LadderSummary, MultiModelServer};
pub use overload::{run_online_protected, OverloadReport};
pub use realexec::{Completion, RealBatchServer, ServeFault, Submission};
pub use resilience::{FaultInjection, ResilienceSummary, RetryPolicy};
pub use scenario::{
    run_offline, run_online, run_realtime, OfflineConfig, OfflineReport, OnlineConfig,
    OnlineReport, RealTimeConfig, RealTimeReport,
};
pub use server::{AdmissionConfig, PipelineConfig};
