//! The simulated serving pipeline: preprocessing stage → dynamic batcher →
//! engine instances, on the deterministic DES core.
//!
//! Frontend/backend decoupling follows §3: the frontend submits requests;
//! the preprocessing stage (its own backend engine instances) and the model
//! engine overlap naturally because they are separate queueing resources —
//! the same overlap the paper credits for large models approaching the
//! engine bound on the A100.

use crate::batcher::{BatcherConfig, DynamicBatcher, QueuedRequest, ShedPolicy};
use crate::resilience::FaultContext;
use harvest_data::DatasetId;
use harvest_engine::{Engine, EngineError};
use harvest_hw::PlatformId;
use harvest_models::ModelId;
use harvest_perf::MemoryContext;
use harvest_preproc::{PreprocCostModel, PreprocMethod};
use harvest_simkit::{Reservoir, Server, Sim, SimTime};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Pipeline wiring for one (platform, model, dataset) deployment.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Target platform.
    pub platform: PlatformId,
    /// Served model.
    pub model: ModelId,
    /// Input dataset.
    pub dataset: DatasetId,
    /// Preprocessing framework.
    pub preproc: PreprocMethod,
    /// Memory context (engine-only or end-to-end budgets).
    pub ctx: MemoryContext,
    /// Engine max batch = batcher preferred batch.
    pub max_batch: u32,
    /// Dynamic batcher queue-delay bound.
    pub max_queue_delay: SimTime,
    /// Parallel preprocessing lanes.
    pub preproc_instances: u32,
    /// Parallel engine instances.
    pub engine_instances: u32,
}

impl PipelineConfig {
    /// A sensible default wiring for a deployment triple.
    pub fn standard(
        platform: PlatformId,
        model: ModelId,
        dataset: DatasetId,
        max_batch: u32,
    ) -> Self {
        PipelineConfig {
            platform,
            model,
            dataset,
            preproc: PreprocMethod::Dali224,
            ctx: MemoryContext::EndToEnd,
            max_batch,
            max_queue_delay: SimTime::from_millis(5),
            preproc_instances: 2,
            engine_instances: 1,
        }
    }
}

/// Overload-protection knobs for one pipeline: a frontend in-flight bound
/// plus a bounded batcher queue with a shed policy. Deadlines are relative
/// to each request's arrival and drive both deadline-aware shedding and
/// the goodput accounting in [`crate::overload`].
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Frontend bound on admitted-but-incomplete requests; `0` = unlimited.
    pub max_in_flight: u64,
    /// Batcher queue bound; `0` = unbounded.
    pub max_queue: usize,
    /// What gives way when the batcher queue is full.
    pub shed: ShedPolicy,
    /// Per-request completion deadline, relative to arrival.
    pub deadline: SimTime,
}

pub(crate) struct AdmissionInner {
    max_in_flight: u64,
    deadline: SimTime,
    in_flight: Cell<u64>,
}

/// Completion metrics shared between the sim's event handlers.
#[derive(Default)]
pub struct Metrics {
    /// End-to-end request latencies, milliseconds.
    pub latencies_ms: Reservoir,
    /// Completed requests.
    pub completed: u64,
    /// Time of the last completion.
    pub last_completion: SimTime,
}

/// One wired pipeline instance (servers + batcher + metrics) that runs on a
/// caller-provided simulator — multiple cores can share one [`Sim`], which
/// is how the cluster scale-out simulation composes nodes.
pub(crate) struct PipelineCore {
    engine: Rc<Engine>,
    preproc_server: Server,
    engine_server: Server,
    batcher: Rc<RefCell<DynamicBatcher>>,
    metrics: Rc<RefCell<Metrics>>,
    preproc_s: f64,
    submitted: u64,
    engine_backlog: Rc<Cell<u64>>,
    fault: Option<FaultContext>,
    admission: Option<Rc<AdmissionInner>>,
}

impl PipelineCore {
    /// Build the pipeline wiring; fails if the engine cannot be built at
    /// `max_batch` within the platform's memory budget.
    pub(crate) fn new(config: &PipelineConfig) -> Result<Self, EngineError> {
        let engine = Engine::build(config.model, config.platform, config.ctx, config.max_batch)?;
        let cost = PreprocCostModel::new(config.platform);
        let preproc_s = cost.per_image_s(config.preproc, config.dataset);
        let batcher =
            DynamicBatcher::new(BatcherConfig::new(config.max_batch, config.max_queue_delay))
                .map_err(|e| EngineError::InvalidConfig(e.to_string()))?;
        Ok(PipelineCore {
            engine: Rc::new(engine),
            preproc_server: Server::new("preproc", config.preproc_instances),
            engine_server: Server::new("engine", config.engine_instances),
            batcher: Rc::new(RefCell::new(batcher)),
            metrics: Rc::new(RefCell::new(Metrics::default())),
            preproc_s,
            submitted: 0,
            engine_backlog: Rc::new(Cell::new(0)),
            fault: None,
            admission: None,
        })
    }

    /// Enable overload protection: the frontend bounds in-flight requests,
    /// the batcher queue becomes bounded with the configured shed policy,
    /// and every request carries an absolute deadline (arrival +
    /// `config.deadline`). Sheds and rejections are recorded in the fault
    /// context's [`ResilienceStats`], so call
    /// [`PipelineCore::set_fault_context`] first.
    ///
    /// [`ResilienceStats`]: crate::resilience::ResilienceStats
    pub(crate) fn set_admission(&mut self, config: &AdmissionConfig) -> Result<(), EngineError> {
        let mut bc = self.batcher.borrow().config();
        bc.max_queue = config.max_queue;
        bc.shed = config.shed;
        let rebuilt =
            DynamicBatcher::new(bc).map_err(|e| EngineError::InvalidConfig(e.to_string()))?;
        *self.batcher.borrow_mut() = rebuilt;
        self.admission = Some(Rc::new(AdmissionInner {
            max_in_flight: config.max_in_flight,
            deadline: config.deadline,
            in_flight: Cell::new(0),
        }));
        Ok(())
    }

    /// Enable fault-aware operation: transient errors and engine crashes
    /// trigger timeout-detected retries with exponential backoff, and
    /// completions are conservation-checked through the context's shared
    /// [`ResilienceStats`].
    ///
    /// [`ResilienceStats`]: crate::resilience::ResilienceStats
    pub(crate) fn set_fault_context(&mut self, ctx: FaultContext) {
        self.fault = Some(ctx);
    }

    /// The built engine.
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Shared metrics handle.
    pub(crate) fn metrics(&self) -> Rc<RefCell<Metrics>> {
        self.metrics.clone()
    }

    /// Requests submitted so far.
    pub(crate) fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Images currently in flight (submitted minus completed).
    pub(crate) fn in_flight(&self) -> u64 {
        self.submitted - self.metrics.borrow().completed
    }

    /// Mean dispatched batch size so far.
    pub(crate) fn mean_batch(&self) -> f64 {
        self.batcher.borrow().mean_batch()
    }

    /// Per-image preprocessing service time, seconds.
    pub(crate) fn preproc_s(&self) -> f64 {
        self.preproc_s
    }

    pub(crate) fn hooks(&self) -> DispatchHooks {
        DispatchHooks {
            batcher: self.batcher.clone(),
            engine: self.engine.clone(),
            preproc_server: self.preproc_server.clone(),
            engine_server: self.engine_server.clone(),
            metrics: self.metrics.clone(),
            preproc_s: self.preproc_s,
            engine_backlog: self.engine_backlog.clone(),
            fault: self.fault.clone(),
            admission: self.admission.clone(),
        }
    }

    /// Requests dispatched to this node's engine and not yet completed (or
    /// aborted) — the failover router's load signal.
    pub(crate) fn engine_backlog(&self) -> Rc<Cell<u64>> {
        self.engine_backlog.clone()
    }

    /// Submit one request arriving at `at` (absolute sim time).
    pub(crate) fn submit(&mut self, sim: &mut Sim, at: SimTime) {
        let id = self.submitted;
        self.submit_as(sim, at, id);
    }

    /// Submit one request arriving at `at` under a caller-assigned id —
    /// cluster drivers use this to keep ids globally unique so shared
    /// conservation accounting (and the per-request fault coins) see one
    /// namespace across nodes.
    pub(crate) fn submit_as(&mut self, sim: &mut Sim, at: SimTime, id: u64) {
        self.submitted += 1;
        let hooks = self.hooks();
        sim.schedule_at(at, move |sim| hooks.admit_now(sim, id, at));
    }

    /// Flush any residual partial batch (end of stream).
    pub(crate) fn flush(&mut self, sim: &mut Sim) {
        let residual = self.batcher.borrow_mut().flush();
        for batch in residual {
            self.hooks().dispatch_attempt(sim, batch, 0);
        }
    }

    /// End a single-node run: drain `sim`, flush any residual partial batch
    /// and drain again.
    pub(crate) fn run_to_completion(&mut self, sim: &mut Sim) {
        sim.run();
        self.flush(sim);
        sim.run();
    }
}

/// Everything the post-preprocessing event path needs.
#[derive(Clone)]
pub(crate) struct DispatchHooks {
    batcher: Rc<RefCell<DynamicBatcher>>,
    engine: Rc<Engine>,
    preproc_server: Server,
    engine_server: Server,
    metrics: Rc<RefCell<Metrics>>,
    preproc_s: f64,
    engine_backlog: Rc<Cell<u64>>,
    fault: Option<FaultContext>,
    admission: Option<Rc<AdmissionInner>>,
}

impl DispatchHooks {
    /// Admit request `id` (which arrived at `arrival`) into this node's
    /// preprocessing stage at the current sim time: the one admission path,
    /// run by [`PipelineCore::submit_as`]'s event and by dispatchers that
    /// choose the node *inside* a scheduled event (breaker-aware cluster
    /// frontends).
    pub(crate) fn admit_now(&self, sim: &mut Sim, id: u64, arrival: SimTime) {
        // Frontend admission gate: when the in-flight bound is hit the
        // request is turned away immediately — bounding every queue
        // downstream of the frontend.
        if let Some(adm) = &self.admission {
            if adm.max_in_flight != 0 && adm.in_flight.get() >= adm.max_in_flight {
                if let Some(ctx) = &self.fault {
                    ctx.stats.borrow_mut().rejected += 1;
                }
                return;
            }
            adm.in_flight.set(adm.in_flight.get() + 1);
        }
        let service = SimTime::from_secs_f64(self.preproc_s);
        let hooks = self.clone();
        self.preproc_server
            .submit(sim, service, move |sim, _stats| {
                hooks.after_preproc(sim, id, arrival, 0);
            });
    }

    /// Request `id` (which arrived at `arrival`) finished preprocessing
    /// attempt `attempt`.
    fn after_preproc(&self, sim: &mut Sim, id: u64, arrival: SimTime, attempt: u32) {
        // Transient per-request errors (a dropped RPC, a corrupt frame
        // read) surface at the end of preprocessing and are retried after
        // exponential backoff. The final budgeted attempt is exempt from
        // the coin, so the retry loop always terminates with the request
        // delivered — conservation by construction.
        if let Some(ctx) = &self.fault {
            if attempt + 1 < ctx.policy.max_attempts && ctx.plan.transient_failure(id, attempt) {
                {
                    let mut s = ctx.stats.borrow_mut();
                    s.transient_errors += 1;
                    s.retries += 1;
                }
                let delay = ctx.policy.backoff(ctx.plan.seed(), id, attempt);
                let preproc_server = self.preproc_server.clone();
                let service = SimTime::from_secs_f64(self.preproc_s);
                let hooks = self.clone();
                sim.schedule_in(delay, move |sim| {
                    preproc_server.submit(sim, service, move |sim, _stats| {
                        hooks.after_preproc(sim, id, arrival, attempt + 1);
                    });
                });
                return;
            }
        }
        let now = sim.now();
        let deadline = self.admission.as_ref().map(|a| arrival + a.deadline);
        let outcome = self.batcher.borrow_mut().offer(id, now, arrival, deadline);
        self.account_shed(&outcome.shed, !outcome.admitted);
        if let Some(batch) = outcome.batch {
            self.dispatch_attempt(sim, batch, 0);
        } else {
            // Arm the delay trigger for the (possibly new) queue front.
            self.arm_deadline(sim);
        }
    }

    /// Schedule a delay-trigger poll for the current queue front. Stale
    /// events are harmless (the poll re-checks the condition); re-arming
    /// after each poll keeps the trigger live when a deadline-aware purge
    /// changes the front.
    fn arm_deadline(&self, sim: &mut Sim) {
        if let Some(at) = self.batcher.borrow().next_deadline() {
            let hooks = self.clone();
            sim.schedule_at(at.max(sim.now()), move |sim| {
                let out = hooks.batcher.borrow_mut().poll(sim.now());
                hooks.account_shed(&out.shed, false);
                if let Some(batch) = out.batch {
                    hooks.dispatch_attempt(sim, batch, 0);
                }
                if hooks.batcher.borrow().queued() > 0 {
                    hooks.arm_deadline(sim);
                }
            });
        }
    }

    /// Account batcher-level sheds and rejections: release their in-flight
    /// slots and record them in the shared resilience stats.
    fn account_shed(&self, shed: &[QueuedRequest], rejected: bool) {
        if shed.is_empty() && !rejected {
            return;
        }
        if let Some(adm) = &self.admission {
            let released = shed.len() as u64 + u64::from(rejected);
            adm.in_flight
                .set(adm.in_flight.get().saturating_sub(released));
        }
        if let Some(ctx) = &self.fault {
            let mut s = ctx.stats.borrow_mut();
            s.shed += shed.len() as u64;
            s.rejected += u64::from(rejected);
        }
    }

    /// Send a batch to an engine instance; `attempt` counts re-dispatches
    /// after crash aborts.
    pub(crate) fn dispatch_attempt(&self, sim: &mut Sim, batch: Vec<QueuedRequest>, attempt: u32) {
        if batch.is_empty() {
            return;
        }
        let bs = batch.len() as u32;
        let latency = self
            .engine
            .batch_latency_s(bs)
            .expect("batcher never exceeds engine max batch");
        let metrics = self.metrics.clone();
        let fault = self.fault.clone();
        let hooks = self.clone();
        self.engine_backlog
            .set(self.engine_backlog.get() + batch.len() as u64);
        self.engine_server
            .submit(sim, SimTime::from_secs_f64(latency), move |sim, stats| {
                let now = sim.now();
                hooks
                    .engine_backlog
                    .set(hooks.engine_backlog.get() - batch.len() as u64);
                // Engine-crash windows abort in-flight service: the result
                // is discarded, the client notices via timeout, and the
                // batch is retried (failing over to a sibling node when a
                // router is installed). Attempts past the budget run in
                // drain mode — scheduled after the engine recovers and
                // exempt from the crash check — so work is never lost.
                if let Some(ctx) = &fault {
                    if attempt < ctx.policy.max_attempts {
                        if let Some((fail_at, resume_at)) =
                            ctx.plan
                                .engine_crash_in(ctx.node, stats.started, stats.finished)
                        {
                            {
                                let mut s = ctx.stats.borrow_mut();
                                s.crash_aborts += 1;
                                s.timeouts += batch.len() as u64;
                                s.retries += batch.len() as u64;
                            }
                            if let Some(bank) = &ctx.breakers {
                                bank.record_failure(ctx.node, now);
                            }
                            let key = batch.first().map(|r| r.id).unwrap_or(0);
                            let detect = now.max(fail_at + ctx.policy.timeout);
                            let backoff = ctx.policy.backoff(ctx.plan.seed(), key, attempt);
                            let router = ctx.failover.borrow().clone();
                            let node = ctx.node;
                            match router {
                                Some(route) => {
                                    sim.schedule_at(detect.max(now), move |sim| {
                                        route(sim, batch, node, attempt + 1);
                                    });
                                }
                                None => {
                                    let at = (detect + backoff).max(resume_at);
                                    sim.schedule_at(at.max(now), move |sim| {
                                        hooks.dispatch_attempt(sim, batch, attempt + 1);
                                    });
                                }
                            }
                            return;
                        }
                    }
                }
                if let Some(ctx) = &fault {
                    if let Some(bank) = &ctx.breakers {
                        bank.record_success(ctx.node, now, stats.service());
                    }
                }
                if let Some(adm) = &hooks.admission {
                    adm.in_flight
                        .set(adm.in_flight.get().saturating_sub(batch.len() as u64));
                }
                let mut m = metrics.borrow_mut();
                for req in &batch {
                    let e2e = now - req.arrival();
                    m.latencies_ms.push(e2e.as_millis_f64());
                    m.completed += 1;
                    if let Some(ctx) = &fault {
                        ctx.stats.borrow_mut().record_completion(req.id);
                    }
                }
                m.last_completion = now;
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_pipeline() -> (Sim, PipelineCore) {
        let cfg = PipelineConfig {
            platform: PlatformId::MriA100,
            model: ModelId::VitTiny,
            dataset: DatasetId::PlantVillage,
            preproc: PreprocMethod::Dali32,
            ctx: MemoryContext::EngineOnly,
            max_batch: 8,
            max_queue_delay: SimTime::from_millis(2),
            preproc_instances: 2,
            engine_instances: 1,
        };
        (
            Sim::new(),
            PipelineCore::new(&cfg).expect("pipeline builds"),
        )
    }

    #[test]
    fn all_submitted_requests_complete() {
        let (mut sim, mut p) = small_pipeline();
        for i in 0..100u64 {
            p.submit(&mut sim, SimTime::from_micros(i * 50));
        }
        p.run_to_completion(&mut sim);
        let m = p.metrics();
        assert_eq!(m.borrow().completed, 100);
        assert_eq!(m.borrow().latencies_ms.count(), 100);
    }

    #[test]
    fn latencies_are_positive_and_bounded() {
        let (mut sim, mut p) = small_pipeline();
        for i in 0..64u64 {
            p.submit(&mut sim, SimTime::from_micros(i * 100));
        }
        p.run_to_completion(&mut sim);
        let metrics = p.metrics();
        let mut m = metrics.borrow_mut();
        let p50 = m.latencies_ms.median();
        assert!(p50 > 0.0);
        assert!(p50 < 1000.0, "p50 {p50}ms is implausible");
    }

    #[test]
    fn batcher_forms_full_batches_under_load() {
        let (mut sim, mut p) = small_pipeline();
        // Burst arrival: everything at t=0 → full batches of 8.
        for _ in 0..80u64 {
            p.submit(&mut sim, SimTime::ZERO);
        }
        p.run_to_completion(&mut sim);
        assert!(
            (p.mean_batch() - 8.0).abs() < 0.6,
            "mean batch {}",
            p.mean_batch()
        );
    }

    #[test]
    fn sparse_arrivals_dispatch_partial_batches_by_deadline() {
        let (mut sim, mut p) = small_pipeline();
        // One request every 50ms >> 2ms queue delay: batches of 1.
        for i in 0..10u64 {
            p.submit(&mut sim, SimTime::from_millis(i * 50));
        }
        p.run_to_completion(&mut sim);
        assert_eq!(p.metrics().borrow().completed, 10);
        assert!(p.mean_batch() < 1.5, "mean batch {}", p.mean_batch());
    }

    #[test]
    fn oversized_engine_request_is_impossible_by_construction() {
        // The batcher's preferred batch equals the engine max batch, so
        // dispatch can never exceed it; sanity-check the wiring constant.
        let (_, p) = small_pipeline();
        assert_eq!(p.engine().max_batch(), 8);
    }

    #[test]
    fn e2e_context_with_infeasible_batch_fails_to_build() {
        let cfg = PipelineConfig {
            platform: PlatformId::JetsonOrinNano,
            model: ModelId::VitBase,
            dataset: DatasetId::CornGrowthStage,
            preproc: PreprocMethod::Dali224,
            ctx: MemoryContext::EndToEnd,
            max_batch: 8, // Fig 8: only 2 fits on Jetson e2e
            max_queue_delay: SimTime::from_millis(5),
            preproc_instances: 1,
            engine_instances: 1,
        };
        assert!(PipelineCore::new(&cfg).is_err());
    }
}
