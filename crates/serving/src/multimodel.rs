//! Multi-model co-location: several model instances sharing one GPU.
//!
//! §3 of the paper: "The backend hosts model instances, each dedicated to a
//! specific inference task … A single request may trigger multiple backend
//! calls to support different downstream tasks, which can reuse shared
//! preprocessing steps when applicable."
//!
//! This module builds that: a device hosting several engines behind one
//! compute resource, per-model dynamic batchers, and *fan-out requests*
//! that run one shared preprocessing pass and then invoke several models.
//! Two effects become measurable:
//!
//! * **interference** — co-located models contend for the single compute
//!   engine, inflating each other's tail latency vs. running isolated;
//! * **preprocessing reuse** — a two-model fan-out costs one preprocessing
//!   pass, not two.

use crate::batcher::{BatcherConfig, DynamicBatcher, QueuedRequest};
use harvest_data::DatasetId;
use harvest_engine::{Engine, EngineError};
use harvest_hw::PlatformId;
use harvest_models::ModelId;
use harvest_perf::MemoryContext;
use harvest_preproc::{PreprocCostModel, PreprocMethod};
use harvest_simkit::{Reservoir, Server, Sim, SimTime};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Graceful-degradation ladder tuning. Lanes are ordered best-first (lane
/// 0 = the full-quality model); the ladder moves to a cheaper lane when the
/// sliding-window deadline-miss rate crosses `downgrade_miss_rate`, and
/// back up — with hysteresis — once the miss rate falls to
/// `upgrade_miss_rate` and the current tier has been held for `hold`.
#[derive(Clone, Copy, Debug)]
pub struct LadderConfig {
    /// Per-request completion deadline, relative to arrival.
    pub deadline: SimTime,
    /// Completions in the sliding miss-rate window.
    pub window: usize,
    /// Window miss rate at or above which the ladder downgrades.
    pub downgrade_miss_rate: f64,
    /// Window miss rate at or below which the ladder may upgrade.
    pub upgrade_miss_rate: f64,
    /// Minimum time on a tier before an upgrade (hysteresis hold).
    pub hold: SimTime,
}

/// Ladder outcome counters for a run.
#[derive(Clone, Debug, PartialEq)]
pub struct LadderSummary {
    /// Tier switches toward cheaper models.
    pub downgrades: u64,
    /// Tier switches back toward better models.
    pub upgrades: u64,
    /// Time spent serving from each tier, seconds (index = lane).
    pub time_in_tier_s: Vec<f64>,
    /// Requests completed through the ladder.
    pub served: u64,
    /// Served requests that missed the deadline.
    pub misses: u64,
    /// Tier in effect when the run ended.
    pub final_tier: usize,
}

struct LadderState {
    config: LadderConfig,
    tier: usize,
    tiers: usize,
    window: VecDeque<bool>,
    last_change: SimTime,
    time_in_tier: Vec<SimTime>,
    downgrades: u64,
    upgrades: u64,
    served: u64,
    misses: u64,
}

impl LadderState {
    fn new(config: LadderConfig, tiers: usize) -> Self {
        LadderState {
            config,
            tier: 0,
            tiers,
            window: VecDeque::with_capacity(config.window),
            last_change: SimTime::ZERO,
            time_in_tier: vec![SimTime::ZERO; tiers],
            downgrades: 0,
            upgrades: 0,
            served: 0,
            misses: 0,
        }
    }

    fn record(&mut self, now: SimTime, miss: bool) {
        self.served += 1;
        if miss {
            self.misses += 1;
        }
        self.window.push_back(miss);
        if self.window.len() > self.config.window {
            self.window.pop_front();
        }
        if self.window.len() < self.config.window {
            return;
        }
        let missed = self.window.iter().filter(|&&m| m).count() as f64;
        let rate = missed / self.window.len() as f64;
        if rate >= self.config.downgrade_miss_rate && self.tier + 1 < self.tiers {
            self.change_tier(now, self.tier + 1);
            self.downgrades += 1;
        } else if rate <= self.config.upgrade_miss_rate
            && self.tier > 0
            && now >= self.last_change + self.config.hold
        {
            self.change_tier(now, self.tier - 1);
            self.upgrades += 1;
        }
    }

    fn change_tier(&mut self, now: SimTime, new_tier: usize) {
        self.time_in_tier[self.tier] += now - self.last_change;
        self.last_change = now;
        self.tier = new_tier;
        // A fresh window must fill before the next transition, which is
        // what prevents a single burst from cascading through every tier.
        self.window.clear();
    }

    fn summary(&self, now: SimTime) -> LadderSummary {
        let mut time_in_tier = self.time_in_tier.clone();
        time_in_tier[self.tier] += now - self.last_change;
        LadderSummary {
            downgrades: self.downgrades,
            upgrades: self.upgrades,
            time_in_tier_s: time_in_tier.iter().map(|t| t.as_secs_f64()).collect(),
            served: self.served,
            misses: self.misses,
            final_tier: self.tier,
        }
    }
}

/// Configuration for one co-located model.
#[derive(Clone, Debug)]
pub struct HostedModel {
    /// Which model.
    pub model: ModelId,
    /// Its serving batch.
    pub max_batch: u32,
    /// Batcher queue delay.
    pub max_queue_delay: SimTime,
}

/// A multi-model backend on one device.
pub struct MultiModelServer {
    platform: PlatformId,
    dataset: DatasetId,
    sim: Sim,
    preproc_server: Server,
    /// One shared compute engine: co-located models contend here.
    gpu: Server,
    lanes: Vec<ModelLane>,
    submitted: u64,
    ladder: Option<Rc<RefCell<LadderState>>>,
}

struct ModelLane {
    engine: Rc<Engine>,
    batcher: Rc<RefCell<DynamicBatcher>>,
    latencies: Rc<RefCell<Reservoir>>,
    completed: Rc<RefCell<u64>>,
}

impl MultiModelServer {
    /// Build a server hosting `models` on `platform`, fed by `dataset`.
    pub fn new(
        platform: PlatformId,
        dataset: DatasetId,
        models: &[HostedModel],
    ) -> Result<Self, EngineError> {
        assert!(!models.is_empty());
        let mut lanes = Vec::with_capacity(models.len());
        let mut total_bytes = 0u64;
        for hosted in models {
            let engine = Engine::build(
                hosted.model,
                platform,
                MemoryContext::EndToEnd,
                hosted.max_batch,
            )?;
            total_bytes += engine.memory_bytes();
            lanes.push(ModelLane {
                engine: Rc::new(engine),
                batcher: Rc::new(RefCell::new(
                    DynamicBatcher::new(BatcherConfig::new(
                        hosted.max_batch,
                        hosted.max_queue_delay,
                    ))
                    .map_err(|e| EngineError::InvalidConfig(e.to_string()))?,
                )),
                latencies: Rc::new(RefCell::new(Reservoir::new())),
                completed: Rc::new(RefCell::new(0)),
            });
        }
        // Co-located engines share one device: their *combined* footprint
        // must fit the budget, not just each alone.
        let budget = harvest_perf::EngineMemoryModel::new(
            platform,
            models[0].model,
            MemoryContext::EndToEnd,
        )
        .budget_bytes();
        if total_bytes > budget {
            return Err(EngineError::OutOfMemory {
                batch: models.iter().map(|m| m.max_batch).sum(),
                required: total_bytes,
                budget,
            });
        }
        Ok(MultiModelServer {
            platform,
            dataset,
            sim: Sim::new(),
            preproc_server: Server::new("preproc", 2),
            gpu: Server::new("gpu", 1),
            lanes,
            submitted: 0,
            ladder: None,
        })
    }

    /// Enable the graceful-degradation ladder over this server's lanes
    /// (ordered best-first). Adaptive submissions then route to the current
    /// tier, and every ladder completion updates the miss-rate window.
    pub fn enable_ladder(&mut self, config: LadderConfig) -> Result<(), EngineError> {
        // Ladder tiers answer the *same* request, so every tier must share
        // one classifier head — catching a 39-vs-1000-class mismatch here,
        // at ladder construction, instead of at the first degraded forward.
        let head = self.lanes[0].engine.model();
        for lane in &self.lanes[1..] {
            let tier = lane.engine.model();
            if tier.classes() != head.classes() {
                return Err(EngineError::InvalidConfig(format!(
                    "ladder tiers must share one class head: {} has {} classes but {} has {}",
                    head.name(),
                    head.classes(),
                    tier.name(),
                    tier.classes()
                )));
            }
        }
        if config.window == 0 {
            return Err(EngineError::InvalidConfig(
                "ladder window must be at least 1".into(),
            ));
        }
        if config.upgrade_miss_rate > config.downgrade_miss_rate {
            return Err(EngineError::InvalidConfig(format!(
                "upgrade_miss_rate {} above downgrade_miss_rate {} would oscillate",
                config.upgrade_miss_rate, config.downgrade_miss_rate
            )));
        }
        self.ladder = Some(Rc::new(RefCell::new(LadderState::new(
            config,
            self.lanes.len(),
        ))));
        Ok(())
    }

    /// Submit a request at `at` that is served by whatever tier the ladder
    /// has selected *at arrival time* — the tier decision happens inside
    /// the scheduled event, so it sees every completion before `at`.
    pub fn submit_adaptive(&mut self, at: SimTime) {
        let ladder = self
            .ladder
            .clone()
            .expect("enable_ladder before submit_adaptive");
        let id = self.submitted;
        self.submitted += 1;
        let per_tier_preproc: Vec<SimTime> = self
            .lanes
            .iter()
            .map(|l| SimTime::from_secs_f64(self.preproc_s(l.engine.model())))
            .collect();
        let all_hooks: Vec<LaneHooks> = (0..self.lanes.len()).map(|l| self.lane_hooks(l)).collect();
        let preproc_server = self.preproc_server.clone();
        self.sim.schedule_at(at, move |sim| {
            let tier = ladder.borrow().tier;
            let service = per_tier_preproc[tier];
            let hooks = all_hooks[tier].clone();
            preproc_server.submit(sim, service, move |sim, _stats| {
                hooks.enqueue(sim, id, at);
            });
        });
    }

    /// Ladder counters (`None` until [`MultiModelServer::enable_ladder`]),
    /// with time-in-tier finalized at the current sim time.
    pub fn ladder_summary(&self) -> Option<LadderSummary> {
        self.ladder
            .as_ref()
            .map(|l| l.borrow().summary(self.sim.now()))
    }

    /// Per-image preprocessing time for a model's input resolution.
    fn preproc_s(&self, model: ModelId) -> f64 {
        let method = match model.input_size() {
            32 => PreprocMethod::Dali32,
            _ => PreprocMethod::Dali224,
        };
        PreprocCostModel::new(self.platform).per_image_s(method, self.dataset)
    }

    /// Submit a request at `at` that fans out to the given lane indices
    /// after ONE shared preprocessing pass.
    pub fn submit_fanout(&mut self, at: SimTime, lane_indices: &[usize]) {
        assert!(!lane_indices.is_empty());
        let id = self.submitted;
        self.submitted += 1;
        // Shared preprocessing: one pass at the *largest* required output.
        let preproc_s = lane_indices
            .iter()
            .map(|&l| self.preproc_s(self.lanes[l].engine.model()))
            .fold(0.0f64, f64::max);
        let service = SimTime::from_secs_f64(preproc_s);
        let preproc_server = self.preproc_server.clone();
        let targets: Vec<LaneHooks> = lane_indices.iter().map(|&l| self.lane_hooks(l)).collect();
        self.sim.schedule_at(at, move |sim| {
            let targets = targets.clone();
            preproc_server.submit(sim, service, move |sim, _stats| {
                for hooks in &targets {
                    hooks.enqueue(sim, id, at);
                }
            });
        });
    }

    /// Submit a single-model request.
    pub fn submit(&mut self, at: SimTime, lane: usize) {
        self.submit_fanout(at, &[lane]);
    }

    fn lane_hooks(&self, lane: usize) -> LaneHooks {
        let l = &self.lanes[lane];
        LaneHooks {
            engine: l.engine.clone(),
            batcher: l.batcher.clone(),
            latencies: l.latencies.clone(),
            completed: l.completed.clone(),
            gpu: self.gpu.clone(),
            ladder: self
                .ladder
                .as_ref()
                .map(|state| (state.clone(), state.borrow().config.deadline)),
        }
    }

    /// Drain everything; flush residual partial batches.
    pub fn run_to_completion(&mut self) {
        self.sim.run();
        for lane in 0..self.lanes.len() {
            let hooks = self.lane_hooks(lane);
            let residual = hooks.batcher.borrow_mut().flush();
            for batch in residual {
                hooks.dispatch(&mut self.sim, batch);
            }
        }
        self.sim.run();
    }

    /// Completed requests on a lane.
    pub fn completed(&self, lane: usize) -> u64 {
        *self.lanes[lane].completed.borrow()
    }

    /// Preprocessing passes actually executed (reuse diagnostic).
    pub fn preproc_passes(&self) -> u64 {
        self.preproc_server.completed()
    }
}

#[derive(Clone)]
struct LaneHooks {
    engine: Rc<Engine>,
    batcher: Rc<RefCell<DynamicBatcher>>,
    latencies: Rc<RefCell<Reservoir>>,
    completed: Rc<RefCell<u64>>,
    gpu: Server,
    ladder: Option<(Rc<RefCell<LadderState>>, SimTime)>,
}

impl LaneHooks {
    fn enqueue(&self, sim: &mut Sim, id: u64, arrival: SimTime) {
        let now = sim.now();
        let maybe = self
            .batcher
            .borrow_mut()
            .offer(id, now, arrival, None)
            .batch;
        if let Some(batch) = maybe {
            self.dispatch(sim, batch);
        } else if let Some(deadline) = self.batcher.borrow().next_deadline() {
            let hooks = self.clone();
            sim.schedule_at(deadline.max(sim.now()), move |sim| {
                let maybe = hooks.batcher.borrow_mut().poll(sim.now()).batch;
                if let Some(batch) = maybe {
                    hooks.dispatch(sim, batch);
                }
            });
        }
    }

    fn dispatch(&self, sim: &mut Sim, batch: Vec<QueuedRequest>) {
        if batch.is_empty() {
            return;
        }
        let latency = self
            .engine
            .batch_latency_s(batch.len() as u32)
            .expect("batcher respects max batch");
        let latencies = self.latencies.clone();
        let completed = self.completed.clone();
        let ladder = self.ladder.clone();
        self.gpu
            .submit(sim, SimTime::from_secs_f64(latency), move |sim, _stats| {
                let now = sim.now();
                let mut lat = latencies.borrow_mut();
                for req in &batch {
                    let e2e = now - req.arrival();
                    lat.push(e2e.as_millis_f64());
                    if let Some((state, deadline)) = &ladder {
                        state.borrow_mut().record(now, e2e > *deadline);
                    }
                }
                *completed.borrow_mut() += batch.len() as u64;
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MultiModelServer {
        /// Latency percentile (ms) on a lane.
        fn latency_percentile(&self, lane: usize, p: f64) -> f64 {
            self.lanes[lane].latencies.borrow_mut().percentile(p)
        }

        /// Makespan so far, seconds.
        fn now_s(&self) -> f64 {
            self.sim.now().as_secs_f64()
        }
    }

    fn hosted(model: ModelId, batch: u32) -> HostedModel {
        HostedModel {
            model,
            max_batch: batch,
            max_queue_delay: SimTime::from_millis(2),
        }
    }

    fn server(models: &[HostedModel]) -> MultiModelServer {
        MultiModelServer::new(PlatformId::MriA100, DatasetId::CornGrowthStage, models)
            .expect("fits")
    }

    #[test]
    fn single_lane_completes_everything() {
        let mut s = server(&[hosted(ModelId::ResNet50, 16)]);
        for i in 0..200u64 {
            s.submit(SimTime::from_micros(i * 200), 0);
        }
        s.run_to_completion();
        assert_eq!(s.completed(0), 200);
    }

    #[test]
    fn fanout_invokes_every_model_with_one_preproc_pass() {
        let mut s = server(&[hosted(ModelId::ResNet50, 8), hosted(ModelId::VitBase, 8)]);
        for i in 0..64u64 {
            s.submit_fanout(SimTime::from_micros(i * 500), &[0, 1]);
        }
        s.run_to_completion();
        assert_eq!(s.completed(0), 64);
        assert_eq!(s.completed(1), 64);
        // The reuse claim: 64 preprocessing passes, not 128.
        assert_eq!(s.preproc_passes(), 64);
    }

    #[test]
    fn colocation_inflates_tail_latency() {
        // ViT-Tiny alone vs ViT-Tiny sharing the GPU with a busy ViT-Base.
        let drive = |with_base: bool| -> f64 {
            let mut models = vec![hosted(ModelId::VitTiny, 8)];
            if with_base {
                models.push(hosted(ModelId::VitBase, 32));
            }
            let mut s = server(&models);
            for i in 0..300u64 {
                s.submit(SimTime::from_micros(i * 400), 0);
                if with_base {
                    s.submit(SimTime::from_micros(i * 400), 1);
                }
            }
            s.run_to_completion();
            assert_eq!(s.completed(0), 300);
            s.latency_percentile(0, 99.0)
        };
        let isolated = drive(false);
        let colocated = drive(true);
        assert!(
            colocated > 1.5 * isolated,
            "co-location should inflate p99: isolated {isolated} vs colocated {colocated}"
        );
    }

    #[test]
    fn shared_preproc_beats_duplicate_preproc() {
        // Fan-out (shared pass) vs two independent submissions of the same
        // frame: fewer preprocessing passes, earlier completion.
        let mut shared = server(&[hosted(ModelId::ResNet50, 4), hosted(ModelId::VitBase, 4)]);
        for i in 0..64u64 {
            shared.submit_fanout(SimTime::from_micros(i * 800), &[0, 1]);
        }
        shared.run_to_completion();
        let mut duplicated = server(&[hosted(ModelId::ResNet50, 4), hosted(ModelId::VitBase, 4)]);
        for i in 0..64u64 {
            duplicated.submit(SimTime::from_micros(i * 800), 0);
            duplicated.submit(SimTime::from_micros(i * 800), 1);
        }
        duplicated.run_to_completion();
        assert_eq!(shared.preproc_passes() * 2, duplicated.preproc_passes());
        assert!(shared.now_s() <= duplicated.now_s() + 1e-9);
    }

    #[test]
    fn oversized_model_set_fails_loudly() {
        // Two ViT-Base engines at batch 64 exceed the Jetson's e2e budget.
        let result = MultiModelServer::new(
            PlatformId::JetsonOrinNano,
            DatasetId::CornGrowthStage,
            &[hosted(ModelId::VitBase, 8), hosted(ModelId::VitBase, 8)],
        );
        assert!(result.is_err());
    }

    fn ladder_tiers() -> Vec<HostedModel> {
        vec![
            hosted(ModelId::VitBase, 8),
            hosted(ModelId::VitSmall, 16),
            hosted(ModelId::VitTiny, 32),
        ]
    }

    fn ladder_config(deadline_us: u64) -> LadderConfig {
        LadderConfig {
            deadline: SimTime::from_micros(deadline_us),
            window: 16,
            downgrade_miss_rate: 0.25,
            upgrade_miss_rate: 0.05,
            hold: SimTime::from_millis(50),
        }
    }

    #[test]
    fn mismatched_ladder_heads_are_rejected_at_construction() {
        // ResNet50's 1000-class head cannot stand in for a 39-class ViT, and
        // the ladder must say so up front, not at the first degraded forward.
        let mut s = server(&[hosted(ModelId::VitBase, 8), hosted(ModelId::ResNet50, 16)]);
        let err = s.enable_ladder(ladder_config(16_700)).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("class head"), "unexpected error: {msg}");
        assert!(
            msg.contains("39") && msg.contains("1000"),
            "unexpected error: {msg}"
        );
        // The same pair is still a legal *fan-out* host — only laddering
        // requires head compatibility.
        let mut fanout = server(&[hosted(ModelId::VitBase, 8), hosted(ModelId::ResNet50, 16)]);
        for i in 0..16u64 {
            fanout.submit_fanout(SimTime::from_micros(i * 800), &[0, 1]);
        }
        fanout.run_to_completion();
        assert_eq!(fanout.completed(0), 16);
        assert_eq!(fanout.completed(1), 16);
    }

    #[test]
    fn invalid_ladder_configs_are_rejected() {
        let mut s = server(&ladder_tiers());
        let mut zero_window = ladder_config(16_700);
        zero_window.window = 0;
        assert!(s.enable_ladder(zero_window).is_err());
        let mut oscillating = ladder_config(16_700);
        oscillating.upgrade_miss_rate = 0.5;
        oscillating.downgrade_miss_rate = 0.2;
        assert!(s.enable_ladder(oscillating).is_err());
        assert!(s.enable_ladder(ladder_config(16_700)).is_ok());
    }

    #[test]
    fn light_load_stays_on_the_best_tier() {
        let mut s = server(&ladder_tiers());
        s.enable_ladder(ladder_config(16_700)).expect("valid");
        // 200 req/s is far below ViT-Base capacity: no misses, no moves.
        for i in 0..300u64 {
            s.submit_adaptive(SimTime::from_millis(i * 5));
        }
        s.run_to_completion();
        let summary = s.ladder_summary().expect("ladder enabled");
        assert_eq!(summary.served, 300);
        assert_eq!(summary.downgrades, 0);
        assert_eq!(summary.upgrades, 0);
        assert_eq!(summary.final_tier, 0);
    }

    #[test]
    fn sustained_overload_degrades_but_serves_everything() {
        let mut s = server(&ladder_tiers());
        s.enable_ladder(ladder_config(16_700)).expect("valid");
        // 4000 req/s is ~3x ViT-Base capacity: the ladder must move down,
        // and every request is still served — degradation, not shedding.
        for i in 0..1000u64 {
            s.submit_adaptive(SimTime::from_micros(i * 250));
        }
        s.run_to_completion();
        let summary = s.ladder_summary().expect("ladder enabled");
        assert_eq!(summary.served, 1000);
        assert!(summary.downgrades >= 1, "overload must force a downgrade");
        assert!(summary.final_tier > 0);
        let total: f64 = summary.time_in_tier_s.iter().sum();
        assert!(
            summary.time_in_tier_s[0] < 0.5 * total,
            "most of the run should be served from a cheaper tier: {:?}",
            summary.time_in_tier_s
        );
    }

    #[test]
    fn ladder_time_accounting_covers_the_whole_run() {
        let mut s = server(&ladder_tiers());
        s.enable_ladder(ladder_config(16_700)).expect("valid");
        for i in 0..500u64 {
            s.submit_adaptive(SimTime::from_micros(i * 300));
        }
        s.run_to_completion();
        let summary = s.ladder_summary().expect("ladder enabled");
        let total: f64 = summary.time_in_tier_s.iter().sum();
        assert!(
            (total - s.now_s()).abs() < 1e-9,
            "time in tiers {total} must sum to the makespan {}",
            s.now_s()
        );
    }
}
