//! Cluster scale-out: multiple pipeline nodes behind a frontend dispatcher.
//!
//! §3 of the paper notes the backend "is also prepared for future scale-out
//! through different parallelism strategies", and §3.3 that "at larger
//! scales, distributed deployment introduces added complexity". This module
//! quantifies the simplest strategy — data parallelism over identical
//! nodes — including the dispatch policy's effect on scaling efficiency.
//!
//! [`run_cluster_offline`] is the one entry point: failover under a fault
//! plan and per-node circuit breakers are its `faults` and `breaker`
//! arguments.

use crate::breaker::{BreakerBank, BreakerConfig, BreakerState};
use crate::resilience::{FailoverFn, FaultInjection, ResilienceSummary};
use crate::server::{DispatchHooks, PipelineConfig, PipelineCore};
use harvest_engine::EngineError;
use harvest_simkit::{Sim, SimTime};
use std::rc::Rc;

/// Frontend dispatch policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dispatch {
    /// Requests rotate across nodes regardless of their state.
    RoundRobin,
    /// Each request goes to the node with the fewest images in flight.
    LeastLoaded,
}

/// Cluster configuration: `nodes` identical pipelines.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Per-node pipeline wiring.
    pub pipeline: PipelineConfig,
    /// Number of identical nodes.
    pub nodes: u32,
    /// Frontend dispatch policy.
    pub dispatch: Dispatch,
    /// Serialized per-request frontend cost (request parsing, routing,
    /// network send). This is what eventually caps scale-out: past the
    /// point where `nodes × node_rate` exceeds `1/overhead`, the frontend
    /// is the bottleneck — §3.3's "added complexity" made quantitative.
    pub dispatch_overhead: SimTime,
}

impl ClusterConfig {
    /// Default frontend cost: 20 µs per request (HTTP parse + route).
    pub fn standard(pipeline: PipelineConfig, nodes: u32) -> Self {
        ClusterConfig {
            pipeline,
            nodes,
            dispatch: Dispatch::RoundRobin,
            dispatch_overhead: SimTime::from_micros(20),
        }
    }
}

/// Cluster offline-run results.
#[derive(Clone, Debug, serde::Serialize)]
pub struct ClusterReport {
    /// Nodes in the cluster.
    pub nodes: u32,
    /// Images processed.
    pub images: u64,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Aggregate throughput, img/s.
    pub throughput: f64,
    /// Per-node completion counts (balance diagnostic).
    pub per_node_completed: Vec<u64>,
    /// Resilience metrics (all-zero counters on a healthy run).
    pub resilience: ResilienceSummary,
}

impl ClusterReport {
    /// Ratio of the busiest node's completions to the idlest node's.
    /// Clusters with fewer than two nodes cannot be imbalanced and report
    /// 0.0; a multi-node cluster with a completely starved node reports
    /// infinity.
    pub fn imbalance(&self) -> f64 {
        if self.per_node_completed.len() < 2 {
            return 0.0;
        }
        let max = *self.per_node_completed.iter().max().unwrap_or(&0) as f64;
        let min = *self.per_node_completed.iter().min().unwrap_or(&0) as f64;
        if max == 0.0 {
            0.0
        } else if min == 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Run the offline scenario over a cluster: `images` arrive at t = 0 and
/// the frontend dispatches them across nodes.
///
/// Under `faults` the cluster fails over: a batch in flight when its node's
/// engine crashes is detected by timeout and re-dispatched to a live sibling
/// chosen by the configured [`Dispatch`] policy (ring order for round-robin,
/// smallest engine backlog for least-loaded). When every engine is down the
/// batch waits for its origin node to recover. No image is lost or
/// duplicated; the report's `resilience` block carries the proof counters.
///
/// With `breaker`, every node gets a circuit breaker: crash aborts feed its
/// failure EWMA, a tripped node is routed around by both the frontend
/// dispatcher and the failover router, and half-open probes re-admit it
/// after the cooldown. A breaker merely *stops new traffic early*, before
/// the retry/timeout machinery would have paid for each doomed dispatch. A
/// protection layer always brings a fault context, so `breaker` without
/// `faults` runs under an empty plan.
pub fn run_cluster_offline(
    config: &ClusterConfig,
    images: u32,
    faults: Option<&FaultInjection>,
    breaker: Option<&BreakerConfig>,
) -> Result<ClusterReport, EngineError> {
    assert!(config.nodes > 0);
    let mut sim = Sim::new();
    let mut cores: Vec<PipelineCore> = (0..config.nodes)
        .map(|_| PipelineCore::new(&config.pipeline))
        .collect::<Result<_, _>>()?;
    let bank: Option<Rc<BreakerBank>> = match breaker {
        Some(bc) => {
            bc.validate().map_err(EngineError::InvalidConfig)?;
            Some(Rc::new(BreakerBank::new(config.nodes, *bc)))
        }
        None => None,
    };

    // Fault wiring: every node shares the plan, the stats, and one failover
    // cell; the router is installed into the cell after the per-node hooks
    // exist (the contexts hold the cell, so they observe the late install).
    let no_faults = FaultInjection::default();
    let fault = faults.or(breaker.map(|_| &no_faults)).map(|f| {
        let ctx0 = f.context();
        for (node, core) in cores.iter_mut().enumerate() {
            let mut ctx = ctx0.clone();
            ctx.node = node as u32;
            if let Some(bank) = &bank {
                ctx.set_breakers(bank.clone());
            }
            core.set_fault_context(ctx);
        }
        let hooks: Vec<DispatchHooks> = cores.iter().map(|c| c.hooks()).collect();
        let backlogs: Vec<_> = cores.iter().map(|c| c.engine_backlog()).collect();
        let dispatch = config.dispatch;
        let router_plan = ctx0.plan.clone();
        let router_stats = ctx0.stats.clone();
        let router_bank = bank.clone();
        let router: FailoverFn = Rc::new(move |sim, batch, from, attempt| {
            let now = sim.now();
            let live: Vec<u32> = (0..hooks.len() as u32)
                .filter(|&k| !router_plan.engine_down(k, now))
                .filter(|&k| {
                    router_bank
                        .as_ref()
                        .is_none_or(|b| b.state(k, now) != BreakerState::Open)
                })
                .collect();
            let target = match dispatch {
                Dispatch::RoundRobin => live
                    .iter()
                    .find(|&&k| k > from)
                    .or_else(|| live.first())
                    .copied(),
                Dispatch::LeastLoaded => live
                    .iter()
                    .min_by_key(|&&k| backlogs[k as usize].get())
                    .copied(),
            };
            match target {
                Some(t) => {
                    if t != from {
                        router_stats.borrow_mut().failovers += batch.len() as u64;
                    }
                    hooks[t as usize].dispatch_attempt(sim, batch, attempt);
                }
                None => {
                    // Every engine is down: wait out the origin's outage.
                    let resume = router_plan.engine_up_after(from, now);
                    let origin = hooks[from as usize].clone();
                    sim.schedule_at(resume.max(now), move |sim| {
                        origin.dispatch_attempt(sim, batch, attempt);
                    });
                }
            }
        });
        *ctx0.failover.borrow_mut() = Some(router);
        ctx0
    });

    if let (Some(bank), Some(ctx)) = (&bank, &fault) {
        // Breaker-protected dispatch: the node choice happens *inside* the
        // scheduled event, so it observes every breaker transition caused
        // by completions and aborts before the request's dispatch time.
        let hooks: Vec<DispatchHooks> = cores.iter().map(|c| c.hooks()).collect();
        let backlogs: Vec<_> = cores.iter().map(|c| c.engine_backlog()).collect();
        for i in 0..images {
            let origin = i % config.nodes;
            let at = config.dispatch_overhead * (u64::from(i) + 1);
            let bank = bank.clone();
            let stats = ctx.stats.clone();
            let hooks = hooks.clone();
            let backlogs = backlogs.clone();
            let dispatch = config.dispatch;
            sim.schedule_at(at, move |sim| {
                let now = sim.now();
                let n = hooks.len() as u32;
                // Ring order starting at the round-robin origin keeps the
                // healthy-cluster behavior identical to plain round-robin.
                // Unlike the failover router, the protected frontend does
                // NOT consult the fault plan: it has no oracle for engine
                // health and must learn about a dead node the hard way —
                // from the crash-aborts feeding that node's breaker.
                let mut avail: Vec<u32> = (0..n)
                    .map(|k| (origin + k) % n)
                    .filter(|&k| bank.state(k, now) != BreakerState::Open)
                    .collect();
                if dispatch == Dispatch::LeastLoaded {
                    // Stable sort: ring order breaks backlog ties.
                    avail.sort_by_key(|&k| backlogs[k as usize].get());
                }
                let target = avail
                    .iter()
                    .copied()
                    .find(|&k| bank.allow(k, now))
                    .unwrap_or(origin);
                if target != origin && bank.state(origin, now) == BreakerState::Open {
                    stats.borrow_mut().breaker_reroutes += 1;
                }
                hooks[target as usize].admit_now(sim, u64::from(i), now);
            });
        }
    } else {
        for i in 0..images {
            let node = match config.dispatch {
                Dispatch::RoundRobin => (i as usize) % cores.len(),
                Dispatch::LeastLoaded => {
                    // At t=0 everything is queued; "in flight" is submitted
                    // minus completed, which equals submitted here — this
                    // degrades to round-robin for a burst, and differs under
                    // staggered arrivals (see run_cluster_online-style uses).
                    (0..cores.len())
                        .min_by_key(|&n| cores[n].in_flight())
                        .expect("non-empty cluster")
                }
            };
            // The frontend serializes dispatch: the i-th request reaches its
            // node only after i dispatch slots have elapsed.
            let at = config.dispatch_overhead * (i as u64 + 1);
            // Global request ids keep the shared conservation set and the
            // per-request fault coins collision-free across nodes.
            cores[node].submit_as(&mut sim, at, u64::from(i));
        }
    }
    sim.run();
    for core in &mut cores {
        core.flush(&mut sim);
    }
    sim.run();
    if let (Some(bank), Some(ctx)) = (&bank, &fault) {
        let mut s = ctx.stats.borrow_mut();
        s.breaker_trips = bank.total_trips();
        s.breaker_closes = bank.total_closes();
    }

    let per_node_completed: Vec<u64> = cores
        .iter()
        .map(|c| c.metrics().borrow().completed)
        .collect();
    let images_done: u64 = per_node_completed.iter().sum();
    let makespan = cores
        .iter()
        .map(|c| c.metrics().borrow().last_completion.as_secs_f64())
        .fold(0.0f64, f64::max)
        .max(1e-9);
    if let Some(ctx) = &fault {
        // Break the router ↔ hooks ↔ context Rc cycle before returning.
        *ctx.failover.borrow_mut() = None;
    }
    let resilience = ResilienceSummary::of(
        fault.as_ref(),
        u64::from(images),
        config.nodes,
        SimTime::from_secs_f64(makespan),
    );
    Ok(ClusterReport {
        nodes: config.nodes,
        images: images_done,
        makespan_s: makespan,
        throughput: images_done as f64 / makespan,
        per_node_completed,
        resilience,
    })
}

/// Scaling sweep: throughput at 1, 2, 4, … nodes and the parallel
/// efficiency relative to linear scaling.
pub fn scaling_sweep(
    pipeline: &PipelineConfig,
    node_counts: &[u32],
    images_per_node: u32,
) -> Result<Vec<(u32, f64, f64)>, EngineError> {
    let mut out = Vec::new();
    let mut single = None;
    for &nodes in node_counts {
        let report = run_cluster_offline(
            &ClusterConfig::standard(pipeline.clone(), nodes),
            images_per_node * nodes,
            None,
            None,
        )?;
        let base = *single.get_or_insert(report.throughput / nodes as f64 * 1.0);
        let efficiency = report.throughput / (base * nodes as f64);
        out.push((nodes, report.throughput, efficiency));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_data::DatasetId;
    use harvest_hw::PlatformId;
    use harvest_models::ModelId;
    use harvest_perf::MemoryContext;
    use harvest_preproc::PreprocMethod;

    fn pipeline() -> PipelineConfig {
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

    #[test]
    fn cluster_processes_everything_and_balances() {
        let report =
            run_cluster_offline(&ClusterConfig::standard(pipeline(), 4), 1024, None, None).unwrap();
        assert_eq!(report.images, 1024);
        assert_eq!(report.per_node_completed, vec![256; 4]);
        assert!(report.imbalance() < 1.01);
    }

    #[test]
    fn throughput_scales_nearly_linearly_offline() {
        let sweep = scaling_sweep(&pipeline(), &[1, 2, 4], 512).unwrap();
        assert_eq!(sweep.len(), 3);
        let (_, t1, e1) = sweep[0];
        let (_, t4, e4) = sweep[2];
        assert!((e1 - 1.0).abs() < 1e-9);
        assert!(t4 > 3.5 * t1, "4 nodes: {t4} vs 1 node {t1}");
        assert!(e4 > 0.85, "efficiency {e4}");
    }

    #[test]
    fn least_loaded_matches_round_robin_on_uniform_burst() {
        let rr =
            run_cluster_offline(&ClusterConfig::standard(pipeline(), 3), 600, None, None).unwrap();
        let ll = run_cluster_offline(
            &ClusterConfig {
                dispatch: Dispatch::LeastLoaded,
                ..ClusterConfig::standard(pipeline(), 3)
            },
            600,
            None,
            None,
        )
        .unwrap();
        assert_eq!(rr.images, ll.images);
        assert!((rr.throughput - ll.throughput).abs() < 0.05 * rr.throughput);
    }

    #[test]
    fn one_node_cluster_with_free_dispatch_equals_single_pipeline() {
        use crate::scenario::{run_offline, OfflineConfig};
        let cluster = run_cluster_offline(
            &ClusterConfig {
                dispatch_overhead: SimTime::ZERO,
                ..ClusterConfig::standard(pipeline(), 1)
            },
            512,
            None,
            None,
        )
        .unwrap();
        let single = run_offline(&OfflineConfig {
            pipeline: pipeline(),
            images: 512,
        })
        .unwrap();
        assert!((cluster.throughput - single.throughput).abs() < 1e-6 * single.throughput);
    }

    #[test]
    fn faulted_cluster_fails_over_and_conserves_work() {
        use crate::resilience::FaultInjection;
        use harvest_simkit::FaultPlan;
        let config = ClusterConfig::standard(pipeline(), 3);
        // Node 1's engine dies almost immediately and stays dead for most
        // of the run; its work must fail over to nodes 0 and 2.
        let faults = FaultInjection {
            plan: FaultPlan::new(11).with_engine_crash(
                1,
                SimTime::from_millis(5),
                SimTime::from_secs(30),
            ),
            policy: Default::default(),
        };
        let report = run_cluster_offline(&config, 600, Some(&faults), None).unwrap();
        assert_eq!(report.images, 600, "every image completes exactly once");
        assert_eq!(report.resilience.lost, 0);
        assert_eq!(report.resilience.duplicated, 0);
        assert!(
            report.resilience.failovers > 0,
            "dead node's batches must move"
        );
        assert!(report.resilience.timeouts > 0);
        assert!(report.per_node_completed[0] > report.per_node_completed[1]);
        assert!(report.resilience.availability < 1.0);
    }

    #[test]
    fn faulted_cluster_least_loaded_failover_also_conserves() {
        use crate::resilience::FaultInjection;
        use harvest_simkit::FaultPlan;
        let config = ClusterConfig {
            dispatch: Dispatch::LeastLoaded,
            ..ClusterConfig::standard(pipeline(), 3)
        };
        let faults = FaultInjection {
            plan: FaultPlan::new(13).with_engine_crash(
                0,
                SimTime::from_millis(5),
                SimTime::from_secs(30),
            ),
            policy: Default::default(),
        };
        let report = run_cluster_offline(&config, 600, Some(&faults), None).unwrap();
        assert_eq!(report.images, 600);
        assert_eq!(report.resilience.lost, 0);
        assert_eq!(report.resilience.duplicated, 0);
        assert!(report.resilience.failovers > 0);
    }

    #[test]
    fn faulted_cluster_with_empty_plan_matches_healthy_run() {
        use crate::resilience::FaultInjection;
        let config = ClusterConfig::standard(pipeline(), 2);
        let healthy = run_cluster_offline(&config, 400, None, None).unwrap();
        let faulted =
            run_cluster_offline(&config, 400, Some(&FaultInjection::default()), None).unwrap();
        assert_eq!(healthy.images, faulted.images);
        assert!((healthy.makespan_s - faulted.makespan_s).abs() < 1e-12);
        assert_eq!(faulted.resilience.retries, 0);
    }

    #[test]
    fn frontend_overhead_caps_scale_out() {
        // With a deliberately slow frontend (1 ms/request = 1k req/s cap),
        // many ResNet50 nodes (~2.5k img/s each) cannot scale at all.
        let slow_frontend = |nodes| ClusterConfig {
            dispatch_overhead: SimTime::from_millis(1),
            ..ClusterConfig::standard(pipeline(), nodes)
        };
        let one = run_cluster_offline(&slow_frontend(1), 512, None, None).unwrap();
        let four = run_cluster_offline(&slow_frontend(4), 2048, None, None).unwrap();
        // Both pinned near the 1k req/s frontend limit.
        assert!(one.throughput < 1_100.0, "{}", one.throughput);
        assert!(four.throughput < 1_100.0, "{}", four.throughput);
        assert!(
            four.throughput < 1.5 * one.throughput,
            "scale-out should be frontend-capped: {} vs {}",
            four.throughput,
            one.throughput
        );
    }

    fn report_with_nodes(per_node_completed: Vec<u64>) -> ClusterReport {
        ClusterReport {
            nodes: per_node_completed.len() as u32,
            images: per_node_completed.iter().sum(),
            makespan_s: 1.0,
            throughput: 0.0,
            per_node_completed,
            resilience: ResilienceSummary::healthy(),
        }
    }

    #[test]
    fn imbalance_is_zero_for_degenerate_clusters() {
        // Zero- and one-node clusters cannot be imbalanced: no NaN (0/0)
        // and no panic, just 0.0.
        assert_eq!(report_with_nodes(vec![]).imbalance(), 0.0);
        assert_eq!(report_with_nodes(vec![0]).imbalance(), 0.0);
        assert_eq!(report_with_nodes(vec![512]).imbalance(), 0.0);
        // A multi-node cluster that did no work at all is balanced too.
        assert_eq!(report_with_nodes(vec![0, 0, 0]).imbalance(), 0.0);
    }

    #[test]
    fn imbalance_handles_starved_and_busy_nodes() {
        assert_eq!(report_with_nodes(vec![100, 100]).imbalance(), 1.0);
        assert_eq!(report_with_nodes(vec![300, 100]).imbalance(), 3.0);
        assert!(report_with_nodes(vec![100, 0]).imbalance().is_infinite());
    }

    #[test]
    fn protected_cluster_trips_recovers_and_conserves() {
        use crate::resilience::FaultInjection;
        use harvest_simkit::FaultPlan;
        // Stretch the dispatch phase (1 ms/request ⇒ 900 ms for 900
        // images) across the whole crash-and-recovery arc so dispatches
        // keep consulting the breaker after the node comes back.
        let config = ClusterConfig {
            dispatch_overhead: SimTime::from_millis(1),
            ..ClusterConfig::standard(pipeline(), 3)
        };
        // Node 1 dies early and comes back mid-run: the breaker must trip
        // while it is down and close again after recovery probes succeed.
        let faults = FaultInjection {
            plan: FaultPlan::new(11).with_engine_crash(
                1,
                SimTime::from_millis(50),
                SimTime::from_millis(400),
            ),
            policy: Default::default(),
        };
        let breaker = BreakerConfig {
            min_samples: 2,
            ewma_alpha: 0.5,
            cooldown: SimTime::from_millis(50),
            ..BreakerConfig::default()
        };
        let report = run_cluster_offline(&config, 900, Some(&faults), Some(&breaker)).unwrap();
        assert_eq!(report.images, 900, "every image completes exactly once");
        assert_eq!(report.resilience.lost, 0);
        assert_eq!(report.resilience.duplicated, 0);
        assert!(report.resilience.breaker_trips >= 1, "dead node must trip");
        assert!(
            report.resilience.breaker_closes >= 1,
            "recovered node must close again"
        );
        assert!(
            report.resilience.breaker_reroutes > 0,
            "traffic must route around the open breaker"
        );
    }

    #[test]
    fn protected_cluster_with_empty_plan_matches_faulted_run() {
        // Breakers that never trip must not perturb the simulation.
        use crate::resilience::FaultInjection;
        let config = ClusterConfig::standard(pipeline(), 2);
        let empty = FaultInjection::default();
        let plain = run_cluster_offline(&config, 400, Some(&empty), None).unwrap();
        let protected =
            run_cluster_offline(&config, 400, Some(&empty), Some(&BreakerConfig::default()))
                .unwrap();
        assert_eq!(plain.images, protected.images);
        assert!((plain.makespan_s - protected.makespan_s).abs() < 1e-12);
        assert_eq!(protected.resilience.breaker_trips, 0);
        assert_eq!(protected.resilience.breaker_reroutes, 0);
    }

    #[test]
    fn protected_least_loaded_cluster_conserves_too() {
        use crate::resilience::FaultInjection;
        use harvest_simkit::FaultPlan;
        let config = ClusterConfig {
            dispatch: Dispatch::LeastLoaded,
            ..ClusterConfig::standard(pipeline(), 3)
        };
        let faults = FaultInjection {
            plan: FaultPlan::new(7).with_engine_crash(
                0,
                SimTime::from_millis(5),
                SimTime::from_secs(30),
            ),
            policy: Default::default(),
        };
        let report =
            run_cluster_offline(&config, 600, Some(&faults), Some(&BreakerConfig::default()))
                .unwrap();
        assert_eq!(report.images, 600);
        assert_eq!(report.resilience.lost, 0);
        assert_eq!(report.resilience.duplicated, 0);
    }
}
