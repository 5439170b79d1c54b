//! The deployment facade: one type that wires a full HARVEST deployment and
//! runs it under the chosen scenario.

use harvest_data::DatasetId;
use harvest_engine::EngineError;
use harvest_hw::{DeploymentScenario, PlatformId};
use harvest_models::ModelId;
use harvest_perf::MemoryContext;
use harvest_preproc::PreprocMethod;
use harvest_serving::{
    run_offline, run_online, run_realtime, OfflineConfig, OnlineConfig, PipelineConfig,
    RealTimeConfig,
};
use harvest_simkit::SimTime;

/// A complete deployment description, built fluently.
///
/// ```
/// use harvest_core::pipeline::Deployment;
/// use harvest_core::prelude::*;
///
/// let report = Deployment::new(PlatformId::MriA100, ModelId::ResNet50, DatasetId::CornGrowthStage)
///     .scenario(DeploymentScenario::Offline)
///     .images(256)
///     .run()
///     .unwrap();
/// assert!(report.throughput() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Deployment {
    platform: PlatformId,
    model: ModelId,
    dataset: DatasetId,
    scenario: DeploymentScenario,
    batch: Option<u32>,
    arrival_rate: f64,
    requests: u32,
    fps: f64,
    deadline_ms: f64,
    seed: u64,
}

impl Deployment {
    /// Start describing a deployment. Defaults: offline scenario, memory-
    /// derived max batch, 1024 images.
    pub fn new(platform: PlatformId, model: ModelId, dataset: DatasetId) -> Self {
        Deployment {
            platform,
            model,
            dataset,
            scenario: DeploymentScenario::Offline,
            batch: None,
            arrival_rate: 100.0,
            requests: 1024,
            fps: 30.0,
            deadline_ms: 33.3,
            seed: 42,
        }
    }

    /// Select the deployment scenario.
    pub fn scenario(mut self, scenario: DeploymentScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Pin the engine batch size (otherwise the largest feasible ≤ 64).
    pub fn batch(mut self, batch: u32) -> Self {
        self.batch = Some(batch);
        self
    }

    /// Offered request rate for the online scenario, req/s.
    pub fn arrival_rate(mut self, rate: f64) -> Self {
        self.arrival_rate = rate;
        self
    }

    /// Number of requests/images to process.
    pub fn images(mut self, n: u32) -> Self {
        self.requests = n;
        self
    }

    /// Camera rate for the real-time scenario.
    pub fn fps(mut self, fps: f64) -> Self {
        self.fps = fps;
        self
    }

    /// Per-frame deadline for the real-time scenario, ms.
    pub fn deadline_ms(mut self, ms: f64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Seed for stochastic arrival processes.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The preprocessing method matched to the model's input size (the
    /// DALI output resolution must equal what the model eats).
    fn preproc_method(&self) -> PreprocMethod {
        match self.model.input_size() {
            32 => PreprocMethod::Dali32,
            96 => PreprocMethod::Dali96,
            _ => PreprocMethod::Dali224,
        }
    }

    fn pipeline_config(&self) -> Result<PipelineConfig, EngineError> {
        let ctx = MemoryContext::EndToEnd;
        let batch = match self.batch {
            Some(b) => b,
            None => {
                let mem = harvest_perf::EngineMemoryModel::new(self.platform, self.model, ctx);
                let axis: Vec<u32> = [1u32, 2, 4, 8, 16, 32, 64].to_vec();
                harvest_perf::max_batch_under_memory(&mem, &axis).ok_or(
                    EngineError::OutOfMemory {
                        batch: 1,
                        required: mem.engine_bytes(1),
                        budget: mem.budget_bytes(),
                    },
                )?
            }
        };
        Ok(PipelineConfig {
            platform: self.platform,
            model: self.model,
            dataset: self.dataset,
            preproc: self.preproc_method(),
            ctx,
            max_batch: batch,
            max_queue_delay: match self.scenario {
                DeploymentScenario::Offline => SimTime::from_millis(50),
                DeploymentScenario::Online => SimTime::from_millis(5),
                DeploymentScenario::RealTime => SimTime::from_millis(1),
            },
            preproc_instances: crate::experiments::fig8::preproc_instances(self.platform),
            engine_instances: 1,
        })
    }

    /// Run the deployment; returns the scenario-specific report.
    pub fn run(&self) -> Result<DeploymentReport, EngineError> {
        let pipeline = self.pipeline_config()?;
        match self.scenario {
            DeploymentScenario::Online => run_online(
                &OnlineConfig {
                    pipeline,
                    arrival_rate: self.arrival_rate,
                    requests: self.requests,
                    seed: self.seed,
                },
                None,
            )
            .map(DeploymentReport::Online),
            DeploymentScenario::Offline => run_offline(&OfflineConfig {
                pipeline,
                images: self.requests,
            })
            .map(DeploymentReport::Offline),
            DeploymentScenario::RealTime => run_realtime(
                &RealTimeConfig {
                    pipeline,
                    fps: self.fps,
                    frames: self.requests,
                    deadline_ms: self.deadline_ms,
                    max_in_flight: 4,
                },
                None,
            )
            .map(DeploymentReport::RealTime),
        }
    }
}

/// A scenario-specific report with common accessors.
#[derive(Clone, Debug)]
pub enum DeploymentReport {
    /// On-demand inference report.
    Online(harvest_serving::OnlineReport),
    /// Batch-processing report.
    Offline(harvest_serving::OfflineReport),
    /// Closed-loop camera report.
    RealTime(harvest_serving::RealTimeReport),
}

impl DeploymentReport {
    /// Achieved throughput, images/second.
    pub fn throughput(&self) -> f64 {
        match self {
            DeploymentReport::Online(r) => r.throughput,
            DeploymentReport::Offline(r) => r.throughput,
            DeploymentReport::RealTime(r) => r.sustained_fps,
        }
    }

    /// Items processed.
    pub fn completed(&self) -> u64 {
        match self {
            DeploymentReport::Online(r) => r.completed,
            DeploymentReport::Offline(r) => r.images,
            DeploymentReport::RealTime(r) => r.processed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offline_deployment_runs_end_to_end() {
        let report = Deployment::new(
            PlatformId::MriA100,
            ModelId::ResNet50,
            DatasetId::CornGrowthStage,
        )
        .images(512)
        .run()
        .unwrap();
        assert_eq!(report.completed(), 512);
        assert!(report.throughput() > 100.0);
    }

    #[test]
    fn online_deployment_reports_latency() {
        let report = Deployment::new(
            PlatformId::MriA100,
            ModelId::VitTiny,
            DatasetId::PlantVillage,
        )
        .scenario(DeploymentScenario::Online)
        .arrival_rate(500.0)
        .images(500)
        .run()
        .unwrap();
        match report {
            DeploymentReport::Online(r) => {
                assert_eq!(r.completed, 500);
                assert!(r.p99_ms > r.p50_ms);
            }
            other => panic!("wrong report {other:?}"),
        }
    }

    #[test]
    fn realtime_deployment_on_jetson() {
        let report = Deployment::new(
            PlatformId::JetsonOrinNano,
            ModelId::VitTiny,
            DatasetId::CornGrowthStage,
        )
        .scenario(DeploymentScenario::RealTime)
        .fps(30.0)
        .images(120)
        .run()
        .unwrap();
        match report {
            DeploymentReport::RealTime(r) => {
                assert!(r.processed > 90, "processed {}", r.processed);
            }
            other => panic!("wrong report {other:?}"),
        }
    }

    #[test]
    fn default_batch_respects_fig8_walls() {
        // Unpinned batch on the Jetson for ViT-Base must land on 2.
        let d = Deployment::new(
            PlatformId::JetsonOrinNano,
            ModelId::VitBase,
            DatasetId::CornGrowthStage,
        );
        let cfg = d.pipeline_config().unwrap();
        assert_eq!(cfg.max_batch, 2);
    }

    #[test]
    fn pinned_infeasible_batch_errors() {
        let err = Deployment::new(
            PlatformId::JetsonOrinNano,
            ModelId::VitBase,
            DatasetId::CornGrowthStage,
        )
        .batch(64)
        .run()
        .unwrap_err();
        assert!(matches!(err, EngineError::OutOfMemory { .. }));
    }

    #[test]
    fn preproc_method_follows_model_input() {
        let d32 = Deployment::new(
            PlatformId::MriA100,
            ModelId::VitTiny,
            DatasetId::PlantVillage,
        );
        assert_eq!(d32.preproc_method(), PreprocMethod::Dali32);
        let d224 = Deployment::new(
            PlatformId::MriA100,
            ModelId::VitBase,
            DatasetId::PlantVillage,
        );
        assert_eq!(d224.preproc_method(), PreprocMethod::Dali224);
    }
}
