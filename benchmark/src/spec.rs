//! The five workloads: what each runs and why it was chosen.

use harvest_data::DatasetId;
use harvest_models::{resnet50, vit_tiny, Graph, VitConfig};
use harvest_net::WireConfig;

/// The paper's real-time line: 60 QPS, one frame every 16.7 ms.
pub const RT_RATE_HZ: f64 = 60.0;
pub const RT_DEADLINE_MS: f64 = 1000.0 / RT_RATE_HZ;

/// Requests (wire) or batches (offline) served before the first timed one.
pub const WARMUP_REQUESTS: usize = 32;
/// Equal rounds a wire run is cut into; every gated number is the median
/// over rounds of the per-round value.
pub const ROUNDS: usize = 8;
/// Distinct images in a wire corpus: 4 scenes × 8 seeds.
pub const CORPUS_IMAGES: usize = 32;
/// Encoded samples in an offline corpus.
pub const OFFLINE_SAMPLES: u32 = 64;
/// Weight seed of every served model (the wire server's default).
pub const MODEL_SEED: u64 = 7;

#[derive(Clone, Copy)]
pub struct WireSpec {
    pub model: VitConfig,
    pub out_res: usize,
    /// Request bodies are `body_px`×`body_px` AJPG images.
    pub body_px: usize,
    /// `None`: closed loop, one request in flight per connection.
    /// `Some(rate)`: open loop at `rate` requests per second.
    pub open_rate_hz: Option<f64>,
}

#[derive(Clone, Copy)]
pub struct OfflineSpec {
    pub dataset: DatasetId,
    pub out_res: usize,
    pub batch: usize,
    pub model: fn(usize) -> Graph,
    pub kernels: KernelShape,
}

/// The shapes the `tensor.*` kernel probes run at: the served model's own.
#[derive(Clone, Copy)]
pub enum KernelShape {
    /// A ViT with `seq` tokens of width `dim`.
    Vit {
        seq: usize,
        dim: usize,
        heads: usize,
        depth: usize,
        mlp_ratio: usize,
    },
    /// A convolutional model: the probes run at ResNet's 64×56×56 3×3 stage.
    Conv,
}

impl KernelShape {
    pub fn of_vit(cfg: &VitConfig) -> KernelShape {
        KernelShape::Vit {
            seq: (cfg.img / cfg.patch).pow(2) + 1,
            dim: cfg.dim,
            heads: cfg.heads,
            depth: cfg.depth,
            mlp_ratio: cfg.mlp_ratio,
        }
    }
}

#[derive(Clone, Copy)]
pub enum Shape {
    Wire(WireSpec),
    Offline(OfflineSpec),
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

/// A ViT heavy enough (≈ 7 ms per image on one core) that the forward pass
/// dominates a request.
const VIT96: VitConfig = VitConfig {
    dim: 192,
    depth: 3,
    heads: 3,
    patch: 16,
    img: 96,
    mlp_ratio: 4,
    classes: 16,
};

pub fn workloads() -> Vec<Workload> {
    let tiny16 = WireConfig::default();
    vec![
        Workload {
            name: "wire_vit96_sat",
            shape: Shape::Wire(WireSpec {
                model: VIT96,
                out_res: 96,
                body_px: 128,
                open_rate_hz: None,
            }),
        },
        Workload {
            name: "wire_vit96_rt60",
            shape: Shape::Wire(WireSpec {
                model: VIT96,
                out_res: 96,
                body_px: 128,
                open_rate_hz: Some(RT_RATE_HZ),
            }),
        },
        Workload {
            name: "wire_decode512_sat",
            shape: Shape::Wire(WireSpec {
                model: tiny16.model,
                out_res: tiny16.out_res,
                body_px: 512,
                open_rate_hz: None,
            }),
        },
        Workload {
            name: "offline_vit_tiny_b8",
            shape: Shape::Offline(OfflineSpec {
                dataset: DatasetId::WeedSoybean,
                out_res: 32,
                batch: 8,
                model: vit_tiny,
                // `vit_tiny`: dim 192, depth 12, heads 3, 32×32 input, patch 2.
                kernels: KernelShape::Vit {
                    seq: 257,
                    dim: 192,
                    heads: 3,
                    depth: 12,
                    mlp_ratio: 4,
                },
            }),
        },
        Workload {
            name: "offline_resnet50_b4",
            shape: Shape::Offline(OfflineSpec {
                dataset: DatasetId::CornGrowthStage,
                out_res: 224,
                batch: 4,
                model: resnet50,
                kernels: KernelShape::Conv,
            }),
        },
    ]
}

/// Connections, accept threads and engine workers of a wire workload.
pub fn wire_width() -> usize {
    harvest_threads::hardware_threads().min(4)
}

/// Kernel threads of an offline workload: every hardware thread but one.
/// A forward pass that needs all of them in lock-step waits for whichever
/// the host took away, and on a shared 2-vCPU host that made batch times
/// swing 4–11 % between runs of identical code against 1.3 % with one
/// thread left free.
pub fn offline_threads() -> usize {
    harvest_threads::hardware_threads().saturating_sub(1).max(1)
}

/// The server configuration of a wire workload: `C`-wide everywhere, a
/// 2 ms delay trigger, no degraded rung, everything else default.
pub fn wire_config(spec: &WireSpec) -> WireConfig {
    let c = wire_width();
    WireConfig {
        accept_threads: c,
        engine_workers: c,
        preferred_batch: c as u32,
        max_queue_delay_ms: 2,
        degraded_model: None,
        read_timeout_ms: 5000,
        out_res: spec.out_res,
        model: spec.model,
        model_seed: MODEL_SEED,
        ..WireConfig::default()
    }
}
