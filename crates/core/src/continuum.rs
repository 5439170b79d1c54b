//! Continuum placement: edge or cloud?
//!
//! The paper's deployment-scenario taxonomy (§2.2) hinges on an unstated
//! quantitative question: *given the farm's uplink, is it better to ship
//! images to the cloud or infer on the edge device?* This module answers it
//! with the calibrated models: cloud throughput is the min of uplink image
//! rate and the cloud pipeline's rate; edge throughput is the Jetson
//! pipeline's rate; latency compares a single frame's upload + cloud
//! inference against local inference.

use harvest_data::{DatasetId, DatasetSpec, Sampler};
use harvest_hw::{NetworkLink, PlatformId};
use harvest_imaging::ImageFormat;
use harvest_models::ModelId;
use harvest_perf::{end_to_end_batch, EnginePerfModel};
use harvest_preproc::PreprocCostModel;

/// Where to run inference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// On the field device (Jetson).
    Edge,
    /// On a cloud platform behind the uplink.
    Cloud(PlatformId),
}

/// The full comparison for one (model, dataset, link, cloud) choice.
#[derive(Clone, Copy, Debug)]
pub struct PlacementAnalysis {
    /// Mean encoded bytes per image actually sent up the link.
    pub bytes_per_image: u64,
    /// Uplink sustained rate, img/s.
    pub uplink_rate: f64,
    /// Cloud pipeline rate (preproc+engine, at its serving batch), img/s.
    pub cloud_pipeline_rate: f64,
    /// Effective cloud throughput = min(uplink, pipeline), img/s.
    pub cloud_throughput: f64,
    /// Edge (Jetson) pipeline throughput, img/s.
    pub edge_throughput: f64,
    /// Single-frame latency via the cloud (upload + preproc + batch-1), ms.
    pub cloud_latency_ms: f64,
    /// Single-frame latency on the edge, ms.
    pub edge_latency_ms: f64,
    /// Best placement for bulk throughput (offline/online scenarios).
    pub throughput_winner: Placement,
    /// Best placement for per-frame latency (real-time scenario).
    pub latency_winner: Placement,
}

/// Mean encoded image size for a dataset: exact arithmetic for raw
/// containers, measured over real encodes for the JPEG-like ones.
pub(crate) fn mean_encoded_bytes(dataset: DatasetId, samples: u32) -> u64 {
    let spec = DatasetSpec::get(dataset);
    match spec.format {
        ImageFormat::Rtif => 12 + (spec.mean_pixels() * 3.0) as u64,
        ImageFormat::Ajpg { .. } => {
            let sampler = Sampler::new(dataset, 0xC0DEC);
            let n = samples.clamp(1, spec.samples);
            let total: u64 = (0..n).map(|i| sampler.encode(i).bytes.len() as u64).sum();
            total / n as u64
        }
    }
}

/// Analyze edge-vs-cloud placement for a deployment.
pub fn analyze(
    model: ModelId,
    dataset: DatasetId,
    link: NetworkLink,
    cloud: PlatformId,
) -> PlacementAnalysis {
    assert_ne!(
        cloud,
        PlatformId::JetsonOrinNano,
        "cloud must be a cloud platform"
    );
    let bytes = mean_encoded_bytes(dataset, 3);
    let uplink_rate = link.image_rate(bytes);

    let preproc_method = crate::pipeline::preproc_method(model);
    let pipeline_rate = |platform: PlatformId| -> f64 {
        let batch = end_to_end_batch(platform, model).unwrap_or(1);
        let engine = EnginePerfModel::new(platform, model).throughput(batch);
        let preproc = 1.0 / PreprocCostModel::new(platform).per_image_s(preproc_method, dataset);
        engine.min(preproc)
    };
    let single_frame_ms = |platform: PlatformId| -> f64 {
        let engine = EnginePerfModel::new(platform, model).latency_ms(1);
        let preproc = PreprocCostModel::new(platform).per_image_s(preproc_method, dataset) * 1e3;
        engine + preproc
    };

    let cloud_pipeline_rate = pipeline_rate(cloud);
    let cloud_throughput = cloud_pipeline_rate.min(uplink_rate);
    let edge_throughput = pipeline_rate(PlatformId::JetsonOrinNano);
    let cloud_latency_ms = link.upload_s(bytes) * 1e3 + single_frame_ms(cloud);
    let edge_latency_ms = single_frame_ms(PlatformId::JetsonOrinNano);

    PlacementAnalysis {
        bytes_per_image: bytes,
        uplink_rate,
        cloud_pipeline_rate,
        cloud_throughput,
        edge_throughput,
        cloud_latency_ms,
        edge_latency_ms,
        throughput_winner: if cloud_throughput > edge_throughput {
            Placement::Cloud(cloud)
        } else {
            Placement::Edge
        },
        latency_winner: if cloud_latency_ms < edge_latency_ms {
            Placement::Cloud(cloud)
        } else {
            Placement::Edge
        },
    }
}

/// Minimum uplink bandwidth (Mb/s) at which the cloud overtakes the edge on
/// throughput for this deployment (bisected over a synthetic link).
pub fn crossover_bandwidth_mbps(model: ModelId, dataset: DatasetId, cloud: PlatformId) -> f64 {
    let (mut lo, mut hi) = (0.01f64, 100_000.0f64);
    let wins = |mbps: f64| {
        let link = NetworkLink {
            name: "probe",
            uplink_mbps: mbps,
            rtt_ms: 20.0,
            overhead: 0.1,
        };
        matches!(
            analyze(model, dataset, link, cloud).throughput_winner,
            Placement::Cloud(_)
        )
    };
    if wins(lo) {
        return lo;
    }
    if !wins(hi) {
        return f64::INFINITY;
    }
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        if wins(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rural_lte_keeps_4k_inference_at_the_edge() {
        // CRSA raw 4K frames over rural LTE: the uplink (<< 1 img/s) loses
        // to local inference by orders of magnitude.
        let a = analyze(
            ModelId::ResNet50,
            DatasetId::Crsa,
            NetworkLink::RURAL_LTE,
            PlatformId::MriA100,
        );
        assert!(a.uplink_rate < 0.1, "uplink {}", a.uplink_rate);
        assert_eq!(a.throughput_winner, Placement::Edge);
        assert_eq!(a.latency_winner, Placement::Edge);
    }

    #[test]
    fn fiber_sends_small_jpegs_to_the_cloud() {
        // Fruits-360-sized JPEGs over fiber: the A100 pipeline dominates.
        let a = analyze(
            ModelId::VitTiny,
            DatasetId::Fruits360,
            NetworkLink::FIBER,
            PlatformId::MriA100,
        );
        assert!(matches!(a.throughput_winner, Placement::Cloud(_)), "{a:?}");
        assert!(a.cloud_throughput > a.edge_throughput);
    }

    #[test]
    fn encoded_bytes_are_format_aware() {
        let crsa = mean_encoded_bytes(DatasetId::Crsa, 1);
        assert_eq!(crsa, 12 + 3840 * 2160 * 3);
        let fruits = mean_encoded_bytes(DatasetId::Fruits360, 3);
        // 100² JPEG-like: a few kB, far below raw 30 kB.
        assert!(fruits > 500 && fruits < 20_000, "{fruits}");
    }

    #[test]
    fn crossover_bandwidth_is_higher_for_bigger_images() {
        let small =
            crossover_bandwidth_mbps(ModelId::ResNet50, DatasetId::Fruits360, PlatformId::MriA100);
        let big = crossover_bandwidth_mbps(ModelId::ResNet50, DatasetId::Crsa, PlatformId::MriA100);
        assert!(big > 5.0 * small, "small {small} Mb/s vs big {big} Mb/s");
    }

    #[test]
    fn crossover_is_consistent_with_analyze() {
        let model = ModelId::VitSmall;
        let dataset = DatasetId::CornGrowthStage;
        let x = crossover_bandwidth_mbps(model, dataset, PlatformId::PitzerV100);
        assert!(x.is_finite());
        let below = NetworkLink {
            name: "b",
            uplink_mbps: x * 0.8,
            rtt_ms: 20.0,
            overhead: 0.1,
        };
        let above = NetworkLink {
            name: "a",
            uplink_mbps: x * 1.2,
            rtt_ms: 20.0,
            overhead: 0.1,
        };
        assert_eq!(
            analyze(model, dataset, below, PlatformId::PitzerV100).throughput_winner,
            Placement::Edge
        );
        assert!(matches!(
            analyze(model, dataset, above, PlatformId::PitzerV100).throughput_winner,
            Placement::Cloud(_)
        ));
    }

    #[test]
    fn latency_winner_depends_on_rtt_and_upload() {
        // Real-time decisions on a slow link always stay local.
        let a = analyze(
            ModelId::VitTiny,
            DatasetId::CornGrowthStage,
            NetworkLink::RURAL_LTE,
            PlatformId::MriA100,
        );
        assert_eq!(a.latency_winner, Placement::Edge);
        assert!(a.edge_latency_ms < a.cloud_latency_ms);
    }
}
