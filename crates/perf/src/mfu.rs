//! MFU saturation curves and the engine performance model (Figs 5–6).

use harvest_hw::{PlatformId, PlatformSpec};
use harvest_models::ModelId;

/// Hyperbolic Model-FLOPs-Utilization curve.
///
/// `MFU(bs) = mfu_inf · bs / (bs + bs_half)` — zero at bs→0, saturating at
/// `mfu_inf`; `bs_half` is the batch at which half the saturated MFU is
/// reached.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MfuCurve {
    /// Saturated MFU (fraction of the platform's *practical* GEMM peak).
    pub mfu_inf: f64,
    /// Half-saturation batch size.
    pub bs_half: f64,
}

impl MfuCurve {
    /// MFU at a batch size.
    pub fn mfu(&self, bs: u32) -> f64 {
        let b = bs as f64;
        self.mfu_inf * b / (b + self.bs_half)
    }
}

/// Figure-label anchors: throughput (img/s) observed at a given batch size,
/// per (platform, model) — the text printed inside Figs 5 and 6.
fn anchor(platform: PlatformId, model: ModelId) -> (f64, u32) {
    use ModelId::*;
    use PlatformId::*;
    match (platform, model) {
        (MriA100, VitTiny) => (22_879.3, 1024),
        (MriA100, VitSmall) => (9_344.2, 1024),
        (MriA100, VitBase) => (4_095.9, 1024),
        (MriA100, ResNet50) => (16_230.7, 1024),
        (PitzerV100, VitTiny) => (7_179.0, 1024),
        (PitzerV100, VitSmall) => (2_929.3, 1024),
        (PitzerV100, VitBase) => (1_482.6, 1024),
        (PitzerV100, ResNet50) => (8_107.3, 1024),
        (JetsonOrinNano, VitTiny) => (1_170.1, 196),
        (JetsonOrinNano, VitSmall) => (469.4, 64),
        (JetsonOrinNano, VitBase) => (201.0, 8),
        (JetsonOrinNano, ResNet50) => (842.9, 64),
    }
}

/// Half-saturation batch sizes. Larger models saturate at smaller batches;
/// smaller devices saturate earlier than big ones. Values are chosen so the
/// Fig 6 operating-point statements hold (V100 ViT-Base meets 16.7 ms at
/// BS 8 but not BS 16; Jetson margins are narrow; A100 wants BS > 16).
fn bs_half(platform: PlatformId, model: ModelId) -> f64 {
    use ModelId::*;
    use PlatformId::*;
    match (platform, model) {
        (MriA100, VitTiny) => 96.0,
        (MriA100, VitSmall) => 48.0,
        (MriA100, VitBase) => 16.0,
        (MriA100, ResNet50) => 24.0,
        (PitzerV100, VitTiny) => 64.0,
        (PitzerV100, VitSmall) => 32.0,
        (PitzerV100, VitBase) => 12.0,
        (PitzerV100, ResNet50) => 16.0,
        (JetsonOrinNano, VitTiny) => 8.0,
        (JetsonOrinNano, VitSmall) => 5.0,
        (JetsonOrinNano, VitBase) => 2.0,
        (JetsonOrinNano, ResNet50) => 5.0,
    }
}

/// Analytic engine performance model for one (platform, model) pair.
#[derive(Clone, Debug)]
pub struct EnginePerfModel {
    platform: PlatformId,
    model: ModelId,
    curve: MfuCurve,
    /// FLOPs per image in the paper's accounting (ptflops MACs — the same
    /// units the practical-TFLOPS figure divides, so the Table 3 upper
    /// bounds come out exactly).
    flops_per_image: f64,
}

impl EnginePerfModel {
    /// Build the calibrated model for a pair.
    pub fn new(platform: PlatformId, model: ModelId) -> Self {
        let stats = model.build().stats();
        let flops_per_image = stats.macs;
        let spec = platform.spec();
        let (anchor_tput, anchor_bs) = anchor(platform, model);
        let half = bs_half(platform, model);
        // Invert throughput(bs) = P·MFU(bs)/F at the anchor point.
        let mfu_at_anchor = anchor_tput * flops_per_image / spec.practical_flops();
        let b = anchor_bs as f64;
        let mfu_inf = mfu_at_anchor * (b + half) / b;
        EnginePerfModel {
            platform,
            model,
            curve: MfuCurve {
                mfu_inf,
                bs_half: half,
            },
            flops_per_image,
        }
    }

    /// The platform spec.
    pub fn platform(&self) -> &'static PlatformSpec {
        self.platform.spec()
    }

    /// The model id.
    pub fn model(&self) -> ModelId {
        self.model
    }

    /// The calibrated MFU curve.
    pub fn curve(&self) -> MfuCurve {
        self.curve
    }

    /// Batch inference latency in seconds:
    /// `F·(bs + bs_half) / (P·mfu_inf)`.
    pub fn latency_s(&self, bs: u32) -> f64 {
        assert!(bs > 0, "batch must be positive");
        let p = self.platform().practical_flops();
        self.flops_per_image * (bs as f64 + self.curve.bs_half) / (p * self.curve.mfu_inf)
    }

    /// Batch latency in milliseconds.
    pub fn latency_ms(&self, bs: u32) -> f64 {
        self.latency_s(bs) * 1e3
    }

    /// Ideal (fully-saturated) latency — the dashed line of Fig 6.
    pub fn theoretical_latency_ms(&self, bs: u32) -> f64 {
        bs as f64 * self.flops_per_image / self.platform().practical_flops() * 1e3
    }

    /// Throughput at a batch size, img/s.
    pub fn throughput(&self, bs: u32) -> f64 {
        bs as f64 / self.latency_s(bs)
    }

    /// Achieved TFLOPS at a batch size — the solid lines of Fig 5.
    pub fn achieved_tflops(&self, bs: u32) -> f64 {
        self.platform().practical_tflops * self.curve.mfu(bs)
    }

    /// Table 3 throughput upper bound: practical FLOPS / FLOPs-per-image.
    pub fn upper_bound_throughput(&self) -> f64 {
        self.platform().practical_flops() / self.flops_per_image
    }

    /// Largest batch whose latency stays within `bound_ms`; `None` if even
    /// batch 1 misses the bound. The search walks the closed-form inverse.
    pub fn max_batch_under_latency(&self, bound_ms: f64) -> Option<u32> {
        // latency(bs) ≤ bound  ⇔  bs ≤ bound·P·mfu_inf/F − bs_half.
        let p = self.platform().practical_flops();
        let max =
            bound_ms * 1e-3 * p * self.curve.mfu_inf / self.flops_per_image - self.curve.bs_half;
        if max < 1.0 {
            None
        } else {
            Some(max.floor() as u32)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch_axis::LATENCY_BOUND_60QPS_MS;
    use harvest_models::ALL_MODELS;

    const PLATFORMS: [PlatformId; 3] = [
        PlatformId::PitzerV100,
        PlatformId::MriA100,
        PlatformId::JetsonOrinNano,
    ];

    #[test]
    fn anchors_reproduce_figure_labels() {
        for platform in PLATFORMS {
            for model in ALL_MODELS {
                let m = EnginePerfModel::new(platform, model);
                let (tput, bs) = anchor(platform, model);
                let got = m.throughput(bs);
                assert!(
                    (got - tput).abs() / tput < 1e-9,
                    "{platform:?}/{model:?}: {got:.1} vs {tput}"
                );
            }
        }
    }

    #[test]
    fn table3_upper_bounds() {
        // Paper Table 3 (img/s): rows = models, cols = A100/V100/Jetson.
        let expect = [
            (ModelId::VitTiny, [172_508.0, 67_602.0, 8_322.0]),
            (ModelId::VitSmall, [43_214.0, 16_935.0, 2_085.0]),
            (ModelId::VitBase, [14_013.0, 5_491.0, 676.0]),
            (ModelId::ResNet50, [57_775.0, 22_641.0, 2_787.0]),
        ];
        let platforms = [
            PlatformId::MriA100,
            PlatformId::PitzerV100,
            PlatformId::JetsonOrinNano,
        ];
        for (model, bounds) in expect {
            for (platform, expected) in platforms.iter().zip(bounds) {
                let ub = EnginePerfModel::new(*platform, model).upper_bound_throughput();
                let err = (ub - expected).abs() / expected;
                assert!(err < 0.01, "{model:?}@{platform:?}: {ub:.0} vs {expected}");
            }
        }
    }

    #[test]
    fn mfu_saturates_below_one() {
        for platform in PLATFORMS {
            for model in ALL_MODELS {
                let m = EnginePerfModel::new(platform, model);
                assert!(
                    m.curve().mfu_inf > 0.05 && m.curve().mfu_inf < 0.6,
                    "{platform:?}/{model:?}: mfu_inf {:.3}",
                    m.curve().mfu_inf
                );
                assert!(m.curve().mfu(1024) < m.curve().mfu_inf);
            }
        }
    }

    #[test]
    fn latency_has_floor_and_linear_asymptote() {
        let m = EnginePerfModel::new(PlatformId::MriA100, ModelId::VitBase);
        let l1 = m.latency_ms(1);
        let l2 = m.latency_ms(2);
        // Floor: doubling tiny batches far less than doubles latency.
        assert!(l2 < 1.7 * l1, "{l1} -> {l2}");
        // Asymptote: at large batch, latency/batch approaches F/P·1/mfu_inf.
        let l512 = m.latency_ms(512);
        let l1024 = m.latency_ms(1024);
        let ratio = l1024 / l512;
        assert!((ratio - 2.0).abs() < 0.1, "asymptotic ratio {ratio}");
        // Actual latency always above the theoretical dashed line.
        for bs in [1u32, 8, 64, 512] {
            assert!(m.latency_ms(bs) > m.theoretical_latency_ms(bs));
        }
    }

    #[test]
    fn fig6_v100_vitbase_meets_60qps_at_8_not_16() {
        let m = EnginePerfModel::new(PlatformId::PitzerV100, ModelId::VitBase);
        assert!(
            m.latency_ms(8) < LATENCY_BOUND_60QPS_MS,
            "{}",
            m.latency_ms(8)
        );
        assert!(
            m.latency_ms(16) > LATENCY_BOUND_60QPS_MS,
            "{}",
            m.latency_ms(16)
        );
        let max = m.max_batch_under_latency(LATENCY_BOUND_60QPS_MS).unwrap();
        assert!((8..16).contains(&max), "max {max}");
    }

    #[test]
    fn fig6_a100_supports_batch_beyond_16_within_60qps() {
        // "On A100 hardware, this requires batch sizes exceeding 16."
        for model in ALL_MODELS {
            let m = EnginePerfModel::new(PlatformId::MriA100, model);
            let max = m.max_batch_under_latency(LATENCY_BOUND_60QPS_MS).unwrap();
            assert!(max > 16, "{model:?}: max {max}");
        }
    }

    #[test]
    fn fig6_jetson_vitbase_cannot_sustain_60qps_at_its_peak_batch() {
        let m = EnginePerfModel::new(PlatformId::JetsonOrinNano, ModelId::VitBase);
        // At its largest feasible batch (8) latency is ~40ms >> 16.7ms.
        assert!(m.latency_ms(8) > 2.0 * LATENCY_BOUND_60QPS_MS);
    }

    #[test]
    fn jetson_vit_tiny_margin_is_narrow() {
        // MFU at BS 8 is only ~half of saturation: the "deteriorates below
        // batch size 8" statement.
        let m = EnginePerfModel::new(PlatformId::JetsonOrinNano, ModelId::VitTiny);
        let ratio = m.curve().mfu(8) / m.curve().mfu_inf;
        assert!((ratio - 0.5).abs() < 0.01, "{ratio}");
        // And the 60 QPS bound caps the batch in the low tens.
        let max = m.max_batch_under_latency(LATENCY_BOUND_60QPS_MS).unwrap();
        assert!((8..=24).contains(&max), "max {max}");
    }

    #[test]
    fn resnet_outmfus_vit_small_everywhere() {
        // §4.1: "ResNet achieves superior MFU" despite fewer FLOPs/image.
        for platform in PLATFORMS {
            let rn = EnginePerfModel::new(platform, ModelId::ResNet50);
            let vs = EnginePerfModel::new(platform, ModelId::VitSmall);
            assert!(
                rn.curve().mfu_inf > vs.curve().mfu_inf,
                "{platform:?}: {} vs {}",
                rn.curve().mfu_inf,
                vs.curve().mfu_inf
            );
        }
    }

    #[test]
    fn bigger_models_saturate_mfu_higher() {
        // §4.1: deploying larger models improves MFU (per family).
        for platform in PLATFORMS {
            let tiny = EnginePerfModel::new(platform, ModelId::VitTiny)
                .curve()
                .mfu_inf;
            let small = EnginePerfModel::new(platform, ModelId::VitSmall)
                .curve()
                .mfu_inf;
            let base = EnginePerfModel::new(platform, ModelId::VitBase)
                .curve()
                .mfu_inf;
            assert!(
                tiny < small && small < base,
                "{platform:?}: {tiny} {small} {base}"
            );
        }
    }

    #[test]
    fn throughput_is_monotone_in_batch() {
        let m = EnginePerfModel::new(PlatformId::PitzerV100, ModelId::VitTiny);
        let mut prev = 0.0;
        for bs in [1u32, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024] {
            let t = m.throughput(bs);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn achieved_tflops_stay_under_practical_peak() {
        for platform in PLATFORMS {
            for model in ALL_MODELS {
                let m = EnginePerfModel::new(platform, model);
                assert!(m.achieved_tflops(1024) < m.platform().practical_tflops);
            }
        }
    }
}
