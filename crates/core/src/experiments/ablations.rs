//! Ablation experiments for the design choices the paper argues from.
//!
//! * **Multi-instance vs bigger batches** — the conclusion claims that past
//!   the MFU knee, "multi-instance strategies \[are\] more effective for
//!   improving responsiveness". We run the online scenario at a fixed
//!   offered load and compare one big-batch instance against several
//!   smaller-batch instances.
//! * **Precision scaling** — §3.1: "Lower-precision formats like INT8 or
//!   FP16 offer faster inference but may reduce accuracy". We quantify the
//!   latency and weight-memory effect of FP32/FP16/INT8 serving.
//! * **Kernel fusion** — the engine's fusion passes cut launch counts;
//!   this ablation quantifies the small-batch latency effect of disabling
//!   them (the TensorRT-vs-naive-runtime gap).

use harvest_data::DatasetId;
use harvest_engine::{compile, Engine};
use harvest_hw::PlatformId;
use harvest_models::{ModelId, Precision};
use harvest_perf::{EnginePerfModel, MemoryContext};
use harvest_preproc::PreprocMethod;
use harvest_serving::{run_online, OnlineConfig, PipelineConfig};
use harvest_simkit::SimTime;
use serde::Serialize;

/// One row of the multi-instance ablation.
#[derive(Clone, Debug, Serialize)]
pub struct InstanceAblationRow {
    /// Number of engine instances.
    pub instances: u32,
    /// Per-instance max batch.
    pub batch_per_instance: u32,
    /// Achieved throughput, img/s.
    pub throughput: f64,
    /// Median latency, ms.
    pub p50_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
}

/// Sweep instance counts at a fixed offered load, holding total batch
/// capacity constant (instances × batch = `total_batch`).
pub fn multi_instance_ablation(
    platform: PlatformId,
    model: ModelId,
    total_batch: u32,
    arrival_rate: f64,
) -> Vec<InstanceAblationRow> {
    let mut rows = Vec::new();
    for instances in [1u32, 2, 4] {
        if !total_batch.is_multiple_of(instances) {
            continue;
        }
        let batch = total_batch / instances;
        let pipeline = PipelineConfig {
            platform,
            model,
            dataset: DatasetId::CornGrowthStage,
            preproc: match model.input_size() {
                32 => PreprocMethod::Dali32,
                _ => PreprocMethod::Dali224,
            },
            ctx: MemoryContext::EngineOnly,
            max_batch: batch,
            max_queue_delay: SimTime::from_millis(5),
            preproc_instances: 4,
            engine_instances: instances,
        };
        let report = run_online(
            &OnlineConfig {
                pipeline,
                arrival_rate,
                requests: 2_000,
                seed: 31,
            },
            None,
        )
        .expect("fits");
        rows.push(InstanceAblationRow {
            instances,
            batch_per_instance: batch,
            throughput: report.throughput,
            p50_ms: report.p50_ms,
            p99_ms: report.p99_ms,
        });
    }
    rows
}

/// One row of the precision ablation.
#[derive(Clone, Debug, Serialize)]
pub struct PrecisionAblationRow {
    /// Serving precision.
    pub precision: String,
    /// Relative compute speed vs FP16 tensor math.
    pub speedup_vs_fp16: f64,
    /// Batch-64 latency, ms.
    pub latency64_ms: f64,
    /// Weight memory, MiB.
    pub weights_mib: f64,
}

/// Relative tensor-math speed per precision (tensor cores: INT8 doubles
/// FP16 throughput; FP32 runs at roughly half).
pub fn precision_speedup(p: Precision) -> f64 {
    match p {
        Precision::Fp32 => 0.5,
        Precision::Fp16 | Precision::Bf16 => 1.0,
        Precision::Int8 => 2.0,
    }
}

/// Sweep serving precisions for a (platform, model) pair.
pub fn precision_ablation(platform: PlatformId, model: ModelId) -> Vec<PrecisionAblationRow> {
    let perf = EnginePerfModel::new(platform, model);
    let stats = model.build().stats();
    [Precision::Fp32, Precision::Fp16, Precision::Int8]
        .into_iter()
        .map(|p| {
            let speedup = precision_speedup(p);
            PrecisionAblationRow {
                precision: p.label().to_string(),
                speedup_vs_fp16: speedup,
                latency64_ms: perf.latency_ms(64) / speedup,
                weights_mib: stats.weight_bytes(p) as f64 / (1 << 20) as f64,
            }
        })
        .collect()
}

/// One row of the fusion ablation.
#[derive(Clone, Debug, Serialize)]
pub struct FusionAblationRow {
    /// Model name.
    pub model: String,
    /// Kernel launches with fusion (the compiled plan).
    pub launches_fused: usize,
    /// Kernel launches without fusion (one per non-input IR node).
    pub launches_unfused: usize,
    /// Batch-1 latency with fusion, ms.
    pub latency1_fused_ms: f64,
    /// Batch-1 latency without fusion, ms.
    pub latency1_unfused_ms: f64,
}

/// Quantify what the engine's fusion passes buy at batch 1 on a platform
/// with meaningful launch overhead.
pub fn fusion_ablation(platform: PlatformId) -> Vec<FusionAblationRow> {
    harvest_models::ALL_MODELS
        .iter()
        .map(|&model| {
            let graph = model.build();
            let plan = compile(&graph);
            let launches_fused = plan.launch_count();
            let launches_unfused = graph.nodes().len() - 1; // minus Input
            let perf = EnginePerfModel::new(platform, model);
            let overhead = platform.spec().launch_overhead_us * 1e-3; // ms
            let base = perf.latency_ms(1);
            FusionAblationRow {
                model: model.name().to_string(),
                launches_fused,
                launches_unfused,
                latency1_fused_ms: base + overhead * launches_fused as f64,
                latency1_unfused_ms: base + overhead * launches_unfused as f64,
            }
        })
        .collect()
}

/// Convenience: is the engine still buildable at total_batch on a platform
/// (used by the harness to pick ablation configs)?
pub fn feasible(platform: PlatformId, model: ModelId, batch: u32) -> bool {
    Engine::build(model, platform, MemoryContext::EngineOnly, batch).is_ok()
}

/// One row of the quantization-accuracy probe.
#[derive(Clone, Debug, Serialize)]
pub struct QuantErrorRow {
    /// Layer description.
    pub layer: String,
    /// GEMM shape (m × k × n).
    pub shape: (usize, usize, usize),
    /// Relative Frobenius error of INT8 vs f32.
    pub relative_error: f64,
}

/// Measure real INT8 GEMM error at the zoo's layer shapes — the accuracy
/// side of "INT8 … may reduce accuracy", computed with the actual
/// quantized kernels rather than asserted.
pub fn quantization_error_probe(seed: u64) -> Vec<QuantErrorRow> {
    use harvest_tensor::gemm::gemm_naive;
    use harvest_tensor::quant::{quantized_gemm, relative_error};
    use harvest_tensor::Tensor;
    // Representative GEMMs: ViT-Tiny QKV, ViT-Base MLP, ResNet50 conv-as-GEMM.
    let layers = [
        ("vit_tiny.qkv (257x192x576)", (257usize, 192usize, 576usize)),
        ("vit_base.mlp1 (197x768x3072)", (197, 768, 3072)),
        ("resnet50.conv3x3 (784x1152x128)", (784, 1152, 128)),
    ];
    layers
        .iter()
        .map(|&(name, (m, k, n))| {
            let a = Tensor::random(&[m * k], seed ^ 1, 1.0).into_vec();
            let b = Tensor::random(&[k * n], seed ^ 2, 0.1).into_vec();
            let mut reference = vec![0.0f32; m * n];
            gemm_naive(&a, &b, &mut reference, m, k, n);
            let approx = quantized_gemm(&a, &b, m, k, n);
            QuantErrorRow {
                layer: name.to_string(),
                shape: (m, k, n),
                relative_error: relative_error(&reference, &approx),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_instances_improve_tail_latency_at_fixed_capacity() {
        // The conclusion's claim: at fixed total batch capacity and fixed
        // load, splitting into more instances improves responsiveness.
        let rows = multi_instance_ablation(PlatformId::MriA100, ModelId::VitSmall, 64, 2_000.0);
        assert_eq!(rows.len(), 3);
        let one = &rows[0];
        let four = &rows[2];
        assert!(
            four.p99_ms < one.p99_ms,
            "4 instances p99 {} should beat 1 instance p99 {}",
            four.p99_ms,
            one.p99_ms
        );
        // Throughput stays in the same ballpark (same offered load).
        assert!((four.throughput - one.throughput).abs() < 0.3 * one.throughput);
    }

    #[test]
    fn precision_ablation_orders_correctly() {
        let rows = precision_ablation(PlatformId::MriA100, ModelId::ResNet50);
        assert_eq!(rows.len(), 3);
        // FP32 slower than FP16 slower than INT8.
        assert!(rows[0].latency64_ms > rows[1].latency64_ms);
        assert!(rows[1].latency64_ms > rows[2].latency64_ms);
        // Weight memory halves each step down.
        assert!((rows[0].weights_mib / rows[1].weights_mib - 2.0).abs() < 0.01);
        assert!((rows[1].weights_mib / rows[2].weights_mib - 2.0).abs() < 0.01);
    }

    #[test]
    fn fusion_cuts_launches_by_at_least_a_third_on_resnet() {
        let rows = fusion_ablation(PlatformId::JetsonOrinNano);
        let rn = rows.iter().find(|r| r.model == "ResNet50").unwrap();
        assert!(
            (rn.launches_fused as f64) < 0.67 * rn.launches_unfused as f64,
            "{} vs {}",
            rn.launches_fused,
            rn.launches_unfused
        );
        assert!(rn.latency1_fused_ms < rn.latency1_unfused_ms);
    }

    #[test]
    fn quantization_error_is_small_but_nonzero() {
        for row in quantization_error_probe(2026) {
            assert!(row.relative_error > 0.0, "{}", row.layer);
            assert!(
                row.relative_error < 0.03,
                "{}: {}",
                row.layer,
                row.relative_error
            );
        }
    }

    #[test]
    fn fusion_matters_most_at_batch_one_on_the_jetson() {
        // Launch overhead is a fixed cost: its share of batch-1 latency on
        // the Jetson (15us/launch) is substantial for ResNet50.
        let rows = fusion_ablation(PlatformId::JetsonOrinNano);
        let rn = rows.iter().find(|r| r.model == "ResNet50").unwrap();
        let saved = rn.latency1_unfused_ms - rn.latency1_fused_ms;
        assert!(saved > 0.9, "saved {saved} ms");
    }
}
