//! Platform descriptors (Table 1).

use harvest_models::Precision;

/// The three evaluated platforms.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PlatformId {
    /// OSC Pitzer cluster, V100 16 GB node (one GPU used).
    PitzerV100,
    /// OSU MRI cluster, A100 40 GB node (one GPU used).
    MriA100,
    /// NVIDIA Jetson Orin Nano Super, 25 W mode, 8 GB unified memory.
    JetsonOrinNano,
}

impl PlatformId {
    /// Stable index.
    pub fn index(self) -> usize {
        match self {
            PlatformId::PitzerV100 => 0,
            PlatformId::MriA100 => 1,
            PlatformId::JetsonOrinNano => 2,
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PlatformId::PitzerV100 => "V100",
            PlatformId::MriA100 => "A100",
            PlatformId::JetsonOrinNano => "Jetson",
        }
    }

    /// Descriptor lookup.
    pub fn spec(self) -> &'static PlatformSpec {
        &ALL_PLATFORMS[self.index()]
    }
}

/// Deployment scenarios of §2.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeploymentScenario {
    /// Inference on demand, request by request (cloud or edge).
    Online,
    /// Batch processing after full data collection.
    Offline,
    /// Closed-loop, on-device decision making.
    RealTime,
}

/// One Table 1 column plus the modelling constants the simulator needs: the
/// one calibration record per platform, so a new platform is one more
/// record. Per-model arrays are indexed by `ModelId::index()` (Table 3 /
/// `ALL_MODELS` order: ViT-Tiny, ViT-Small, ViT-Base, ResNet50).
#[derive(Clone, Debug)]
pub struct PlatformSpec {
    /// Which platform.
    pub id: PlatformId,
    /// Full name as printed.
    pub name: &'static str,
    /// CPU core count.
    pub cpu_cores: u32,
    /// GPU description string.
    pub gpu: &'static str,
    /// Host memory bytes (Jetson: same unified pool as the GPU).
    pub host_mem_bytes: u64,
    /// GPU memory bytes available to one device.
    pub gpu_mem_bytes: u64,
    /// True when CPU and GPU share one memory (Jetson).
    pub unified_memory: bool,
    /// Vendor peak TFLOPS at the benchmarked precision.
    pub theory_tflops: f64,
    /// Precision of the theory/practical numbers (BF16 on A100 and the
    /// Jetson practical figure; FP16 elsewhere — Table 1 note).
    pub precision: Precision,
    /// Paper-measured practical TFLOPS (GEMM plateau).
    pub practical_tflops: f64,
    /// Device memory bandwidth, GB/s.
    pub mem_bw_gbs: f64,
    /// Host↔device copy bandwidth, GB/s (PCIe; fast on unified memory).
    pub h2d_gbs: f64,
    /// Per-kernel launch overhead, microseconds.
    pub launch_overhead_us: f64,
    /// GPU-side preprocessing throughput scale (DALI-style decode+augment),
    /// gigapixels/s — calibrated against Fig. 7.
    pub gpu_preproc_gpix_s: f64,
    /// CPU-side per-core preprocessing throughput, gigapixels/s —
    /// calibrated against the Fig. 7 PyTorch/CV2 bars.
    pub cpu_preproc_gpix_s_core: f64,
    /// Power budget, watts.
    pub power_w: f64,
    /// Scenarios the paper assigns to this platform.
    pub scenarios: &'static [DeploymentScenario],
    /// Memory the OS/runtime reserves before any engine allocates (bytes);
    /// significant on the 8 GB unified Jetson.
    pub system_reserved_bytes: u64,
    /// Figs 5–6 label anchors per model: the throughput (img/s) printed
    /// inside the figure at a batch size. The MFU curve passes through it.
    pub mfu_anchor: [(f64, u32); 4],
    /// Half-saturation batch sizes per model. Larger models saturate at
    /// smaller batches; smaller devices saturate earlier than big ones.
    /// Values are chosen so the Fig 6 operating-point statements hold (V100
    /// ViT-Base meets 16.7 ms at BS 8 but not BS 16; Jetson margins are
    /// narrow; A100 wants BS > 16).
    pub bs_half: [f64; 4],
    /// The batch sizes Figs 5 and 6 sweep on this platform.
    pub batch_axis: &'static [u32],
    /// Per-image working set of the engine alone (Figs 5c/6c), MiB per
    /// model: activations, tactic workspace and allocator overhead.
    pub engine_working_set_mib: [f64; 4],
    /// Per-image working set in the full serving pipeline (Fig 8), MiB per
    /// model: the engine's plus per-request I/O staging and
    /// double-buffering.
    pub e2e_working_set_mib: [f64; 4],
    /// Device memory the preprocessing pool claims end to end (resident
    /// DALI pipelines for every dataset at BS 64).
    pub preproc_pool_bytes: u64,
    /// Per-image fixed pipeline overhead on the GPU preprocessing path
    /// (scheduling, H2D of the encoded buffer, kernel launches), seconds.
    pub gpu_preproc_fixed_s: f64,
    /// Parallel preprocessing pipeline instances (lanes) a deployment runs.
    pub preproc_instances: u32,
}

impl PlatformSpec {
    /// Table 1 "FLOPS efficiency" — practical / theoretical.
    pub fn flops_efficiency(&self) -> f64 {
        self.practical_tflops / self.theory_tflops
    }

    /// Device memory actually available to engines.
    pub fn usable_gpu_mem_bytes(&self) -> u64 {
        self.gpu_mem_bytes
            .saturating_sub(self.system_reserved_bytes)
    }

    /// Practical peak in FLOPS (not TFLOPS).
    pub fn practical_flops(&self) -> f64 {
        self.practical_tflops * 1e12
    }
}

const GIB: u64 = 1 << 30;
const MIB: u64 = 1 << 20;

/// Batch sizes swept on the cloud platforms (Figs 5a/5b, 6a/6b).
const CLOUD_BATCHES: [u32; 16] = [
    1, 2, 4, 8, 16, 32, 64, 96, 128, 196, 256, 384, 512, 640, 768, 1024,
];

/// Batch sizes swept on the Jetson (Figs 5c, 6c) — the axis stops at 196.
const JETSON_BATCHES: [u32; 10] = [1, 2, 4, 8, 16, 32, 64, 96, 128, 196];

/// Engine-only working set on both cloud GPUs: dedicated VRAM, pooled
/// workspace; per-image cost is essentially live activations (+ small
/// workspace share). Every model runs at BS 1024 there (Figs 5a/5b), which
/// bounds these from above.
const CLOUD_ENGINE_MIB: [f64; 4] = [1.5, 3.0, 8.0, 10.0];

/// End-to-end working set: one table reproduces both the V100 and the
/// Jetson Fig 8 walls (64 / 32 / 2 / 32).
const V100_JETSON_E2E_MIB: [f64; 4] = [40.0, 80.0, 1500.0, 80.0];

/// All three platforms, Table 1 order (V100, A100, Jetson).
pub static ALL_PLATFORMS: [PlatformSpec; 3] = [
    PlatformSpec {
        id: PlatformId::PitzerV100,
        name: "OSC Pitzer Cluster (V100)",
        cpu_cores: 40,
        gpu: "NVIDIA V100 16GB x2 (1 used)",
        host_mem_bytes: 384 * GIB,
        gpu_mem_bytes: 16 * GIB,
        unified_memory: false,
        theory_tflops: 112.0,
        precision: Precision::Fp16,
        practical_tflops: 92.6,
        mem_bw_gbs: 900.0,
        h2d_gbs: 12.0, // PCIe gen3 x16 effective
        launch_overhead_us: 8.0,
        gpu_preproc_gpix_s: 0.55, // no hardware JPEG engine: decode on SMs
        cpu_preproc_gpix_s_core: 0.045,
        power_w: 300.0,
        scenarios: &[DeploymentScenario::Online, DeploymentScenario::Offline],
        system_reserved_bytes: 600 * (1 << 20),
        mfu_anchor: [
            (7_179.0, 1024),
            (2_929.3, 1024),
            (1_482.6, 1024),
            (8_107.3, 1024),
        ],
        bs_half: [64.0, 32.0, 12.0, 16.0],
        batch_axis: &CLOUD_BATCHES,
        engine_working_set_mib: CLOUD_ENGINE_MIB,
        e2e_working_set_mib: V100_JETSON_E2E_MIB,
        preproc_pool_bytes: 12_288 * MIB,
        gpu_preproc_fixed_s: 350e-6,
        // Decodes on its SMs: one lane.
        preproc_instances: 1,
    },
    PlatformSpec {
        id: PlatformId::MriA100,
        name: "MRI Cluster (A100)",
        cpu_cores: 128,
        gpu: "NVIDIA A100 40GB x2 (1 used)",
        host_mem_bytes: 256 * GIB,
        gpu_mem_bytes: 40 * GIB,
        unified_memory: false,
        theory_tflops: 312.0,
        precision: Precision::Bf16,
        practical_tflops: 236.3,
        mem_bw_gbs: 1555.0,
        h2d_gbs: 24.0, // PCIe gen4 x16 effective
        launch_overhead_us: 5.0,
        gpu_preproc_gpix_s: 2.6, // 5 hardware NVJPEG engines + fast SMs
        cpu_preproc_gpix_s_core: 0.05,
        power_w: 400.0,
        scenarios: &[DeploymentScenario::Online, DeploymentScenario::Offline],
        system_reserved_bytes: GIB,
        mfu_anchor: [
            (22_879.3, 1024),
            (9_344.2, 1024),
            (4_095.9, 1024),
            (16_230.7, 1024),
        ],
        bs_half: [96.0, 48.0, 16.0, 24.0],
        batch_axis: &CLOUD_BATCHES,
        engine_working_set_mib: CLOUD_ENGINE_MIB,
        // Pooled BF16 workspaces and plenty of headroom: lean enough to hold
        // every model at the serving cap of 64.
        e2e_working_set_mib: [40.0, 80.0, 300.0, 80.0],
        preproc_pool_bytes: 12_288 * MIB,
        gpu_preproc_fixed_s: 70e-6,
        // Five hardware NVJPEG engines: we run four pipeline instances.
        preproc_instances: 4,
    },
    PlatformSpec {
        id: PlatformId::JetsonOrinNano,
        name: "NVIDIA Jetson Orin Nano Super",
        cpu_cores: 6,
        gpu: "Ampere, 1024 CUDA cores, 32 tensor cores",
        host_mem_bytes: 8 * GIB,
        gpu_mem_bytes: 8 * GIB,
        unified_memory: true,
        theory_tflops: 17.0,
        precision: Precision::Bf16, // practical figure measured in BF16
        practical_tflops: 11.4,
        mem_bw_gbs: 102.0,
        h2d_gbs: 40.0, // unified memory: no PCIe hop
        launch_overhead_us: 15.0,
        gpu_preproc_gpix_s: 0.5, // NVJPEG engine, modest SMs
        cpu_preproc_gpix_s_core: 0.02,
        power_w: 25.0,
        scenarios: &[DeploymentScenario::RealTime],
        system_reserved_bytes: 2_560 * (1 << 20), // OS + runtime on 8 GB unified
        mfu_anchor: [(1_170.1, 196), (469.4, 64), (201.0, 8), (842.9, 64)],
        bs_half: [8.0, 5.0, 2.0, 5.0],
        batch_axis: &JETSON_BATCHES,
        // iGPU at 25 W: no dedicated pool, unified-memory allocator overhead
        // and conservative tactic workspaces inflate the effective per-image
        // footprint (calibrated to Fig 5c).
        engine_working_set_mib: [24.0, 70.0, 420.0, 70.0],
        e2e_working_set_mib: V100_JETSON_E2E_MIB,
        // The lighter real-time pipelines (no 4K offline stitching feeds),
        // but the pool is shared with the CPU.
        preproc_pool_bytes: 2_048 * MIB,
        gpu_preproc_fixed_s: 400e-6,
        // Its single NVJPEG engine shares the iGPU: one lane.
        preproc_instances: 1,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_theory_and_practical_numbers() {
        let v100 = PlatformId::PitzerV100.spec();
        assert_eq!(v100.theory_tflops, 112.0);
        assert_eq!(v100.practical_tflops, 92.6);
        let a100 = PlatformId::MriA100.spec();
        assert_eq!(a100.theory_tflops, 312.0);
        assert_eq!(a100.practical_tflops, 236.3);
        let jet = PlatformId::JetsonOrinNano.spec();
        assert_eq!(jet.theory_tflops, 17.0);
        assert_eq!(jet.practical_tflops, 11.4);
    }

    #[test]
    fn efficiency_range_matches_section_4() {
        // "FLOPS efficiency achieved on each platform ranges from 75.74% to
        // 82.68%" — the paper's sentence covers the two cloud platforms.
        let v100 = PlatformId::PitzerV100.spec().flops_efficiency() * 100.0;
        let a100 = PlatformId::MriA100.spec().flops_efficiency() * 100.0;
        assert!((v100 - 82.68).abs() < 0.05, "V100 {v100:.2}%");
        assert!((a100 - 75.74).abs() < 0.05, "A100 {a100:.2}%");
        let jet = PlatformId::JetsonOrinNano.spec().flops_efficiency() * 100.0;
        assert!((jet - 67.06).abs() < 0.1, "Jetson {jet:.2}%");
    }

    #[test]
    fn table1_cpu_and_memory() {
        assert_eq!(PlatformId::PitzerV100.spec().cpu_cores, 40);
        assert_eq!(PlatformId::MriA100.spec().cpu_cores, 128);
        assert_eq!(PlatformId::JetsonOrinNano.spec().cpu_cores, 6);
        assert_eq!(PlatformId::PitzerV100.spec().host_mem_bytes, 384 * GIB);
        assert_eq!(PlatformId::MriA100.spec().host_mem_bytes, 256 * GIB);
        assert_eq!(PlatformId::JetsonOrinNano.spec().host_mem_bytes, 8 * GIB);
    }

    #[test]
    fn scenario_assignment_matches_table() {
        assert!(PlatformId::PitzerV100
            .spec()
            .scenarios
            .contains(&DeploymentScenario::Online));
        assert!(PlatformId::MriA100
            .spec()
            .scenarios
            .contains(&DeploymentScenario::Offline));
        assert_eq!(
            PlatformId::JetsonOrinNano.spec().scenarios,
            &[DeploymentScenario::RealTime]
        );
    }

    #[test]
    fn jetson_is_unified_memory_with_big_reserve() {
        let jet = PlatformId::JetsonOrinNano.spec();
        assert!(jet.unified_memory);
        assert!(!PlatformId::MriA100.spec().unified_memory);
        // Usable memory well below 8 GiB once the OS takes its share.
        assert!(jet.usable_gpu_mem_bytes() < 6 * GIB);
        assert!(jet.usable_gpu_mem_bytes() > 4 * GIB);
    }

    #[test]
    fn platform_ordering_is_stable() {
        for (i, p) in ALL_PLATFORMS.iter().enumerate() {
            assert_eq!(p.id.index(), i);
        }
    }

    #[test]
    fn precision_labels_match_table_note() {
        // BF16 was used on the A100, FP16 on V100.
        assert_eq!(PlatformId::MriA100.spec().precision, Precision::Bf16);
        assert_eq!(PlatformId::PitzerV100.spec().precision, Precision::Fp16);
    }
}
