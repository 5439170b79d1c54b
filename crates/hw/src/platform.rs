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

/// One Table 1 column plus the modelling constants the simulator needs.
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
