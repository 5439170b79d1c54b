//! The Table 1 GEMM microbenchmark.
//!
//! Two halves:
//!
//! * **Device model** — a roofline-style execution-time model for GEMM on
//!   the simulated GPUs. Achieved throughput is
//!   `min(compute roofline, bandwidth roofline)` with a size-dependent
//!   efficiency ramp; the large-GEMM plateau equals the paper's practical
//!   TFLOPS by construction (that is the calibration), and small GEMMs fall
//!   off the plateau the way real devices do.
//! * **Host measurement** — a *real* timed run of `harvest-tensor`'s
//!   parallel GEMM on the machine executing this reproduction, reported
//!   next to the simulated numbers so Table 1's theory-vs-practical story
//!   is demonstrated on real hardware too.

use crate::platform::PlatformSpec;
use harvest_tensor::gemm;
use std::time::Instant;

/// GEMM problem dimensions: `C[m×n] = A[m×k] · B[k×n]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GemmShape {
    /// Rows of A/C.
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Columns of B/C.
    pub n: usize,
}

impl GemmShape {
    /// Square problem.
    pub fn square(n: usize) -> Self {
        GemmShape { m: n, k: n, n }
    }

    /// Floating-point operations (2 per MAC).
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Bytes touched once (A + B + C), at `elem_bytes` per element.
    pub fn bytes(&self, elem_bytes: usize) -> f64 {
        ((self.m * self.k + self.k * self.n + self.m * self.n) * elem_bytes) as f64
    }
}

/// Size-dependent fraction of the practical plateau a GEMM achieves.
///
/// Real GEMM efficiency ramps with problem size (tile quantization, wave
/// quantization, launch amortization); we model the ramp as
/// `geo / (geo + half_size)` on the geometric-mean dimension.
fn size_efficiency(shape: &GemmShape) -> f64 {
    let geo = (shape.m as f64 * shape.n as f64 * shape.k as f64).powf(1.0 / 3.0);
    geo / (geo + 384.0)
}

/// Simulated execution time of one GEMM on a device, seconds.
pub fn device_gemm_time(spec: &PlatformSpec, shape: &GemmShape) -> f64 {
    let peak = spec.practical_flops() * size_efficiency(shape);
    let compute_s = shape.flops() / peak;
    let bw_s = shape.bytes(spec.precision.bytes()) / (spec.mem_bw_gbs * 1e9);
    compute_s.max(bw_s) + spec.launch_overhead_us * 1e-6
}

/// Simulated achieved TFLOPS for one GEMM on a device.
pub(crate) fn device_gemm_tflops(spec: &PlatformSpec, shape: &GemmShape) -> f64 {
    shape.flops() / device_gemm_time(spec, shape) / 1e12
}

/// The Table 1 microbenchmark: sweep GEMM sizes upward and report the
/// plateau (best sustained TFLOPS).
pub fn measure_practical_tflops(spec: &PlatformSpec) -> f64 {
    [1024usize, 2048, 4096, 8192, 16384]
        .iter()
        .map(|&n| device_gemm_tflops(spec, &GemmShape::square(n)))
        .fold(0.0f64, f64::max)
}

/// Really measure host GEMM GFLOPS (f32, `harvest_tensor::gemm` over the
/// `harvest-threads` pool) at the given square size; `reps` timed repetitions after one warm-up.
pub fn host_gemm_gflops(n: usize, reps: usize) -> f64 {
    let shape = GemmShape::square(n);
    let a = vec![1.0f32; n * n];
    let b = vec![1.0f32; n * n];
    let mut c = vec![0.0f32; n * n];
    gemm(&a, &b, &mut c, n, n, n); // warm-up
    let start = Instant::now();
    for _ in 0..reps.max(1) {
        gemm(&a, &b, &mut c, n, n, n);
    }
    let secs = start.elapsed().as_secs_f64() / reps.max(1) as f64;
    shape.flops() / secs / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{PlatformId, ALL_PLATFORMS};

    #[test]
    fn plateau_matches_table1_practical_tflops() {
        for spec in &ALL_PLATFORMS {
            let measured = measure_practical_tflops(spec);
            let err = (measured - spec.practical_tflops).abs() / spec.practical_tflops;
            assert!(
                err < 0.05,
                "{}: microbench {measured:.1} vs table {}",
                spec.name,
                spec.practical_tflops
            );
        }
    }

    #[test]
    fn small_gemms_are_far_below_plateau() {
        let spec = PlatformId::MriA100.spec();
        let small = device_gemm_tflops(spec, &GemmShape::square(128));
        assert!(
            small < 0.4 * spec.practical_tflops,
            "128³ GEMM should be launch/ramp-bound, got {small:.1} TFLOPS"
        );
    }

    #[test]
    fn efficiency_is_monotone_in_size() {
        let spec = PlatformId::PitzerV100.spec();
        let mut prev = 0.0;
        for n in [64, 128, 256, 512, 1024, 2048, 4096] {
            let t = device_gemm_tflops(spec, &GemmShape::square(n));
            assert!(t >= prev, "n={n}: {t} < {prev}");
            prev = t;
        }
    }

    #[test]
    fn achieved_never_exceeds_theory() {
        for spec in &ALL_PLATFORMS {
            for n in [64, 256, 1024, 4096, 16384] {
                let t = device_gemm_tflops(spec, &GemmShape::square(n));
                assert!(t <= spec.theory_tflops, "{}: {t:.1}", spec.name);
            }
        }
    }

    #[test]
    fn skinny_gemms_hit_the_bandwidth_roofline() {
        // m=1 GEMV-like shapes are bandwidth-bound on every platform.
        let spec = PlatformId::MriA100.spec();
        let shape = GemmShape {
            m: 1,
            k: 4096,
            n: 4096,
        };
        let t = device_gemm_tflops(spec, &shape);
        // AI of a GEMV ~ O(1) FLOP/byte: far below the compute roofline.
        assert!(t < 2.0, "GEMV-like should be <2 TFLOPS, got {t:.2}");
    }

    #[test]
    fn flops_and_bytes_arithmetic() {
        let s = GemmShape { m: 2, k: 3, n: 4 };
        assert_eq!(s.flops(), 48.0);
        assert_eq!(s.bytes(2), ((6 + 12 + 8) * 2) as f64);
    }

    #[test]
    fn host_gemm_measures_something_sane() {
        // Tiny problem so the test stays fast. Positive (NaN fails too) at
        // any speed: no gate may ride on a wall clock.
        let gf = host_gemm_gflops(128, 2);
        assert!(gf > 0.0, "host GEMM {gf:.3} GFLOPS");
    }
}
