//! The batch-size axes of Figs 5 and 6, exactly as the paper sweeps them.

use harvest_hw::PlatformId;

/// The 16.7 ms latency threshold that sustains 60 queries per second — the
/// red line of Fig 6.
pub const LATENCY_BOUND_60QPS_MS: f64 = 16.7;

/// Batch sizes swept on the cloud platforms (Figs 5a/5b, 6a/6b).
pub(crate) const CLOUD_BATCHES: [u32; 16] = [
    1, 2, 4, 8, 16, 32, 64, 96, 128, 196, 256, 384, 512, 640, 768, 1024,
];

/// Batch sizes swept on the Jetson (Figs 5c, 6c) — the axis stops at 196.
pub const JETSON_BATCHES: [u32; 10] = [1, 2, 4, 8, 16, 32, 64, 96, 128, 196];

/// The figure's batch axis for a platform.
pub fn batch_axis(platform: PlatformId) -> &'static [u32] {
    match platform {
        PlatformId::JetsonOrinNano => &JETSON_BATCHES,
        _ => &CLOUD_BATCHES,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axes_are_strictly_increasing() {
        for axis in [&CLOUD_BATCHES[..], &JETSON_BATCHES[..]] {
            for w in axis.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn cloud_axis_tops_at_1024_jetson_at_196() {
        assert_eq!(*CLOUD_BATCHES.last().unwrap(), 1024);
        assert_eq!(*JETSON_BATCHES.last().unwrap(), 196);
        assert_eq!(batch_axis(PlatformId::MriA100).len(), 16);
        assert_eq!(batch_axis(PlatformId::JetsonOrinNano).len(), 10);
    }

    #[test]
    fn sixty_qps_is_16_7ms() {
        assert!((LATENCY_BOUND_60QPS_MS - 1000.0 / 60.0).abs() < 0.05);
    }
}
