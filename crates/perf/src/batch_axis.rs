//! The latency line of Fig 6. The batch-size axes Figs 5 and 6 sweep are
//! `PlatformSpec::batch_axis`.

/// The 16.7 ms latency threshold that sustains 60 queries per second — the
/// red line of Fig 6.
pub const LATENCY_BOUND_60QPS_MS: f64 = 16.7;

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_hw::{PlatformId, ALL_PLATFORMS};

    #[test]
    fn axes_are_strictly_increasing() {
        for spec in &ALL_PLATFORMS {
            for w in spec.batch_axis.windows(2) {
                assert!(w[0] < w[1]);
            }
        }
    }

    #[test]
    fn cloud_axis_tops_at_1024_jetson_at_196() {
        let cloud = PlatformId::MriA100.spec().batch_axis;
        let jetson = PlatformId::JetsonOrinNano.spec().batch_axis;
        assert_eq!(*cloud.last().unwrap(), 1024);
        assert_eq!(*jetson.last().unwrap(), 196);
        assert_eq!(cloud.len(), 16);
        assert_eq!(jetson.len(), 10);
    }

    #[test]
    fn sixty_qps_is_16_7ms() {
        assert!((LATENCY_BOUND_60QPS_MS - 1000.0 / 60.0).abs() < 0.05);
    }
}
