//! Field-to-cloud network links.
//!
//! §2.2.1 of the paper: online inference "presents challenges for data
//! transmission, especially when transmitting large image data to the
//! cloud. It would be beneficial to leverage advanced wireless
//! capabilities". This module models the uplink between a farm device and
//! a cloud platform: sustained bandwidth, round-trip latency, and protocol
//! overhead — enough to decide when the continuum should keep inference at
//! the edge.

/// An uplink between the field and a compute platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkLink {
    /// Human-readable name.
    pub name: &'static str,
    /// Sustained uplink bandwidth, megabits/second.
    pub uplink_mbps: f64,
    /// Round-trip time, milliseconds.
    pub rtt_ms: f64,
    /// Fractional protocol/retransmission overhead (0.1 = 10 % of bytes).
    pub overhead: f64,
}

impl NetworkLink {
    /// Rural LTE — the connectivity many farms actually have.
    pub const RURAL_LTE: NetworkLink = NetworkLink {
        name: "rural LTE",
        uplink_mbps: 5.0,
        rtt_ms: 80.0,
        overhead: 0.12,
    };
    /// Good LTE coverage.
    pub(crate) const LTE: NetworkLink = NetworkLink {
        name: "LTE",
        uplink_mbps: 25.0,
        rtt_ms: 45.0,
        overhead: 0.10,
    };
    /// 5G mid-band.
    pub const FIVE_G: NetworkLink = NetworkLink {
        name: "5G",
        uplink_mbps: 150.0,
        rtt_ms: 20.0,
        overhead: 0.08,
    };
    /// Fixed wireless / farm Wi-Fi backhaul.
    pub(crate) const FIXED_WIRELESS: NetworkLink = NetworkLink {
        name: "fixed wireless",
        uplink_mbps: 80.0,
        rtt_ms: 15.0,
        overhead: 0.08,
    };
    /// Fibre to the barn.
    pub const FIBER: NetworkLink = NetworkLink {
        name: "fiber",
        uplink_mbps: 900.0,
        rtt_ms: 8.0,
        overhead: 0.05,
    };

    /// All presets, slowest first.
    pub const ALL: [NetworkLink; 5] = [
        NetworkLink::RURAL_LTE,
        NetworkLink::LTE,
        NetworkLink::FIXED_WIRELESS,
        NetworkLink::FIVE_G,
        NetworkLink::FIBER,
    ];

    /// Seconds to push `bytes` up the link (serialization + half an RTT).
    pub fn upload_s(&self, bytes: u64) -> f64 {
        let effective_bps = self.uplink_mbps * 1e6 / (1.0 + self.overhead);
        (bytes as f64 * 8.0) / effective_bps + self.rtt_ms * 1e-3 / 2.0
    }

    /// Sustained upload rate in images/second for a given image size
    /// (pipelined: RTT amortizes away, serialization does not).
    pub fn image_rate(&self, bytes_per_image: u64) -> f64 {
        let effective_bps = self.uplink_mbps * 1e6 / (1.0 + self.overhead);
        effective_bps / (bytes_per_image as f64 * 8.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_bandwidth() {
        for pair in NetworkLink::ALL.windows(2) {
            assert!(pair[0].uplink_mbps < pair[1].uplink_mbps);
        }
    }

    #[test]
    fn upload_time_scales_with_bytes() {
        let link = NetworkLink::LTE;
        let one = link.upload_s(100_000);
        let ten = link.upload_s(1_000_000);
        assert!(ten > 5.0 * one, "{one} vs {ten}");
    }

    #[test]
    fn known_transfer_time() {
        // 1 MB over a clean 8 Mb/s link with no overhead ≈ 1 s + rtt/2.
        let link = NetworkLink {
            name: "test",
            uplink_mbps: 8.0,
            rtt_ms: 0.0,
            overhead: 0.0,
        };
        assert!((link.upload_s(1_000_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn image_rate_matches_serialization_only() {
        let link = NetworkLink {
            name: "test",
            uplink_mbps: 8.0,
            rtt_ms: 100.0,
            overhead: 0.0,
        };
        // 100 kB images at 8 Mb/s: 10 images/s regardless of RTT.
        assert!((link.image_rate(100_000) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_4k_raw_frame_over_rural_lte_is_hopeless() {
        // 3840x2160x3 bytes ≈ 24.9 MB: minutes per frame on rural LTE.
        let bytes = 3840 * 2160 * 3;
        let t = NetworkLink::RURAL_LTE.upload_s(bytes);
        assert!(t > 30.0, "{t}s");
        // Even 5G only manages a handful of raw 4K frames per second.
        assert!(NetworkLink::FIVE_G.image_rate(bytes) < 2.0);
    }

    #[test]
    fn overhead_reduces_effective_rate() {
        let clean = NetworkLink {
            name: "a",
            uplink_mbps: 10.0,
            rtt_ms: 0.0,
            overhead: 0.0,
        };
        let lossy = NetworkLink {
            name: "b",
            uplink_mbps: 10.0,
            rtt_ms: 0.0,
            overhead: 0.2,
        };
        assert!(lossy.image_rate(10_000) < clean.image_rate(10_000));
    }
}
