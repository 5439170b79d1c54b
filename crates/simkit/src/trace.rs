//! The fleet-scale replayable workload generator.
//!
//! [`FleetTraceConfig`]/[`RegionTrace`] generate the million-user,
//! multi-day workloads the fleet simulation replays: per-region streams of
//! [`TraceRequest`]s following diurnal farm-operations cycles (local time,
//! so each region's peak is shifted by its time-zone offset), an optional
//! harvest-season surge envelope, and drone-survey bursts — hundreds of
//! frames from one drone in a tight window. Streams are **streamed**: one
//! hour-bin of arrivals is materialized at a time (tens of kilobytes), so
//! a week of a million users never exists in memory at once, and every
//! draw derives from a forked [`SimRng`] stream per `(seed, region)` — the
//! same config replays the same trace bit-for-bit, per region,
//! independently of which other regions are generated.

use crate::rng::SimRng;
use crate::time::SimTime;
use std::ops::Range;

/// What a simulated request is doing — drives image class mix and, in the
/// fleet model, which tier the request prefers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Routine field-monitoring classification (the diurnal baseline).
    Monitor,
    /// Ad-hoc scouting photo from a person in the field.
    Scout,
    /// One frame of a drone survey burst.
    DroneSurvey,
}

/// One workload arrival produced by a [`RegionTrace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRequest {
    /// Arrival time (absolute, fleet-wide clock).
    pub at: SimTime,
    /// Originating region (== shard index in the fleet sim).
    pub region: u32,
    /// Originating user, globally unique across regions.
    pub user: u64,
    /// What the request is.
    pub kind: RequestKind,
}

/// Configuration for a replayable fleet workload.
///
/// All rates are *expected values*; the realized trace draws per-hour
/// Poisson counts from a deterministic per-region RNG stream, so the same
/// config always yields the same trace.
#[derive(Clone, Debug)]
pub struct FleetTraceConfig {
    /// Master seed; forked per region so regions replay independently.
    pub seed: u64,
    /// Total simulated users across the fleet (split evenly by region,
    /// remainder to the lowest-numbered regions).
    pub users: u64,
    /// Number of regions (one trace stream, one fleet shard, each).
    pub regions: u32,
    /// Trace length in whole days.
    pub days: u32,
    /// Expected routine requests per user per day (diurnally modulated).
    pub requests_per_user_day: f64,
    /// Day on which the harvest-season surge peaks, if any.
    pub surge_day: Option<u32>,
    /// Peak traffic multiplier at the surge day (linear ramp one day up,
    /// one day down; 1.0 disables even when `surge_day` is set).
    pub surge_gain: f64,
    /// Expected drone-survey bursts per region per day.
    pub bursts_per_region_day: f64,
    /// Frames per drone-survey burst.
    pub burst_frames: u32,
    /// Window over which one burst's frames spread.
    pub burst_width: SimTime,
    /// Fraction of routine (non-burst) requests that are ad-hoc scouting
    /// rather than scheduled monitoring.
    pub scout_fraction: f64,
}

impl FleetTraceConfig {
    /// A workload with the defaults the fleet experiments use: 4 routine
    /// requests per user-day, a 6× harvest surge when `surge_day` is set
    /// later, 3 drone bursts of 240 frames per region-day.
    pub fn new(seed: u64, users: u64, regions: u32, days: u32) -> Self {
        assert!(users >= 1 && regions >= 1 && days >= 1);
        FleetTraceConfig {
            seed,
            users,
            regions,
            days,
            requests_per_user_day: 4.0,
            surge_day: None,
            surge_gain: 6.0,
            bursts_per_region_day: 3.0,
            burst_frames: 240,
            burst_width: SimTime::from_secs(120),
            scout_fraction: 0.2,
        }
    }

    /// The global user-id range owned by `region`.
    pub(crate) fn region_users(&self, region: u32) -> Range<u64> {
        assert!(region < self.regions);
        let base = self.users / self.regions as u64;
        let extra = self.users % self.regions as u64;
        let r = region as u64;
        let start = r * base + r.min(extra);
        let len = base + u64::from(r < extra);
        start..start + len
    }

    /// The region's time-zone offset: local time leads fleet time by this
    /// many hours, spreading diurnal peaks across the fleet.
    pub(crate) fn tz_offset_hours(&self, region: u32) -> u64 {
        // Spread regions around the clock rather than packing neighbours
        // into the same zone (co-prime stride).
        (region as u64 * 7) % 24
    }

    /// Total trace horizon.
    pub fn horizon(&self) -> SimTime {
        SimTime::from_days(self.days as u64)
    }
}

/// Diurnal farm-operations weight for a local hour: quiet nights, a steep
/// morning ramp, sustained daylight activity with an early-morning and a
/// late-afternoon peak (spraying and scouting happen at the edges of the
/// day). Mean over 24 h is normalized to 1 by `DIURNAL_NORM`.
fn diurnal_weight(local_hour: u64) -> f64 {
    DIURNAL_WEIGHTS[(local_hour % 24) as usize] / DIURNAL_NORM
}

const DIURNAL_WEIGHTS: [f64; 24] = [
    0.10, 0.08, 0.06, 0.06, 0.10, 0.35, 1.20, 1.90, 1.70, 1.40, 1.20, 1.10, //
    1.00, 1.05, 1.20, 1.50, 1.85, 1.95, 1.40, 0.80, 0.45, 0.30, 0.20, 0.15,
];

/// Mean of `DIURNAL_WEIGHTS`, so the normalized weights average to 1 and
/// `requests_per_user_day` is exact. Pinned against the table by the unit
/// test `diurnal_weights_average_to_one`.
const DIURNAL_NORM: f64 = 21.1 / 24.0;

/// Harvest-season surge multiplier for a given day: a linear ramp to
/// `gain` centred on `surge_day`, one day wide on each side.
fn surge_multiplier(day: f64, surge_day: Option<u32>, gain: f64) -> f64 {
    let Some(peak) = surge_day else { return 1.0 };
    let d = (day - peak as f64).abs();
    if d >= 1.0 {
        1.0
    } else {
        1.0 + (gain - 1.0).max(0.0) * (1.0 - d)
    }
}

/// A streaming per-region arrival iterator: yields [`TraceRequest`]s in
/// nondecreasing time order, materializing one hour-bin at a time.
pub struct RegionTrace {
    cfg: FleetTraceConfig,
    region: u32,
    rng: SimRng,
    users: Range<u64>,
    tz: u64,
    hour: u64,
    total_hours: u64,
    /// Current hour's arrivals, sorted descending so `next` is `Vec::pop`.
    buf: Vec<TraceRequest>,
    /// Burst frames that spilled past the current hour's boundary, sorted
    /// descending; merged into later bins so the stream stays globally
    /// nondecreasing.
    carry: Vec<TraceRequest>,
}

impl RegionTrace {
    /// The stream for `region` under `cfg`. Each region's stream is a pure
    /// function of `(cfg.seed, region)` — generating region 7 alone yields
    /// exactly the arrivals region 7 gets in a full-fleet generation.
    pub fn new(cfg: &FleetTraceConfig, region: u32) -> Self {
        assert!(region < cfg.regions);
        let mut master = SimRng::new(cfg.seed);
        let rng = master.fork(region as u64 + 1);
        RegionTrace {
            region,
            rng,
            users: cfg.region_users(region),
            tz: cfg.tz_offset_hours(region),
            hour: 0,
            total_hours: cfg.days as u64 * 24,
            buf: Vec::new(),
            carry: Vec::new(),
            cfg: cfg.clone(),
        }
    }

    fn fill_hour(&mut self) {
        debug_assert!(self.buf.is_empty());
        let hour = self.hour;
        let cfg = &self.cfg;
        let hour_start = SimTime::from_hours(hour);
        let local_hour = hour + self.tz;
        let day_frac = hour as f64 / 24.0;
        let surge = surge_multiplier(day_frac, cfg.surge_day, cfg.surge_gain);

        // Routine monitoring/scouting: non-homogeneous Poisson, binned by
        // hour with the rate frozen at the bin's envelope value.
        let n_users = self.users.end - self.users.start;
        let lambda =
            n_users as f64 * cfg.requests_per_user_day / 24.0 * diurnal_weight(local_hour) * surge;
        let count = self.rng.poisson(lambda);
        for _ in 0..count {
            let at = hour_start + SimTime::from_nanos(self.rng.below(3_600_000_000_000));
            let user = self.users.start + self.rng.below(n_users);
            let kind = if self.rng.chance(cfg.scout_fraction) {
                RequestKind::Scout
            } else {
                RequestKind::Monitor
            };
            self.buf.push(TraceRequest {
                at,
                region: self.region,
                user,
                kind,
            });
        }

        // Drone-survey bursts: a few per region-day, each a salvo of frames
        // from one user inside a tight window.
        let bursts = self.rng.poisson(cfg.bursts_per_region_day / 24.0 * surge);
        for _ in 0..bursts {
            let start = hour_start + SimTime::from_nanos(self.rng.below(3_600_000_000_000));
            let user = self.users.start + self.rng.below(n_users);
            let width = cfg.burst_width.as_nanos().max(1);
            for _ in 0..cfg.burst_frames {
                let at = start + SimTime::from_nanos(self.rng.below(width));
                self.buf.push(TraceRequest {
                    at,
                    region: self.region,
                    user,
                    kind: RequestKind::DroneSurvey,
                });
            }
        }

        // Burst frames can land past the hour boundary (start near the
        // edge + jitter inside `burst_width`). Fold earlier spill back in,
        // sort, and hold anything still beyond this bin for later bins —
        // otherwise the stream would emit those frames before the next
        // hour's earlier arrivals and break global time ordering.
        self.buf.append(&mut self.carry);
        // Descending sort: `next` pops the earliest from the back. The sort
        // is stable only up to the (time, generation-order) key, which is
        // itself deterministic, so the stream replays bit-for-bit.
        self.buf.sort_by_key(|r| std::cmp::Reverse(r.at));
        let hour_end = hour_start + SimTime::from_hours(1);
        let spill = self.buf.partition_point(|r| r.at >= hour_end);
        self.carry = self.buf.drain(..spill).collect();
    }
}

impl Iterator for RegionTrace {
    type Item = TraceRequest;

    fn next(&mut self) -> Option<TraceRequest> {
        while self.buf.is_empty() {
            if self.hour >= self.total_hours {
                if self.carry.is_empty() {
                    return None;
                }
                // Tail spill past the last bin: already sorted descending.
                std::mem::swap(&mut self.buf, &mut self.carry);
                break;
            }
            self.fill_hour();
            self.hour += 1;
        }
        self.buf.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Expected total arrivals across the whole fleet (the realized count
    /// varies by Poisson noise).
    fn expected_requests(cfg: &FleetTraceConfig) -> f64 {
        let days = cfg.days as f64;
        let surge_extra = if cfg.surge_day.is_some() {
            // Triangular ramp: one day at the peak plus half a day each side.
            (cfg.surge_gain - 1.0).max(0.0)
        } else {
            0.0
        };
        let routine = cfg.users as f64 * cfg.requests_per_user_day * (days + surge_extra);
        let bursts =
            cfg.regions as f64 * cfg.bursts_per_region_day * days * cfg.burst_frames as f64;
        routine + bursts
    }

    #[test]
    fn diurnal_weights_average_to_one() {
        let sum: f64 = DIURNAL_WEIGHTS.iter().sum();
        assert!((sum / 24.0 - DIURNAL_NORM).abs() < 1e-12);
        let norm_sum: f64 = (0..24).map(diurnal_weight).sum();
        assert!((norm_sum / 24.0 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn region_users_partition_the_fleet() {
        let cfg = FleetTraceConfig::new(1, 1_000_003, 16, 1);
        let mut covered = 0u64;
        let mut next = 0u64;
        for r in 0..16 {
            let range = cfg.region_users(r);
            assert_eq!(range.start, next, "regions must tile contiguously");
            next = range.end;
            covered += range.end - range.start;
        }
        assert_eq!(covered, 1_000_003);
        assert_eq!(next, 1_000_003);
    }

    #[test]
    fn region_trace_is_sorted_deterministic_and_region_independent() {
        let cfg = FleetTraceConfig::new(42, 10_000, 4, 1);
        let a: Vec<TraceRequest> = RegionTrace::new(&cfg, 2).collect();
        let b: Vec<TraceRequest> = RegionTrace::new(&cfg, 2).collect();
        assert_eq!(a, b, "same (seed, region) must replay bit-for-bit");
        assert!(!a.is_empty());
        let users = cfg.region_users(2);
        let mut last = SimTime::ZERO;
        for req in &a {
            assert!(req.at >= last, "arrivals must be nondecreasing");
            assert!(req.at < cfg.horizon());
            assert_eq!(req.region, 2);
            assert!(users.contains(&req.user));
            last = req.at;
        }
        // A different region draws a different stream.
        let c: Vec<TraceRequest> = RegionTrace::new(&cfg, 3).collect();
        assert_ne!(
            a.iter().map(|r| r.at).collect::<Vec<_>>(),
            c.iter().map(|r| r.at).collect::<Vec<_>>()
        );
    }

    #[test]
    fn trace_volume_tracks_the_expected_rate() {
        let mut cfg = FleetTraceConfig::new(7, 50_000, 2, 2);
        cfg.bursts_per_region_day = 0.0; // isolate the routine envelope
        let total: usize = (0..2).map(|r| RegionTrace::new(&cfg, r).count()).sum();
        let expected = expected_requests(&cfg);
        let ratio = total as f64 / expected;
        assert!(
            (0.95..1.05).contains(&ratio),
            "total {total} vs expected {expected}"
        );
    }

    #[test]
    fn surge_day_multiplies_traffic() {
        let mut base = FleetTraceConfig::new(9, 20_000, 1, 3);
        base.bursts_per_region_day = 0.0;
        let mut surged = base.clone();
        surged.surge_day = Some(1);
        surged.surge_gain = 6.0;
        let count_on = |cfg: &FleetTraceConfig, day: u64| {
            RegionTrace::new(cfg, 0)
                .filter(|r| r.at >= SimTime::from_days(day) && r.at < SimTime::from_days(day + 1))
                .count() as f64
        };
        let quiet = count_on(&base, 1);
        let peak = count_on(&surged, 1);
        assert!(
            peak / quiet > 3.0,
            "surge day should multiply traffic: {quiet} -> {peak}"
        );
        // Day 0 of the surged config still ramps (half the triangle).
        let off_peak = count_on(&surged, 2);
        assert!(peak > off_peak * 2.0);
    }

    #[test]
    fn drone_bursts_cluster_frames_from_one_user() {
        let mut cfg = FleetTraceConfig::new(11, 1_000, 1, 1);
        cfg.requests_per_user_day = 0.0;
        cfg.bursts_per_region_day = 24.0;
        cfg.burst_frames = 50;
        let reqs: Vec<TraceRequest> = RegionTrace::new(&cfg, 0).collect();
        assert!(!reqs.is_empty());
        assert_eq!(reqs.len() % 50, 0, "only whole bursts are generated");
        assert!(reqs.iter().all(|r| r.kind == RequestKind::DroneSurvey));
        // Frames group into per-user salvos inside the burst window.
        let mut by_user = std::collections::HashMap::new();
        for r in &reqs {
            by_user.entry(r.user).or_insert_with(Vec::new).push(r.at);
        }
        for times in by_user.values() {
            let lo = times.iter().min().unwrap();
            let hi = times.iter().max().unwrap();
            assert!(
                *hi - *lo <= cfg.burst_width * 2,
                "a user's frames should cluster tightly"
            );
        }
    }

    #[test]
    fn streaming_keeps_the_buffer_bounded() {
        // A day of 200k users in one region: the iterator must never hold
        // more than roughly one hour-bin of arrivals.
        let cfg = FleetTraceConfig::new(13, 200_000, 1, 1);
        let mut trace = RegionTrace::new(&cfg, 0);
        let mut n = 0u64;
        let mut peak_buf = 0usize;
        while trace.next().is_some() {
            n += 1;
            peak_buf = peak_buf.max(trace.buf.len());
        }
        assert!(n > 500_000, "should generate a substantial stream: {n}");
        // One hour at the diurnal peak is ~2.2x the mean hour; the whole
        // day is 24x. A bounded buffer proves streaming.
        assert!(
            (peak_buf as u64) < n / 6,
            "buffer {peak_buf} vs total {n} — not streaming"
        );
    }
}
