//! Per-node circuit breakers: stop sending work to a node that keeps
//! failing, probe it after a cooldown, and re-admit it once probes succeed.
//!
//! The breaker is a pure, deterministic state machine driven by the sim
//! clock and by explicit `record_success` / `record_failure` calls from the
//! dispatch path — it never reads wall-clock time or randomness, so cluster
//! runs with breakers stay bit-reproducible.
//!
//! States follow the classic pattern:
//!
//! * **Closed** — traffic flows; failure-rate and latency EWMAs are
//!   maintained. Once at least `min_samples` outcomes are in, crossing
//!   either threshold trips the breaker open.
//! * **Open** — [`CircuitBreaker::allow`] refuses everything until
//!   `cooldown` has elapsed since the trip, then moves to half-open.
//! * **HalfOpen** — up to `half_open_probes` requests are let through.
//!   `close_after` recorded successes close the breaker (EWMAs reset); any
//!   failure re-trips it open and restarts the cooldown.

use harvest_simkit::SimTime;

/// Breaker tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Failure-rate EWMA level that trips the breaker (0..1).
    pub error_threshold: f64,
    /// Success-latency EWMA (seconds) that trips the breaker; `None`
    /// disables latency tripping.
    pub latency_threshold_s: Option<f64>,
    /// EWMA smoothing factor in (0, 1]; higher reacts faster.
    pub ewma_alpha: f64,
    /// Outcomes required before the breaker may trip (warm-up guard).
    pub min_samples: u64,
    /// How long an open breaker waits before probing.
    pub cooldown: SimTime,
    /// Requests admitted while half-open.
    pub half_open_probes: u64,
    /// Successes needed in half-open to close.
    pub close_after: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            error_threshold: 0.5,
            latency_threshold_s: None,
            ewma_alpha: 0.2,
            min_samples: 8,
            cooldown: SimTime::from_millis(200),
            half_open_probes: 64,
            close_after: 2,
        }
    }
}

impl BreakerConfig {
    /// Check the knobs for consistency.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..=1.0).contains(&self.error_threshold) {
            return Err(format!(
                "error_threshold {} outside [0, 1]",
                self.error_threshold
            ));
        }
        if !(self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0) {
            return Err(format!("ewma_alpha {} outside (0, 1]", self.ewma_alpha));
        }
        if self.half_open_probes == 0 || self.close_after == 0 {
            return Err("half_open_probes and close_after must be at least 1".into());
        }
        Ok(())
    }
}

/// Breaker states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    /// Traffic flows normally.
    Closed,
    /// Node is quarantined until the cooldown elapses.
    Open,
    /// A limited number of probe requests are being let through.
    HalfOpen,
}

/// One node's circuit breaker.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    opened_at: SimTime,
    err_ewma: f64,
    latency_ewma_s: f64,
    samples: u64,
    probes_allowed: u64,
    probe_successes: u64,
    trips: u64,
    closes: u64,
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            opened_at: SimTime::ZERO,
            err_ewma: 0.0,
            latency_ewma_s: 0.0,
            samples: 0,
            probes_allowed: 0,
            probe_successes: 0,
            trips: 0,
            closes: 0,
        }
    }

    /// Current state after advancing the clock to `now` (an open breaker
    /// whose cooldown has elapsed reports half-open).
    pub fn state(&mut self, now: SimTime) -> BreakerState {
        self.advance(now);
        self.state
    }

    /// Times this breaker tripped open (including half-open re-trips).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times this breaker recovered (half-open → closed).
    pub fn closes(&self) -> u64 {
        self.closes
    }

    /// May a request be sent to this node at `now`? Half-open admissions
    /// consume probe slots, so the caller must route the request if this
    /// returns `true`.
    pub fn allow(&mut self, now: SimTime) -> bool {
        self.advance(now);
        match self.state {
            BreakerState::Closed => true,
            BreakerState::Open => false,
            BreakerState::HalfOpen => {
                if self.probes_allowed < self.config.half_open_probes {
                    self.probes_allowed += 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful service of latency `latency` finishing at `now`.
    pub fn record_success(&mut self, now: SimTime, latency: SimTime) {
        self.advance(now);
        match self.state {
            BreakerState::Closed => {
                self.observe(0.0, Some(latency));
                self.maybe_trip(now);
            }
            BreakerState::HalfOpen => {
                self.probe_successes += 1;
                if self.probe_successes >= self.config.close_after {
                    self.state = BreakerState::Closed;
                    self.closes += 1;
                    self.reset_window();
                }
            }
            // A straggler completing after the trip carries no new
            // information about the node's current health.
            BreakerState::Open => {}
        }
    }

    /// Record a failed service observed at `now`.
    pub fn record_failure(&mut self, now: SimTime) {
        self.advance(now);
        match self.state {
            BreakerState::Closed => {
                self.observe(1.0, None);
                self.maybe_trip(now);
            }
            BreakerState::HalfOpen => self.trip(now),
            BreakerState::Open => {}
        }
    }

    /// Trip the breaker open unconditionally, regardless of EWMAs or the
    /// warm-up guard — the integrity layer's quarantine action after a node
    /// fails its post-recovery retry. The normal cooldown → half-open →
    /// probe cycle still applies afterwards, so a node whose corruption was
    /// transient re-admits itself.
    pub fn force_open(&mut self, now: SimTime) {
        self.trip(now);
    }

    fn advance(&mut self, now: SimTime) {
        if self.state == BreakerState::Open && now >= self.opened_at + self.config.cooldown {
            self.state = BreakerState::HalfOpen;
            self.probes_allowed = 0;
            self.probe_successes = 0;
        }
    }

    fn observe(&mut self, err: f64, latency: Option<SimTime>) {
        let a = self.config.ewma_alpha;
        self.err_ewma = a * err + (1.0 - a) * self.err_ewma;
        if let Some(lat) = latency {
            self.latency_ewma_s = a * lat.as_secs_f64() + (1.0 - a) * self.latency_ewma_s;
        }
        self.samples += 1;
    }

    fn maybe_trip(&mut self, now: SimTime) {
        if self.samples < self.config.min_samples {
            return;
        }
        let err_tripped = self.err_ewma > self.config.error_threshold;
        let lat_tripped = self
            .config
            .latency_threshold_s
            .is_some_and(|t| self.latency_ewma_s > t);
        if err_tripped || lat_tripped {
            self.trip(now);
        }
    }

    fn trip(&mut self, now: SimTime) {
        self.state = BreakerState::Open;
        self.opened_at = now;
        self.trips += 1;
        self.reset_window();
    }

    fn reset_window(&mut self) {
        self.err_ewma = 0.0;
        self.latency_ewma_s = 0.0;
        self.samples = 0;
        self.probes_allowed = 0;
        self.probe_successes = 0;
    }
}

/// The cluster's per-node breakers, shared between the frontend dispatcher,
/// the failover router, and the per-node completion handlers.
#[derive(Debug)]
pub(crate) struct BreakerBank {
    breakers: Vec<std::cell::RefCell<CircuitBreaker>>,
}

impl BreakerBank {
    /// One breaker per node, all with the same tuning.
    pub(crate) fn new(nodes: u32, config: BreakerConfig) -> Self {
        BreakerBank {
            breakers: (0..nodes)
                .map(|_| std::cell::RefCell::new(CircuitBreaker::new(config)))
                .collect(),
        }
    }

    /// May `node` receive a request at `now`? Consumes a half-open probe
    /// slot on success.
    pub(crate) fn allow(&self, node: u32, now: SimTime) -> bool {
        self.breakers[node as usize].borrow_mut().allow(now)
    }

    /// Record a successful batch service on `node`.
    pub(crate) fn record_success(&self, node: u32, now: SimTime, latency: SimTime) {
        self.breakers[node as usize]
            .borrow_mut()
            .record_success(now, latency);
    }

    /// Record a failed batch service on `node`.
    pub(crate) fn record_failure(&self, node: u32, now: SimTime) {
        self.breakers[node as usize]
            .borrow_mut()
            .record_failure(now);
    }

    /// Force `node`'s breaker open (integrity quarantine).
    pub(crate) fn force_open(&self, node: u32, now: SimTime) {
        self.breakers[node as usize].borrow_mut().force_open(now);
    }

    /// `node`'s state at `now`.
    pub(crate) fn state(&self, node: u32, now: SimTime) -> BreakerState {
        self.breakers[node as usize].borrow_mut().state(now)
    }

    /// Total trips across all nodes.
    pub(crate) fn total_trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.borrow().trips()).sum()
    }

    /// Total recoveries across all nodes.
    pub(crate) fn total_closes(&self) -> u64 {
        self.breakers.iter().map(|b| b.borrow().closes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_config() -> BreakerConfig {
        BreakerConfig {
            error_threshold: 0.5,
            latency_threshold_s: None,
            ewma_alpha: 0.5,
            min_samples: 4,
            cooldown: SimTime::from_millis(100),
            half_open_probes: 4,
            close_after: 2,
        }
    }

    #[test]
    fn stays_closed_under_success() {
        let mut b = CircuitBreaker::new(fast_config());
        for i in 0..50u64 {
            let t = SimTime::from_millis(i);
            assert!(b.allow(t));
            b.record_success(t, SimTime::from_millis(1));
        }
        assert_eq!(b.state(SimTime::from_millis(50)), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn trips_open_on_sustained_failures_after_warmup() {
        let mut b = CircuitBreaker::new(fast_config());
        // Three failures: still below min_samples, must not trip.
        for i in 0..3u64 {
            b.record_failure(SimTime::from_millis(i));
        }
        assert_eq!(b.state(SimTime::from_millis(3)), BreakerState::Closed);
        b.record_failure(SimTime::from_millis(4));
        assert_eq!(b.state(SimTime::from_millis(4)), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        assert!(!b.allow(SimTime::from_millis(5)));
    }

    #[test]
    fn half_open_after_cooldown_then_closes_on_probe_success() {
        let mut b = CircuitBreaker::new(fast_config());
        for i in 0..4u64 {
            b.record_failure(SimTime::from_millis(i));
        }
        assert_eq!(b.state(SimTime::from_millis(10)), BreakerState::Open);
        // Cooldown (100ms) elapses at t = 4 + 100.
        let t = SimTime::from_millis(104);
        assert_eq!(b.state(t), BreakerState::HalfOpen);
        assert!(b.allow(t), "probe 1 admitted");
        assert!(b.allow(t), "probe 2 admitted");
        b.record_success(t, SimTime::from_millis(1));
        assert_eq!(b.state(t), BreakerState::HalfOpen, "one success not enough");
        b.record_success(t, SimTime::from_millis(1));
        assert_eq!(b.state(t), BreakerState::Closed);
        assert_eq!(b.closes(), 1);
    }

    #[test]
    fn half_open_probe_budget_is_bounded() {
        let mut b = CircuitBreaker::new(fast_config());
        for i in 0..4u64 {
            b.record_failure(SimTime::from_millis(i));
        }
        let t = SimTime::from_millis(200);
        for _ in 0..4 {
            assert!(b.allow(t));
        }
        assert!(!b.allow(t), "5th probe refused");
    }

    #[test]
    fn half_open_failure_retrips_and_restarts_cooldown() {
        let mut b = CircuitBreaker::new(fast_config());
        for i in 0..4u64 {
            b.record_failure(SimTime::from_millis(i));
        }
        let t = SimTime::from_millis(150);
        assert_eq!(b.state(t), BreakerState::HalfOpen);
        b.record_failure(t);
        assert_eq!(b.state(t), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Not half-open again until t + cooldown.
        assert_eq!(
            b.state(SimTime::from_millis(200)),
            BreakerState::Open,
            "cooldown restarted at the re-trip"
        );
        assert_eq!(b.state(SimTime::from_millis(250)), BreakerState::HalfOpen);
    }

    #[test]
    fn latency_threshold_trips_without_errors() {
        let config = BreakerConfig {
            latency_threshold_s: Some(0.010),
            ..fast_config()
        };
        let mut b = CircuitBreaker::new(config);
        for i in 0..8u64 {
            let t = SimTime::from_millis(i * 20);
            b.record_success(t, SimTime::from_millis(50));
        }
        // min_samples reached at the 4th success (t=60ms) with the latency
        // EWMA far above 10ms, so the trip lands there; until the 100ms
        // cooldown elapses (t=160ms) the breaker is open.
        assert_eq!(b.trips(), 1);
        assert_eq!(b.state(SimTime::from_millis(159)), BreakerState::Open);
        assert_eq!(b.state(SimTime::from_millis(160)), BreakerState::HalfOpen);
    }

    #[test]
    fn ewma_recovers_when_errors_stop() {
        let mut b = CircuitBreaker::new(fast_config());
        // A failure burst too short to trip (below min_samples)...
        for i in 0..3u64 {
            b.record_failure(SimTime::from_millis(i));
        }
        // ...then sustained successes decay the EWMA below the threshold
        // before the sample guard lifts, so the breaker never opens.
        for i in 3..20u64 {
            b.record_success(SimTime::from_millis(i), SimTime::from_millis(1));
        }
        assert_eq!(b.state(SimTime::from_millis(20)), BreakerState::Closed);
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn bank_isolates_nodes() {
        let bank = BreakerBank::new(3, fast_config());
        for i in 0..4u64 {
            bank.record_failure(1, SimTime::from_millis(i));
        }
        let t = SimTime::from_millis(10);
        assert!(bank.allow(0, t));
        assert!(!bank.allow(1, t));
        assert!(bank.allow(2, t));
        assert_eq!(bank.total_trips(), 1);
        assert_eq!(bank.total_closes(), 0);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut c = BreakerConfig::default();
        assert!(c.validate().is_ok());
        c.ewma_alpha = 0.0;
        assert!(c.validate().is_err());
        let c = BreakerConfig {
            error_threshold: 1.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        let c = BreakerConfig {
            close_after: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }
}
