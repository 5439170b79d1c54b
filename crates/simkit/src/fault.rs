//! Deterministic fault injection for the DES core.
//!
//! A [`FaultPlan`] is a seeded, schedulable description of everything that
//! can go wrong in a simulated serving deployment:
//!
//! * **engine crashes** — per-node windows during which the model engine is
//!   down; work in flight when a window opens is lost and must be retried;
//! * **transient per-request errors** — each (request, attempt) pair fails
//!   with a fixed probability;
//! * **silent data corruption** — weight bit-flips by (round, tensor,
//!   element), activation bit-flips at a named graph pass, and input-byte
//!   truncation/garbling, all decided per element by independent hash coins.
//!
//! Everything is a pure function of the plan: window queries are lookups and
//! the transient-error coin is a hash of `(seed, request id, attempt)`, not
//! a draw from a shared stream. That makes every fault decision independent
//! of event-loop interleaving, so a chaos run is exactly as bit-reproducible
//! as a healthy one — which is what turns chaos testing into assertable
//! regression tests. The corruption coins follow the same discipline: the
//! set of flipped bits is a pure function of `(seed, identifiers)`, never of
//! iteration order or thread count, so an injected-corruption run produces
//! bit-identical corrupted tensors on every rerun.

use crate::time::SimTime;

/// A half-open time window `[start, end)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultWindow {
    /// When the fault begins.
    pub start: SimTime,
    /// When the fault clears (exclusive).
    pub end: SimTime,
}

impl FaultWindow {
    /// Build a window; `end` must be after `start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end > start, "fault window must have positive duration");
        FaultWindow { start, end }
    }

    /// Does the window cover instant `at`?
    #[inline]
    pub fn covers(&self, at: SimTime) -> bool {
        self.start <= at && at < self.end
    }

    /// Does the window intersect the half-open span `[from, to)`?
    #[inline]
    pub fn intersects(&self, from: SimTime, to: SimTime) -> bool {
        self.start < to && from < self.end
    }

    /// Window length.
    #[inline]
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// An engine-crash window on one node.
#[derive(Clone, Copy, Debug)]
struct EngineCrash {
    node: u32,
    window: FaultWindow,
}

/// The deterministic fault schedule. See the module docs for semantics.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    seed: u64,
    engine_crashes: Vec<EngineCrash>,
    transient_error_rate: f64,
    weight_flip_rate: f64,
    weight_flips_sticky: bool,
    activation_flip_rate: f64,
    activation_pass: Option<String>,
    input_corruption_rate: f64,
}

/// Domain-separation constants so each corruption coin is an independent
/// hash family (same structure as the transient/backoff split).
const WEIGHT_DOMAIN: u64 = 0x8F1B_ADD4_7C6A_913F;
const ACTIVATION_DOMAIN: u64 = 0x1E35_A7BD_19D6_92C5;
const INPUT_DOMAIN: u64 = 0xC2B2_AE3D_27D4_EB4F;

impl FaultPlan {
    /// An empty plan: nothing ever fails.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// An empty plan with a seed for the transient-error coin and any
    /// randomized schedule generation.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True if any fault is scheduled or possible.
    pub fn is_active(&self) -> bool {
        !self.engine_crashes.is_empty()
            || self.transient_error_rate > 0.0
            || self.corrupts_weights()
            || self.corrupts_activations()
            || self.corrupts_inputs()
    }

    /// Schedule an engine crash on `node` over `[start, end)`.
    pub fn with_engine_crash(mut self, node: u32, start: SimTime, end: SimTime) -> Self {
        self.engine_crashes.push(EngineCrash {
            node,
            window: FaultWindow::new(start, end),
        });
        self
    }

    /// Make every (request, attempt) fail independently with probability
    /// `rate`, decided by a hash of `(seed, id, attempt)`.
    pub fn with_transient_errors(mut self, rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "transient error rate must be in [0, 1)"
        );
        self.transient_error_rate = rate;
        self
    }

    /// Schedule `crashes` evenly-spread engine crash windows of length
    /// `downtime` per node across `[0, horizon)`, with deterministic
    /// seed-derived phase jitter so nodes don't fail in lockstep.
    pub fn with_periodic_engine_crashes(
        mut self,
        nodes: u32,
        crashes: u32,
        horizon: SimTime,
        downtime: SimTime,
    ) -> Self {
        assert!(crashes > 0 && nodes > 0);
        let period = SimTime::from_nanos(horizon.as_nanos() / crashes as u64);
        assert!(
            period > downtime,
            "downtime must fit inside the crash period"
        );
        let slack = period.as_nanos() - downtime.as_nanos();
        for node in 0..nodes {
            for k in 0..crashes {
                // Deterministic per-(node, crash) phase inside the period.
                let phase = hash3(self.seed, node as u64, k as u64) % slack.max(1);
                let start = SimTime::from_nanos(period.as_nanos() * k as u64 + phase.max(1));
                self = self.with_engine_crash(node, start, start + downtime);
            }
        }
        self
    }

    /// Is `node`'s engine down at instant `at`?
    pub fn engine_down(&self, node: u32, at: SimTime) -> bool {
        self.engine_crashes
            .iter()
            .any(|c| c.node == node && c.window.covers(at))
    }

    /// First crash window on `node` intersecting the service span
    /// `[from, to)`, as `(fail_at, resume_at)`: the work fails at `fail_at`
    /// (window start, clamped to `from`) and the engine is next up at
    /// `resume_at` (chained across overlapping/adjacent windows).
    pub fn engine_crash_in(
        &self,
        node: u32,
        from: SimTime,
        to: SimTime,
    ) -> Option<(SimTime, SimTime)> {
        let first = self
            .engine_crashes
            .iter()
            .filter(|c| c.node == node && c.window.intersects(from, to))
            .min_by_key(|c| c.window.start)?;
        let fail_at = first.window.start.max(from);
        Some((fail_at, self.engine_up_after(node, first.window.end)))
    }

    /// Earliest instant `>= at` when `node`'s engine is up, chaining
    /// through any windows that cover the candidate instant.
    pub fn engine_up_after(&self, node: u32, at: SimTime) -> SimTime {
        let mut t = at;
        loop {
            match self
                .engine_crashes
                .iter()
                .filter(|c| c.node == node && c.window.covers(t))
                .map(|c| c.window.end)
                .max()
            {
                Some(end) => t = end,
                None => return t,
            }
        }
    }

    /// Does attempt `attempt` of request `id` fail transiently? Pure hash
    /// coin — independent of call order, so chaos runs stay bit-reproducible.
    pub fn transient_failure(&self, id: u64, attempt: u32) -> bool {
        if self.transient_error_rate <= 0.0 {
            return false;
        }
        let h = hash3(self.seed, id, attempt as u64);
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.transient_error_rate
    }

    /// Flip each weight element's bit independently with probability
    /// `rate` per injection round, decided by a hash of
    /// `(seed, round, tensor, element)`. `sticky` models a failing memory
    /// cell rather than a one-off upset: re-materializing the weights and
    /// re-injecting the same round reproduces the same flips, so recovery
    /// by rebuild keeps failing and the node must be quarantined.
    pub fn with_weight_bit_flips(mut self, rate: f64, sticky: bool) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "weight flip rate must be in [0, 1)"
        );
        self.weight_flip_rate = rate;
        self.weight_flips_sticky = sticky;
        self
    }

    /// Flip activation bits at the graph pass named `pass` (matched against
    /// node names by the executor): each element of that pass's output is
    /// flipped independently with probability `rate`, decided by a hash of
    /// `(seed, batch, attempt, element)`. Keying on the attempt makes the
    /// fault transient — a retried batch draws fresh coins, the way a
    /// particle strike corrupts one execution, not the hardware.
    pub fn with_activation_bit_flips(mut self, rate: f64, pass: &str) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "activation flip rate must be in [0, 1)"
        );
        self.activation_flip_rate = rate;
        self.activation_pass = Some(pass.to_string());
        self
    }

    /// Corrupt each request's encoded input bytes with probability `rate`:
    /// a hash coin picks the victim requests, and a second hash picks the
    /// damage — truncation to a prefix or garbling of a few bytes.
    pub fn with_input_corruption(mut self, rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "input corruption rate must be in [0, 1)"
        );
        self.input_corruption_rate = rate;
        self
    }

    /// Can this plan flip weight bits?
    pub fn corrupts_weights(&self) -> bool {
        self.weight_flip_rate > 0.0
    }

    /// Do weight flips recur after a re-materialization (failing cell)?
    pub fn weight_flips_sticky(&self) -> bool {
        self.weight_flips_sticky
    }

    /// Can this plan flip activation bits?
    pub fn corrupts_activations(&self) -> bool {
        self.activation_flip_rate > 0.0
    }

    /// The graph pass whose output activation flips target.
    pub fn activation_pass(&self) -> Option<&str> {
        self.activation_pass.as_deref()
    }

    /// Can this plan corrupt input byte streams?
    pub fn corrupts_inputs(&self) -> bool {
        self.input_corruption_rate > 0.0
    }

    /// Should `element` of `tensor` be flipped in injection round `round`,
    /// and if so which bit (0 = mantissa LSB, 31 = sign)? Pure hash coin:
    /// the flipped set is independent of traversal order and thread count.
    pub fn weight_flip(&self, round: u64, tensor: u64, element: u64) -> Option<u32> {
        if self.weight_flip_rate <= 0.0 {
            return None;
        }
        let h = hash3(
            self.seed ^ WEIGHT_DOMAIN ^ tensor.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            round,
            element,
        );
        // Coin from bits 11..64, bit choice from the disjoint bits 0..5.
        let hit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.weight_flip_rate;
        hit.then_some((h & 31) as u32)
    }

    /// Should `element` of the targeted pass's output be flipped while
    /// serving `(batch, attempt)`, and if so which bit? Same pure-coin
    /// contract as [`FaultPlan::weight_flip`].
    pub fn activation_flip(&self, batch: u64, attempt: u32, element: u64) -> Option<u32> {
        if self.activation_flip_rate <= 0.0 {
            return None;
        }
        let h = hash3(
            self.seed ^ ACTIVATION_DOMAIN ^ (attempt as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9),
            batch,
            element,
        );
        let hit = (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < self.activation_flip_rate;
        hit.then_some((h & 31) as u32)
    }

    /// Corrupt request `id`'s encoded bytes in place, returning whether any
    /// damage was done. Half the victims are truncated to a hash-derived
    /// prefix (a dropped connection mid-frame), half get 1–8 bytes garbled
    /// (bus/storage bit rot). Deterministic per `(seed, id, bytes.len())`.
    pub fn corrupt_input(&self, id: u64, bytes: &mut Vec<u8>) -> bool {
        if self.input_corruption_rate <= 0.0 || bytes.is_empty() {
            return false;
        }
        let h = hash3(self.seed ^ INPUT_DOMAIN, id, 0);
        if (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) >= self.input_corruption_rate {
            return false;
        }
        if h & 1 == 0 {
            let keep = hash3(self.seed ^ INPUT_DOMAIN, id, 1) as usize % bytes.len();
            bytes.truncate(keep);
        } else {
            let flips = 1 + (h >> 33) % 8;
            for k in 0..flips {
                let hk = hash3(self.seed ^ INPUT_DOMAIN, id, 2 + k);
                let pos = hk as usize % bytes.len();
                // Guarantee the byte actually changes: any XOR mask works
                // as long as it is nonzero.
                bytes[pos] ^= ((hk >> 32) as u8) | 1;
            }
        }
        true
    }

    /// Total engine downtime on `node` overlapping `[0, until)`.
    fn engine_downtime(&self, node: u32, until: SimTime) -> SimTime {
        // Merge overlapping windows so chained crashes aren't double-counted.
        let mut windows: Vec<FaultWindow> = self
            .engine_crashes
            .iter()
            .filter(|c| c.node == node && c.window.start < until)
            .map(|c| FaultWindow {
                start: c.window.start,
                end: c.window.end.min(until),
            })
            .collect();
        windows.sort_by_key(|w| w.start);
        let mut total = SimTime::ZERO;
        let mut current: Option<FaultWindow> = None;
        for w in windows {
            match &mut current {
                Some(c) if w.start <= c.end => c.end = c.end.max(w.end),
                Some(c) => {
                    total += c.duration();
                    current = Some(w);
                }
                None => current = Some(w),
            }
        }
        if let Some(c) = current {
            total += c.duration();
        }
        total
    }

    /// Fraction of `[0, until)` during which `node`'s engine was up.
    pub fn engine_availability(&self, node: u32, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 1.0;
        }
        let down = self.engine_downtime(node, until).as_secs_f64();
        (1.0 - down / until.as_secs_f64()).max(0.0)
    }
}

/// Domain constant for the socket-layer coins, disjoint from the weight/
/// activation/input corruption families above.
const SOCKET_DOMAIN: u64 = 0xA076_1D64_78BD_642F;

/// What a chaos transport does to one connection's request stream.
///
/// Exactly one fate per connection, drawn from a single partitioned coin:
/// the fates are mutually exclusive, so their plan-level rates sum directly
/// and the per-fate connection counts are a pure function of the plan.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SocketFate {
    /// The request goes through undamaged.
    Clean,
    /// The client cuts the connection after writing `after` bytes and never
    /// reads a response (a mid-request reset).
    Reset {
        /// Request-stream offset at which the cut happens.
        after: usize,
    },
    /// The client stops writing after `after` bytes but half-closes
    /// cleanly and still tries to read (a truncated upload).
    Truncate {
        /// Request-stream offset at which writing stops.
        after: usize,
    },
    /// One request byte is XORed with `mask` at offset `pos` in flight.
    Garble {
        /// Request-stream offset of the damaged byte.
        pos: usize,
        /// Nonzero XOR mask, so the byte always actually changes.
        mask: u8,
    },
    /// The client stops mid-request at offset `at` and goes silent for
    /// `millis` — the slowloris shape a read deadline must defend against.
    Stall {
        /// Request-stream offset at which the client goes quiet.
        at: usize,
        /// How long the client stays silent, milliseconds.
        millis: u64,
    },
}

/// Deterministic socket-layer chaos: the [`FaultPlan`] philosophy applied
/// to a wire. Every decision — which connections are damaged, how, and
/// where in the byte stream — is a pure hash of `(seed, connection id)`,
/// never of timing or thread interleaving, so a chaos load run is exactly
/// as replayable as a clean one.
#[derive(Clone, Copy, Debug, Default)]
pub struct SocketFaultPlan {
    seed: u64,
    reset_rate: f64,
    truncate_rate: f64,
    garble_rate: f64,
    stall_rate: f64,
    stall_millis: u64,
    short_chunks: bool,
}

impl SocketFaultPlan {
    /// A plan that never damages anything.
    pub fn none() -> Self {
        SocketFaultPlan::default()
    }

    /// An empty plan with a seed for the fate coins.
    pub fn new(seed: u64) -> Self {
        SocketFaultPlan {
            seed,
            ..SocketFaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Reset a fraction `rate` of connections mid-request.
    pub fn with_resets(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "reset rate must be in [0, 1)");
        self.reset_rate = rate;
        self.assert_rates();
        self
    }

    /// Truncate a fraction `rate` of request streams (clean half-close).
    pub fn with_truncations(mut self, rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "truncate rate must be in [0, 1)"
        );
        self.truncate_rate = rate;
        self.assert_rates();
        self
    }

    /// Garble one request byte on a fraction `rate` of connections.
    pub fn with_garbling(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "garble rate must be in [0, 1)");
        self.garble_rate = rate;
        self.assert_rates();
        self
    }

    /// Stall a fraction `rate` of connections mid-request for `millis`.
    pub fn with_stalls(mut self, rate: f64, millis: u64) -> Self {
        assert!((0.0..1.0).contains(&rate), "stall rate must be in [0, 1)");
        assert!(millis > 0, "a stall must have positive duration");
        self.stall_rate = rate;
        self.stall_millis = millis;
        self.assert_rates();
        self
    }

    /// Deliver reads and writes in deterministically-sized partial chunks,
    /// exercising short-read/short-write handling on both ends of the wire
    /// without changing what bytes arrive.
    pub fn with_short_chunks(mut self) -> Self {
        self.short_chunks = true;
        self
    }

    fn assert_rates(&self) {
        assert!(
            self.reset_rate + self.truncate_rate + self.garble_rate + self.stall_rate <= 1.0,
            "fate rates are mutually exclusive and must sum to at most 1"
        );
    }

    /// Does any fault fire with nonzero probability?
    pub fn is_active(&self) -> bool {
        self.reset_rate > 0.0
            || self.truncate_rate > 0.0
            || self.garble_rate > 0.0
            || self.stall_rate > 0.0
            || self.short_chunks
    }

    /// The fate of connection `conn` whose full request stream is
    /// `request_len` bytes. One uniform draw, partitioned by the cumulative
    /// rates, so fates are mutually exclusive; damage offsets come from
    /// disjoint hash lanes. Pure: independent of call order, thread count,
    /// and wall clock.
    pub fn fate(&self, conn: u64, request_len: usize) -> SocketFate {
        if request_len == 0 {
            return SocketFate::Clean;
        }
        let u = unit(hash3(self.seed ^ SOCKET_DOMAIN, conn, 0));
        let mut edge = self.reset_rate;
        if u < edge {
            return SocketFate::Reset {
                after: self.cut_offset(conn, request_len),
            };
        }
        edge += self.truncate_rate;
        if u < edge {
            return SocketFate::Truncate {
                after: self.cut_offset(conn, request_len),
            };
        }
        edge += self.garble_rate;
        if u < edge {
            let h = hash3(self.seed ^ SOCKET_DOMAIN, conn, 2);
            return SocketFate::Garble {
                pos: h as usize % request_len,
                mask: ((h >> 32) as u8) | 1,
            };
        }
        edge += self.stall_rate;
        if u < edge {
            return SocketFate::Stall {
                at: self.cut_offset(conn, request_len),
                millis: self.stall_millis,
            };
        }
        SocketFate::Clean
    }

    /// Where a reset/truncate/stall cuts the stream: always at least one
    /// byte in (the connection is seen by the server) and always before the
    /// end (the request never completes).
    fn cut_offset(&self, conn: u64, request_len: usize) -> usize {
        let h = hash3(self.seed ^ SOCKET_DOMAIN, conn, 1);
        1 + h as usize % request_len.max(2).saturating_sub(1)
    }

    /// Size of the next partial read/write chunk for transfer call `call`
    /// on connection `conn`, at most `len` (≥ 1). Identity when short
    /// chunks are disabled.
    pub fn chunk_len(&self, conn: u64, call: u64, len: usize) -> usize {
        if !self.short_chunks || len <= 1 {
            return len;
        }
        let h = hash3(
            self.seed ^ SOCKET_DOMAIN ^ 0x5851_F42D_4C95_7F2D,
            conn,
            call,
        );
        // 1..=min(len, 512): small enough to fragment every request head,
        // large enough to keep call counts bounded.
        1 + h as usize % len.min(512)
    }
}

/// Domain constant for the weight-artifact coins, disjoint from the
/// weight/activation/input/socket families above.
const ARTIFACT_DOMAIN: u64 = 0xD6E8_FEB8_6659_FD93;

/// What happens to one weight-swap artifact on its way to the loader.
///
/// Exactly one fate per artifact id, drawn from a single partitioned coin
/// (same contract as [`SocketFate`]): fates are mutually exclusive, their
/// rates sum directly, and everything is a pure function of
/// `(seed, artifact id)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArtifactFate {
    /// The artifact arrives intact and self-consistent.
    Clean,
    /// One artifact byte is XORed with `mask` at offset `pos` — caught by
    /// a per-tensor or whole-artifact checksum at the load gate.
    Corrupt {
        /// Damaged byte offset.
        pos: usize,
        /// Nonzero XOR mask.
        mask: u8,
    },
    /// The artifact is cut to `after` bytes — caught by framing at the
    /// load gate.
    Truncate {
        /// Bytes that survive.
        after: usize,
    },
    /// The loader crashes after applying `after` tensors to the staging
    /// copy — the staged load is discarded, the serving generation
    /// untouched.
    Crash {
        /// Tensors applied before the crash.
        after: u64,
    },
    /// The *producer* corrupted the weights before checksumming: the
    /// artifact is self-consistent and passes the load gate, but the
    /// published generation misbehaves at runtime (exponent-range bit
    /// flips) — the case only post-publication detection + rollback can
    /// handle.
    Poison,
}

/// Deterministic weight-artifact chaos for the swap subsystem: which swap
/// attempts carry damaged artifacts, how they are damaged, and which
/// elements a poisoned producer flipped, all as pure hash coins.
#[derive(Clone, Copy, Debug, Default)]
pub struct ArtifactFaultPlan {
    seed: u64,
    corrupt_rate: f64,
    truncate_rate: f64,
    crash_rate: f64,
    poison_rate: f64,
    poison_flip_rate: f64,
}

impl ArtifactFaultPlan {
    /// A plan that never damages anything.
    pub fn none() -> Self {
        ArtifactFaultPlan::default()
    }

    /// An empty plan with a seed for the fate coins.
    pub fn new(seed: u64) -> Self {
        ArtifactFaultPlan {
            seed,
            ..ArtifactFaultPlan::default()
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Flip one byte of a fraction `rate` of artifacts in flight.
    pub fn with_corruption(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "corrupt rate must be in [0, 1)");
        self.corrupt_rate = rate;
        self.assert_rates();
        self
    }

    /// Truncate a fraction `rate` of artifacts.
    pub fn with_truncation(mut self, rate: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&rate),
            "truncate rate must be in [0, 1)"
        );
        self.truncate_rate = rate;
        self.assert_rates();
        self
    }

    /// Crash the loader mid-load on a fraction `rate` of artifacts.
    pub fn with_crash_points(mut self, rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "crash rate must be in [0, 1)");
        self.crash_rate = rate;
        self.assert_rates();
        self
    }

    /// Poison a fraction `rate` of artifacts at the producer:
    /// `flip_rate` of their weight elements get an exponent-range bit
    /// flip *before* checksumming, so the artifact passes the load gate.
    pub fn with_poison(mut self, rate: f64, flip_rate: f64) -> Self {
        assert!((0.0..1.0).contains(&rate), "poison rate must be in [0, 1)");
        assert!(
            (0.0..1.0).contains(&flip_rate),
            "poison flip rate must be in [0, 1)"
        );
        self.poison_rate = rate;
        self.poison_flip_rate = flip_rate;
        self.assert_rates();
        self
    }

    fn assert_rates(&self) {
        assert!(
            self.corrupt_rate + self.truncate_rate + self.crash_rate + self.poison_rate <= 1.0,
            "artifact fates are mutually exclusive and must sum to at most 1"
        );
    }

    /// Does any fault fire with nonzero probability?
    pub fn is_active(&self) -> bool {
        self.corrupt_rate > 0.0
            || self.truncate_rate > 0.0
            || self.crash_rate > 0.0
            || self.poison_rate > 0.0
    }

    /// The fate of artifact `artifact`, whose encoded form is `len` bytes
    /// carrying `tensors` tensors. One uniform draw partitioned by the
    /// cumulative rates; damage coordinates come from disjoint hash lanes.
    pub fn fate(&self, artifact: u64, len: usize, tensors: u64) -> ArtifactFate {
        if len == 0 {
            return ArtifactFate::Clean;
        }
        let u = unit(hash3(self.seed ^ ARTIFACT_DOMAIN, artifact, 0));
        let mut edge = self.corrupt_rate;
        if u < edge {
            let h = hash3(self.seed ^ ARTIFACT_DOMAIN, artifact, 1);
            return ArtifactFate::Corrupt {
                pos: h as usize % len,
                mask: ((h >> 32) as u8) | 1,
            };
        }
        edge += self.truncate_rate;
        if u < edge {
            let h = hash3(self.seed ^ ARTIFACT_DOMAIN, artifact, 2);
            return ArtifactFate::Truncate {
                after: h as usize % len,
            };
        }
        edge += self.crash_rate;
        if u < edge {
            let h = hash3(self.seed ^ ARTIFACT_DOMAIN, artifact, 3);
            return ArtifactFate::Crash {
                after: h % tensors.max(1),
            };
        }
        edge += self.poison_rate;
        if u < edge {
            return ArtifactFate::Poison;
        }
        ArtifactFate::Clean
    }

    /// For a poisoned artifact: does weight element `element` get flipped,
    /// and at which bit? Bits land in the exponent range (27..=30), so a
    /// poisoned generation produces activation explosions the sentinel
    /// ladder catches. Pure function of `(seed, artifact, element)`.
    pub fn poison_flip(&self, artifact: u64, element: u64) -> Option<u32> {
        if self.poison_flip_rate <= 0.0 {
            return None;
        }
        let h = hash3(
            self.seed ^ ARTIFACT_DOMAIN ^ 0x9E37_79B9_7F4A_7C15,
            artifact,
            element,
        );
        (unit(h) < self.poison_flip_rate).then_some(27 + (h & 3) as u32)
    }
}

/// Map a hash to a uniform draw in `[0, 1)` (same contract as the other
/// fault coins).
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64-style 3-word hash used for the order-independent fault coins.
fn hash3(a: u64, b: u64, c: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(c.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!(!plan.engine_down(0, ms(5)));
        assert_eq!(plan.engine_crash_in(0, ms(0), ms(100)), None);
        assert!(!plan.transient_failure(42, 0));
        assert_eq!(plan.engine_availability(0, ms(100)), 1.0);
    }

    #[test]
    fn crash_windows_are_half_open() {
        let plan = FaultPlan::new(1).with_engine_crash(0, ms(10), ms(20));
        assert!(!plan.engine_down(0, ms(9)));
        assert!(plan.engine_down(0, ms(10)));
        assert!(plan.engine_down(0, ms(19)));
        assert!(!plan.engine_down(0, ms(20)));
        assert!(!plan.engine_down(1, ms(15)), "other nodes unaffected");
    }

    #[test]
    fn crash_in_span_reports_fail_and_resume() {
        let plan = FaultPlan::new(1).with_engine_crash(0, ms(10), ms(20));
        // Span straddles the window start: fails at window start.
        assert_eq!(
            plan.engine_crash_in(0, ms(5), ms(15)),
            Some((ms(10), ms(20)))
        );
        // Span begins inside the window: fails immediately.
        assert_eq!(
            plan.engine_crash_in(0, ms(12), ms(30)),
            Some((ms(12), ms(20)))
        );
        // Span entirely before/after: no crash.
        assert_eq!(plan.engine_crash_in(0, ms(0), ms(10)), None);
        assert_eq!(plan.engine_crash_in(0, ms(20), ms(30)), None);
    }

    #[test]
    fn resume_chains_through_overlapping_windows() {
        let plan = FaultPlan::new(1)
            .with_engine_crash(0, ms(10), ms(20))
            .with_engine_crash(0, ms(18), ms(25))
            .with_engine_crash(0, ms(25), ms(30));
        let (fail_at, resume_at) = plan.engine_crash_in(0, ms(5), ms(15)).unwrap();
        assert_eq!(fail_at, ms(10));
        assert_eq!(resume_at, ms(30), "chained across all three windows");
    }

    #[test]
    fn downtime_merges_overlaps_and_clips() {
        let plan = FaultPlan::new(1)
            .with_engine_crash(0, ms(10), ms(20))
            .with_engine_crash(0, ms(15), ms(25))
            .with_engine_crash(0, ms(40), ms(60));
        assert_eq!(plan.engine_downtime(0, ms(50)), ms(25)); // 10..25 + 40..50
        let avail = plan.engine_availability(0, ms(100));
        assert!(
            (avail - 0.65).abs() < 1e-9,
            "downtime 35/100, avail {avail}"
        );
    }

    #[test]
    fn transient_coin_is_order_independent_and_calibrated() {
        let plan = FaultPlan::new(7).with_transient_errors(0.25);
        // Same (id, attempt) always gives the same answer.
        for id in 0..100u64 {
            assert_eq!(plan.transient_failure(id, 0), plan.transient_failure(id, 0));
        }
        // Rate is roughly honored over many ids.
        let fails = (0..100_000u64)
            .filter(|&id| plan.transient_failure(id, 0))
            .count();
        assert!(
            (fails as f64 / 1e5 - 0.25).abs() < 0.01,
            "rate {}",
            fails as f64 / 1e5
        );
        // Different attempts are independent coins.
        let both = (0..10_000u64)
            .filter(|&id| plan.transient_failure(id, 0) && plan.transient_failure(id, 1))
            .count();
        assert!(
            (both as f64 / 1e4 - 0.0625).abs() < 0.01,
            "joint {}",
            both as f64 / 1e4
        );
    }

    #[test]
    fn seeds_decorrelate_plans() {
        let a = FaultPlan::new(1).with_transient_errors(0.5);
        let b = FaultPlan::new(2).with_transient_errors(0.5);
        let agree = (0..1000u64)
            .filter(|&id| a.transient_failure(id, 0) == b.transient_failure(id, 0))
            .count();
        assert!(agree > 300 && agree < 700, "agreement {agree}/1000");
    }

    #[test]
    fn periodic_crashes_fill_the_horizon() {
        let plan = FaultPlan::new(3).with_periodic_engine_crashes(2, 4, ms(1000), ms(50));
        for node in 0..2 {
            let down = plan.engine_downtime(node, ms(1000));
            assert_eq!(down, ms(200), "node {node} downtime {down:?}");
        }
        // Phase jitter: the two nodes should not crash at identical times.
        let same = (0..1000)
            .filter(|&i| {
                let t = ms(i);
                plan.engine_down(0, t) == plan.engine_down(1, t)
            })
            .count();
        assert!(same < 1000, "nodes crash in lockstep");
    }

    #[test]
    fn corruption_free_plan_never_corrupts() {
        let plan = FaultPlan::new(5);
        assert!(!plan.corrupts_weights());
        assert!(!plan.corrupts_activations());
        assert!(!plan.corrupts_inputs());
        assert_eq!(plan.weight_flip(0, 0, 0), None);
        assert_eq!(plan.activation_flip(0, 0, 0), None);
        let mut bytes = vec![1u8, 2, 3];
        assert!(!plan.corrupt_input(0, &mut bytes));
        assert_eq!(bytes, vec![1, 2, 3]);
    }

    #[test]
    fn weight_flip_coin_is_deterministic_and_calibrated() {
        let plan = FaultPlan::new(9).with_weight_bit_flips(0.01, false);
        assert!(plan.is_active());
        let mut hits = 0u64;
        for e in 0..100_000u64 {
            let a = plan.weight_flip(3, 7, e);
            assert_eq!(a, plan.weight_flip(3, 7, e), "coin not pure");
            if let Some(bit) = a {
                assert!(bit < 32);
                hits += 1;
            }
        }
        let rate = hits as f64 / 1e5;
        assert!((rate - 0.01).abs() < 0.002, "rate {rate}");
        // Different rounds and tensors draw independent coins.
        let same_round = (0..10_000u64)
            .filter(|&e| plan.weight_flip(3, 7, e).is_some() == plan.weight_flip(4, 7, e).is_some())
            .count();
        assert!(same_round < 10_000, "rounds perfectly correlated");
    }

    #[test]
    fn activation_flip_attempts_draw_fresh_coins() {
        let plan = FaultPlan::new(21).with_activation_bit_flips(0.05, "blk0.mlp");
        assert_eq!(plan.activation_pass(), Some("blk0.mlp"));
        let first: Vec<u64> = (0..10_000u64)
            .filter(|&e| plan.activation_flip(2, 0, e).is_some())
            .collect();
        let retry: Vec<u64> = (0..10_000u64)
            .filter(|&e| plan.activation_flip(2, 1, e).is_some())
            .collect();
        assert!(!first.is_empty());
        assert_ne!(first, retry, "retry must re-draw the fault coins");
    }

    #[test]
    fn input_corruption_damages_victims_deterministically() {
        let plan = FaultPlan::new(33).with_input_corruption(0.5);
        let original: Vec<u8> = (0..64u8).collect();
        let mut damaged = 0;
        for id in 0..200u64 {
            let mut a = original.clone();
            let mut b = original.clone();
            let hit_a = plan.corrupt_input(id, &mut a);
            let hit_b = plan.corrupt_input(id, &mut b);
            assert_eq!(hit_a, hit_b);
            assert_eq!(a, b, "corruption must be reproducible");
            if hit_a {
                assert_ne!(a, original, "a hit must actually change the bytes");
                damaged += 1;
            } else {
                assert_eq!(a, original);
            }
        }
        assert!(damaged > 50 && damaged < 150, "damaged {damaged}/200");
    }

    // --- socket fault plan ---

    #[test]
    fn empty_socket_plan_is_clean_everywhere() {
        let plan = SocketFaultPlan::none();
        assert!(!plan.is_active());
        for conn in 0..100u64 {
            assert_eq!(plan.fate(conn, 4096), SocketFate::Clean);
            assert_eq!(plan.chunk_len(conn, 0, 100), 100);
        }
    }

    #[test]
    fn socket_fates_are_pure_and_calibrated() {
        let plan = SocketFaultPlan::new(42)
            .with_resets(0.10)
            .with_truncations(0.10)
            .with_garbling(0.10)
            .with_stalls(0.10, 500);
        assert!(plan.is_active());
        let mut counts = [0u64; 5];
        for conn in 0..100_000u64 {
            let fate = plan.fate(conn, 1000);
            assert_eq!(fate, plan.fate(conn, 1000), "fate not pure");
            let k = match fate {
                SocketFate::Clean => 0,
                SocketFate::Reset { .. } => 1,
                SocketFate::Truncate { .. } => 2,
                SocketFate::Garble { .. } => 3,
                SocketFate::Stall { .. } => 4,
            };
            counts[k] += 1;
        }
        assert!((counts[0] as f64 / 1e5 - 0.60).abs() < 0.01, "{counts:?}");
        for k in 1..5 {
            assert!((counts[k] as f64 / 1e5 - 0.10).abs() < 0.01, "{counts:?}");
        }
    }

    #[test]
    fn socket_damage_offsets_stay_in_bounds() {
        let plan = SocketFaultPlan::new(9)
            .with_resets(0.25)
            .with_truncations(0.25)
            .with_garbling(0.25)
            .with_stalls(0.24, 100);
        for len in [1usize, 2, 3, 64, 4096] {
            for conn in 0..2000u64 {
                match plan.fate(conn, len) {
                    SocketFate::Clean => {}
                    SocketFate::Reset { after }
                    | SocketFate::Truncate { after }
                    | SocketFate::Stall { at: after, .. } => {
                        assert!(after >= 1, "cut before any byte");
                        assert!(after < len.max(2), "cut at/past the end: {after}/{len}");
                    }
                    SocketFate::Garble { pos, mask } => {
                        assert!(pos < len);
                        assert_ne!(mask, 0, "mask must change the byte");
                    }
                }
            }
        }
        // Zero-length streams have nothing to damage.
        assert_eq!(plan.fate(7, 0), SocketFate::Clean);
    }

    #[test]
    fn socket_fate_rates_must_not_exceed_one() {
        let result = std::panic::catch_unwind(|| {
            SocketFaultPlan::new(1)
                .with_resets(0.6)
                .with_truncations(0.5)
        });
        assert!(result.is_err(), "rates summing past 1 must be rejected");
    }

    #[test]
    fn short_chunks_are_pure_and_positive() {
        let plan = SocketFaultPlan::new(5).with_short_chunks();
        assert!(plan.is_active());
        for conn in 0..50u64 {
            for call in 0..50u64 {
                let c = plan.chunk_len(conn, call, 9000);
                assert!((1..=512).contains(&c));
                assert_eq!(c, plan.chunk_len(conn, call, 9000), "chunk not pure");
            }
        }
        assert_eq!(plan.chunk_len(0, 0, 1), 1);
        assert_eq!(plan.chunk_len(0, 0, 0), 0);
        // Different calls fragment differently (not a constant chunk size).
        let distinct: std::collections::HashSet<usize> = (0..100u64)
            .map(|call| plan.chunk_len(3, call, 9000))
            .collect();
        assert!(distinct.len() > 10, "chunks barely vary: {distinct:?}");
    }

    #[test]
    fn socket_seeds_decorrelate_fates() {
        let a = SocketFaultPlan::new(1).with_resets(0.5);
        let b = SocketFaultPlan::new(2).with_resets(0.5);
        let agree = (0..1000u64)
            .filter(|&c| {
                matches!(a.fate(c, 100), SocketFate::Clean)
                    == matches!(b.fate(c, 100), SocketFate::Clean)
            })
            .count();
        assert!(agree > 300 && agree < 700, "agreement {agree}/1000");
    }

    #[test]
    fn artifact_fates_are_pure_and_calibrated() {
        let plan = ArtifactFaultPlan::new(17)
            .with_corruption(0.10)
            .with_truncation(0.10)
            .with_crash_points(0.10)
            .with_poison(0.10, 1e-3);
        assert!(plan.is_active());
        assert_eq!(plan.seed(), 17);
        let mut counts = [0u64; 5];
        for art in 0..100_000u64 {
            let fate = plan.fate(art, 4096, 40);
            assert_eq!(fate, plan.fate(art, 4096, 40), "fate not pure");
            let k = match fate {
                ArtifactFate::Clean => 0,
                ArtifactFate::Corrupt { .. } => 1,
                ArtifactFate::Truncate { .. } => 2,
                ArtifactFate::Crash { .. } => 3,
                ArtifactFate::Poison => 4,
            };
            counts[k] += 1;
        }
        assert!((counts[0] as f64 / 1e5 - 0.60).abs() < 0.01, "{counts:?}");
        for k in 1..5 {
            assert!((counts[k] as f64 / 1e5 - 0.10).abs() < 0.01, "{counts:?}");
        }
    }

    #[test]
    fn artifact_damage_coordinates_stay_in_bounds() {
        let plan = ArtifactFaultPlan::new(5)
            .with_corruption(0.3)
            .with_truncation(0.3)
            .with_crash_points(0.3);
        for art in 0..3000u64 {
            match plan.fate(art, 777, 12) {
                ArtifactFate::Clean | ArtifactFate::Poison => {}
                ArtifactFate::Corrupt { pos, mask } => {
                    assert!(pos < 777);
                    assert_ne!(mask, 0, "mask must change the byte");
                }
                ArtifactFate::Truncate { after } => assert!(after < 777),
                ArtifactFate::Crash { after } => assert!(after < 12),
            }
        }
        // Empty artifacts have nothing to damage.
        assert_eq!(plan.fate(3, 0, 0), ArtifactFate::Clean);
    }

    #[test]
    fn artifact_fate_rates_must_not_exceed_one() {
        let result = std::panic::catch_unwind(|| {
            ArtifactFaultPlan::new(1)
                .with_corruption(0.6)
                .with_truncation(0.5)
        });
        assert!(result.is_err(), "rates summing past 1 must be rejected");
    }

    #[test]
    fn poison_flips_are_pure_exponent_range_and_calibrated() {
        let plan = ArtifactFaultPlan::new(23).with_poison(0.5, 1e-2);
        let mut hits = 0u64;
        for e in 0..100_000u64 {
            let flip = plan.poison_flip(9, e);
            assert_eq!(flip, plan.poison_flip(9, e), "coin not pure");
            if let Some(bit) = flip {
                assert!((27..=30).contains(&bit), "bit {bit} not exponent-range");
                hits += 1;
            }
        }
        assert!((hits as f64 / 1e5 - 1e-2).abs() < 1.5e-3, "hits {hits}");
        // An inert plan draws no flips.
        assert_eq!(ArtifactFaultPlan::none().poison_flip(9, 3), None);
    }

    #[test]
    fn artifact_seeds_decorrelate_fates() {
        let a = ArtifactFaultPlan::new(1).with_corruption(0.5);
        let b = ArtifactFaultPlan::new(2).with_corruption(0.5);
        let agree = (0..1000u64)
            .filter(|&c| {
                matches!(a.fate(c, 100, 10), ArtifactFate::Clean)
                    == matches!(b.fate(c, 100, 10), ArtifactFate::Clean)
            })
            .count();
        assert!(agree > 300 && agree < 700, "agreement {agree}/1000");
    }
}
