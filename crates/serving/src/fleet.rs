//! Fleet-scale continuum serving: region-sharded clusters replaying
//! million-user traces on the conservative-sync simulator.
//!
//! Each `RegionShard` is one simulated cluster of the Jetson → V100 →
//! A100 continuum serving its region's slice of a
//! [`harvest_simkit::FleetTraceConfig`] workload:
//!
//! * arrivals stream from a per-region
//!   [`harvest_simkit::RegionTrace`] (never materialized
//!   whole) and are admitted to a bounded per-tier queue — monitoring and
//!   scouting prefer the edge tier, drone-survey bursts go straight to the
//!   regional tier;
//! * nodes execute greedy batches with service latency and power drawn
//!   from `harvest-perf`'s calibrated MFU model, each node guarded by a
//!   PR-2 [`CircuitBreaker`]; PR-1 [`FaultPlan`] crash windows make
//!   batches on a down node fail after a detection timeout, so breakers
//!   trip and traffic routes around the outage;
//! * when every local tier is saturated (or retries exhaust locally), the
//!   request fails over **cross-shard** to the neighbouring region over a
//!   WAN link whose latency is at least the fleet lookahead — exactly the
//!   conservative-sync contract [`FleetSim`] enforces;
//! * accounting is conservation-checked fleet-wide: every submitted
//!   request terminates exactly once as completed, shed, or rejected
//!   (wherever in the fleet that happens), and an order-independent XOR
//!   ledger over request-id hashes proves no loss or duplication without
//!   storing a million ids.
//!
//! [`run_fleet`] wires the shards into a [`FleetSim`], runs the whole
//! trace, and folds per-shard stats into a [`FleetReport`] whose
//! fingerprint is bit-identical at every worker thread count.

use crate::breaker::{BreakerConfig, CircuitBreaker};
use harvest_hw::PlatformId;
use harvest_models::ModelId;
use harvest_perf::{EnergyModel, FleetEnergy};
use harvest_simkit::fleet::{FleetSim, Outbox, Shard, ShardCore};
use harvest_simkit::{
    FaultPlan, FleetTraceConfig, RegionTrace, RequestKind, SimTime, TraceRequest,
};
use harvest_tensor::integrity::{fnv1a_fold, FNV_OFFSET};
use std::collections::VecDeque;

/// Latency histogram shape shared by every shard (merging requires
/// identical bucketing): 0–10 s in 10 ms buckets.
const LAT_LO: f64 = 0.0;
const LAT_HI: f64 = 10.0;
const LAT_BUCKETS: usize = 1000;

/// One hardware tier of a region cluster.
#[derive(Clone, Debug)]
pub(crate) struct TierSpec {
    /// The platform every node of this tier runs.
    pub platform: PlatformId,
    /// The model served at this tier.
    pub model: ModelId,
    /// Node count.
    pub nodes: u32,
    /// Largest batch a node executes at once.
    pub batch_max: u32,
    /// Bounded admission queue in front of the tier.
    pub queue_cap: usize,
}

/// Fleet scenario configuration.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// The workload (users, regions, days, diurnal/surge/burst shape).
    pub trace: FleetTraceConfig,
    /// Tier layout of every region cluster, edge first. Requests escalate
    /// toward later tiers when earlier ones are saturated.
    pub(crate) tiers: Vec<TierSpec>,
    /// Per-node circuit-breaker tuning.
    pub breaker: BreakerConfig,
    /// Conservative-sync window; cross-shard latency must be at least this.
    pub lookahead: SimTime,
    /// Cross-region failover link latency.
    pub wan_latency: SimTime,
    /// Goodput deadline: a completion later than this is not "good".
    pub deadline: SimTime,
    /// How long a batch on a crashed node takes to be detected as failed.
    pub fail_timeout: SimTime,
    /// Attempts (1 + retries) before a request gives up locally.
    pub max_attempts: u8,
    /// Engine crash windows: `(crashes_per_node, downtime)` spread over the
    /// trace horizon via the PR-1 fault plan. `None` disables faults.
    pub crashes: Option<(u32, SimTime)>,
    /// Seed for the fault plan (independent of the trace seed).
    pub fault_seed: u64,
}

impl FleetConfig {
    /// The default continuum cluster: 4 Jetson edge nodes on ViT-Tiny, 2
    /// V100 regional nodes on ViT-Small, 1 A100 cloud node on ViT-Base per
    /// region, with the PR-2 default breakers.
    pub fn new(trace: FleetTraceConfig) -> Self {
        FleetConfig {
            trace,
            tiers: vec![
                TierSpec {
                    platform: PlatformId::JetsonOrinNano,
                    model: ModelId::VitTiny,
                    nodes: 4,
                    batch_max: 8,
                    queue_cap: 256,
                },
                TierSpec {
                    platform: PlatformId::PitzerV100,
                    model: ModelId::VitSmall,
                    nodes: 2,
                    batch_max: 16,
                    queue_cap: 256,
                },
                TierSpec {
                    platform: PlatformId::MriA100,
                    model: ModelId::VitBase,
                    nodes: 1,
                    batch_max: 32,
                    queue_cap: 512,
                },
            ],
            breaker: BreakerConfig {
                cooldown: SimTime::from_secs(5),
                ..BreakerConfig::default()
            },
            lookahead: SimTime::from_millis(500),
            wan_latency: SimTime::from_millis(500),
            deadline: SimTime::from_secs(2),
            fail_timeout: SimTime::from_millis(800),
            max_attempts: 2,
            crashes: None,
            fault_seed: 0x5eed_f1ee,
        }
    }

    /// Check the knobs for consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.tiers.is_empty() {
            return Err("at least one tier is required".into());
        }
        for (i, t) in self.tiers.iter().enumerate() {
            if t.nodes == 0 || t.batch_max == 0 || t.queue_cap == 0 {
                return Err(format!("tier {i} has a zero-sized dimension"));
            }
        }
        if self.wan_latency < self.lookahead {
            return Err(format!(
                "wan_latency {:?} must be >= lookahead {:?} (conservative sync)",
                self.wan_latency, self.lookahead
            ));
        }
        if self.lookahead == SimTime::ZERO {
            return Err("lookahead must be positive".into());
        }
        if self.max_attempts == 0 {
            return Err("max_attempts must be at least 1".into());
        }
        self.breaker.validate()
    }

    /// Global node-id base of `(region, tier, node)` for fault-plan keys.
    fn total_nodes_per_region(&self) -> u32 {
        self.tiers.iter().map(|t| t.nodes).sum()
    }
}

/// SplitMix64-style id mixer for the conservation ledger: XOR-accumulating
/// `mix(id)` over a set is order-independent and collision-resistant
/// enough that ledger equality implies set equality for any realistic run.
#[inline]
fn mix_id(id: u64) -> u64 {
    let mut z = id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A request in flight inside the fleet (public because it is the
/// cross-shard message type of [`RegionShard`]; fields are internal).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Req {
    id: u64,
    t0: SimTime,
    kind: RequestKind,
    attempts: u8,
    forwarded: bool,
}

/// Shard-local events.
enum Ev {
    Arrive(Req),
    Done { tier: u8, node: u16 },
    Fail { tier: u8, node: u16 },
}

struct Node {
    gid: u32,
    breaker: CircuitBreaker,
    /// The in-flight batch; empty means idle.
    batch: Vec<Req>,
    busy_since: SimTime,
}

struct Tier {
    spec: TierSpec,
    /// Service latency by batch size (index 0 unused).
    latency: Vec<SimTime>,
    /// Average power by batch size (index 0 unused).
    power_w: Vec<f64>,
    idle_power_w: f64,
    nodes: Vec<Node>,
    queue: VecDeque<Req>,
    energy: FleetEnergy,
}

impl Tier {
    fn new(spec: &TierSpec, breaker: &BreakerConfig, gid_base: u32) -> Self {
        let energy_model = EnergyModel::new(spec.platform, spec.model);
        let latency = (0..=spec.batch_max)
            .map(|bs| {
                if bs == 0 {
                    SimTime::ZERO
                } else {
                    SimTime::from_secs_f64(energy_model.perf().latency_s(bs))
                }
            })
            .collect();
        let power_w = (0..=spec.batch_max)
            .map(|bs| {
                if bs == 0 {
                    0.0
                } else {
                    energy_model.power_w(bs)
                }
            })
            .collect();
        Tier {
            latency,
            power_w,
            idle_power_w: energy_model.idle_power_w(),
            nodes: (0..spec.nodes)
                .map(|i| Node {
                    gid: gid_base + i,
                    breaker: CircuitBreaker::new(*breaker),
                    batch: Vec::new(),
                    busy_since: SimTime::ZERO,
                })
                .collect(),
            queue: VecDeque::new(),
            energy: FleetEnergy::new(),
            spec: spec.clone(),
        }
    }
}

/// Per-shard counters; all terminal outcomes are counted where they
/// happen, so fleet-wide sums conserve even with cross-shard failover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Requests submitted by this region's users (origin accounting).
    pub submitted: u64,
    /// Requests completed at this shard (including forwarded-in work).
    pub completed: u64,
    /// Completions within the goodput deadline.
    pub good: u64,
    /// Requests dropped after admission (retries exhausted, both sides
    /// saturated).
    pub shed: u64,
    /// Requests turned away at admission (all queues full, failover also
    /// saturated).
    pub rejected: u64,
    /// Requests failed over to the neighbouring region.
    pub forwarded_out: u64,
    /// Failover work accepted from the neighbouring region.
    pub forwarded_in: u64,
    /// Batch failures observed (crashed nodes).
    pub failures: u64,
    /// Breaker trips across the shard's nodes.
    pub trips: u64,
    /// Breaker recoveries across the shard's nodes.
    pub closes: u64,
}

/// One region cluster: the [`Shard`] implementation for the fleet.
pub(crate) struct RegionShard {
    region: u32,
    regions: u32,
    core: ShardCore<Ev>,
    tiers: Vec<Tier>,
    fault: FaultPlan,
    trace: RegionTrace,
    pending: Option<TraceRequest>,
    next_seq: u64,
    deadline: SimTime,
    wan_latency: SimTime,
    fail_timeout: SimTime,
    max_attempts: u8,
    stats: ShardStats,
    /// XOR ledger of submitted request ids (origin side).
    ledger_submitted: u64,
    /// XOR ledger of terminated request ids (wherever they terminate).
    ledger_terminal: u64,
    /// Completion latency histogram, seconds.
    lat_hist: harvest_simkit::Histogram,
}

impl RegionShard {
    /// The shard for `region` under `cfg` (validate `cfg` first).
    pub(crate) fn new(cfg: &FleetConfig, region: u32) -> Self {
        let npr = cfg.total_nodes_per_region();
        let mut gid = region * npr;
        let tiers = cfg
            .tiers
            .iter()
            .map(|spec| {
                let t = Tier::new(spec, &cfg.breaker, gid);
                gid += spec.nodes;
                t
            })
            .collect();
        let fault = match cfg.crashes {
            Some((crashes, downtime)) => FaultPlan::new(cfg.fault_seed)
                .with_periodic_engine_crashes(
                    cfg.trace.regions * npr,
                    crashes,
                    cfg.trace.horizon(),
                    downtime,
                ),
            None => FaultPlan::none(),
        };
        let mut trace = RegionTrace::new(&cfg.trace, region);
        let pending = trace.next();
        RegionShard {
            region,
            regions: cfg.trace.regions,
            core: ShardCore::new(),
            tiers,
            fault,
            trace,
            pending,
            next_seq: 0,
            deadline: cfg.deadline,
            wan_latency: cfg.wan_latency,
            fail_timeout: cfg.fail_timeout,
            max_attempts: cfg.max_attempts,
            stats: ShardStats::default(),
            ledger_submitted: 0,
            ledger_terminal: 0,
            lat_hist: harvest_simkit::Histogram::new(LAT_LO, LAT_HI, LAT_BUCKETS),
        }
    }

    fn preferred_tier(&self, kind: RequestKind) -> usize {
        match kind {
            RequestKind::Monitor | RequestKind::Scout => 0,
            RequestKind::DroneSurvey => 1.min(self.tiers.len() - 1),
        }
    }

    /// Try to admit `req` to a local tier queue at or above `pref`,
    /// pumping the tier afterwards. Returns `false` if every queue from
    /// `pref` up is full.
    fn try_place(&mut self, req: Req, pref: usize, now: SimTime) -> bool {
        for t in pref..self.tiers.len() {
            if self.tiers[t].queue.len() < self.tiers[t].spec.queue_cap {
                self.tiers[t].queue.push_back(req);
                self.pump(t, now);
                return true;
            }
        }
        false
    }

    /// Start batches on every idle, breaker-admitted node while the tier's
    /// queue has work.
    fn pump(&mut self, tier_i: usize, now: SimTime) {
        let tier = &mut self.tiers[tier_i];
        for node_i in 0..tier.nodes.len() {
            if tier.queue.is_empty() {
                break;
            }
            if !tier.nodes[node_i].batch.is_empty() {
                continue;
            }
            if !tier.nodes[node_i].breaker.allow(now) {
                continue;
            }
            let bs = (tier.spec.batch_max as usize).min(tier.queue.len());
            let batch: Vec<Req> = tier.queue.drain(..bs).collect();
            let node = &mut tier.nodes[node_i];
            node.busy_since = now;
            let down = self.fault.engine_down(node.gid, now);
            let (delay, ev) = if down {
                (
                    self.fail_timeout,
                    Ev::Fail {
                        tier: tier_i as u8,
                        node: node_i as u16,
                    },
                )
            } else {
                (
                    tier.latency[bs],
                    Ev::Done {
                        tier: tier_i as u8,
                        node: node_i as u16,
                    },
                )
            };
            node.batch = batch;
            self.core.schedule_at(now + delay, ev);
        }
    }

    /// Terminal accounting helpers — every request id must pass through
    /// exactly one of these, exactly once, fleet-wide.
    fn terminal_completed(&mut self, req: &Req, now: SimTime) {
        self.stats.completed += 1;
        let lat = now.saturating_sub(req.t0);
        if lat <= self.deadline {
            self.stats.good += 1;
        }
        self.lat_hist.push(lat.as_secs_f64());
        self.ledger_terminal ^= mix_id(req.id);
    }

    fn terminal_shed(&mut self, req: &Req) {
        self.stats.shed += 1;
        self.ledger_terminal ^= mix_id(req.id);
    }

    fn terminal_rejected(&mut self, req: &Req) {
        self.stats.rejected += 1;
        self.ledger_terminal ^= mix_id(req.id);
    }

    /// Fail over `req` to the neighbouring region (ring topology), or
    /// terminate it when it has already been forwarded once.
    fn forward_or(
        &mut self,
        req: Req,
        now: SimTime,
        outbox: &mut Outbox<Req>,
        admitted_before: bool,
    ) {
        if !req.forwarded && self.regions > 1 {
            let mut fwd = req;
            fwd.forwarded = true;
            self.stats.forwarded_out += 1;
            outbox.send(
                ((self.region + 1) % self.regions) as usize,
                now + self.wan_latency,
                fwd,
            );
        } else if admitted_before {
            self.terminal_shed(&req);
        } else {
            self.terminal_rejected(&req);
        }
    }

    fn on_arrive(&mut self, req: Req, now: SimTime, outbox: &mut Outbox<Req>) {
        if req.forwarded {
            self.stats.forwarded_in += 1;
        }
        let pref = self.preferred_tier(req.kind);
        if !self.try_place(req, pref, now) {
            self.forward_or(req, now, outbox, false);
        }
    }

    fn on_done(&mut self, tier_i: usize, node_i: usize, now: SimTime) {
        let tier = &mut self.tiers[tier_i];
        let batch = std::mem::take(&mut tier.nodes[node_i].batch);
        let bs = batch.len();
        let busy = now.saturating_sub(tier.nodes[node_i].busy_since);
        tier.energy
            .record_busy(tier.power_w[bs], busy.as_secs_f64(), bs as u64);
        let service = tier.latency[bs];
        tier.nodes[node_i].breaker.record_success(now, service);
        for req in &batch {
            self.terminal_completed(req, now);
        }
        self.pump(tier_i, now);
    }

    fn on_fail(&mut self, tier_i: usize, node_i: usize, now: SimTime, outbox: &mut Outbox<Req>) {
        let tier = &mut self.tiers[tier_i];
        let batch = std::mem::take(&mut tier.nodes[node_i].batch);
        let bs = batch.len();
        let busy = now.saturating_sub(tier.nodes[node_i].busy_since);
        // The node burned power for the whole detection window but
        // produced nothing.
        tier.energy
            .record_busy(tier.power_w[bs], busy.as_secs_f64(), 0);
        tier.nodes[node_i].breaker.record_failure(now);
        self.stats.failures += 1;
        for mut req in batch {
            req.attempts += 1;
            if req.attempts < self.max_attempts {
                let pref = self.preferred_tier(req.kind);
                if !self.try_place(req, pref, now) {
                    self.forward_or(req, now, outbox, true);
                }
            } else {
                self.forward_or(req, now, outbox, true);
            }
        }
        self.pump(tier_i, now);
    }

    /// Inject trace arrivals due by `window_end` into the local queue.
    fn inject_arrivals(&mut self, window_end: SimTime) {
        while let Some(tr) = self.pending {
            if tr.at > window_end {
                break;
            }
            self.pending = self.trace.next();
            let id = ((self.region as u64) << 40) | self.next_seq;
            self.next_seq += 1;
            self.stats.submitted += 1;
            self.ledger_submitted ^= mix_id(id);
            let req = Req {
                id,
                t0: tr.at,
                kind: tr.kind,
                attempts: 0,
                forwarded: false,
            };
            // Arrivals are nondecreasing, and everything <= the previous
            // window end was injected last window, so `at >= core.now()`.
            self.core.schedule_at(tr.at, Ev::Arrive(req));
        }
    }

    /// Finalize accounting at the end of the run: charge each node's
    /// remaining idle time against the tier's energy rollup.
    fn finalize_energy(&mut self) {
        let end = self.core.now().as_secs_f64();
        for tier in &mut self.tiers {
            let node_seconds = end * tier.nodes.len() as f64;
            let idle = (node_seconds - tier.energy.busy_seconds()).max(0.0);
            let idle_power = tier.idle_power_w;
            tier.energy.record_idle(idle_power, idle);
        }
        for tier in &mut self.tiers {
            for node in &tier.nodes {
                self.stats.trips += node.breaker.trips();
                self.stats.closes += node.breaker.closes();
            }
        }
    }
}

impl Shard for RegionShard {
    type Msg = Req;

    fn advance(&mut self, window_end: SimTime, outbox: &mut Outbox<Req>) {
        self.inject_arrivals(window_end);
        while let Some((now, ev)) = self.core.pop_due(window_end) {
            match ev {
                Ev::Arrive(req) => self.on_arrive(req, now, outbox),
                Ev::Done { tier, node } => self.on_done(tier as usize, node as usize, now),
                Ev::Fail { tier, node } => self.on_fail(tier as usize, node as usize, now, outbox),
            }
        }
        self.core.finish_window(window_end);
    }

    fn deliver(&mut self, at: SimTime, msg: Req) {
        self.core.schedule_at(at, Ev::Arrive(msg));
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        let local = self.core.next_time();
        let arrival = self.pending.map(|t| t.at);
        match (local, arrival) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (x, None) => x,
            (None, y) => y,
        }
    }
}

/// Per-shard slice of the fleet report.
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Region index.
    pub region: u32,
    /// The shard's counters.
    pub stats: ShardStats,
    /// p99 completion latency at this shard, milliseconds.
    pub p99_ms: f64,
    /// Energy over the shard's nodes.
    pub energy: FleetEnergy,
    /// Events the shard's loop fired.
    pub events: u64,
}

/// The fleet-wide rollup [`run_fleet`] returns.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Per-region slices, in region order.
    pub shards: Vec<ShardReport>,
    /// Total requests submitted across the fleet.
    pub submitted: u64,
    /// Total completed (anywhere).
    pub completed: u64,
    /// Completions within the deadline.
    pub good: u64,
    /// Total shed.
    pub shed: u64,
    /// Total rejected.
    pub rejected: u64,
    /// Cross-region failovers.
    pub forwarded: u64,
    /// Batch failures (crashed nodes).
    pub failures: u64,
    /// Breaker trips fleet-wide.
    pub trips: u64,
    /// Goodput: good / submitted.
    pub goodput: f64,
    /// Fleet-wide p99 completion latency, milliseconds (merged histogram).
    pub p99_ms: f64,
    /// Fleet-wide mean completion latency, milliseconds.
    pub mean_ms: f64,
    /// Per-shard completion imbalance: max/mean (1.0 = perfectly even).
    pub imbalance: f64,
    /// Energy rollup across every node of every shard.
    pub energy: FleetEnergy,
    /// XOR-ledger match: no request lost or duplicated.
    pub ledger_ok: bool,
    /// Conservative-sync windows executed.
    pub windows: u64,
    /// Cross-shard messages routed.
    pub messages: u64,
    /// Total shard-loop events fired.
    pub events: u64,
    /// FNV-1a fingerprint over every counter and histogram bucket, in
    /// shard order — byte-identical reruns produce the same value.
    pub fingerprint: u64,
}

impl FleetReport {
    /// The fleet-wide conservation law: every submitted request terminated
    /// exactly once, nothing lost, nothing duplicated.
    pub fn conserved(&self) -> bool {
        self.completed + self.shed + self.rejected == self.submitted && self.ledger_ok
    }
}

/// p-quantile (0..1) of a latency histogram in milliseconds, reading the
/// bucket upper edge where the cumulative count crosses.
fn hist_quantile_ms(buckets: &[u64], total: u64, p: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let width = (LAT_HI - LAT_LO) / LAT_BUCKETS as f64;
    let target = (p * total as f64).ceil() as u64;
    let mut cum = 0u64;
    for (i, &b) in buckets.iter().enumerate() {
        cum += b;
        if cum >= target {
            return (LAT_LO + width * (i + 1) as f64) * 1e3;
        }
    }
    LAT_HI * 1e3
}

/// Run the whole fleet scenario to completion and roll up the report.
///
/// Deterministic by construction: the same `cfg` yields a bit-identical
/// [`FleetReport`] (including `fingerprint`) at every
/// `HARVEST_THREADS`/`with_threads` width.
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    cfg.validate().expect("invalid fleet config");
    let shards: Vec<RegionShard> = (0..cfg.trace.regions)
        .map(|r| RegionShard::new(cfg, r))
        .collect();
    let mut fleet = FleetSim::new(shards, cfg.lookahead);
    fleet.run();
    let windows = fleet.windows();
    let messages = fleet.messages_routed();

    let mut shards = fleet.into_shards();
    for s in &mut shards {
        s.finalize_energy();
    }

    let mut totals = ShardStats::default();
    let mut energy = FleetEnergy::new();
    let mut ledger = 0u64;
    let mut events = 0u64;
    let mut merged = vec![0u64; LAT_BUCKETS];
    let mut merged_above = 0u64;
    let mut fingerprint = FNV_OFFSET;
    let mut reports = Vec::with_capacity(shards.len());
    for s in &shards {
        let st = s.stats;
        totals.submitted += st.submitted;
        totals.completed += st.completed;
        totals.good += st.good;
        totals.shed += st.shed;
        totals.rejected += st.rejected;
        totals.forwarded_out += st.forwarded_out;
        totals.forwarded_in += st.forwarded_in;
        totals.failures += st.failures;
        totals.trips += st.trips;
        totals.closes += st.closes;
        ledger ^= s.ledger_submitted ^ s.ledger_terminal;
        events += s.core.events_fired();

        let mut shard_energy = FleetEnergy::new();
        for t in &s.tiers {
            shard_energy.merge(&t.energy);
        }
        energy.merge(&shard_energy);

        for (m, &b) in merged.iter_mut().zip(s.lat_hist.buckets()) {
            *m += b;
        }
        merged_above += s.lat_hist.above();

        for v in [
            st.submitted,
            st.completed,
            st.good,
            st.shed,
            st.rejected,
            st.forwarded_out,
            st.forwarded_in,
            st.failures,
            st.trips,
            st.closes,
            s.ledger_submitted,
            s.ledger_terminal,
            s.core.events_fired(),
            shard_energy.total_joules().to_bits(),
        ] {
            fnv1a_fold(&mut fingerprint, &v.to_le_bytes());
        }
        for &b in s.lat_hist.buckets() {
            fnv1a_fold(&mut fingerprint, &b.to_le_bytes());
        }
        reports.push(ShardReport {
            region: s.region,
            stats: st,
            p99_ms: hist_quantile_ms(s.lat_hist.buckets(), s.lat_hist.count(), 0.99),
            energy: shard_energy,
            events: s.core.events_fired(),
        });
    }
    fnv1a_fold(&mut fingerprint, &windows.to_le_bytes());
    fnv1a_fold(&mut fingerprint, &messages.to_le_bytes());

    let total_lat = merged.iter().sum::<u64>() + merged_above;
    let width = (LAT_HI - LAT_LO) / LAT_BUCKETS as f64;
    let mean_s = if total_lat == 0 {
        0.0
    } else {
        merged
            .iter()
            .enumerate()
            .map(|(i, &b)| (LAT_LO + width * (i as f64 + 0.5)) * b as f64)
            .sum::<f64>()
            / total_lat as f64
    };

    let completions: Vec<u64> = reports.iter().map(|r| r.stats.completed).collect();
    let max_c = completions.iter().copied().max().unwrap_or(0);
    let mean_c = if completions.is_empty() {
        0.0
    } else {
        completions.iter().sum::<u64>() as f64 / completions.len() as f64
    };
    let imbalance = if mean_c > 0.0 {
        max_c as f64 / mean_c
    } else {
        1.0
    };

    FleetReport {
        submitted: totals.submitted,
        completed: totals.completed,
        good: totals.good,
        shed: totals.shed,
        rejected: totals.rejected,
        forwarded: totals.forwarded_out,
        failures: totals.failures,
        trips: totals.trips,
        goodput: if totals.submitted == 0 {
            0.0
        } else {
            totals.good as f64 / totals.submitted as f64
        },
        p99_ms: hist_quantile_ms(&merged, total_lat, 0.99),
        mean_ms: mean_s * 1e3,
        imbalance,
        energy,
        ledger_ok: ledger == 0,
        windows,
        messages,
        events,
        fingerprint,
        shards: reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FleetConfig {
        let mut trace = FleetTraceConfig::new(11, 4_000, 4, 1);
        trace.requests_per_user_day = 6.0;
        trace.bursts_per_region_day = 6.0;
        trace.burst_frames = 40;
        let mut cfg = FleetConfig::new(trace);
        // Shrink the cluster so queues actually fill under bursts.
        cfg.tiers[0].nodes = 2;
        cfg.tiers[1].nodes = 1;
        cfg.tiers[2].nodes = 1;
        cfg
    }

    #[test]
    fn clean_run_conserves_and_completes_everything() {
        let report = run_fleet(&small_cfg());
        assert!(report.submitted > 10_000, "submitted={}", report.submitted);
        assert!(report.conserved(), "conservation violated: {report:?}");
        assert!(report.ledger_ok);
        // An unstressed fleet completes essentially everything well.
        assert_eq!(report.completed, report.submitted);
        assert!(report.goodput > 0.95, "goodput={}", report.goodput);
        assert!(report.p99_ms > 0.0);
        assert!(report.energy.total_joules() > 0.0);
        assert!(report.imbalance >= 1.0);
        assert_eq!(report.shards.len(), 4);
    }

    #[test]
    fn crashes_trip_breakers_but_conservation_holds() {
        let mut cfg = small_cfg();
        cfg.crashes = Some((4, SimTime::from_secs(1200)));
        let report = run_fleet(&cfg);
        assert!(report.failures > 0, "no batch failures under crash plan");
        assert!(report.trips > 0, "breakers never tripped");
        assert!(report.conserved(), "conservation violated: {report:?}");
        // Failover keeps most traffic completing despite hour-scale outages.
        assert!(
            report.completed as f64 / report.submitted as f64 > 0.9,
            "completed {} of {}",
            report.completed,
            report.submitted
        );
    }

    #[test]
    fn faulted_fleet_is_bit_identical_across_thread_counts() {
        let mut cfg = small_cfg();
        cfg.crashes = Some((3, SimTime::from_secs(900)));
        let base = harvest_threads::with_threads(1, || run_fleet(&cfg));
        for threads in [2, 4, 8] {
            let run = harvest_threads::with_threads(threads, || run_fleet(&cfg));
            assert_eq!(
                run.fingerprint, base.fingerprint,
                "threads={threads} diverged"
            );
            assert_eq!(run.submitted, base.submitted);
            assert_eq!(run.completed, base.completed);
            assert_eq!(run.messages, base.messages);
        }
    }

    #[test]
    fn saturated_fleet_sheds_but_never_loses() {
        let mut trace = FleetTraceConfig::new(5, 1_000, 2, 1);
        // Quiet background, violent drone bursts: ~800 frames/s for 5 s
        // against a cluster that drains well under 300/s.
        trace.requests_per_user_day = 0.5;
        trace.bursts_per_region_day = 24.0;
        trace.burst_frames = 4_000;
        trace.burst_width = SimTime::from_secs(5);
        let mut cfg = FleetConfig::new(trace);
        for t in &mut cfg.tiers {
            t.platform = PlatformId::JetsonOrinNano;
            t.model = ModelId::VitBase;
            t.nodes = 1;
            t.batch_max = 1;
            t.queue_cap = 16;
        }
        let report = run_fleet(&cfg);
        assert!(report.rejected + report.shed > 0, "overload never shed");
        assert!(report.conserved(), "conservation violated: {report:?}");
        assert!(report.forwarded > 0, "saturation should spill cross-shard");
    }

    #[test]
    fn quantile_reads_bucket_edges() {
        let mut buckets = vec![0u64; LAT_BUCKETS];
        buckets[0] = 99; // 0..10ms
        buckets[9] = 1; // 90..100ms
        assert_eq!(hist_quantile_ms(&buckets, 100, 0.5), 10.0);
        assert_eq!(hist_quantile_ms(&buckets, 100, 0.99), 10.0);
        assert_eq!(hist_quantile_ms(&buckets, 100, 1.0), 100.0);
        assert_eq!(hist_quantile_ms(&buckets, 0, 0.99), 0.0);
    }
}
