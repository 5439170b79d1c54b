//! Silent-data-corruption detection and recovery across the real serving
//! path.
//!
//! A bit flip in cached weights or in an activation buffer does not crash
//! anything — it silently ships wrong logits. This module wires the
//! engine-level integrity mechanics ([`harvest_engine`]'s weight checksums
//! and activation sentinels) and a cross-check against a clean oracle
//! executor into the real-execution servers and a small protected cluster:
//!
//! * [`DetectorConfig`] — which detectors run, forming the ladder measured
//!   by the `experiments integrity` sweep: **off** → **sentinels**
//!   (NaN/Inf/range scan after each GEMM stage, catches exponent
//!   explosions) → **checksums** (per-tensor FNV sums verified before every
//!   batch, catch *any* weight flip including a mantissa LSB) → **full**
//!   (adds an oracle cross-check per batch, which also catches small
//!   activation corruption).
//! * [`IntegrityStats`] — the conservation-checked counters: every batch is
//!   dispatched exactly once as quarantined / clean / masked / escaped, and
//!   every detection resolves as recovered or quarantined
//!   ([`IntegrityStats::conserved`]).
//! * `NodeIntegrity` — one node's fault plan + detector config + a
//!   pristine oracle executor: the same deterministic executor on the
//!   serving generation's weights, never injection-targeted. Its one
//!   forward per attempt is both the cross-check's reference and the ground
//!   truth each emitted batch is classified against.
//! * [`IntegrityCluster`] — N real-execution nodes behind the circuit
//!   breaker bank: a node whose post-recovery retry still detects
//!   corruption is quarantined (breaker forced open, node excluded from
//!   dispatch) and its failed batch is re-dispatched once to siblings.
//!
//! ## Why detection implies no escape in full mode
//!
//! The cross-check fires when `gap(output, clean) > DETECT_TOL = 1e-3`,
//! with [`harvest_tensor::integrity::max_abs_gap`] against the oracle's
//! output for the same batch. An *undetected* batch therefore satisfies
//! `gap(output, clean) ≤ 1e-3`, below `ESCAPE_TOL = 4e-3` — so with the
//! full ladder enabled every materially corrupted batch is either recovered
//! or quarantined, never emitted: `escaped == 0` by construction.

use crate::batcher::{BatcherConfig, BatcherConfigError};
use crate::breaker::{BreakerBank, BreakerConfig};
use crate::realexec::{Completion, RealBatchServer};
use harvest_engine::{ActivationGuard, Executor};
use harvest_models::Graph;
use harvest_simkit::fault::FaultPlan;
use harvest_simkit::SimTime;
use harvest_tensor::Tensor;
use std::collections::HashSet;

/// Cross-check detection threshold: a batched output further than this
/// (max-abs) from the clean oracle's output is declared corrupted.
pub const DETECT_TOL: f32 = 1e-3;

/// Ground-truth escape threshold: an *emitted* output further than this
/// from the clean oracle output counts as escaped corruption. The margin
/// above [`DETECT_TOL`] is what makes "undetected ⇒ not escaped" a theorem
/// (triangle inequality) rather than a hope.
pub const ESCAPE_TOL: f32 = 4e-3;

/// Which integrity detectors a node runs — one rung of the detector ladder.
#[derive(Clone, Copy, Debug, Default)]
pub struct DetectorConfig {
    /// Verify per-tensor weight checksums before every batch.
    pub weight_checksums: bool,
    /// Activation sentinel after each GEMM stage (`None` disables).
    pub guard: Option<ActivationGuard>,
    /// Cross-check every `period`-th batch against the clean oracle
    /// executor (0 disables, 1 checks every batch).
    pub cross_check_period: u64,
}

impl DetectorConfig {
    /// No detectors: corruption flows straight to the output.
    pub fn off() -> Self {
        DetectorConfig::default()
    }

    /// Activation sentinels only (NaN/Inf plus finite |v| > `range_limit`).
    pub fn sentinels(range_limit: f32) -> Self {
        DetectorConfig {
            guard: Some(ActivationGuard {
                range_limit: Some(range_limit),
            }),
            ..DetectorConfig::default()
        }
    }

    /// Weight checksums on top of the sentinels.
    pub fn checksums(range_limit: f32) -> Self {
        DetectorConfig {
            weight_checksums: true,
            ..DetectorConfig::sentinels(range_limit)
        }
    }

    /// The full ladder: checksums + sentinels + an oracle cross-check on
    /// every batch. The configuration with the `escaped == 0` guarantee.
    pub fn full(range_limit: f32) -> Self {
        DetectorConfig {
            cross_check_period: 1,
            ..DetectorConfig::checksums(range_limit)
        }
    }

    /// Does batch number `batch` get an oracle cross-check?
    pub(crate) fn cross_checks(&self, batch: u64) -> bool {
        self.cross_check_period != 0 && batch.is_multiple_of(self.cross_check_period)
    }
}

/// Conservation-checked integrity counters for one node (or, merged, a
/// cluster).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IntegrityStats {
    /// Batches that entered the integrity state machine.
    pub batches: u64,
    /// Weight bits actually flipped by injection.
    pub injected_weight_flips: u64,
    /// Activation bits actually flipped by injection.
    pub injected_activation_flips: u64,
    /// Batches whose first attempt tripped any detector.
    pub detected: u64,
    /// Detected batches whose post-rematerialization retry emitted.
    pub recovered: u64,
    /// Detected batches whose retry *also* tripped a detector — the node
    /// was quarantined and the batch failed.
    pub quarantined: u64,
    /// Emitted batches bit-identical to the clean oracle output.
    pub clean: u64,
    /// Emitted batches that differ bitwise from clean but stay within
    /// [`ESCAPE_TOL`] — corruption masked by numerical insignificance.
    pub masked: u64,
    /// Emitted batches materially wrong (beyond [`ESCAPE_TOL`]): silent
    /// data corruption that reached a client.
    pub escaped: u64,
}

impl IntegrityStats {
    /// Total injected bit flips across fault families.
    pub fn injected(&self) -> u64 {
        self.injected_weight_flips + self.injected_activation_flips
    }

    /// The two accounting invariants: every detection resolves
    /// (`detected == recovered + quarantined`) and every batch has exactly
    /// one disposition (`batches == quarantined + clean + masked +
    /// escaped`).
    pub fn conserved(&self) -> bool {
        self.detected == self.recovered + self.quarantined
            && self.batches == self.quarantined + self.clean + self.masked + self.escaped
    }

    /// Field-wise accumulate (cluster aggregation).
    pub fn merge(&mut self, o: &IntegrityStats) {
        self.batches += o.batches;
        self.injected_weight_flips += o.injected_weight_flips;
        self.injected_activation_flips += o.injected_activation_flips;
        self.detected += o.detected;
        self.recovered += o.recovered;
        self.quarantined += o.quarantined;
        self.clean += o.clean;
        self.masked += o.masked;
        self.escaped += o.escaped;
    }
}

/// One node's integrity state: the fault plan corrupting it, the detectors
/// defending it, the pristine oracle classifying what it emits, and the
/// counters.
pub(crate) struct NodeIntegrity<'g> {
    pub(crate) plan: FaultPlan,
    pub(crate) config: DetectorConfig,
    /// Clean twin of the node's executor (same graph + seed, never
    /// injected): ground truth for escape classification only — it serves
    /// no traffic.
    pub(crate) oracle: Executor<'g>,
    pub(crate) stats: IntegrityStats,
    pub(crate) quarantined: bool,
}

impl<'g> NodeIntegrity<'g> {
    /// Integrity state for a node whose executor was built from
    /// (`graph`, `seed`) — the oracle must match that construction.
    pub(crate) fn new(
        graph: &'g Graph,
        seed: u64,
        plan: FaultPlan,
        config: DetectorConfig,
    ) -> Self {
        NodeIntegrity {
            plan,
            config,
            oracle: Executor::new(graph, seed),
            stats: IntegrityStats::default(),
            quarantined: false,
        }
    }
}

/// What an [`IntegrityCluster`] call produced.
#[derive(Debug, Default)]
pub struct ClusterOutcome {
    /// Completed requests (real logits), possibly from several nodes when
    /// a quarantine forced re-dispatch.
    pub completed: Vec<Completion>,
    /// Request ids dropped: shed/rejected by a batcher, or failed on a
    /// quarantined node after their one sibling retry.
    pub dropped: Vec<u64>,
}

impl ClusterOutcome {
    fn absorb(&mut self, mut other: ClusterOutcome) {
        self.completed.append(&mut other.completed);
        self.dropped.append(&mut other.dropped);
    }
}

/// N real-execution serving nodes with per-node fault plans and detectors,
/// fronted by round-robin dispatch through the circuit-breaker bank.
/// Quarantined nodes are excluded from dispatch and their failed batches
/// re-dispatched once to siblings.
pub struct IntegrityCluster<'g> {
    servers: Vec<RealBatchServer<'g>>,
    bank: BreakerBank,
    rr: usize,
    retried: HashSet<u64>,
}

impl<'g> IntegrityCluster<'g> {
    /// A cluster of `nodes` servers over (`graph`, `seed`), each with the
    /// same batcher/detector configuration and its own fault plan from
    /// `make_plan(node)` — salt the plan seed per node so nodes corrupt
    /// independently.
    pub fn new(
        graph: &'g Graph,
        seed: u64,
        nodes: u32,
        batcher: BatcherConfig,
        breaker: BreakerConfig,
        detectors: DetectorConfig,
        mut make_plan: impl FnMut(u32) -> FaultPlan,
    ) -> Result<Self, BatcherConfigError> {
        let servers = (0..nodes)
            .map(|n| {
                RealBatchServer::with_integrity(
                    Executor::new(graph, seed),
                    batcher,
                    NodeIntegrity::new(graph, seed, make_plan(n), detectors),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(IntegrityCluster {
            servers,
            bank: BreakerBank::new(nodes, breaker),
            rr: 0,
            retried: HashSet::new(),
        })
    }

    /// Nodes in the cluster.
    pub fn nodes(&self) -> usize {
        self.servers.len()
    }

    /// Nodes currently quarantined.
    pub fn quarantined_nodes(&self) -> Vec<usize> {
        self.servers
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_quarantined())
            .map(|(i, _)| i)
            .collect()
    }

    /// Cluster-wide integrity counters.
    pub fn stats(&self) -> IntegrityStats {
        let mut agg = IntegrityStats::default();
        for s in &self.servers {
            if let Some(st) = s.integrity_stats() {
                agg.merge(st);
            }
        }
        agg
    }

    /// Submit one request to the next dispatchable node.
    pub fn submit(&mut self, id: u64, input: Tensor, now: SimTime) -> ClusterOutcome {
        let mut out = ClusterOutcome::default();
        let Some(node) = self.pick_node(now, None) else {
            out.dropped.push(id);
            return out;
        };
        let sub = self.servers[node].submit(id, input, now);
        if !sub.admitted {
            out.dropped.push(id);
        }
        out.dropped.extend(sub.shed);
        out.completed.extend(sub.completed);
        out.absorb(self.settle(node, now));
        out
    }

    /// Fire the delay trigger on every node.
    pub fn poll(&mut self, now: SimTime) -> ClusterOutcome {
        let mut out = ClusterOutcome::default();
        for node in 0..self.servers.len() {
            out.completed.extend(self.servers[node].poll(now));
            out.absorb(self.settle(node, now));
        }
        out
    }

    /// Drain every queue (end of stream), re-dispatching quarantine
    /// casualties until the cluster is stable.
    pub fn flush(&mut self, now: SimTime) -> ClusterOutcome {
        let mut out = ClusterOutcome::default();
        // Each failed request is retried at most once, so two sweeps make
        // the cluster stable; the loop guard is belt-and-braces.
        for _ in 0..self.servers.len() + 2 {
            let mut moved = false;
            for node in 0..self.servers.len() {
                let done = self.servers[node].flush();
                moved |= !done.is_empty();
                out.completed.extend(done);
                let settled = self.settle(node, now);
                moved |= !settled.completed.is_empty() || !settled.dropped.is_empty();
                out.absorb(settled);
            }
            if !moved {
                break;
            }
        }
        out
    }

    /// After any server interaction: force the breaker open on a fresh
    /// quarantine and re-dispatch the failed batch's requests once each.
    fn settle(&mut self, node: usize, now: SimTime) -> ClusterOutcome {
        let mut out = ClusterOutcome::default();
        if self.servers[node].is_quarantined() {
            self.bank.force_open(node as u32, now);
        }
        for (id, input) in self.servers[node].take_failed() {
            if !self.retried.insert(id) {
                // Already had its one retry.
                out.dropped.push(id);
                continue;
            }
            match self.pick_node(now, Some(node)) {
                Some(sibling) => {
                    let sub = self.servers[sibling].submit(id, input, now);
                    if !sub.admitted {
                        out.dropped.push(id);
                    }
                    out.dropped.extend(sub.shed);
                    out.completed.extend(sub.completed);
                    out.absorb(self.settle(sibling, now));
                }
                None => out.dropped.push(id),
            }
        }
        out
    }

    /// Next dispatchable node round-robin: not quarantined, breaker
    /// allowing, and not `exclude` (the node a retry just failed on).
    fn pick_node(&mut self, now: SimTime, exclude: Option<usize>) -> Option<usize> {
        let n = self.servers.len();
        for k in 0..n {
            let i = (self.rr + k) % n;
            if Some(i) == exclude || self.servers[i].is_quarantined() {
                continue;
            }
            if !self.bank.allow(i as u32, now) {
                continue;
            }
            self.rr = (i + 1) % n;
            return Some(i);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerState;
    use harvest_models::{vit, VitConfig};

    fn tiny_graph() -> Graph {
        vit(
            "tiny-integrity",
            &VitConfig {
                dim: 32,
                depth: 1,
                heads: 2,
                patch: 4,
                img: 16,
                mlp_ratio: 2,
                classes: 4,
            },
        )
    }

    fn input(seed: u64) -> Tensor {
        Tensor::random(&[3, 16, 16], seed, 1.0)
    }

    #[test]
    fn detector_config_ladder_and_periods() {
        assert!(!DetectorConfig::off().weight_checksums);
        assert!(DetectorConfig::off().guard.is_none());
        assert!(DetectorConfig::sentinels(10.0).guard.is_some());
        assert!(!DetectorConfig::sentinels(10.0).weight_checksums);
        assert!(DetectorConfig::checksums(10.0).weight_checksums);
        assert!(!DetectorConfig::checksums(10.0).cross_checks(0));
        let full = DetectorConfig::full(10.0);
        assert!(full.cross_checks(0) && full.cross_checks(1) && full.cross_checks(17));
        let sampled = DetectorConfig {
            cross_check_period: 4,
            ..DetectorConfig::checksums(10.0)
        };
        assert!(sampled.cross_checks(0) && sampled.cross_checks(8));
        assert!(!sampled.cross_checks(3));
    }

    #[test]
    fn stats_conservation_catches_leaks() {
        let mut s = IntegrityStats {
            batches: 10,
            detected: 3,
            recovered: 2,
            quarantined: 1,
            clean: 6,
            masked: 2,
            escaped: 1,
            ..IntegrityStats::default()
        };
        assert!(s.conserved());
        s.escaped = 0;
        assert!(!s.conserved(), "a lost batch must fail the invariant");
        s.escaped = 1;
        s.recovered = 3;
        assert!(!s.conserved(), "an unresolved detection must fail");
    }

    #[test]
    fn cluster_quarantines_the_bad_node_and_siblings_absorb_its_work() {
        let g = tiny_graph();
        // Node 0 has a sticky weight fault (a failing cell: survives
        // re-materialization); node 1 is healthy.
        let mut cluster = IntegrityCluster::new(
            &g,
            7,
            2,
            BatcherConfig::new(2, SimTime::from_millis(1000)),
            BreakerConfig::default(),
            DetectorConfig::full(1e6),
            |node| {
                if node == 0 {
                    FaultPlan::new(300).with_weight_bit_flips(5e-3, true)
                } else {
                    FaultPlan::none()
                }
            },
        )
        .expect("valid cluster");

        let total = 12u64;
        let mut out = ClusterOutcome::default();
        for id in 0..total {
            out.absorb(cluster.submit(id, input(id + 1), SimTime::from_millis(id)));
        }
        out.absorb(cluster.flush(SimTime::from_millis(total)));

        assert_eq!(cluster.quarantined_nodes(), vec![0]);
        assert_eq!(
            cluster.bank.state(0, SimTime::from_millis(total)),
            BreakerState::Open,
            "quarantine forces the breaker open"
        );
        let stats = cluster.stats();
        assert_eq!(stats.quarantined, 1);
        assert_eq!(stats.escaped, 0);
        assert!(stats.conserved(), "{stats:?}");
        // Conservation across the cluster: every request completed exactly
        // once or was dropped; the quarantined batch's requests were
        // re-dispatched to node 1 and completed there.
        let mut seen: Vec<u64> = out
            .completed
            .iter()
            .map(|c| c.id)
            .chain(out.dropped.iter().copied())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total).collect::<Vec<_>>());
        assert!(
            out.completed.len() as u64 == total,
            "healthy sibling absorbs the failed batch: {} completed, {:?} dropped",
            out.completed.len(),
            out.dropped
        );
        // And completions are the clean logits.
        let oracle = Executor::new(&g, 7);
        for c in &out.completed {
            assert_eq!(c.output, oracle.forward(&input(c.id + 1)));
        }
    }

    #[test]
    fn healthy_cluster_emits_clean_logits_and_counts_clean_batches() {
        let g = tiny_graph();
        let mut cluster = IntegrityCluster::new(
            &g,
            7,
            3,
            BatcherConfig::new(2, SimTime::from_millis(1000)),
            BreakerConfig::default(),
            DetectorConfig::checksums(1e6),
            |_| FaultPlan::none(),
        )
        .expect("valid cluster");
        let mut out = ClusterOutcome::default();
        for id in 0..9 {
            out.absorb(cluster.submit(id, input(id + 1), SimTime::from_millis(id)));
        }
        out.absorb(cluster.flush(SimTime::from_millis(9)));
        assert_eq!(out.completed.len(), 9);
        assert!(out.dropped.is_empty());
        let stats = cluster.stats();
        assert_eq!(stats.clean, stats.batches);
        assert_eq!(stats.detected, 0);
        assert!(stats.conserved());
        assert!(cluster.quarantined_nodes().is_empty());
        assert_eq!(cluster.nodes(), 3);
    }
}
