//! Regenerate every table and figure of the paper.
//!
//! ```text
//! experiments [table1|table2|table3|fig4|fig5|fig6|fig7|fig8|energy|continuum|scaling|
//!              ablations|cluster|resilience|overload|integrity|bench|wire|swap|serve|
//!              fleet|host]... [--json DIR] [--smoke]
//! ```
//!
//! With no subcommand, everything runs; a name that is none of the above,
//! or a `--json` with no directory after it, is an error (exit 2) before
//! anything runs. `--json DIR` additionally writes each
//! result as a JSON artifact into DIR. `--smoke` keeps the self-checks but
//! suppresses the tables — CI uses it to regenerate artifacts cheaply and
//! diff them for drift. `host` runs the *real* host measurements (GEMM
//! GFLOPS, real preprocessing timings, the AJPG-vs-RTIF decode gap) — the
//! executable-substrate counterpart of the simulated platforms.

use harvest_bench::{ascii_series, pretty, text_table};
use harvest_core::experiments as exp;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting allocator: every heap acquisition (alloc / realloc /
/// alloc_zeroed) bumps one relaxed counter. The `serve` experiment reads
/// the delta across a measured region to prove the steady-state inference
/// path is allocation-free; the cost is one relaxed add per allocation, so
/// the other experiments are unaffected.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations performed while running `f`.
fn count_allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// A subcommand: takes the artifact sink and the `--smoke` flag.
type Subcommand = fn(&dyn Fn(&str, String), bool);

/// Every subcommand, in the order a bare `experiments` runs them.
const SUBCOMMANDS: &[(&str, Subcommand)] = &[
    ("table1", |save, _| table1(save)),
    ("table2", |save, _| table2(save)),
    ("table3", |save, _| table3(save)),
    ("fig4", |save, _| fig4(save)),
    ("fig5", |save, _| fig5(save)),
    ("fig6", |save, _| fig6(save)),
    ("fig7", |save, _| fig7(save)),
    ("fig8", |save, _| fig8(save)),
    ("energy", |save, _| energy(save)),
    ("continuum", |save, _| continuum(save)),
    ("scaling", |save, _| scaling(save)),
    ("ablations", |save, _| ablations(save)),
    ("cluster", |save, _| cluster(save)),
    ("resilience", |save, _| resilience(save)),
    ("overload", overload),
    ("integrity", integrity),
    ("bench", |save, _| bench(save)),
    ("wire", wire),
    ("swap", swap),
    ("serve", serve),
    ("fleet", fleet),
    ("host", |_, _| host()),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_dir: Option<PathBuf> = None;
    let mut smoke = false;
    let mut wanted: BTreeSet<String> = BTreeSet::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--json" {
            let Some(dir) = it.next() else {
                eprintln!("experiments: `--json` needs a directory");
                std::process::exit(2);
            };
            json_dir = Some(PathBuf::from(dir));
        } else if a == "--smoke" {
            smoke = true;
        } else if SUBCOMMANDS.iter().any(|(name, _)| name == a) {
            wanted.insert(a.clone());
        } else {
            let names: Vec<&str> = SUBCOMMANDS.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "experiments: unknown subcommand `{a}`; valid: {}",
                names.join(" ")
            );
            std::process::exit(2);
        }
    }
    if let Some(dir) = &json_dir {
        fs::create_dir_all(dir).expect("create artifact dir");
    }
    let save = |name: &str, json: String| {
        if let Some(dir) = &json_dir {
            let path = dir.join(format!("{name}.json"));
            fs::write(&path, json).expect("write artifact");
            println!("  [artifact] {}", path.display());
        }
    };
    for (name, subcommand) in SUBCOMMANDS {
        if wanted.is_empty() || wanted.contains(*name) {
            subcommand(&save, smoke);
        }
    }
}

/// Fleet-scale continuum sweep: the multi-day, million-user (full mode)
/// trace on the sharded conservative-sync simulator, run at worker widths
/// 1/2/4/8. The runner itself asserts conservation on every run and
/// fingerprint equality across the sweep plus a replay; everything in the
/// artifact is simulated-time accounting, so both artifacts are
/// byte-stable. Smoke writes `fleet.json` (drift-gated in CI); the full
/// million-user sweep writes `fleet_full.json` (committed for the record,
/// too slow to regenerate in the CI gate).
fn fleet(save: &dyn Fn(&str, String), smoke: bool) {
    println!(
        "== Extension: fleet-scale sharded simulation (calendar queue + conservative sync) =="
    );
    let exp = exp::fleet(smoke);
    println!(
        "  fleet: {} users, {} regions, {} days, lookahead {} ms",
        exp.users, exp.regions, exp.days, exp.lookahead_ms
    );
    if !smoke {
        let rtab: Vec<Vec<String>> = exp
            .runs
            .iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    r.submitted.to_string(),
                    r.completed.to_string(),
                    format!("{:.4}", r.goodput),
                    format!("{:.1}", r.p99_ms),
                    r.shed.to_string(),
                    r.rejected.to_string(),
                    r.forwarded.to_string(),
                    r.trips.to_string(),
                    format!("{:.2}", r.imbalance),
                    format!("{:.1}", r.busy_wh + r.idle_wh),
                    format!("{:.2}", r.mj_per_image),
                    r.fingerprint.clone(),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &[
                    "Threads",
                    "Submitted",
                    "Completed",
                    "Goodput",
                    "p99 ms",
                    "Shed",
                    "Rejected",
                    "Forwarded",
                    "Trips",
                    "Imbalance",
                    "Wh",
                    "mJ/img",
                    "Fingerprint",
                ],
                &rtab
            )
        );
        let stab: Vec<Vec<String>> = exp
            .shards
            .iter()
            .map(|s| {
                vec![
                    s.region.to_string(),
                    s.submitted.to_string(),
                    s.completed.to_string(),
                    s.forwarded_out.to_string(),
                    s.forwarded_in.to_string(),
                    s.failures.to_string(),
                    format!("{:.1}", s.p99_ms),
                    format!("{:.1}", s.total_wh),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &[
                    "Region",
                    "Submitted",
                    "Completed",
                    "Fwd out",
                    "Fwd in",
                    "Failures",
                    "p99 ms",
                    "Wh",
                ],
                &stab
            )
        );
    }
    println!(
        "  self-check: conservation at every width, fingerprints identical at 1/2/4/8 workers + replay — all OK"
    );
    let name = if smoke { "fleet" } else { "fleet_full" };
    save(name, serde_json::to_string_pretty(&exp).unwrap());
}

/// The wire front-end under load: clean serving, seeded socket chaos, and
/// a drain scenario, each conservation-checked and replayed to assert a
/// bit-identical outcome fingerprint. The deterministic ledger goes to
/// `wire.json` (drift-gated in CI); wall-clock latency percentiles go to
/// `wire_latency.json` (schema-gated only — real time is not replayable).
fn wire(save: &dyn Fn(&str, String), smoke: bool) {
    use harvest_net::{run_loadgen, LoadgenConfig, LoadgenReport, WireConfig, WireServer};
    use harvest_simkit::SocketFaultPlan;

    println!("== Extension: hardened wire front-end (HTTP/1.1 serving under socket chaos) ==");

    struct Scenario {
        name: &'static str,
        requests: u64,
        plan: SocketFaultPlan,
        drain_first: bool,
    }
    let chaos_plan = SocketFaultPlan::new(2024)
        .with_resets(0.08)
        .with_truncations(0.08)
        .with_garbling(0.08)
        .with_stalls(0.06, 400)
        .with_short_chunks();
    let scenarios = [
        Scenario {
            name: "clean",
            requests: 24,
            plan: SocketFaultPlan::none(),
            drain_first: false,
        },
        Scenario {
            name: "chaos",
            requests: 48,
            plan: chaos_plan,
            drain_first: false,
        },
        Scenario {
            name: "drain",
            requests: 8,
            plan: SocketFaultPlan::none(),
            drain_first: true,
        },
    ];

    let run_scenario = |s: &Scenario| {
        let server = WireServer::start(WireConfig::default()).expect("start wire server");
        if s.drain_first {
            server.begin_drain();
        }
        let report = run_loadgen(
            server.addr(),
            &LoadgenConfig {
                requests: s.requests,
                client_threads: 8,
                plan: s.plan,
                ..LoadgenConfig::default()
            },
        );
        let drain = server.shutdown();
        assert!(
            report.conserved(),
            "{}: client ledger must conserve (lost {}, dup {}, client_errors {})",
            s.name,
            report.lost,
            report.dup,
            report.client_errors
        );
        assert!(
            drain.stats.conserved(),
            "{}: server ledger must conserve: {:?}",
            s.name,
            drain.stats
        );
        (report, drain)
    };

    let scenario_doc = |report: &LoadgenReport, drain: &harvest_net::DrainReport| {
        serde_json::json!({
            "requests": report.requests,
            "fates": serde_json::json!({
                "clean": report.fates.clean,
                "reset": report.fates.reset,
                "truncate": report.fates.truncate,
                "garble": report.fates.garble,
                "stall": report.fates.stall,
            }),
            "sent": report.sent,
            "cut": report.cut,
            "responded": report.responded,
            "statuses": report.statuses.iter().map(|&(s, n)| serde_json::json!([s, n])).collect::<Vec<_>>(),
            "classes": report.classes.iter().map(|&(c, n)| serde_json::json!([c, n])).collect::<Vec<_>>(),
            "lost": report.lost,
            "dup": report.dup,
            "client_errors": report.client_errors,
            "fingerprint": format!("{:016x}", report.fingerprint),
            "server": serde_json::json!({
                "accepted": drain.stats.accepted,
                "responded_ok": drain.stats.responded_ok,
                "responded_error": drain.stats.responded_error,
                "rejected": drain.stats.rejected,
                "shed": drain.stats.shed,
                "bad_requests": drain.stats.bad_requests,
                "incomplete": drain.stats.incomplete,
                "timeouts": drain.stats.timeouts,
                "threads_joined": drain.threads_joined,
            }),
        })
    };

    let mut docs = Vec::new();
    let mut latency_docs = Vec::new();
    for s in &scenarios {
        let (report, drain) = run_scenario(s);
        // The headline self-check: a second run on a fresh server, same
        // seed, must replay to the identical outcome fingerprint and the
        // identical server-side ledger.
        let (rerun, redrain) = run_scenario(s);
        assert_eq!(
            report.fingerprint, rerun.fingerprint,
            "{}: outcome fingerprint must replay bit for bit",
            s.name
        );
        assert_eq!(
            drain.stats, redrain.stats,
            "{}: server ledger must replay exactly",
            s.name
        );
        if s.drain_first {
            assert_eq!(
                drain.stats.rejected, s.requests,
                "drain scenario: every request draws an explicit 503"
            );
        }
        if !smoke {
            println!(
                "  {:<6} requests {:>3}  sent {:>3}  cut {:>2}  responded {:>3}  \
                 ok {:>3}  rejected {:>2}  fingerprint {:016x}",
                s.name,
                report.requests,
                report.sent,
                report.cut,
                report.responded,
                drain.stats.responded_ok,
                drain.stats.rejected,
                report.fingerprint
            );
        }
        latency_docs.push(serde_json::json!({
            "scenario": s.name,
            "p50_ms": report.percentile_ms(50.0),
            "p99_ms": report.percentile_ms(99.0),
            "buckets_ms": harvest_net::LATENCY_BUCKETS_MS.to_vec(),
            "histogram": report.latency_histogram(),
        }));
        docs.push(serde_json::json!({
            "scenario": s.name,
            "ledger": scenario_doc(&report, &drain),
        }));
    }
    println!(
        "  self-check: client+server conservation in every scenario, drain answers 503, \
         bit-identical rerun fingerprints — all OK"
    );
    save(
        "wire",
        serde_json::to_string_pretty(&serde_json::json!({ "scenarios": docs })).unwrap(),
    );
    save(
        "wire_latency",
        serde_json::to_string_pretty(&serde_json::json!({ "scenarios": latency_docs })).unwrap(),
    );
}

/// The generation-swap subsystem under live traffic: 120 swap attempts per
/// scenario interleaved with real-inference requests, across a seeded
/// artifact-chaos grid (byte corruption, truncation, mid-load crash points,
/// producer-side poison). Every run proves the conservation ledger —
/// completed + shed + rejected == submitted, lost == dup == 0 — and
/// containment: no completion is ever tagged with a quarantined
/// generation's number (escaped == 0). The deterministic ledger goes to
/// `swap.json` (drift-gated in CI); wall-clock verify+publish latency goes
/// to `swap_latency.json` (schema-gated only).
fn swap(save: &dyn Fn(&str, String), smoke: bool) {
    use harvest_engine::{
        encode_artifact, ArtifactError, Executor, MaterializedWeights, WeightStore,
    };
    use harvest_models::{vit, VitConfig};
    use harvest_serving::{BatcherConfig, Completion, RealBatchServer, ShedPolicy, Submission};
    use harvest_simkit::{ArtifactFate, ArtifactFaultPlan, SimTime};
    use harvest_tensor::integrity::checksum_f32;
    use harvest_tensor::Tensor;

    println!(
        "== Extension: hot-swappable weight generations (integrity-gated loads + rollback) =="
    );

    let cfg = VitConfig {
        dim: 32,
        depth: 1,
        heads: 2,
        patch: 4,
        img: 16,
        mlp_ratio: 2,
        classes: 4,
    };
    let graph = vit("swap-exp", &cfg);
    let mut tensors = 0u64;
    MaterializedWeights::new(&graph, &WeightStore::new(1), false)
        .for_each_buffer(|_, _| tensors += 1);

    struct Scenario {
        name: &'static str,
        swaps: u64,
        plan: ArtifactFaultPlan,
        /// Latency-biased batcher regime (queue bound below the preferred
        /// batch, drop-oldest shedding) so conservation is proven with
        /// nonzero shed, not just in the trivially-lossless case.
        pressure: bool,
    }
    let scenarios = [
        Scenario {
            name: "clean",
            swaps: 120,
            plan: ArtifactFaultPlan::none(),
            pressure: false,
        },
        Scenario {
            name: "gated",
            swaps: 120,
            plan: ArtifactFaultPlan::new(41)
                .with_corruption(0.25)
                .with_truncation(0.2)
                .with_crash_points(0.2),
            pressure: false,
        },
        Scenario {
            name: "rollback",
            swaps: 120,
            plan: ArtifactFaultPlan::new(42).with_poison(0.25, 0.05),
            pressure: false,
        },
        Scenario {
            name: "pressure",
            swaps: 120,
            plan: ArtifactFaultPlan::new(43)
                .with_corruption(0.15)
                .with_truncation(0.1)
                .with_crash_points(0.1)
                .with_poison(0.15, 0.05),
            pressure: true,
        },
    ];

    /// Deterministic outcome ledger: every submission, swap outcome, and
    /// completion (id, serving generation, logits checksum) folded into one
    /// FNV-1a fingerprint.
    struct Ledger {
        submitted: u64,
        rejected: std::collections::BTreeSet<u64>,
        shed: std::collections::BTreeSet<u64>,
        completed: Vec<(u64, u64)>,
        fp: u64,
    }
    impl Ledger {
        fn new() -> Self {
            Ledger {
                submitted: 0,
                rejected: std::collections::BTreeSet::new(),
                shed: std::collections::BTreeSet::new(),
                completed: Vec::new(),
                fp: 0xcbf2_9ce4_8422_2325,
            }
        }
        fn mix(&mut self, x: u64) {
            self.fp ^= x;
            self.fp = self.fp.wrapping_mul(0x0000_0100_0000_01b3);
        }
        fn absorb(&mut self, id: u64, sub: Submission) {
            self.submitted += 1;
            if !sub.admitted {
                self.rejected.insert(id);
                self.mix(2);
                self.mix(id);
            }
            for shed in &sub.shed {
                self.shed.insert(*shed);
                self.mix(3);
                self.mix(*shed);
            }
            self.complete(sub.completed);
        }
        fn complete(&mut self, completions: Vec<Completion>) {
            for c in completions {
                self.mix(1);
                self.mix(c.id);
                self.mix(c.generation);
                self.mix(checksum_f32(c.output.data()));
                self.completed.push((c.id, c.generation));
            }
        }
    }

    let fate_tag = |fate: &ArtifactFate| match fate {
        ArtifactFate::Clean => 0usize,
        ArtifactFate::Corrupt { .. } => 1,
        ArtifactFate::Truncate { .. } => 2,
        ArtifactFate::Crash { .. } => 3,
        ArtifactFate::Poison => 4,
    };
    let error_tag = |e: &ArtifactError| match e {
        ArtifactError::Truncated { .. } => 0u64,
        ArtifactError::BadMagic => 1,
        ArtifactError::BadVersion { .. } => 2,
        ArtifactError::TensorCount { .. } => 3,
        ArtifactError::ManifestMismatch { .. } => 4,
        ArtifactError::TensorChecksum { .. } => 5,
        ArtifactError::ArtifactChecksum => 6,
        ArtifactError::TrailingBytes { .. } => 7,
        ArtifactError::CrashedMidLoad { .. } => 8,
    };

    struct ScenarioOutcome {
        doc: serde_json::Value,
        published: u64,
        rejected_loads: u64,
        rollbacks: u64,
        submitted: u64,
        completed: u64,
        shed: u64,
        fingerprint: String,
        latencies: Vec<f64>,
    }

    let run_scenario = |s: &Scenario| -> ScenarioOutcome {
        let bcfg = if s.pressure {
            BatcherConfig {
                preferred_batch: 4,
                max_queue_delay: SimTime::from_millis(1),
                max_queue: 2,
                shed: ShedPolicy::DropOldest,
            }
        } else {
            BatcherConfig::new(2, SimTime::from_millis(1000))
        };
        let mut server =
            RealBatchServer::new(Executor::new(&graph, 7), bcfg).expect("valid batcher config");
        let mut ledger = Ledger::new();
        let mut latencies = Vec::new();
        let mut fates = [0u64; 5];
        let mut published = 0u64;
        let mut next_id = 0u64;
        let mut t_us = 0u64;
        for a in 0..s.swaps {
            // One request queued across the swap boundary: it must complete
            // exactly once, on whichever generation actually serves it.
            let sub = server.submit(
                next_id,
                Tensor::random(&[3, 16, 16], next_id, 1.0),
                SimTime::from_micros(t_us),
            );
            ledger.absorb(next_id, sub);
            next_id += 1;
            t_us += 100;

            let seed = 10_000 + a;
            let mut weights = MaterializedWeights::new(&graph, &WeightStore::new(seed), false);
            let clean = encode_artifact(&weights);
            let fate = s.plan.fate(a, clean.len(), tensors);
            fates[fate_tag(&fate)] += 1;
            let (bytes, crash_after) = match fate {
                ArtifactFate::Clean => (clean, None),
                ArtifactFate::Corrupt { pos, mask } => {
                    let mut damaged = clean;
                    damaged[pos] ^= mask;
                    (damaged, None)
                }
                ArtifactFate::Truncate { after } => (clean[..after].to_vec(), None),
                ArtifactFate::Crash { after } => (clean, Some(after)),
                ArtifactFate::Poison => {
                    // Producer-side damage *before* checksumming: the
                    // artifact is self-consistent and passes the load gate;
                    // only the post-publication sentinel can contain it.
                    let mut element = 0u64;
                    weights.for_each_buffer_mut(|_, buf| {
                        for v in buf.iter_mut() {
                            if let Some(bit) = s.plan.poison_flip(a, element) {
                                *v = f32::from_bits(v.to_bits() | (1 << bit));
                            }
                            element += 1;
                        }
                    });
                    (encode_artifact(&weights), None)
                }
            };
            let started = std::time::Instant::now();
            let result = server.swap_artifact(&bytes, crash_after);
            latencies.push(started.elapsed().as_secs_f64() * 1e6);
            ledger.mix(10 + fate_tag(&fate) as u64);
            match (&fate, &result) {
                (ArtifactFate::Clean | ArtifactFate::Poison, Ok(number)) => {
                    published += 1;
                    ledger.mix(100);
                    ledger.mix(*number);
                }
                (
                    ArtifactFate::Corrupt { .. }
                    | ArtifactFate::Truncate { .. }
                    | ArtifactFate::Crash { .. },
                    Err(e),
                ) => {
                    ledger.mix(200 + error_tag(e));
                }
                (fate, result) => panic!(
                    "{}: artifact {a} with fate {fate:?} had unexpected outcome {result:?}",
                    s.name
                ),
            }

            // Post-swap traffic: the straddling batch dispatches here (size
            // trigger), plus one more batch entirely on the new generation.
            for _ in 0..3 {
                let sub = server.submit(
                    next_id,
                    Tensor::random(&[3, 16, 16], next_id, 1.0),
                    SimTime::from_micros(t_us),
                );
                ledger.absorb(next_id, sub);
                next_id += 1;
                t_us += 100;
            }
            if s.pressure {
                // The bounded queue never reaches the size trigger; the
                // delay trigger dispatches whatever shedding left behind.
                t_us += 2_000;
                let done = server.poll(SimTime::from_micros(t_us));
                ledger.complete(done);
            }
        }
        ledger.complete(server.flush());

        let cell = server.weights_cell();
        let quarantined: Vec<(u64, u64)> = cell.quarantined().to_vec();
        let quarantine_set: BTreeSet<u64> = quarantined.iter().map(|q| q.0).collect();
        let escaped = ledger
            .completed
            .iter()
            .filter(|(_, generation)| quarantine_set.contains(generation))
            .count() as u64;
        assert_eq!(
            escaped, 0,
            "{}: a quarantined generation served live traffic",
            s.name
        );
        let completed = ledger.completed.len() as u64;
        assert_eq!(
            completed + ledger.shed.len() as u64 + ledger.rejected.len() as u64,
            ledger.submitted,
            "{}: request ledger must conserve",
            s.name
        );
        let unique: BTreeSet<u64> = ledger.completed.iter().map(|c| c.0).collect();
        let dup = completed - unique.len() as u64;
        let expected: BTreeSet<u64> = (0..next_id)
            .filter(|id| !ledger.shed.contains(id) && !ledger.rejected.contains(id))
            .collect();
        let lost = expected.difference(&unique).count() as u64;
        assert_eq!((lost, dup), (0, 0), "{}: lost/dup completions", s.name);
        assert_eq!(
            cell.swaps(),
            published,
            "{}: every accepted artifact is a published generation",
            s.name
        );
        assert_eq!(
            cell.rejected_loads(),
            fates[1] + fates[2] + fates[3],
            "{}: every damaged artifact is rejected at the load gate",
            s.name
        );
        assert_eq!(
            cell.rollbacks(),
            fates[4],
            "{}: every poisoned generation is rolled back",
            s.name
        );
        assert_eq!(quarantined.len() as u64, fates[4]);

        let doc = serde_json::json!({
            "scenario": s.name,
            "swaps_attempted": s.swaps,
            "fates": serde_json::json!({
                "clean": fates[0],
                "corrupt": fates[1],
                "truncate": fates[2],
                "crash": fates[3],
                "poison": fates[4],
            }),
            "published": published,
            "rejected_loads": cell.rejected_loads(),
            "rollbacks": cell.rollbacks(),
            "quarantined": quarantined
                .iter()
                .map(|&(n, f)| serde_json::json!([n, format!("{f:016x}")]))
                .collect::<Vec<_>>(),
            "final_generation": cell.current().number(),
            "requests": serde_json::json!({
                "submitted": ledger.submitted,
                "completed": completed,
                "shed": ledger.shed.len() as u64,
                "rejected": ledger.rejected.len() as u64,
            }),
            "lost": lost,
            "dup": dup,
            "escaped": escaped,
            "conserved": true,
            "fingerprint": format!("{:016x}", ledger.fp),
        });
        ScenarioOutcome {
            doc,
            published,
            rejected_loads: cell.rejected_loads(),
            rollbacks: cell.rollbacks(),
            submitted: ledger.submitted,
            completed,
            shed: ledger.shed.len() as u64,
            fingerprint: format!("{:016x}", ledger.fp),
            latencies,
        }
    };

    let percentile = |sorted: &[f64], p: f64| -> f64 {
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted[idx]
    };

    let mut docs = Vec::new();
    let mut latency_docs = Vec::new();
    let mut rows = Vec::new();
    for s in &scenarios {
        let outcome = run_scenario(s);
        // Headline self-check: a second run on a fresh server must replay
        // the entire ledger — swap outcomes, completions, logits checksums
        // — bit for bit.
        let rerun = run_scenario(s);
        assert_eq!(
            outcome.doc, rerun.doc,
            "{}: swap ledger must replay bit for bit",
            s.name
        );
        let mut sorted = outcome.latencies.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rows.push(vec![
            s.name.to_string(),
            s.swaps.to_string(),
            outcome.published.to_string(),
            outcome.rejected_loads.to_string(),
            outcome.rollbacks.to_string(),
            outcome.submitted.to_string(),
            outcome.completed.to_string(),
            outcome.shed.to_string(),
            format!("{:.0}", percentile(&sorted, 50.0)),
            outcome.fingerprint.clone(),
        ]);
        latency_docs.push(serde_json::json!({
            "scenario": s.name,
            "p50_us": percentile(&sorted, 50.0),
            "p99_us": percentile(&sorted, 99.0),
            "max_us": sorted[sorted.len() - 1],
        }));
        docs.push(outcome.doc);
    }
    if !smoke {
        println!(
            "{}",
            text_table(
                &[
                    "Scenario",
                    "Swaps",
                    "Published",
                    "Rejected",
                    "Rollbacks",
                    "Submitted",
                    "Completed",
                    "Shed",
                    "p50 us",
                    "Fingerprint",
                ],
                &rows
            )
        );
    }
    println!(
        "  self-check: conservation + exactly-once completion in every scenario, every \
         damaged artifact rejected at the load gate, every poisoned generation rolled \
         back and quarantined with zero escapes, bit-identical reruns — all OK"
    );
    save(
        "swap",
        serde_json::to_string_pretty(&serde_json::json!({ "scenarios": docs })).unwrap(),
    );
    save(
        "swap_latency",
        serde_json::to_string_pretty(&serde_json::json!({ "scenarios": latency_docs })).unwrap(),
    );
}

/// Serving width sweep: the data-parallel engine worker pool at widths
/// 1/2/4/8. Two proofs and one recorded curve:
///
/// 1. **Width invariance** — a deterministic pipelined load replayed
///    against every pool width must produce a bit-identical client
///    fingerprint (same statuses, same classes, same ordering per
///    connection), plus an identical rerun at width 8.
/// 2. **Scale-up** is proven in virtual time, not here: `harvest-net`'s
///    `pool.rs` drives the dispatch state machine through a closed loop and
///    asserts a width-w makespan of exactly 1/w of width 1's. What the
///    pool buys on this host's real cores is recorded as
///    `real_forward_curve`: the repo benchmark's vit96, whose forward costs
///    milliseconds, served to a closed loop of 2 × width connections. It is
///    recorded with `host_threads`, never asserted.
/// 3. **Zero-allocation steady state** — the counting global allocator
///    measures allocations per request on the cold executor path vs the
///    scratch-reusing `forward_batch_into` path; the reduction must be at
///    least 10x.
///
/// The deterministic ledger goes to `serve_scale.json` (drift-gated in
/// CI); wall-clock throughput and the allocation probe go to
/// `serve_throughput.json` (schema-gated only — real time is not
/// replayable).
fn serve(save: &dyn Fn(&str, String), smoke: bool) {
    use harvest_engine::Executor;
    use harvest_models::vit;
    use harvest_net::{run_loadgen, LoadgenConfig, WireConfig, WireServer};
    use harvest_tensor::Tensor;

    println!("== Extension: data-parallel engine pool (width invariance + curve + allocs) ==");

    const WIDTHS: [usize; 4] = [1, 2, 4, 8];

    // --- Proof 1: width invariance on a deterministic pipelined load. ---
    let det_run = |workers: usize| {
        let server = WireServer::start(WireConfig {
            engine_workers: workers,
            ..WireConfig::default()
        })
        .expect("start wire server");
        let report = run_loadgen(
            server.addr(),
            &LoadgenConfig {
                requests: 12,
                client_threads: 1,
                requests_per_connection: 2,
                ..LoadgenConfig::default()
            },
        );
        let drain = server.shutdown();
        assert!(
            report.conserved(),
            "width {workers}: client ledger must conserve (lost {}, dup {}, client_errors {})",
            report.lost,
            report.dup,
            report.client_errors
        );
        assert!(
            drain.stats.conserved(),
            "width {workers}: server ledger must conserve: {:?}",
            drain.stats
        );
        (report, drain)
    };

    let mut width_docs = Vec::new();
    let mut shared_fp: Option<u64> = None;
    for &w in &WIDTHS {
        let (report, drain) = det_run(w);
        match shared_fp {
            None => shared_fp = Some(report.fingerprint),
            Some(fp) => assert_eq!(
                fp, report.fingerprint,
                "width {w}: pool width leaked into the wire fingerprint"
            ),
        }
        width_docs.push(serde_json::json!({
            "width": w,
            "requests": report.requests,
            "responded": report.responded,
            "statuses": report.statuses.iter().map(|&(s, n)| serde_json::json!([s, n])).collect::<Vec<_>>(),
            "classes": report.classes.iter().map(|&(c, n)| serde_json::json!([c, n])).collect::<Vec<_>>(),
            "fingerprint": format!("{:016x}", report.fingerprint),
            "server_responded_ok": drain.stats.responded_ok,
        }));
    }
    let (replay, _) = det_run(8);
    assert_eq!(
        shared_fp,
        Some(replay.fingerprint),
        "width 8: rerun must replay the fingerprint bit for bit"
    );

    // --- The recorded curve: the repo benchmark's vit96 (forward ≈ 2–3 ms,
    // so it dominates dispatch) under a closed loop of 2 × width keep-alive
    // connections, so every worker always has a successor queued. ---
    // One point per pool width: (width, requests, elapsed ms, requests/s).
    let per_connection: u64 = if smoke { 8 } else { 256 };
    let forward_run = |workers: usize| {
        let server = WireServer::start(WireConfig {
            accept_threads: 2 * workers,
            preferred_batch: workers as u32,
            engine_workers: workers,
            out_res: 96,
            model: harvest_models::VitConfig {
                dim: 192,
                depth: 3,
                heads: 3,
                patch: 16,
                img: 96,
                mlp_ratio: 4,
                classes: 16,
            },
            degraded_model: None,
            ..WireConfig::default()
        })
        .expect("start wire server");
        let load = LoadgenConfig {
            requests: 2 * workers as u64,
            client_threads: 2 * workers,
            requests_per_connection: per_connection,
            ..LoadgenConfig::default()
        };
        // Two untimed requests per connection: every worker has
        // materialized its weights and sized its scratch before the clock
        // starts.
        let warm = LoadgenConfig {
            requests_per_connection: 2,
            ..load
        };
        assert!(run_loadgen(server.addr(), &warm).conserved());
        let started = std::time::Instant::now();
        let report = run_loadgen(server.addr(), &load);
        let elapsed = started.elapsed();
        let drain = server.shutdown();
        assert!(report.conserved() && drain.stats.conserved());
        assert_eq!(
            report.responded, report.requests,
            "width {workers}: every pipelined request must draw a response"
        );
        let rate = report.requests as f64 / elapsed.as_secs_f64();
        (workers, report.requests, elapsed.as_secs_f64() * 1e3, rate)
    };
    let real_forward: Vec<(usize, u64, f64, f64)> =
        WIDTHS.iter().map(|&w| forward_run(w)).collect();
    let w1_rate = real_forward[0].3;
    let host_threads = std::thread::available_parallelism().map_or(1, usize::from);
    let real_forward_doc: Vec<serde_json::Value> = real_forward
        .iter()
        .map(|&(width, requests, elapsed_ms, rate)| {
            serde_json::json!({
                "width": width,
                "connections": 2 * width,
                "requests": requests,
                "elapsed_ms": elapsed_ms,
                "requests_per_s": rate,
                "speedup_over_w1": rate / w1_rate,
            })
        })
        .collect();

    // --- Proof 3: allocations per request, cold path vs steady state. ---
    let graph = vit("serve-alloc", &WireConfig::default().model);
    let inputs: Vec<Tensor> = (0..4)
        .map(|i| Tensor::random(&[3, 16, 16], 90_000 + i, 1.0))
        .collect();
    const REPS: u64 = 8;
    let per_request = REPS as f64 * inputs.len() as f64;
    let (baseline, steady) = harvest_threads::with_threads(1, || {
        let exec = Executor::new(&graph, 7);
        // Cold path: no executor scratch reuse, no tensor-pool recycling —
        // the allocation profile the engine had before the steady-state
        // path existed.
        exec.set_scratch_reuse(false);
        harvest_tensor::scratch::set_recycling(false);
        harvest_tensor::scratch::trim_thread_pool();
        exec.trim_scratch();
        let (baseline, _) = count_allocations(|| {
            for _ in 0..REPS {
                let _ = exec.forward_batch(&inputs);
            }
        });
        // Steady state: scratch reuse on, pools warmed, logits written into
        // a caller-owned sink that keeps its capacity across calls.
        exec.set_scratch_reuse(true);
        harvest_tensor::scratch::set_recycling(true);
        let mut sink: Vec<f32> = Vec::new();
        for _ in 0..2 {
            let _ = exec.forward_batch_into(&inputs, &mut sink);
        }
        let (steady, _) = count_allocations(|| {
            for _ in 0..REPS {
                let _ = exec.forward_batch_into(&inputs, &mut sink);
            }
        });
        (baseline, steady)
    });
    let baseline_per_request = baseline as f64 / per_request;
    let steady_per_request = steady as f64 / per_request;
    let alloc_ratio = baseline as f64 / (steady.max(1)) as f64;
    assert!(
        alloc_ratio >= 10.0,
        "steady-state path must cut allocations per request by 10x \
         (baseline {baseline_per_request:.1}/req, steady {steady_per_request:.1}/req)"
    );

    if !smoke {
        let rows: Vec<Vec<String>> = real_forward
            .iter()
            .map(|&(width, _, _, rate)| {
                vec![
                    width.to_string(),
                    format!("{rate:.1}"),
                    format!("{:.2}x", rate / w1_rate),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(&["Workers", "vit96 req/s", "vit96 over w1"], &rows)
        );
        println!("  vit96 curve: 2 x width closed-loop connections, {host_threads} host threads");
        println!(
            "  allocations/request: {baseline_per_request:.1} cold -> \
             {steady_per_request:.1} steady ({alloc_ratio:.0}x)"
        );
    }
    println!(
        "  self-check: bit-identical fingerprints at widths 1/2/4/8 + replay, \
         steady-state allocations cut >= 10x — all OK"
    );
    save(
        "serve_scale",
        serde_json::to_string_pretty(&serde_json::json!({
            "widths": width_docs,
            "fingerprint": format!("{:016x}", shared_fp.unwrap()),
            "width_invariant": true,
            "replay_identical": true,
        }))
        .unwrap(),
    );
    save(
        "serve_throughput",
        serde_json::to_string_pretty(&serde_json::json!({
            "real_forward_curve": serde_json::json!({
                "model": "vit96: dim 192, depth 3, heads 3, patch 16, img 96, mlp_ratio 4, classes 16",
                "host_threads": host_threads,
                "points": real_forward_doc,
            }),
            "allocations": serde_json::json!({
                "reps": REPS,
                "batch": inputs.len(),
                "baseline_total": baseline,
                "steady_total": steady,
                "baseline_per_request": baseline_per_request,
                "steady_per_request": steady_per_request,
                "ratio": alloc_ratio,
            }),
        }))
        .unwrap(),
    );
}

fn bench(save: &dyn Fn(&str, String)) {
    println!(
        "== Extension: logits ledger (batched vs one image at a time, pool widths 1 and 2) =="
    );
    let report = exp::bench();
    // Beyond the runner's own checks (tolerance against the one-image
    // baseline, the same logits at widths 1 and 2 and on a rerun), a second
    // run must serialize to the same bytes.
    let json = serde_json::to_string_pretty(&report).unwrap();
    assert_eq!(
        json,
        serde_json::to_string_pretty(&exp::bench()).unwrap(),
        "the logits ledger must be bit-reproducible"
    );
    for m in &report.models {
        println!(
            "  {} B={} seed {}: logits {}, rel err {:.1e}, peak {} f32",
            m.model,
            m.batch,
            m.input_seed,
            m.logits_fingerprint,
            m.rel_err_vs_reference,
            m.peak_live_f32
        );
    }
    println!(
        "  self-check: rel err < 1e-4, bit-identical logits across widths and reruns — all OK"
    );
    save("BENCH", json);
}

fn overload(save: &dyn Fn(&str, String), smoke: bool) {
    println!("== Extension: overload protection (admission, breaker, degradation ladder) ==");
    let exp = exp::overload();
    // Self-checks run in both modes: conservation at every sweep point, the
    // two companion scenarios healthy, and a bit-identical rerun.
    let rerun = exp::overload();
    assert_eq!(
        serde_json::to_string(&exp).unwrap(),
        serde_json::to_string(&rerun).unwrap(),
        "overload sweep must be bit-reproducible"
    );
    for row in &exp.sweep {
        assert!(
            row.conserved,
            "{} @ {:.1}x: completed {} + shed {} + rejected {} != submitted {}",
            row.platform, row.load_factor, row.completed, row.shed, row.rejected, row.submitted
        );
    }
    assert_eq!(
        exp.ladder.served, exp.ladder.submitted,
        "ladder dropped work"
    );
    assert_eq!(exp.breaker.lost, 0, "breaker scenario lost images");
    assert_eq!(
        exp.breaker.duplicated, 0,
        "breaker scenario duplicated images"
    );
    assert!(
        exp.sweep.iter().any(|r| r.shed + r.rejected > 0),
        "no sweep point ever shed — overload never happened"
    );
    if !smoke {
        let table: Vec<Vec<String>> = exp
            .sweep
            .iter()
            .map(|r| {
                vec![
                    r.platform.clone(),
                    format!("{:.1}x", r.load_factor),
                    pretty(r.offered_rps, 0),
                    pretty(r.baseline_throughput, 0),
                    format!("{:.1}", r.baseline_p99_ms),
                    pretty(r.goodput, 0),
                    format!("{:.1}", r.p99_ms),
                    format!("{}", r.shed + r.rejected),
                    format!("{:.1}%", r.deadline_miss_rate * 100.0),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &[
                    "Platform",
                    "Load",
                    "Offered/s",
                    "Base tput",
                    "Base p99",
                    "Goodput",
                    "p99 (ms)",
                    "Shed+Rej",
                    "Miss",
                ],
                &table
            )
        );
        let l = &exp.ladder;
        println!(
            "  ladder (A100, {:.0} req/s offered): {} served / {} submitted, {} downgrades, {} upgrades",
            l.offered_rps, l.served, l.submitted, l.downgrades, l.upgrades
        );
        let tiers = ["ViT-Base", "ViT-Small", "ViT-Tiny"];
        let total: f64 = l.time_in_tier_s.iter().sum();
        for (name, &t) in tiers.iter().zip(&l.time_in_tier_s) {
            println!(
                "    {name:<9} {:.3} s ({:.0}%)",
                t,
                100.0 * t / total.max(1e-9)
            );
        }
        let b = &exp.breaker;
        println!(
            "  breaker (3xV100, node 1 crashes 50-400 ms): {} images, {} trips, {} closes, {} reroutes, {} failovers, per-node {:?}",
            b.images, b.trips, b.closes, b.reroutes, b.failovers, b.per_node_completed
        );
    }
    println!("  self-check: conservation at every point, bit-identical rerun — all OK");
    save("overload", serde_json::to_string_pretty(&exp).unwrap());
}

fn integrity(save: &dyn Fn(&str, String), smoke: bool) {
    println!("== Extension: silent-data-corruption detection & recovery ==");
    // The runner self-asserts per-cell conservation, full-ladder
    // containment (escaped == 0 everywhere), and unguarded escape (> 0 per
    // platform). Here we additionally require a bit-identical rerun — the
    // property the CI artifact-drift gate leans on.
    let exp = exp::integrity();
    let rerun = exp::integrity();
    assert_eq!(
        serde_json::to_string(&exp).unwrap(),
        serde_json::to_string(&rerun).unwrap(),
        "integrity sweep must be bit-reproducible"
    );
    if !smoke {
        let table: Vec<Vec<String>> = exp
            .cells
            .iter()
            .map(|c| {
                vec![
                    c.platform.clone(),
                    c.family.clone(),
                    format!("{:.0e}", c.rate),
                    c.detectors.clone(),
                    format!("{}/{}", c.completed, c.submitted),
                    (c.injected_weight_flips + c.injected_activation_flips).to_string(),
                    c.detected.to_string(),
                    c.recovered.to_string(),
                    c.quarantined.to_string(),
                    c.masked.to_string(),
                    c.escaped.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &[
                    "Platform",
                    "Fault",
                    "Rate",
                    "Detectors",
                    "Done/Sub",
                    "Flips",
                    "Detected",
                    "Recovered",
                    "Quarant.",
                    "Masked",
                    "Escaped",
                ],
                &table
            )
        );
        println!("== Detector overhead (fault-free, micro ViT, this machine) ==");
        let rows = exp::detector_overhead(&[1, 16, 64]);
        let otab: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![
                    r.batch.to_string(),
                    format!("{:.3}", r.plain_ms),
                    format!("{:+.1}%", r.sentinels_pct),
                    format!("{:+.1}%", r.checksums_pct),
                    format!("{:+.1}%", r.full_pct),
                ]
            })
            .collect();
        println!(
            "{}",
            text_table(
                &["Batch", "Plain ms/img", "Sentinels", "Checksums", "Full"],
                &otab
            )
        );
    }
    println!(
        "  self-check: conservation in every cell, escaped == 0 under the full ladder, \
         escaped > 0 unguarded, bit-identical rerun — all OK"
    );
    save("integrity", serde_json::to_string_pretty(&exp).unwrap());
}

fn resilience(save: &dyn Fn(&str, String)) {
    println!("== Extension: fault injection & degraded-mode serving ==");
    let rows = exp::resilience();
    // Self-check the resilience guarantees every time the sweep runs: the
    // chaos run must conserve work, actually exercise the retry/failover
    // paths, keep the tail bounded, and reproduce bit-identically.
    let rerun = exp::resilience();
    assert_eq!(
        serde_json::to_string(&rows).unwrap(),
        serde_json::to_string(&rerun).unwrap(),
        "fault-injected sweep must be bit-reproducible"
    );
    for row in &rows {
        assert_eq!(row.lost, 0, "{}: lost requests", row.scenario);
        assert_eq!(row.duplicated, 0, "{}: duplicated requests", row.scenario);
        if let Some(p99) = row.p99_ms {
            assert!(p99.is_finite(), "{}: unbounded p99", row.scenario);
        }
    }
    assert!(
        rows.iter().any(|r| r.retries > 0),
        "no fault path exercised"
    );
    assert!(
        rows.iter().any(|r| r.failovers > 0),
        "no failover exercised"
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                r.injected.clone(),
                r.completed.to_string(),
                pretty(r.throughput, 1),
                r.p99_ms
                    .map(|p| format!("{p:.1}"))
                    .unwrap_or_else(|| "-".into()),
                r.retries.to_string(),
                r.timeouts.to_string(),
                r.failovers.to_string(),
                format!("{}/{}", r.lost, r.duplicated),
                format!("{:.1}%", r.availability * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "Scenario",
                "Injected fault",
                "Done",
                "Tput (req/s)",
                "p99 (ms)",
                "Retries",
                "Timeouts",
                "Failovers",
                "Lost/Dup",
                "Avail",
            ],
            &table
        )
    );
    println!("  self-check: conservation, bounded p99, bit-identical rerun — all OK");
    save("resilience", serde_json::to_string_pretty(&rows).unwrap());
}

fn cluster(save: &dyn Fn(&str, String)) {
    use harvest_data::DatasetId;
    use harvest_hw::PlatformId;
    use harvest_models::ModelId;
    use harvest_perf::MemoryContext;
    use harvest_preproc::PreprocMethod;
    use harvest_serving::cluster::scaling_sweep;
    use harvest_serving::PipelineConfig;
    use harvest_simkit::SimTime;
    println!("== Extension: cluster scale-out (offline, V100 nodes, ResNet50) ==");
    let pipeline = PipelineConfig {
        platform: PlatformId::PitzerV100,
        model: ModelId::ResNet50,
        dataset: DatasetId::CornGrowthStage,
        preproc: PreprocMethod::Dali224,
        ctx: MemoryContext::EngineOnly,
        max_batch: 32,
        max_queue_delay: SimTime::from_millis(20),
        preproc_instances: 2,
        engine_instances: 1,
    };
    let sweep = scaling_sweep(&pipeline, &[1, 2, 4, 8, 16, 32], 512).expect("fits");
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|&(nodes, tput, eff)| {
            vec![
                nodes.to_string(),
                pretty(tput, 1),
                format!("{:.1}%", eff * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &["Nodes", "Throughput (img/s)", "Scaling efficiency"],
            &rows
        )
    );
    let json: Vec<serde_json::Value> = sweep
        .iter()
        .map(|&(nodes, tput, eff)| {
            serde_json::json!({ "nodes": nodes, "throughput": tput, "efficiency": eff })
        })
        .collect();
    save("cluster", serde_json::to_string_pretty(&json).unwrap());
}

fn energy(save: &dyn Fn(&str, String)) {
    use harvest_hw::PlatformId;
    use harvest_models::ALL_MODELS;
    use harvest_perf::{batch_axis, EnergyModel};
    println!("== Extension: energy per image across the continuum ==");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for platform in [
        PlatformId::MriA100,
        PlatformId::PitzerV100,
        PlatformId::JetsonOrinNano,
    ] {
        for model in ALL_MODELS {
            let e = EnergyModel::new(platform, model);
            let bs1 = e.point(1);
            let best = e.best_batch(batch_axis(platform));
            rows.push(vec![
                platform.name().to_string(),
                model.name().to_string(),
                format!("{:.1}", bs1.mj_per_image),
                format!("{:.1} @BS{}", best.mj_per_image, best.batch),
                format!("{:.1}", best.images_per_joule),
            ]);
            json.push(serde_json::json!({
                "platform": platform.name(),
                "model": model.name(),
                "mj_per_image_bs1": bs1.mj_per_image,
                "mj_per_image_best": best.mj_per_image,
                "best_batch": best.batch,
                "images_per_joule_best": best.images_per_joule,
            }));
        }
    }
    println!(
        "{}",
        text_table(
            &[
                "Platform",
                "Model",
                "mJ/img @BS1",
                "mJ/img best",
                "img/J best"
            ],
            &rows
        )
    );
    save("energy", serde_json::to_string_pretty(&json).unwrap());
}

fn continuum(save: &dyn Fn(&str, String)) {
    use harvest_core::continuum::{analyze, crossover_bandwidth_mbps, Placement};
    use harvest_data::DatasetId;
    use harvest_hw::{NetworkLink, PlatformId};
    use harvest_models::ModelId;
    println!("== Extension: edge-vs-cloud placement across uplinks ==");
    let mut rows = Vec::new();
    let mut json = Vec::new();
    for dataset in [
        DatasetId::Fruits360,
        DatasetId::CornGrowthStage,
        DatasetId::Crsa,
    ] {
        for link in NetworkLink::ALL {
            let a = analyze(ModelId::ResNet50, dataset, link, PlatformId::MriA100);
            let winner = match a.throughput_winner {
                Placement::Edge => "edge".to_string(),
                Placement::Cloud(p) => format!("cloud({})", p.name()),
            };
            rows.push(vec![
                format!("{dataset:?}"),
                link.name.to_string(),
                format!("{:.1}", a.uplink_rate),
                format!("{:.1}", a.cloud_throughput),
                format!("{:.1}", a.edge_throughput),
                winner.clone(),
            ]);
            json.push(serde_json::json!({
                "dataset": format!("{dataset:?}"),
                "link": link.name,
                "uplink_img_s": a.uplink_rate,
                "cloud_img_s": a.cloud_throughput,
                "edge_img_s": a.edge_throughput,
                "winner": winner,
            }));
        }
        let x = crossover_bandwidth_mbps(ModelId::ResNet50, dataset, PlatformId::MriA100);
        println!(
            "  {dataset:?}: cloud overtakes edge above {:.1} Mb/s uplink",
            x
        );
    }
    println!(
        "{}",
        text_table(
            &[
                "Dataset",
                "Uplink",
                "Link img/s",
                "Cloud img/s",
                "Edge img/s",
                "Winner"
            ],
            &rows
        )
    );
    save("continuum", serde_json::to_string_pretty(&json).unwrap());
}

fn scaling(save: &dyn Fn(&str, String)) {
    use harvest_core::experiments::scaling::scaling;
    println!("== Extension: attention scaling — ViT vs RWKV-style linear attention ==");
    let points = scaling();
    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{0}x{0}", p.resolution),
                p.seq_len.to_string(),
                format!("{:.2}", p.vit_gmacs),
                format!("{:.2}", p.rwkv_gmacs),
                format!("{:.1}x", p.vit_gmacs / p.rwkv_gmacs),
                format!("{:.1}%", p.vit_attention_share * 100.0),
            ]
        })
        .collect();
    println!(
        "{}",
        text_table(
            &[
                "Input",
                "Seq",
                "ViT GMACs",
                "RWKV GMACs",
                "ViT/RWKV",
                "ViT attn share"
            ],
            &rows
        )
    );
    save("scaling", serde_json::to_string_pretty(&points).unwrap());
}

fn ablations(save: &dyn Fn(&str, String)) {
    use harvest_core::experiments::ablations::{
        fusion_ablation, multi_instance_ablation, precision_ablation,
    };
    use harvest_hw::PlatformId;
    use harvest_models::ModelId;
    println!("== Ablation: multi-instance vs big batch (A100, ViT-Small, 2000 req/s) ==");
    let rows = multi_instance_ablation(PlatformId::MriA100, ModelId::VitSmall, 64, 2_000.0);
    println!(
        "{}",
        text_table(
            &["Instances", "Batch/inst", "Throughput", "p50 ms", "p99 ms"],
            &rows
                .iter()
                .map(|r| vec![
                    r.instances.to_string(),
                    r.batch_per_instance.to_string(),
                    pretty(r.throughput, 1),
                    format!("{:.2}", r.p50_ms),
                    format!("{:.2}", r.p99_ms),
                ])
                .collect::<Vec<_>>()
        )
    );
    save(
        "ablation_instances",
        serde_json::to_string_pretty(&rows).unwrap(),
    );

    println!("== Ablation: serving precision (A100, ResNet50) ==");
    let rows = precision_ablation(PlatformId::MriA100, ModelId::ResNet50);
    println!(
        "{}",
        text_table(
            &["Precision", "Speedup", "BS64 latency ms", "Weights MiB"],
            &rows
                .iter()
                .map(|r| vec![
                    r.precision.clone(),
                    format!("{:.1}x", r.speedup_vs_fp16),
                    format!("{:.2}", r.latency64_ms),
                    format!("{:.1}", r.weights_mib),
                ])
                .collect::<Vec<_>>()
        )
    );
    save(
        "ablation_precision",
        serde_json::to_string_pretty(&rows).unwrap(),
    );

    println!("== Ablation: INT8 quantization error (real kernels) ==");
    let rows = harvest_core::experiments::ablations::quantization_error_probe(2026);
    println!(
        "{}",
        text_table(
            &["Layer GEMM", "Relative error"],
            &rows
                .iter()
                .map(|r| vec![r.layer.clone(), format!("{:.4}%", r.relative_error * 100.0)])
                .collect::<Vec<_>>()
        )
    );
    save(
        "ablation_quantization",
        serde_json::to_string_pretty(&rows).unwrap(),
    );

    println!("== Ablation: kernel fusion (Jetson launch overhead) ==");
    let rows = fusion_ablation(PlatformId::JetsonOrinNano);
    println!(
        "{}",
        text_table(
            &[
                "Model",
                "Launches fused",
                "Launches naive",
                "BS1 fused ms",
                "BS1 naive ms"
            ],
            &rows
                .iter()
                .map(|r| vec![
                    r.model.clone(),
                    r.launches_fused.to_string(),
                    r.launches_unfused.to_string(),
                    format!("{:.2}", r.latency1_fused_ms),
                    format!("{:.2}", r.latency1_unfused_ms),
                ])
                .collect::<Vec<_>>()
        )
    );
    save(
        "ablation_fusion",
        serde_json::to_string_pretty(&rows).unwrap(),
    );
}

fn table1(save: &dyn Fn(&str, String)) {
    println!("== Table 1: Evaluated Cloud and Edge Platforms ==");
    let rows = exp::table1();
    let table = text_table(
        &[
            "Platform",
            "CPU",
            "Memory",
            "Scenario",
            "Theory TFLOPS",
            "Practical TFLOPS",
            "Efficiency",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.platform.clone(),
                    format!("{} cores", r.cpu_cores),
                    format!("{:.0}GB", r.memory_gb),
                    r.scenarios.join(", "),
                    format!("{:.0} @{}", r.theory_tflops, r.precision),
                    format!("{:.1}", r.practical_tflops),
                    format!("{:.2}%", r.efficiency_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    save("table1", serde_json::to_string_pretty(&rows).unwrap());
}

fn table2(save: &dyn Fn(&str, String)) {
    println!("== Table 2: Agriculture Datasets Used in The Evaluation ==");
    let rows = exp::table2();
    let table = text_table(
        &[
            "Dataset",
            "Classes",
            "Samples",
            "Image Size",
            "Format",
            "Use Case",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    r.classes
                        .map(|c| c.to_string())
                        .unwrap_or_else(|| "-".into()),
                    pretty(r.samples as f64, 0),
                    r.image_size.clone(),
                    r.format.clone(),
                    r.use_case.clone(),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    save("table2", serde_json::to_string_pretty(&rows).unwrap());
}

fn table3(save: &dyn Fn(&str, String)) {
    println!("== Table 3: Models Evaluated and Computational Intensity ==");
    let rows = exp::table3();
    let table = text_table(
        &[
            "Model",
            "Params",
            "Arch",
            "GFLOPs/Img",
            "Input",
            "UB A100",
            "UB V100",
            "UB Jetson",
            "MLP%",
            "Attn%",
            "Conv%",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    format!("{:.2}M", r.params_m),
                    r.architecture.clone(),
                    format!("{:.2}", r.gflops_per_image),
                    format!("{0}x{0}", r.input_size),
                    pretty(r.upper_bound_a100, 0),
                    pretty(r.upper_bound_v100, 0),
                    pretty(r.upper_bound_jetson, 0),
                    format!("{:.2}", r.mlp_share_pct),
                    format!("{:.2}", r.attention_share_pct),
                    format!("{:.2}", r.conv_share_pct),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    save("table3", serde_json::to_string_pretty(&rows).unwrap());
}

fn fig4(save: &dyn Fn(&str, String)) {
    println!("== Fig 4: Image Size Distribution Across Datasets ==");
    let rows = exp::fig4(50_000, 7);
    let table = text_table(
        &["Dataset", "Mode", "Mode density", "Mean WxH", "Spread"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.dataset.clone(),
                    format!("{}x{}", r.mode.0, r.mode.1),
                    format!("{:.3}", r.mode_density),
                    format!("{:.0}x{:.0}", r.mean_width, r.mean_height),
                    if r.uniform {
                        "uniform".into()
                    } else {
                        "varied".into()
                    },
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!("{table}");
    save("fig4", serde_json::to_string_pretty(&rows).unwrap());
}

fn fig5(save: &dyn Fn(&str, String)) {
    println!("== Fig 5: Compute Intensity (TFLOPS) vs Batch Size ==");
    let panels = exp::fig5();
    for panel in &panels {
        println!(
            "-- {} (theory {:.0} TFLOPS, practical {:.1} TFLOPS) --",
            panel.platform, panel.theoretical_tflops, panel.practical_tflops
        );
        for s in &panel.series {
            let points: Vec<(String, f64)> = s
                .points
                .iter()
                .map(|p| (format!("BS{}", p.batch), p.achieved_tflops))
                .collect();
            println!(
                "{}",
                ascii_series(
                    &format!(
                        "{}: {} img/s @ BS{}",
                        s.model,
                        pretty(s.peak_throughput, 1),
                        s.peak_batch
                    ),
                    &points,
                    "TFLOPS",
                )
            );
        }
    }
    save("fig5", serde_json::to_string_pretty(&panels).unwrap());
}

fn fig6(save: &dyn Fn(&str, String)) {
    println!("== Fig 6: Request Latency vs Batch Size (60 QPS threshold = 16.7 ms) ==");
    let panels = exp::fig6();
    for panel in &panels {
        println!("-- {} --", panel.platform);
        for s in &panel.series {
            let points: Vec<(String, f64)> = s
                .points
                .iter()
                .map(|p| (format!("BS{}", p.batch), p.latency_ms))
                .collect();
            let label = match s.max_batch_60qps {
                Some(b) => format!("{} (60QPS up to BS{})", s.model, b),
                None => format!("{} (cannot sustain 60QPS)", s.model),
            };
            println!("{}", ascii_series(&label, &points, "ms"));
        }
    }
    save("fig6", serde_json::to_string_pretty(&panels).unwrap());
}

fn fig7(save: &dyn Fn(&str, String)) {
    println!("== Fig 7: Preprocessing Throughput and Latency ==");
    let panels = exp::fig7();
    for panel in &panels {
        println!("-- {} --", panel.platform);
        let methods: Vec<String> = {
            let mut seen = Vec::new();
            for c in &panel.cells {
                if !seen.contains(&c.method) {
                    seen.push(c.method.clone());
                }
            }
            seen
        };
        for metric in ["latency_ms", "throughput"] {
            let mut rows = Vec::new();
            let datasets: Vec<String> = {
                let mut seen = Vec::new();
                for c in &panel.cells {
                    if !seen.contains(&c.dataset) {
                        seen.push(c.dataset.clone());
                    }
                }
                seen
            };
            for ds in &datasets {
                let mut row = vec![ds.clone()];
                for m in &methods {
                    let cell = panel
                        .cells
                        .iter()
                        .find(|c| &c.dataset == ds && &c.method == m)
                        .unwrap();
                    let v = if metric == "latency_ms" {
                        cell.latency_ms
                    } else {
                        cell.throughput
                    };
                    row.push(pretty(v, 1));
                }
                rows.push(row);
            }
            let mut headers = vec![if metric == "latency_ms" {
                "Latency (ms)"
            } else {
                "Throughput (img/s)"
            }
            .to_string()];
            headers.extend(methods.iter().cloned());
            let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
            println!("{}", text_table(&hdr_refs, &rows));
        }
    }
    save("fig7", serde_json::to_string_pretty(&panels).unwrap());
}

fn fig8(save: &dyn Fn(&str, String)) {
    println!("== Fig 8: End-To-End Pipeline Latency and Throughput ==");
    let panels = exp::fig8();
    for panel in &panels {
        println!("-- {} --", panel.platform);
        let mut rows = Vec::new();
        for c in &panel.cells {
            rows.push(vec![
                format!("{}@BS{}", c.model, c.batch),
                c.dataset.clone(),
                format!("{:.1}", c.latency_ms),
                pretty(c.throughput, 1),
            ]);
        }
        println!(
            "{}",
            text_table(
                &["Model", "Dataset", "Latency (ms)", "Throughput (img/s)"],
                &rows
            )
        );
    }
    save("fig8", serde_json::to_string_pretty(&panels).unwrap());
}

fn host() {
    println!("== Host measurements (real kernels on this machine) ==");
    println!(
        "  GEMM lane tier: {}, host threads: {}",
        harvest_tensor::lane_tier(),
        harvest_threads::hardware_threads()
    );
    // This host's own Table 1 row: achieved GEMM over a peak measured on the
    // same core, both as the best of several runs (the paper's devices
    // reach 75.7-82.7 % of theoretical).
    let peak = harvest_tensor::peak::fma_peak_gflops();
    println!("  FMA peak, one core, register-resident: {peak:.1} GFLOPS");
    for n in [256usize, 512, 1024] {
        let gf = harvest_hw::host_gemm_gflops(n, 3);
        let one = harvest_threads::with_threads(1, || {
            (0..5)
                .map(|_| harvest_hw::host_gemm_gflops(n, 1))
                .fold(0.0, f64::max)
        });
        println!(
            "  real GEMM {n}x{n}x{n}: {gf:.1} GFLOPS; one core {one:.1} = {:.2} of peak (paper: 0.757-0.827)",
            one / peak
        );
    }
    use harvest_data::{DatasetId, Sampler};
    use harvest_preproc::run_real;
    for id in [
        DatasetId::Fruits360,
        DatasetId::PlantVillage,
        DatasetId::CornGrowthStage,
    ] {
        let sampler = Sampler::new(id, 42);
        let sample = sampler.encode(0);
        let out = run_real(sampler.spec(), &sample, 224).expect("real preproc");
        println!(
            "  real preproc {:?}: decode {:.2} ms, transform {:.2} ms",
            id,
            out.decode_s * 1e3,
            out.transform_s * 1e3
        );
    }
    // The TIFF-vs-JPEG claim in one number: the same 224² image decoded from
    // both formats, best of 9 each. Recorded, never asserted.
    use harvest_imaging::{ajpg_decode, ajpg_encode, rtif_decode, rtif_encode};
    use harvest_imaging::{AjpgOptions, FieldScene, SynthImageSpec};
    let img = FieldScene::RowCrop.render(&SynthImageSpec {
        width: 224,
        height: 224,
        seed: 3,
    });
    let best_of_9 = |decode: &dyn Fn() -> usize| {
        (0..9)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(decode());
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    };
    let jpg = ajpg_encode(&img, &AjpgOptions::default());
    let raw = rtif_encode(&img);
    let ajpg_s = best_of_9(&|| ajpg_decode(&jpg).unwrap().pixels());
    let rtif_s = best_of_9(&|| rtif_decode(&raw).unwrap().pixels());
    println!(
        "  decode 224x224 RowCrop: AJPG {:.1} us, RTIF {:.1} us = {:.0}x",
        ajpg_s * 1e6,
        rtif_s * 1e6,
        ajpg_s / rtif_s
    );
    // The wire's ingest, decode + transform of one body: the full decode
    // against the rows-only one the server runs, best of 9 each, the two
    // interleaved rep by rep so a swing in the host's speed hits both.
    // 128 -> 96 taps every row, so there the two should tie. Recorded,
    // never asserted.
    use harvest_imaging::decode_auto;
    use harvest_preproc::{decode_for, preprocess_decoded};
    for (side, out_res) in [(512, 16), (128, 96), (512, 224)] {
        let body = ajpg_encode(
            &FieldScene::RowCrop.render(&SynthImageSpec {
                width: side,
                height: side,
                seed: 3,
            }),
            &AjpgOptions::default(),
        );
        let time = |decode: &dyn Fn() -> harvest_imaging::RgbImage| {
            let t = std::time::Instant::now();
            std::hint::black_box(preprocess_decoded(&decode(), out_res));
            t.elapsed().as_secs_f64()
        };
        let (mut full, mut rows) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..9 {
            full = full.min(time(&|| decode_auto(&body).unwrap()));
            rows = rows.min(time(&|| decode_for(&body, out_res).unwrap()));
        }
        println!(
            "  ingest {side}->{out_res} RowCrop: full {:.3} ms, rows {:.3} ms = {:.2}x",
            full * 1e3,
            rows * 1e3,
            full / rows
        );
    }
}
