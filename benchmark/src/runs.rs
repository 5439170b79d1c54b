//! One run of one workload: the untraced run that gives the end-to-end
//! metrics, and the traced run that gives the per-layer ones.

use crate::host::{cpu_seconds, peak_rss_mib};
use crate::layers::{engine_probe, kernel_probe, replay_wire, EngineProbe, KernelProbe};
use crate::model::ModelTimings;
use crate::offline::{BatchRun, OfflineRig};
use crate::report::{Outcome, Sheet, END_TO_END, PER_LAYER};
use crate::spec::{
    offline_threads, wire_width, KernelShape, OfflineSpec, WireSpec, ROUNDS, RT_DEADLINE_MS,
};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::wire::{WireRig, WireRounds};
use harvest_models::vit;
use harvest_preproc::preprocess_decoded;
use harvest_tensor::Tensor;
use harvest_threads::hardware_threads;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Requests of the traced phase replayed in process.
const REPLAY_REQUESTS: usize = 128;

#[derive(Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    /// One round, one set-up: checks the schema and the outputs, measures
    /// nothing worth gating.
    pub smoke: bool,
}

impl RunArgs {
    fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            ROUNDS
        }
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setups(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }

    fn round_len(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / self.rounds() as f64)
    }
}

/// Where a workload's spans are written when its traced run ends.
pub fn trace_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace_{workload}.jsonl"))
}

/// Set a wire rig up and call `f` with it, then set up `n - 1` more and
/// shut them down; returns `f`'s result, the median set-up time, and the
/// invariants the extra rigs' ledgers broke. The measured rig comes first
/// so that the peak resident set `f` reads is that of one set-up and one
/// run, whatever the repeats leave behind.
fn with_wire_rig<R>(
    spec: WireSpec,
    seed: u64,
    n: usize,
    f: impl FnOnce(WireRig<'_>) -> R,
) -> Result<(R, f64, Vec<String>), String> {
    let mut f = Some(f);
    let mut setup_s = Vec::with_capacity(n);
    let (mut out, mut notes) = (None, Vec::new());
    for _ in 0..n {
        let t = Instant::now();
        let graph = vit("wire-served", &spec.model);
        let rig = WireRig::setup(&graph, spec, seed).map_err(|e| e.to_string())?;
        setup_s.push(t.elapsed().as_secs_f64());
        match f.take() {
            Some(f) => out = Some(f(rig)),
            None => notes.extend(rig.shutdown().0.violations()),
        }
    }
    Ok((out.expect("n is at least 1"), median(&setup_s), notes))
}

/// Close a run: `op_failed` operations gave a wrong answer (explained by
/// `what`), and every note already taken is a broken invariant that counts
/// as one more.
fn outcome(
    attempted: u64,
    op_failed: u64,
    what: &str,
    mut notes: Vec<String>,
    sheet: Sheet,
) -> Outcome {
    let failed = op_failed + notes.len() as u64;
    if op_failed > 0 {
        notes.push(format!("{op_failed} {what}"));
    }
    Outcome {
        attempted,
        failed,
        notes,
        sheet,
    }
}

/// The rows both kinds of traced run fill from the engine and kernel
/// probes. `gflops` is the model's achieved rate, set against the kernel
/// that carries the model: the GEMM for a ViT, the convolution otherwise.
fn set_probe_rows(
    sheet: &mut Sheet,
    timings: &ModelTimings,
    engine: &EngineProbe,
    kernels: &KernelProbe,
    shape: KernelShape,
    gflops: f64,
) {
    sheet.set("engine.forward_b1_ms", engine.forward_b1_ms, 5);
    sheet.set("engine.materialize_ms", timings.materialize_ms, 1);
    sheet.set("engine.artifact_encode_ms", timings.artifact_encode_ms, 1);
    sheet.set("engine.artifact_decode_ms", timings.artifact_decode_ms, 1);
    sheet.set("engine.scratch_hit_share", engine.scratch_hit_share, 1);
    sheet.set("engine.peak_live_mb", engine.peak_live_mb, 1);
    sheet.set("tensor.gemm_gflops", kernels.gemm_gflops, 5);
    sheet.set("tensor.attention_gflops", kernels.attention_gflops, 5);
    sheet.set("tensor.conv_gflops", kernels.conv_gflops, 5);
    sheet.set("tensor.norm_act_ms", kernels.norm_act_ms, 5);
    let kernel = match shape {
        KernelShape::Vit { .. } => kernels.gemm_gflops,
        KernelShape::Conv => kernels.conv_gflops,
    };
    sheet.set("tensor.model_over_kernel", gflops / kernel, 1);
    sheet.set("threads.forward_speedup", engine.forward_speedup, 3);
}

const WRONG_ANSWER: &str = "requests not answered 200 with the reference class";
const BAD_BATCH: &str = "batches incomplete, non-finite, or not bit-identical to their first run";

fn deadline_ms(spec: &WireSpec) -> Option<f64> {
    spec.open_rate_hz.map(|_| RT_DEADLINE_MS)
}

pub fn wire_untraced(spec: WireSpec, args: RunArgs) -> Result<Outcome, String> {
    let ((rounds, peak_rss, ledger), setup_s, mut notes) =
        with_wire_rig(spec, args.seed, args.setups(), |mut rig| {
            let (_, samples) = rig.phase(args.rounds(), args.round_len(), args.seed);
            let peak_rss = peak_rss_mib();
            let reference = rig.reference_classes();
            let rounds = WireRounds::new(&samples, args.rounds(), &reference, deadline_ms(&spec));
            (rounds, peak_rss, rig.shutdown().0)
        })?;
    notes.extend(ledger.violations());
    let mut sheet = Sheet::new(&END_TO_END);
    sheet.set("setup_s", setup_s, args.setups());
    sheet.set_best_round("images_per_s", &rounds.images_per_s, true);
    sheet.set_best_round("lat_p50_ms", &rounds.p50_ms, false);
    sheet.set("peak_rss_mb", peak_rss, 1);
    Ok(outcome(
        rounds.attempted,
        rounds.failed,
        WRONG_ANSWER,
        notes,
        sheet,
    ))
}

pub fn wire_traced(name: &str, spec: WireSpec, args: RunArgs) -> Result<Outcome, String> {
    let run_epoch = Instant::now();
    let quarter = (args.rounds() / 4).max(1);
    let c = wire_width();
    let mut notes = Vec::new();
    let ((attempted, failed, sheet), _, _) = with_wire_rig(spec, args.seed, 1, |mut rig| {
        // A quarter of the rounds plain, then a quarter with a span per
        // request; the gap between the two is what tracing costs.
        let before = rig.engine_counters();
        let (cpu0, t0) = (cpu_seconds(), Instant::now());
        let (plain_epoch, plain) = rig.phase(quarter, args.round_len(), args.seed);
        let (traced_epoch, traced) = rig.phase(quarter, args.round_len(), args.seed ^ 1);
        let (cpu_s, wall_s) = (cpu_seconds() - cpu0, t0.elapsed().as_secs_f64());
        let after = rig.engine_counters();
        let reference = rig.reference_classes();
        let plain_rounds = WireRounds::new(&plain, quarter, &reference, deadline_ms(&spec));
        let traced_rounds = WireRounds::new(&traced, quarter, &reference, deadline_ms(&spec));
        // Both phases on the plain phase's clock and round numbering.
        let gap_ns = traced_epoch
            .saturating_duration_since(plain_epoch)
            .as_nanos() as u64;
        let both: Vec<_> = plain
            .iter()
            .copied()
            .chain(traced.iter().map(|s| s.later(gap_ns, quarter as u32)))
            .collect();
        let all = WireRounds::new(&both, 2 * quarter, &reference, deadline_ms(&spec));
        let limits = rig.limits;
        let (ledger, corpus, exec, timings) = rig.shutdown();

        let mut tracer = Tracer::new(run_epoch, true);
        let offset = traced_epoch.saturating_duration_since(run_epoch).as_nanos() as u64;
        for (i, s) in traced.iter().enumerate() {
            tracer.record(
                "wire.request",
                i as u64,
                offset + s.due_ns,
                offset + s.end_ns,
            );
        }
        let replayed = &traced[..traced.len().min(REPLAY_REQUESTS)];
        let replay = replay_wire(&mut tracer, &spec, &corpus, &exec, &limits, replayed);
        let batch: Vec<Tensor> = corpus.bodies[..c]
            .iter()
            .map(|b| {
                let img =
                    harvest_imaging::decode_auto(b).expect("the corpus is made of valid AJPG");
                preprocess_decoded(&img, spec.out_res)
            })
            .collect();
        // The server pins each pool worker to one kernel thread.
        let engine = engine_probe(args.smoke, &exec, &batch, 1);
        let shape = KernelShape::of_vit(&spec.model);
        let kernels = harvest_threads::with_threads(1, || {
            kernel_probe(args.smoke, shape, c, exec.kernel_variant())
        });
        let stats = exec.graph().stats();

        let mut sheet = Sheet::new(&PER_LAYER);
        let wire_p50 = median(&traced_rounds.p50_ms);
        sheet.set("net.parse_us", replay.parse_us, replay.requests);
        sheet.set("net.write_us", replay.write_us, replay.requests);
        sheet.set(
            "net.residual_ms",
            wire_p50 - replay.stages_ms(),
            traced.len(),
        );
        sheet.set("net.body_kb", corpus.mean_body_kb(), corpus.bodies.len());
        sheet.set("net.accepted", ledger.stats.accepted as f64, 1);
        sheet.set("net.responded_ok", ledger.stats.responded_ok as f64, 1);
        sheet.set(
            "net.rejected_or_shed",
            (ledger.stats.rejected + ledger.stats.shed) as f64,
            1,
        );
        sheet.set("imaging.decode_ms", replay.decode_ms, replay.requests);
        sheet.set(
            "imaging.decode_mpix_s",
            corpus.pixels as f64 / 1e6 / (replay.decode_ms * 1e-3),
            replay.requests,
        );
        sheet.set(
            "imaging.encode_ms",
            median(&corpus.encode_ms),
            corpus.encode_ms.len(),
        );
        sheet.set("preproc.transform_ms", replay.transform_ms, replay.requests);
        if let (Some((b0, r0)), Some((b1, r1))) = (before, after) {
            let batches = b1 - b0;
            sheet.set(
                "serving.batch_mean",
                (r1 - r0) as f64 / batches.max(1) as f64,
                batches as usize,
            );
            sheet.set("serving.batches", batches as f64, 1);
        } else {
            notes.push("GET /metrics did not answer with the engine counters".to_string());
        }
        sheet.set(
            "serving.queue_wait_ms",
            replay.queue_wait_ms,
            replay.requests,
        );
        sheet.set("serving.offer_us", replay.offer_us, replay.requests);
        sheet.set("engine.forward_ms", replay.forward_ms, replay.requests);
        let gflops = 2.0 * stats.macs_with_attention * replay.forward_images_per_s / 1e9;
        sheet.set("engine.gflops", gflops, replay.requests);
        set_probe_rows(&mut sheet, &timings, &engine, &kernels, shape, gflops);
        sheet.set("models.gmacs_per_image", stats.macs_with_attention / 1e9, 1);
        sheet.set(
            "data.render_encode_ms",
            median(&corpus.render_encode_ms),
            corpus.render_encode_ms.len(),
        );
        sheet.set(
            "proc.cpu_ms_per_image",
            cpu_s * 1e3 / all.attempted as f64,
            all.attempted as usize,
        );
        sheet.set(
            "proc.cpu_util",
            cpu_s / (wall_s * hardware_threads() as f64),
            1,
        );
        sheet.set(
            "lat_p90_ms",
            quantile(&all.latencies_ms, 0.9),
            all.latencies_ms.len(),
        );
        sheet.set(
            "lat_p99_ms",
            quantile(&all.latencies_ms, 0.99),
            all.latencies_ms.len(),
        );
        sheet.set("slo_ok_share", median(&all.ok_share), all.ok_share.len());
        sheet.set("gen.late_max_ms", all.late_max_ms, all.attempted as usize);
        sheet.set(
            "trace.overhead_share",
            wire_p50 / median(&plain_rounds.p50_ms) - 1.0,
            quarter,
        );
        notes.extend(ledger.violations());
        if let Err(e) = tracer.write_jsonl(&trace_path(name)) {
            notes.push(format!("could not write the trace: {e}"));
        }
        (all.attempted, all.failed, sheet)
    })?;
    Ok(outcome(attempted, failed, WRONG_ANSWER, notes, sheet))
}

/// Offline twin of [`with_wire_rig`]. Everything runs under the offline
/// workloads' kernel-thread budget.
fn with_offline_rig<R>(
    spec: OfflineSpec,
    seed: u64,
    n: usize,
    f: impl FnOnce(OfflineRig<'_>) -> R,
) -> Result<(R, f64), String> {
    harvest_threads::with_threads(offline_threads(), || {
        let mut setup_s = Vec::with_capacity(n);
        let (mut f, mut out) = (Some(f), None);
        for _ in 0..n {
            let t = Instant::now();
            let graph = (spec.model)(16);
            let rig = OfflineRig::setup(&graph, spec, seed)?;
            setup_s.push(t.elapsed().as_secs_f64());
            if let Some(f) = f.take() {
                out = Some(f(rig));
            }
        }
        Ok((out.expect("n is at least 1"), median(&setup_s)))
    })
}

/// Batches 1, 2, … until `seconds` have passed and `min` batches ran.
fn run_batches(
    rig: &mut OfflineRig<'_>,
    tracer: &mut Tracer,
    first: usize,
    seconds: f64,
    min: usize,
) -> Vec<BatchRun> {
    let started = Instant::now();
    let mut runs = Vec::new();
    while runs.len() < min || started.elapsed().as_secs_f64() < seconds {
        runs.push(rig.run_batch(first + runs.len(), tracer));
    }
    runs
}

fn count_failed(runs: &[BatchRun]) -> u64 {
    runs.iter().filter(|r| !r.ok).count() as u64
}

pub fn offline_untraced(spec: OfflineSpec, args: RunArgs) -> Result<Outcome, String> {
    let ((runs, peak_rss), setup_s) =
        with_offline_rig(spec, args.seed, args.setups(), |mut rig| {
            let mut off = Tracer::new(Instant::now(), false);
            // Batch 0 was the warm-up; a batch is a round.
            let mut runs = run_batches(&mut rig, &mut off, 1, args.seconds, args.rounds());
            let peak_rss = peak_rss_mib();
            // Every run reuses at least one batch: the warm-up's, once more.
            runs.push(rig.run_batch(0, &mut off));
            (runs, peak_rss)
        })?;
    let timed = &runs[..runs.len() - 1];
    let wall_ms: Vec<f64> = timed.iter().map(|r| r.wall_ms).collect();
    let per_s: Vec<f64> = wall_ms
        .iter()
        .map(|ms| spec.batch as f64 / (ms * 1e-3))
        .collect();
    let mut sheet = Sheet::new(&END_TO_END);
    sheet.set("setup_s", setup_s, args.setups());
    sheet.set_best_round("images_per_s", &per_s, true);
    sheet.set_best_round("lat_p50_ms", &wall_ms, false);
    sheet.set("peak_rss_mb", peak_rss, 1);
    Ok(outcome(
        runs.len() as u64,
        count_failed(&runs),
        BAD_BATCH,
        Vec::new(),
        sheet,
    ))
}

pub fn offline_traced(name: &str, spec: OfflineSpec, args: RunArgs) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (out, _) = with_offline_rig(spec, args.seed, 1, |mut rig| {
        let mut tracer = Tracer::new(Instant::now(), false);
        let min = (args.rounds() / 4).max(1);
        let counters = |rig: &OfflineRig<'_>| {
            (
                rig.server.executed_batches(),
                rig.server.executed_requests(),
            )
        };
        let (b0, r0) = counters(&rig);
        let (cpu0, t0) = (cpu_seconds(), Instant::now());
        let mut runs = run_batches(&mut rig, &mut tracer, 1, args.seconds / 4.0, min);
        let plain = runs.len();
        tracer.set_enabled(true);
        runs.extend(run_batches(
            &mut rig,
            &mut tracer,
            1 + plain,
            args.seconds / 4.0,
            min,
        ));
        tracer.set_enabled(false);
        let (cpu_s, wall_s) = (cpu_seconds() - cpu0, t0.elapsed().as_secs_f64());
        let (b1, r1) = counters(&rig);
        let images = (runs.len() * spec.batch) as f64;

        // Within each traced batch the last submit fired the size trigger
        // and ran the forward pass; the others only queued.
        let (mut queued_us, mut waits_ms, mut forward_ms) = (Vec::new(), Vec::new(), Vec::new());
        for root in tracer.spans.iter().filter(|s| s.name == "offline.batch") {
            let submits: Vec<_> = tracer
                .spans
                .iter()
                .filter(|s| s.parent == root.id && s.name == "serving.submit")
                .collect();
            let Some((fired, queued)) = submits.split_last() else {
                continue;
            };
            forward_ms.push(fired.ms());
            for s in queued {
                queued_us.push(s.ms() * 1e3);
                waits_ms.push((fired.start_ns - s.end_ns) as f64 / 1e6);
            }
        }

        let exec = rig.server.executor();
        let batch = rig.inputs(0);
        let engine = engine_probe(args.smoke, exec, &batch, offline_threads());
        let kernels = kernel_probe(args.smoke, spec.kernels, spec.batch, exec.kernel_variant());
        let stats = exec.graph().stats();
        let wall = |runs: &[BatchRun]| median(&runs.iter().map(|r| r.wall_ms).collect::<Vec<_>>());
        let flat = |f: fn(&BatchRun) -> &Vec<f64>| {
            runs.iter()
                .flat_map(|r| f(r).iter().copied())
                .collect::<Vec<_>>()
        };
        let (decode_ms, transform_ms) = (flat(|r| &r.decode_ms), flat(|r| &r.transform_ms));

        let mut sheet = Sheet::new(&PER_LAYER);
        sheet.set("imaging.decode_ms", median(&decode_ms), decode_ms.len());
        sheet.set(
            "imaging.decode_mpix_s",
            rig.pixels_mean / 1e6 / (median(&decode_ms) * 1e-3),
            decode_ms.len(),
        );
        sheet.set(
            "imaging.encode_ms",
            median(&rig.encode_ms),
            rig.encode_ms.len(),
        );
        sheet.set(
            "preproc.transform_ms",
            median(&transform_ms),
            transform_ms.len(),
        );
        sheet.set(
            "serving.batch_mean",
            (r1 - r0) as f64 / (b1 - b0).max(1) as f64,
            (b1 - b0) as usize,
        );
        sheet.set("serving.batches", (b1 - b0) as f64, 1);
        sheet.set("serving.queue_wait_ms", median(&waits_ms), waits_ms.len());
        sheet.set("serving.offer_us", median(&queued_us), queued_us.len());
        sheet.set("engine.forward_ms", median(&forward_ms), forward_ms.len());
        let gflops = 2.0 * stats.macs_with_attention * spec.batch as f64
            / (median(&forward_ms) * 1e-3)
            / 1e9;
        sheet.set("engine.gflops", gflops, forward_ms.len());
        set_probe_rows(
            &mut sheet,
            &rig.timings,
            &engine,
            &kernels,
            spec.kernels,
            gflops,
        );
        sheet.set("models.gmacs_per_image", stats.macs_with_attention / 1e9, 1);
        sheet.set(
            "data.render_encode_ms",
            median(&rig.render_encode_ms),
            rig.render_encode_ms.len(),
        );
        sheet.set(
            "proc.cpu_ms_per_image",
            cpu_s * 1e3 / images,
            images as usize,
        );
        sheet.set(
            "proc.cpu_util",
            cpu_s / (wall_s * hardware_threads() as f64),
            1,
        );
        let all_ms: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
        sheet.set("lat_p90_ms", quantile(&all_ms, 0.9), all_ms.len());
        sheet.set("lat_p99_ms", quantile(&all_ms, 0.99), all_ms.len());
        let ok = runs.iter().filter(|r| r.ok).count() as f64;
        sheet.set("slo_ok_share", ok / runs.len() as f64, runs.len());
        sheet.set(
            "trace.overhead_share",
            wall(&runs[plain..]) / wall(&runs[..plain]) - 1.0,
            runs.len() - plain,
        );
        if let Err(e) = tracer.write_jsonl(&trace_path(name)) {
            notes.push(format!("could not write the trace: {e}"));
        }
        outcome(
            runs.len() as u64,
            count_failed(&runs),
            BAD_BATCH,
            notes,
            sheet,
        )
    })?;
    Ok(out)
}
