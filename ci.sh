#!/usr/bin/env bash
# CI gate for this repository. Run before sending a PR.
#
#   1. formatting        cargo fmt --check
#   2. lints             cargo clippy -D warnings (core crates of this stack)
#                        and rustdoc over the whole workspace with warnings
#                        promoted to errors (public-API docs can't rot)
#  2b. no libm           non-test code of harvest-tensor and harvest-engine calls
#                        no libm transcendental: logits bits must depend on
#                        this repo's code, not on the host's glibc (`mul_add`
#                        is exact by IEEE-754 and is the GEMM's accumulate)
#  2c. no forks          no second parallel API, kernel feature, tuner knob or
#                        third measuring harness (Criterion benches) under
#                        crates/, shims/ or the root manifest; no `std::arch`
#                        under crates/ or shims/, and no `unsafe` in non-test
#                        harvest-tensor code outside gemm.rs; the wire names
#                        no second serving core (`RealBatchServer`,
#                        `ServeFault`) and its server writes and counts every
#                        response in one function (one `write_response` call,
#                        no ledger class bumped by name) and has one ingest
#                        entry (`decode_for`, never `decode_auto`); no
#                        oracle in the library: non-test crates/*/src
#                        names neither the seed reference forward nor the
#                        seed heap queue, which live under tests/oracle/;
#                        weights laid out once: non-test crates/engine/src
#                        calls neither `gemm(` nor `gemm_bt(` and names no
#                        `kxn`, so every engine matmul reads a `PackedB`
#                        one driver per simulated scenario: non-test
#                        crates/*/src names no `PipelineSim`, no wrapper
#                        entry point (`run_online_faulted`,
#                        `run_online_protected_faulted`,
#                        `run_realtime_degraded`,
#                        `run_cluster_offline_{faulted,protected}`: fault and
#                        protection layers are `Option` arguments), no
#                        stall or link fault kind (`with_preproc_stall`,
#                        `with_link_degradation`) and no batcher wrapper
#                        (`push_with_arrival`, `poll_deadline`); no gate on
#                        a wall clock: non-test crates/*/src names no
#                        per-batch sleep floor (`engine_batch_floor_ms`,
#                        `FLOOR_MS`) and the wire server never calls
#                        `thread::sleep`; one weight-generation contract:
#                        non-test crates/*/src names no second sentinel
#                        knob (`swap_guard_range_limit`, `set_swap_guard`),
#                        no second swap entry (`swap_artifact_staged`), no
#                        hand-kept guard flag (`guard_pending`) and no
#                        integrity skew fault (`IntegrityStateSkew`): the
#                        lifecycle is `WeightsCell::{load, guard, settle}`
#   3. tier-1 tests      cargo build --release && cargo test -q, run twice:
#                        once with the harvest-threads pool forced sequential
#                        (HARVEST_THREADS=1) and once at the host default
#  3b. ingest suites     cargo test --release over harvest-imaging, -preproc,
#                        -tensor, -data and -engine: the codec, transform
#                        and kernel bit-identity suites against the
#                        pre-rewrite oracles, the engine's whole-model
#                        batch-size × pool-width suite, the corrupt-stream
#                        sweeps and the proptests, which tier-1 (root package
#                        only) does not reach; run at HARVEST_THREADS=1 and
#                        the host default
#  3c. workspace suites  cargo test --release --workspace: every crate's unit,
#                        integration and property suites (http_fuzz,
#                        wire_integration, calendar_diff, the serving
#                        proptests, the experiments CLI contract, ...) that no
#                        step above reaches
#   4. overload smoke    experiments overload --smoke + artifact drift check
#  4b. paper artifacts   the 17 artifacts of the paper's tables, figures and
#                        extension studies, regenerated with --smoke at
#                        HARVEST_THREADS=1 and the host default and `cmp`ed
#                        against artifacts/: a change that moves a reproduced
#                        figure has to commit the new artifact
#   5. integrity smoke   experiments integrity --smoke + schema/drift/determinism
#   6. bench smoke       experiments bench --smoke + schema/determinism check,
#                        with fingerprints gated against the committed
#                        artifacts/BENCH_fingerprints.txt baseline at both
#                        HARVEST_THREADS=1 and the host default
#   7. wire smoke        experiments wire --smoke: fixed-seed socket-chaos
#                        loadgen against the live HTTP front-end; schema
#                        check, drift vs artifacts/wire.json, and a
#                        byte-identical cross-process rerun
#   8. swap smoke        experiments swap --smoke: ≥100 hot swaps per
#                        scenario under live traffic across the artifact-
#                        chaos grid (corrupt/truncate/crash/poison); schema
#                        check, drift vs artifacts/swap.json, and a
#                        byte-identical cross-process rerun
#   9. serve smoke       experiments serve --smoke: the data-parallel engine
#                        pool at widths 1/2/4/8 — width-invariant wire
#                        fingerprints, ≥10x steady-state allocation cut, and
#                        the vit96 curve recorded with host_threads (never
#                        asserted; the pool's scale-up is proven in virtual
#                        time by harvest-net's pool tests in step 3c);
#                        schema check, drift vs artifacts/serve_scale.json,
#                        and a byte-identical cross-process rerun
#  10. fleet smoke       experiments fleet --smoke: the sharded calendar-
#                        queue simulator at worker widths 1/2/4/8; schema
#                        check, drift vs artifacts/fleet.json, and a
#                        byte-identical cross-process rerun
#  11. benchmark smoke   the repo benchmark (benchmark/, its own workspace)
#                        built from this checkout and run with --smoke:
#                        schema plus the in-run correctness checks of all
#                        five workloads, and the proof that the frozen
#                        crate still compiles against the tensor/engine API
#
# Everything runs offline: the crates.io dependencies are vendored as
# API-compatible shims under shims/, wired via workspace path deps.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --check

echo "== clippy =="
cargo clippy --offline --release \
    -p harvest-simkit -p harvest-serving -p harvest-core -p harvest-bench \
    -p harvest -p harvest-perf -p harvest-models \
    -p harvest-engine -p harvest-tensor -p harvest-imaging \
    -p harvest-threads -p harvest-net -p harvest-preproc -p harvest-data \
    --all-targets -- -D warnings

echo "== docs =="
# Broken intra-doc links, ambiguous paths, and links to private items are
# errors: the public-API docs must keep building clean.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

echo "== no libm on a forward path =="
# `tanhf`, `expf`, `exp2f`, `logf` and `powf` differ in their last bits from
# one libm to the next, so a call on the forward path ties the committed
# fingerprints to the host. `harvest_tensor::ops::exp` is the replacement.
# `.sqrt()` and `.mul_add()` stay: IEEE-754 defines both as correctly
# rounded, so the GEMM's fused chain has the same bits as one instruction
# (AVX2 / AVX-512 tiers) and as libm's `fmaf` (baseline tier), on any host.
# Each file is read up to its unit-test module, comments skipped.
libm_calls=$(for f in crates/tensor/src/*.rs crates/engine/src/*.rs; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /\.(tanh|exp|exp2|ln)\(\)|\.powf\(/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$libm_calls" ]; then
    echo "$libm_calls"
    echo "libm transcendental on a forward path (use harvest_tensor::ops::exp)"
    exit 1
fi

echo "== one GEMM family, one parallel API, two measuring harnesses =="
# The tree has one f32 GEMM family (harvest_tensor::gemm), one parallel
# API (harvest-threads) and two measuring harnesses (`experiments` and
# benchmark/); a file that names the vendored iterator shim, the kernel
# feature, the tuner's env var, the Criterion shim or a `[[bench]]` target
# is one of them growing back.
if grep -rlE 'rayon|feature = "simd"|HARVEST_TUNE|criterion|\[\[bench\]\]' \
    crates shims Cargo.toml; then
    echo "a deleted fork is named again (see the files above)"
    exit 1
fi
# The one instruction-set dispatcher is `at_lane_tier` in gemm.rs: the INT8
# GEMM runs through it as exact integers, so no intrinsic kernel and no
# other `unsafe` belongs in the tensor crate.
if grep -rn 'std::arch' crates shims; then
    echo "std::arch is back (the f32 GEMM's lane tiers are the one dispatch)"
    exit 1
fi
tensor_unsafe=$(for f in crates/tensor/src/*.rs; do
    [ "$f" = crates/tensor/src/gemm.rs ] && continue
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$tensor_unsafe" ]; then
    echo "$tensor_unsafe"
    echo "unsafe in harvest-tensor outside gemm.rs's lane-tier dispatcher"
    exit 1
fi
# The wire serves through the pool alone; its degraded rung is a bare
# `Executor` on the coordinator, not a second batching core.
if grep -rnE 'RealBatchServer|ServeFault' crates/net/src; then
    echo "the wire names the offline serving core again"
    exit 1
fi
# One reply path: every response the wire server sends is written and
# counted by one function (`Conn::reply`), so the ledger cannot drift from
# the bytes: one `write_response` call, and no ledger class bumped by name.
reply_path=$(awk '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /write_response\(/ { w++ }
    /\.(responded_ok|responded_error|rejected|shed)\.fetch_add/ { b++ }
    END { print w + 0, b + 0 }' crates/net/src/server.rs)
if [ "$reply_path" != "1 0" ]; then
    echo "crates/net/src/server.rs: $reply_path (write_response calls, named ledger bumps; want 1 0)"
    exit 1
fi
# One ingest entry: the server decodes a body with `decode_for`, which
# produces only the rows its preprocessing reads, never with the full
# `decode_auto` beside it.
full_decode=$(awk '/^#\[cfg\(test\)\]/ { exit }
    /^[[:space:]]*\/\// { next }
    /decode_auto\(/ { print FILENAME ":" FNR ": " $0 }' crates/net/src/server.rs)
if [ -n "$full_decode" ]; then
    echo "$full_decode"
    echo "the wire server calls decode_auto (its ingest entry is decode_for)"
    exit 1
fi

# No oracle in the library: the seed per-image forward and the seed
# `BinaryHeap` event queue live under crates/*/tests/oracle/, and the
# integrity cross-check runs against a clean executor, so no non-test
# source names them.
oracle_names=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /forward_reference|eval_reference|reference_gap|new_oracle|Queue::Heap/ {
            print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$oracle_names" ]; then
    echo "$oracle_names"
    echo "test-only oracle code is back in the library (it lives under tests/oracle/)"
    exit 1
fi

# One driver per simulated scenario: the fault and protection layers are
# arguments of `run_online`, `run_online_protected`, `run_realtime` and
# `run_cluster_offline`, each driver holds a `Sim` and a `PipelineCore`
# itself, the batcher is driven through `offer` / `poll` alone, and the
# fault plan has no kind that no experiment injects.
scenario_forks=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /PipelineSim|run_online_faulted|run_online_protected_faulted|run_realtime_degraded|run_cluster_offline_(faulted|protected)|with_preproc_stall|with_link_degradation|push_with_arrival|poll_deadline/ {
            print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$scenario_forks" ]; then
    echo "$scenario_forks"
    echo "a scenario wrapper, PipelineSim, a deleted fault kind or a batcher wrapper is back"
    exit 1
fi

# Weights laid out once: every engine matmul reads its B from the panels
# packed when the weights were materialized (`PackedB`, through
# `PanelSource::Packed`), so non-test engine code calls neither `gemm(` nor
# `gemm_bt(` — both pack B again on every call — and holds no `kxn` copy
# of a weight beside its panels.
per_call_pack=$(find crates/engine/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /^[[:space:]]*\/\// { next }
        /(^|[^A-Za-z0-9_])gemm(_bt)?\(|kxn/ { print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$per_call_pack" ]; then
    echo "$per_call_pack"
    echo "an engine matmul packs its weight per call again (hold it as a PackedB)"
    exit 1
fi

# No gate on a wall clock: the pool's scale-up is proven in virtual time
# (crates/net/src/pool.rs), so no worker sleeps out a per-batch floor, no
# config field or experiment constant sets one, and the wire server waits
# only on its channels and sockets.
sleep_floor=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /engine_batch_floor_ms|FLOOR_MS/ ||
        (f == "crates/net/src/server.rs" && /thread::sleep/) {
            print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$sleep_floor" ]; then
    echo "$sleep_floor"
    echo "a per-batch sleep floor is back (scale-up is proven in virtual time)"
    exit 1
fi

# One weight-generation contract: `WeightsCell` loads, guards and settles a
# generation for both batching cores, with the swap sentinel as one private
# constant. A config field or setter for the sentinel, a second swap entry,
# a flag that mirrors the cell's freshness, or a fault for an integrity
# state the code cannot express is the lifecycle being written out by hand
# again.
generation_forks=$(find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v f="$f" '/^#\[cfg\(test\)\]/ { exit }
        /swap_guard_range_limit|set_swap_guard|swap_artifact_staged|IntegrityStateSkew|guard_pending/ {
            print f ":" FNR ": " $0 }' "$f"
done)
if [ -n "$generation_forks" ]; then
    echo "$generation_forks"
    echo "a generation's lifecycle is kept outside WeightsCell again"
    exit 1
fi

echo "== tier-1: build =="
cargo build --offline --release
# The root package does not depend on harvest-bench, so the experiments
# binary the smoke gates below run must be built explicitly — otherwise a
# stale binary from a previous checkout could be gated instead of the code
# under review.
cargo build --offline --release -p harvest-bench

echo "== tier-1: tests (sequential pool) =="
# HARVEST_THREADS=1 reproduces the pre-pool sequential execution exactly —
# the suite must hold there, not just at the host's default width.
HARVEST_THREADS=1 cargo test --offline -q

echo "== tier-1: tests (default pool) =="
cargo test --offline -q

echo "== ingest and kernel suites (imaging, preproc, tensor, data, engine) =="
# Release build: the equivalence suites decode and re-encode 512² images
# through the verbatim pre-rewrite codec, and the engine's width suite
# runs whole ResNet50 and ViT-Small forwards, which a debug build makes slow.
HARVEST_THREADS=1 cargo test --offline --release -q \
    -p harvest-imaging -p harvest-preproc -p harvest-tensor -p harvest-data \
    -p harvest-engine
cargo test --offline --release -q \
    -p harvest-imaging -p harvest-preproc -p harvest-tensor -p harvest-data \
    -p harvest-engine

echo "== workspace suites =="
cargo test --offline --release --workspace -q

echo "== overload smoke =="
# The smoke run asserts conservation and bit-identical reruns internally;
# the diff catches silent drift of the committed artifact.
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/experiments overload --smoke --json "$smoke_dir"
diff artifacts/overload.json "$smoke_dir/overload.json" \
    || { echo "artifacts/overload.json drifted from the code"; exit 1; }

echo "== paper artifacts =="
# Every table, figure and extension study the paper's reproduction commits,
# regenerated and compared byte for byte, at both pool widths.
paper="table1 table2 table3 fig4 fig5 fig6 fig7 fig8 energy continuum scaling
    cluster resilience ablations"
for threads in 1 ""; do
    out="$smoke_dir/paper$threads"
    mkdir -p "$out"
    env ${threads:+HARVEST_THREADS=$threads} ./target/release/experiments $paper \
        --smoke --json "$out" > /dev/null
    count=$(ls "$out" | wc -l)
    [ "$count" = 17 ] || { echo "paper artifacts: $count files, want 17"; exit 1; }
    for f in "$out"/*.json; do
        cmp "artifacts/$(basename "$f")" "$f" || {
            echo "artifacts/$(basename "$f") drifted (HARVEST_THREADS=${threads:-default})"
            exit 1
        }
    done
done

echo "== integrity smoke =="
# The run itself asserts per-cell conservation, escaped == 0 under the full
# detector ladder, escaped > 0 unguarded, and a bit-identical in-process
# rerun. Here we gate the artifact schema, drift vs the committed copy, and
# cross-process determinism by running twice.
./target/release/experiments integrity --smoke --json "$smoke_dir"
for key in detect_tol escape_tol cells detectors injected_weight_flips \
    detected recovered quarantined escaped conserved; do
    grep -q "\"$key\"" "$smoke_dir/integrity.json" \
        || { echo "integrity.json missing key: $key"; exit 1; }
done
diff artifacts/integrity.json "$smoke_dir/integrity.json" \
    || { echo "artifacts/integrity.json drifted from the code"; exit 1; }
cp "$smoke_dir/integrity.json" "$smoke_dir/integrity.run1.json"
./target/release/experiments integrity --smoke --json "$smoke_dir"
diff "$smoke_dir/integrity.run1.json" "$smoke_dir/integrity.json" \
    || { echo "integrity sweep is not deterministic across runs"; exit 1; }

echo "== bench smoke =="
# Reduced-size kernel + model benches: the run itself asserts batched logits
# match the one-image-at-a-time, one-thread baseline (< 1e-4 rel), that
# reruns are bit-identical,
# and that the thread-scaling sweep's fingerprints agree at every pool
# width. Here we gate the BENCH.json schema and pin the model fingerprints
# against the committed baseline — at the host's default pool width AND
# with the pool forced sequential, in one stroke proving determinism,
# thread-invariance, and that the kernels still compute the seed's bits.
./target/release/experiments bench --smoke --json "$smoke_dir"
for key in kernels models speedup logits_fingerprint rel_err_vs_reference \
    imgs_per_s_batched achieved_gflops peak_live_f32 \
    host_threads thread_scaling_kernels thread_scaling_models speedup_vs_1 \
    event_core events_per_sec speedup_vs_heap \
    gelu_ns_per_elem softmax_ns_per_elem layernorm_ns_per_elem; do
    grep -q "\"$key\"" "$smoke_dir/BENCH.json" \
        || { echo "BENCH.json missing key: $key"; exit 1; }
done
grep -o '"logits_fingerprint": "[0-9a-f]*"' "$smoke_dir/BENCH.json" \
    | sort -u > "$smoke_dir/fp_default"
diff artifacts/BENCH_fingerprints.txt "$smoke_dir/fp_default" \
    || { echo "bench fingerprints drifted from the committed baseline"; exit 1; }
HARVEST_THREADS=1 ./target/release/experiments bench --smoke --json "$smoke_dir"
grep -o '"logits_fingerprint": "[0-9a-f]*"' "$smoke_dir/BENCH.json" \
    | sort -u > "$smoke_dir/fp_seq"
diff artifacts/BENCH_fingerprints.txt "$smoke_dir/fp_seq" \
    || { echo "bench fingerprints depend on the pool width"; exit 1; }

echo "== wire smoke =="
# Chaos loadgen against the live socket front-end. The run itself asserts
# client- and server-side outcome conservation in every scenario (clean,
# seeded chaos, drain) plus a bit-identical in-process rerun per scenario.
# Here we gate the deterministic ledger's schema, drift vs the committed
# artifact, cross-process determinism, and the latency artifact's schema
# (latencies are wall-clock, so only their shape is gated).
./target/release/experiments wire --smoke --json "$smoke_dir"
for key in scenarios fates sent cut responded statuses classes lost dup \
    client_errors fingerprint accepted responded_ok rejected shed \
    bad_requests incomplete timeouts threads_joined; do
    grep -q "\"$key\"" "$smoke_dir/wire.json" \
        || { echo "wire.json missing key: $key"; exit 1; }
done
for key in scenario p50_ms p99_ms buckets_ms histogram; do
    grep -q "\"$key\"" "$smoke_dir/wire_latency.json" \
        || { echo "wire_latency.json missing key: $key"; exit 1; }
done
diff artifacts/wire.json "$smoke_dir/wire.json" \
    || { echo "artifacts/wire.json drifted from the code"; exit 1; }
cp "$smoke_dir/wire.json" "$smoke_dir/wire.run1.json"
./target/release/experiments wire --smoke --json "$smoke_dir"
diff "$smoke_dir/wire.run1.json" "$smoke_dir/wire.json" \
    || { echo "wire ledger is not deterministic across processes"; exit 1; }

echo "== swap smoke =="
# Hot-swap sweep: 120 swap attempts per scenario interleaved with live
# traffic across the seeded artifact-chaos grid. The run itself asserts
# conservation + exactly-once completion, load-gate rejection of every
# damaged artifact, rollback + quarantine of every poisoned generation
# with zero escapes, and a bit-identical in-process rerun per scenario.
# Here we gate the ledger schema, drift vs the committed artifact,
# cross-process determinism, and the latency artifact's schema (the
# verify+publish latencies are wall-clock, so only their shape is gated).
./target/release/experiments swap --smoke --json "$smoke_dir"
for key in scenario swaps_attempted fates clean corrupt truncate crash \
    poison published rejected_loads rollbacks quarantined final_generation \
    requests submitted completed shed rejected lost dup escaped conserved \
    fingerprint; do
    grep -q "\"$key\"" "$smoke_dir/swap.json" \
        || { echo "swap.json missing key: $key"; exit 1; }
done
for key in scenario p50_us p99_us max_us; do
    grep -q "\"$key\"" "$smoke_dir/swap_latency.json" \
        || { echo "swap_latency.json missing key: $key"; exit 1; }
done
diff artifacts/swap.json "$smoke_dir/swap.json" \
    || { echo "artifacts/swap.json drifted from the code"; exit 1; }
cp "$smoke_dir/swap.json" "$smoke_dir/swap.run1.json"
./target/release/experiments swap --smoke --json "$smoke_dir"
diff "$smoke_dir/swap.run1.json" "$smoke_dir/swap.json" \
    || { echo "swap ledger is not deterministic across processes"; exit 1; }

echo "== serve smoke =="
# Data-parallel engine pool. The run itself asserts bit-identical wire
# fingerprints at widths 1/2/4/8 plus a width-8 replay and a ≥10x
# steady-state allocation reduction via the counting global allocator; the
# pool's scale-up is asserted in virtual time by harvest-net's pool tests,
# not here. Here we gate the deterministic ledger's schema, drift vs the
# committed artifact, cross-process determinism, and the throughput
# artifact's schema (the vit96 curve is wall-clock, so only its shape is
# gated).
./target/release/experiments serve --smoke --json "$smoke_dir"
for key in widths width requests responded statuses classes fingerprint \
    server_responded_ok width_invariant replay_identical; do
    grep -q "\"$key\"" "$smoke_dir/serve_scale.json" \
        || { echo "serve_scale.json missing key: $key"; exit 1; }
done
for key in elapsed_ms requests_per_s real_forward_curve speedup_over_w1 \
    host_threads allocations baseline_per_request steady_per_request ratio; do
    grep -q "\"$key\"" "$smoke_dir/serve_throughput.json" \
        || { echo "serve_throughput.json missing key: $key"; exit 1; }
done
diff artifacts/serve_scale.json "$smoke_dir/serve_scale.json" \
    || { echo "artifacts/serve_scale.json drifted from the code"; exit 1; }
cp "$smoke_dir/serve_scale.json" "$smoke_dir/serve_scale.run1.json"
./target/release/experiments serve --smoke --json "$smoke_dir"
diff "$smoke_dir/serve_scale.run1.json" "$smoke_dir/serve_scale.json" \
    || { echo "serve ledger is not deterministic across processes"; exit 1; }

echo "== fleet smoke =="
# Sharded fleet simulation on the calendar-queue core. The run itself
# asserts XOR-ledger conservation at every worker width, bit-identical
# fingerprints across widths 1/2/4/8, and a width-1 replay. Here we gate
# the artifact schema, drift vs the committed copy, and cross-process
# determinism by running twice. (The committed fleet_full.json is the
# million-user sweep — same code path, too slow for this gate.)
./target/release/experiments fleet --smoke --json "$smoke_dir"
for key in users regions days lookahead_ms runs shards threads submitted \
    completed good shed rejected forwarded failures trips goodput p99_ms \
    mean_ms imbalance busy_wh idle_wh mj_per_image windows messages events \
    conserved fingerprint region forwarded_out forwarded_in total_wh; do
    grep -q "\"$key\"" "$smoke_dir/fleet.json" \
        || { echo "fleet.json missing key: $key"; exit 1; }
done
diff artifacts/fleet.json "$smoke_dir/fleet.json" \
    || { echo "artifacts/fleet.json drifted from the code"; exit 1; }
cp "$smoke_dir/fleet.json" "$smoke_dir/fleet.run1.json"
./target/release/experiments fleet --smoke --json "$smoke_dir"
diff "$smoke_dir/fleet.run1.json" "$smoke_dir/fleet.json" \
    || { echo "fleet sweep is not deterministic across processes"; exit 1; }

echo "== benchmark smoke =="
# benchmark/ is frozen between benchmark-archetype PRs and builds against
# crates/ by path, so this is also what keeps the five names it imports
# (KernelVariant, gemm_v, conv2d_v, multi_head_attention_v,
# Executor::kernel_variant) compiling.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "CI gate passed."
