#!/usr/bin/env bash
# CI gate for this repository. Run before sending a PR. Everything runs
# offline: the crates.io dependencies are vendored as shims under shims/.
#
#   1. fmt, clippy and rustdoc over the whole workspace, warnings as errors
#   2. name guards: the `nontest` scanner checked on a fixture, the forks
#      no file may name, and the guard table (each row says what it keeps
#      out of non-test code)
#   3. pub-surface ratchet: cross-crate-unnamed `pub` items, at most
#      PUB_UNNAMED_MAX, which a change may only lower
#   4. tier-1 (cargo build --release && cargo test -q) and the release
#      ingest and kernel suites, each at HARVEST_THREADS=1 and the host
#      default, then every workspace suite in release
#   5. artifacts: each row of artifacts/MANIFEST.tsv, regenerated with
#      --smoke at both pool widths, one process per subcommand
#   6. the repo benchmark's smoke, built from this checkout
set -euo pipefail
shopt -s extglob globstar
cd "$(dirname "$0")"

fail() {
    echo "$*"
    exit 1
}

# nontest FILE…: print `FILE:LINE: TEXT` for every line outside a column-0
# `#[cfg(test)]` item. The item runs through its column-0 `}` (rustfmt puts
# one there) or, if it has no body, through its first column-0 line ending
# in `;`. Comment lines are printed: every guard reads them.
nontest() {
    awk 'FNR == 1 { skip = 0 }
        /^#\[cfg\(test\)\]/ { skip = 1 }
        !skip { print FILENAME ":" FNR ": " $0 }
        skip && (/^}/ || /^[^[:space:]].*;[[:space:]]*$/) { skip = 0 }' "$@"
}

echo "== fmt, clippy, docs =="
cargo fmt --check
cargo clippy --offline --release --workspace --all-targets -- -D warnings
# Broken intra-doc links, ambiguous paths and links to private items fail.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace --quiet

echo "== name guards =="
fixture=$(nontest /dev/stdin <<'EOF'
pub fn before() {}
#[cfg(test)] use std::fmt;
pub fn between() {}
#[cfg(test)]
use std::io;
#[cfg(test)]
mod tests {
    pub fn hidden() {}
}
pub fn after() {}
EOF
)
[ "$fixture" = "/dev/stdin:1: pub fn before() {}
/dev/stdin:3: pub fn between() {}
/dev/stdin:10: pub fn after() {}" ] || fail "$fixture
nontest printed the fixture's test items or dropped its code"

# One f32 GEMM family, one parallel API (harvest-threads), two measuring
# harnesses (`experiments`, benchmark/), one lane-tier dispatch (gemm.rs)
# and one serving core on the wire (the pool): none may grow back.
grep -rlE 'rayon|feature = "simd"|HARVEST_TUNE|criterion|\[\[bench\]\]' \
    crates shims Cargo.toml && fail "a deleted fork is named again (see the files above)"
grep -rn 'std::arch' crates shims && fail "std::arch is back (the GEMM's lane tiers are the one dispatch)"
grep -rnE 'RealBatchServer|ServeFault' crates/net/src && fail "the wire names the offline serving core again"
# One reply path: `Conn::reply` writes and counts every wire response.
[ "$(nontest crates/net/src/server.rs | grep -c 'write_response(')" = 1 ] \
    || fail "crates/net/src/server.rs must call write_response( exactly once (Conn::reply)"

# Each row: the files (one glob), an ERE that no non-test line of them may
# match, and what a match means. `.sqrt()` and `.mul_add()` are not on the
# libm row: IEEE-754 rounds both correctly, so their bits are the same on
# every host.
while read -r files regex reason; do
    ls $files > /dev/null || fail "a guard row matches no file: $files"
    hits=$(nontest $files | grep -E -- "$regex") && fail "$hits
$reason"
done <<'EOF'
crates/@(tensor|engine)/src/*.rs \.(tanh|exp|exp2|ln)\(\)|\.powf\( libm transcendental on a forward path: its last bits vary by host (use harvest_tensor::ops::exp)
crates/tensor/src/!(gemm).rs (^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$) unsafe in harvest-tensor outside gemm.rs's lane-tier dispatcher
crates/net/src/server.rs \.(responded_ok|responded_error|rejected|shed)\.fetch_add a ledger class is bumped by name outside Conn::reply
crates/net/src/server.rs decode_auto\( the wire server calls decode_auto (its one ingest entry is decode_for)
crates/net/src/server.rs thread::sleep the wire server sleeps (it waits only on its channels and sockets)
crates/*/src/**/*.rs forward_reference|eval_reference|reference_gap|new_oracle|Queue::Heap test-only oracle code is back in the library (it lives under tests/oracle/)
crates/*/src/**/*.rs PipelineSim|run_online_faulted|run_online_protected_faulted|run_realtime_degraded|run_cluster_offline_(faulted|protected)|with_preproc_stall|with_link_degradation|push_with_arrival|poll_deadline a scenario wrapper, PipelineSim, a deleted fault kind or a batcher wrapper is back (fault and protection layers are Option arguments)
crates/engine/src/**/*.rs (^|[^A-Za-z0-9_])gemm(_bt)?\(|kxn an engine matmul packs its weight per call again (hold it as a PackedB)
crates/*/src/**/*.rs engine_batch_floor_ms|FLOOR_MS a per-batch sleep floor is back (the pool's scale-up is proven in virtual time)
crates/*/src/**/*.rs swap_guard_range_limit|set_swap_guard|swap_artifact_staged|IntegrityStateSkew|guard_pending a generation's lifecycle is kept outside WeightsCell::{load, guard, settle} again
crates/*/src/**/*.rs (^|[^A-Za-z0-9_])(DataLoader|Roofline|Timeline|Streaming|to_honx|from_honx) a feature only tests called is back (a capability counts only with a caller)
EOF

echo "== pub surface ratchet =="
# A `pub` item no other crate names is part of another item's signature or
# reached only by its own crate's tests; narrowing the rest to `pub(crate)`
# lets rustc's dead-code lint find what nothing calls. Count the non-test
# `pub` item lines of every crate but bench whose name is a word on no
# non-comment line of another crate, benchmark/src, examples/, tests/ or
# src/. Lower PUB_UNNAMED_MAX when a change lowers the count, never raise it.
PUB_UNNAMED_MAX=127
unnamed_pub=$(for c in crates/*/; do
    c=${c%/}
    [ "$c" = crates/bench ] && continue
    awk 'NR == FNR { named[$0]; next } !($NF in named)' \
        <({ find crates -name '*.rs' -not -path "$c/*"
            find benchmark/src examples tests src -name '*.rs'; } | sort \
            | xargs awk '!/^[[:space:]]*\/\//' \
            | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u) \
        <(nontest $(find "$c/src" -name '*.rs' | sort) | grep -oE \
            '^[^:]*:[0-9]+: [[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod) [A-Za-z_][A-Za-z0-9_]*')
done)
unnamed_count=$(printf '%s' "$unnamed_pub" | grep -c . || true)
echo "cross-crate-unnamed pub items: $unnamed_count (max $PUB_UNNAMED_MAX)"
[ "$unnamed_count" -le "$PUB_UNNAMED_MAX" ] || fail "$unnamed_pub
pub surface grew: narrow a new item to pub(crate), or name it from another crate"

echo "== build =="
cargo build --offline --release
# The root package does not depend on harvest-bench: build the experiments
# binary step 5 runs, or a stale one from another checkout is gated.
cargo build --offline --release -p harvest-bench

# HARVEST_THREADS=1 reproduces sequential execution exactly; the suites must
# hold there and at the host default. The ingest and kernel suites run the
# verbatim pre-rewrite oracles and whole-model forwards: release only.
for threads in 1 ""; do
    echo "== tier-1 tests, ingest and kernel suites (HARVEST_THREADS=${threads:-default}) =="
    env ${threads:+HARVEST_THREADS=$threads} cargo test --offline -q
    env ${threads:+HARVEST_THREADS=$threads} cargo test --offline --release -q -p harvest-imaging \
        -p harvest-preproc -p harvest-tensor -p harvest-data -p harvest-engine
done

echo "== workspace suites =="
cargo test --offline --release --workspace -q

echo "== artifacts (artifacts/MANIFEST.tsv) =="
# Each run asserts its own invariants (conservation, bit-identical in-process
# reruns, fingerprints equal across widths); here its output is held to the
# committed files, across processes and pool widths.
manifest() { grep -v '^#' artifacts/MANIFEST.tsv; }
diff <(ls artifacts) <(manifest | cut -f1 | sort) \
    || fail "artifacts/ and MANIFEST.tsv disagree (<: a file with no row, >: a row with no file)"
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
for threads in 1 ""; do
    for sub in $(manifest | awk -F'\t' '$3 != "recorded" && !seen[$2]++ { print $2 }'); do
        d="$out/$sub$threads"
        where="$sub --smoke, HARVEST_THREADS=${threads:-default}"
        env ${threads:+HARVEST_THREADS=$threads} ./target/release/experiments "$sub" \
            --smoke --json "$d" > /dev/null
        diff <(ls "$d") <(manifest | awk -F'\t' -v s="$sub" \
            '$2 == s && $3 != "recorded" { print $1 }' | sort) \
            || fail "$where: writes a file no row names (<) or misses one (>)"
        while IFS=$'\t' read -r file _ gate keys; do
            [ "$gate" != cmp ] || cmp "artifacts/$file" "$d/$file" \
                || fail "artifacts/$file drifted ($where)"
            for key in $keys; do
                grep -q "\"$key\"" "$d/$file" || fail "$file is missing key $key ($where)"
            done
        done < <(manifest | awk -F'\t' -v s="$sub" '$2 == s')
    done
done

echo "== benchmark smoke =="
# benchmark/ is frozen between benchmark-archetype PRs and builds against
# crates/ by path, so this also keeps the names it imports compiling.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke

echo "CI gate passed."
