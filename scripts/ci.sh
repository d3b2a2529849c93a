#!/usr/bin/env bash
# Repo CI gate: build, test, format, lint.
#
# The vendored offline crates (vendor/rand, vendor/proptest,
# vendor/criterion) are workspace members by virtue of being path
# dependencies, but they mirror upstream code and are not held to this
# repo's format/lint standards — fmt runs per first-party crate and
# clippy excludes them.

set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(
    pet pet-apps pet-baselines pet-bench pet-cli pet-core pet-firmware
    pet-fleet pet-hash pet-ident pet-obs pet-phy pet-server pet-sim
    pet-stats pet-tags
)

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --examples"
cargo build --examples

echo "==> cargo test -q"
cargo test -q

# Serial re-run: a test that races with its binary's other tests on shared
# state (a scratch directory, a process-global sink) behaves differently
# with one thread than with many, so the race fails one of the two runs
# instead of flaking silently.
echo "==> cargo test -q -- --test-threads=1"
cargo test -q -- --test-threads=1

# Benchmark build gate: perfbench (BENCHMARK.json) is a package of its own
# outside the workspace, built against the crates by path, so a change to
# an API it calls would otherwise only surface when the benchmark runs.
# Builds it and runs its unit tests (validator, digest and statistics
# checks; a few seconds once built).
echo "==> perfbench build + unit tests"
CARGO_TARGET_DIR=.bench_build cargo test --release --offline \
    --manifest-path perfbench/Cargo.toml

# Benchmark smoke: every workload BENCHMARK.json lists, end to end for 2 s.
# perfbench exits non-zero when an output check fails: a bad, missing or
# non-reproducible reply, the digest of all replies against in-process
# cores, and (monitor-churn) the bit-for-bit replay of its 10,000-tag
# requests with a 2,500-tag burst through Timeline + observe_keys.
echo "==> perfbench smoke (each BENCHMARK.json workload, 2 s)"
CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
    --manifest-path perfbench/Cargo.toml
WORKLOADS=$(awk '/"workloads"/ { on = 1 }
    on && /"name"/ { gsub(/[",]/, "", $2); print $2 }
    on && /^  \]/ { on = 0 }' BENCHMARK.json)
[[ -n "$WORKLOADS" ]] || {
    echo "perfbench smoke: no workloads found in BENCHMARK.json" >&2
    exit 1
}
for workload in $WORKLOADS; do
    .bench_build/release/perfbench --workload "$workload" --seed 1 \
        --seconds 2 --trace 0
done

# Traced smoke: --trace 1 also runs the per-layer replay, which checks
# each replayed operation (Estimator::try_run_bank for the estimate
# workloads) bit for bit against ServiceCore::execute_work on the same
# input, and fails when the layer spans cover less than 80% of the
# operations' time, or more than all of it.
echo "==> perfbench traced smoke (each BENCHMARK.json workload, 2 s)"
for workload in $WORKLOADS; do
    .bench_build/release/perfbench --workload "$workload" --seed 1 \
        --seconds 2 --trace 1
done

# Statistical conformance gate: fixed-seed empirical checks of the paper's
# (ε, δ) guarantee, the gray-node law (KS), the kernel's equivalence with
# the oracle reader over a lossy channel, and bias bounds under loss.
# Deterministic, runs in seconds.
echo "==> statistical conformance (fixed seeds)"
cargo test -q -p pet --test statistical_conformance

# SIMD lane gate: the differential fuzz + golden-trace suites run twice,
# once pinned to the scalar reference and once under runtime dispatch. The
# golden estimator bits are identical in both runs, so a wide lane that
# drifts anywhere in the pipeline fails exactly one of the two invocations.
echo "==> SIMD lane equivalence (forced scalar)"
PET_FORCE_LANE=scalar cargo test -q -p pet --test simd_equivalence
PET_FORCE_LANE=scalar cargo test -q -p pet --test kernel_equivalence
echo "==> SIMD lane equivalence (runtime dispatch)"
cargo test -q -p pet --test simd_equivalence
cargo test -q -p pet --test kernel_equivalence

# Silent-fallback gate: on an AVX2-capable host the runtime dispatcher must
# actually pick the avx2 lane — a build that quietly degrades to scalar
# (say, a broken feature detection macro or a stray PET_FORCE_LANE in the
# CI environment) is a perf regression that every test above would miss.
if grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
    echo "==> SIMD lane dispatch (host advertises avx2)"
    DETECTED=$(cargo run --release -q -p pet-cli --bin pet -- lane |
        awk '/^detected/ { print $2 }')
    if [[ "$DETECTED" != avx2 ]]; then
        echo "host cpuinfo advertises avx2 but the dispatcher detected" \
            "'$DETECTED' — silent scalar fallback" >&2
        exit 1
    fi
fi

# Streaming-conformance gate: the monitor layer must be a pure composition
# of one-shot estimates — zero-churn proptest differential against the
# oracle reader, the churn differential (key deltas vs rebuilds), the golden
# churn trace (per-update estimates + alarm-fire round, PET_BLESS=1
# re-blesses), and bit-for-bit replay. Every update's key delta is hashed
# through the lane's bulk kernel, so the suite runs under both lanes.
echo "==> streaming conformance (forced scalar)"
PET_FORCE_LANE=scalar cargo test -q -p pet --test streaming_conformance
echo "==> streaming conformance (runtime dispatch)"
cargo test -q -p pet --test streaming_conformance

# PHY-conformance gate: the Gen2 pricing layer must be a pure observer —
# the pricing-purity proptest (phy-on vs phy-off, kernel and oracle
# reader), the golden priced trace (PET_BLESS=1 re-blesses), bit-for-bit
# replay, and the trimmed-mean/hash-skew caveat pin.
echo "==> PHY conformance (pricing purity, golden priced trace)"
cargo test -q -p pet --test phy_conformance

# Serving-layer gate: the concurrency battery (lost replies, determinism,
# backpressure, deadlines, shutdown drain, and the monitor-verb
# subscription cases), the wire-protocol fuzzer (every live reply
# byte-identical to an in-process ServiceCore's), and the idle-shard test
# (an idle server parks its shards, and connections add no threads),
# followed by closed-loop smokes. Non-zero exit on any lost, malformed, or
# non-reproducible reply.
echo "==> server integration battery"
cargo test -q -p pet-server

# Loadgen determinism: one plan run twice in deterministic mode
# (--verify-deterministic checks the two runs agree), then its reply
# digest compared with the committed digest. The digest folds every reply
# byte, so a transport or service change that answers even one request
# differently fails here. The fleet smoke below holds its digest to a
# committed value too. A deliberate reply change updates LOADGEN_DIGEST or
# FLEET_DIGEST, and the CHANGELOG says so.
LOADGEN_DIGEST=0xab7acddd3efdcc36
FLEET_DIGEST=0x4ba2592119d40dd9
require_digest() {
    [[ "$2" == "$3" ]] || {
        echo "$1: digest $2, committed $3" >&2
        exit 1
    }
}
echo "==> loadgen smoke (digest must match the committed one)"
# Both smokes below append their row to one scratch ledger, which the
# perf-ledger stage reports on.
LEDGER_TMP=$(mktemp -d)
trap 'rm -rf "$LEDGER_TMP"' EXIT
CI_LEDGER="$LEDGER_TMP/ledger.jsonl"
# The output is kept in a variable rather than passed through
# `tee /dev/stderr`: with ci.sh's output redirected to a file, tee reopens
# that file through /dev/stderr, truncating it, and the log loses every
# earlier stage.
loadgen_digest() {
    local out status=0
    out=$(cargo run --release -q -p pet-cli --bin pet -- loadgen --local \
        --requests 10000 --connections 8 --threads 8 \
        --pipeline 4 --tags 200 --rounds 4 --verify-deterministic \
        --ledger "$CI_LEDGER") || status=$?
    printf '%s\n' "$out" >&2
    [[ $status -eq 0 ]] || return "$status"
    awk '/reply digest/ { d = $3 } END { print d }' <<<"$out"
}
DIGEST=$(loadgen_digest)
require_digest "loadgen smoke" "$DIGEST" "$LOADGEN_DIGEST"
echo "loadgen smoke: the committed digest ($DIGEST)"

# Connection-scale gate: one server, 10k concurrent connections
# from a separate loadgen process (each process needs its own fd budget —
# in one process the pair would need >20k descriptors). Two runs, digests
# compared by --verify-deterministic; any connect failure or lost reply is
# a non-zero exit. Skipped only when the fd limit cannot hold 10k sockets.
ulimit -n 20000 2>/dev/null || true
if [[ $(ulimit -n) -ge 10100 ]]; then
    echo "==> 10k-connection smoke"
    SMOKE_TMP=$(mktemp -d)
    cargo run --release -q -p pet-cli --bin pet -- serve \
        --addr 127.0.0.1:0 --workers 1 --queue 16384 \
        --deterministic --addr-file "$SMOKE_TMP/server.addr" \
        >"$SMOKE_TMP/server.log" 2>&1 &
    SMOKE_PID=$!
    for _ in $(seq 1 100); do
        [[ -s "$SMOKE_TMP/server.addr" ]] && break
        sleep 0.1
    done
    [[ -s "$SMOKE_TMP/server.addr" ]] || {
        echo "10k smoke server never published its address" >&2
        cat "$SMOKE_TMP/server.log" >&2
        exit 1
    }
    SMOKE_ADDR=$(cat "$SMOKE_TMP/server.addr")
    cargo run --release -q -p pet-cli --bin pet -- loadgen \
        --addr "$SMOKE_ADDR" --connections 10000 \
        --threads 8 --pipeline 2 --requests 20000 --verify-deterministic
    # Shut the server down over the wire (bash's /dev/tcp keeps this
    # dependency-free) and insist on a drained exit.
    exec 3<>"/dev/tcp/${SMOKE_ADDR%:*}/${SMOKE_ADDR##*:}"
    printf '{"id":"ci","verb":"shutdown"}\n' >&3
    IFS= read -r SMOKE_BYE <&3
    exec 3>&- 3<&-
    [[ "$SMOKE_BYE" == *'"drained":true'* ]] || {
        echo "10k smoke: shutdown reply not drained: $SMOKE_BYE" >&2
        exit 1
    }
    wait "$SMOKE_PID"
    rm -rf "$SMOKE_TMP"
    echo "10k smoke: 10k connections held, digests identical"
else
    echo "==> 10k-connection smoke SKIPPED (fd limit $(ulimit -n) < 10100)"
fi

# Fleet-layer gate: the coordinator battery (bit-for-bit equivalence with
# the simulator, fault injection, quorum loss) plus a live 3-agent smoke —
# three `pet serve` processes on ephemeral ports, one fleet session run
# twice, digests compared line-for-line and with FLEET_DIGEST, agents shut
# down over the wire.
echo "==> fleet integration battery"
cargo test -q -p pet-fleet

echo "==> fleet smoke (3 live agents, deterministic committed digest)"
PET_BIN=target/release/pet
FLEET_TMP=$(mktemp -d)
trap 'rm -rf "$LEDGER_TMP" "$FLEET_TMP"' EXIT
AGENT_PIDS=()
for i in 0 1 2; do
    "$PET_BIN" serve --addr 127.0.0.1:0 --deterministic \
        --addr-file "$FLEET_TMP/agent$i.addr" \
        >"$FLEET_TMP/agent$i.log" 2>&1 &
    AGENT_PIDS+=($!)
done
for i in 0 1 2; do
    for _ in $(seq 1 100); do
        [[ -s "$FLEET_TMP/agent$i.addr" ]] && break
        sleep 0.1
    done
    [[ -s "$FLEET_TMP/agent$i.addr" ]] || {
        echo "agent $i never published its address" >&2
        cat "$FLEET_TMP/agent$i.log" >&2
        exit 1
    }
done
AGENTS=$(cat "$FLEET_TMP"/agent{0,1,2}.addr | paste -sd, -)
fleet_run() {
    "$PET_BIN" fleet --agents "$AGENTS" --tags 2000 --rounds 16 \
        --seed 42 --quorum 2 --ledger "$CI_LEDGER" "$@"
}
fleet_run | tee "$FLEET_TMP/run1.out"
fleet_run --shutdown-agents | tee "$FLEET_TMP/run2.out"
D1=$(grep '^fleet digest' "$FLEET_TMP/run1.out")
D2=$(grep '^fleet digest' "$FLEET_TMP/run2.out")
[[ -n "$D1" && "$D1" == "$D2" ]] || {
    echo "fleet smoke: digests differ or missing: '$D1' vs '$D2'" >&2
    exit 1
}
require_digest "fleet smoke" "$(awk '{ print $4 }' <<<"$D1")" "$FLEET_DIGEST"
wait "${AGENT_PIDS[@]}"
echo "fleet smoke: reproducible ($D1)"

# Perf-ledger gate: `pet bench report` over the smokes' scratch ledger
# must find the row each live run appended — one for the loadgen smoke and
# one per fleet run — so both producers are exercised against live
# servers (the golden report rendering runs with `cargo test -q` above).
# When PET_CI_GATE=1 the regression gate also measures the fast pinned
# subset live — a quick best-of-3 kernel suite into a scratch ledger —
# and compares it against the committed ledger history at a 10% threshold
# (+ per-row noise floors). Env-guarded because wall-clock numbers from
# an arbitrarily loaded CI box are only meaningful when the operator says
# the machine is quiet(ish).
echo "==> perf ledger: report over the smokes' rows"
"$PET_BIN" bench report --ledger "$CI_LEDGER" --out "$LEDGER_TMP/report"
LOADGEN_ROWS=$(grep -c '^server-loadgen,.*,throughput_rps,' \
    "$LEDGER_TMP/report/trends.csv" || true)
FLEET_ROWS=$(grep -c '^fleet,.*,round_latency_mean_ns,' \
    "$LEDGER_TMP/report/trends.csv" || true)
[[ "$LOADGEN_ROWS" == 1 && "$FLEET_ROWS" == 2 ]] || {
    echo "perf ledger: expected 1 server-loadgen and 2 fleet rows," \
        "found $LOADGEN_ROWS and $FLEET_ROWS" >&2
    exit 1
}
echo "perf ledger: 1 server-loadgen and 2 fleet rows reported"
if [[ "${PET_CI_GATE:-0}" == "1" ]]; then
    echo "==> perf ledger: regression gate (pinned kernel subset, live)"
    GATE_TMP=$(mktemp -d)
    "$PET_BIN" bench record --suite kernel --quick --best-of 3 \
        --ledger "$GATE_TMP/ledger.jsonl"
    "$PET_BIN" bench gate --baseline results/ledger.jsonl \
        --ledger "$GATE_TMP/ledger.jsonl" --threshold 10% \
        --pin kernel:rounds_per_sec_kernel_simd \
        --verdict target/bench-gate-verdict.json
    rm -rf "$GATE_TMP"
    echo "perf ledger: gate verdict in target/bench-gate-verdict.json"
else
    echo "==> perf ledger: regression gate SKIPPED (set PET_CI_GATE=1 to run)"
fi

# Repro ledger gate: `repro --quick phy monitor` runs in a scratch
# directory (repro writes results/ under its working directory, so the
# committed results stay untouched). Every row it appends must carry a
# wall-clock timestamp, and no row may share a (bench, config) key with the
# committed ledger, or the gate would compare a reduced run with a full one.
echo "==> repro --quick phy monitor (rows stamped, keys unlike full runs)"
REPRO_TMP=$(mktemp -d)
trap 'rm -rf "$LEDGER_TMP" "$FLEET_TMP" "$REPRO_TMP"' EXIT
REPRO_BIN="$PWD/target/release/repro"
(cd "$REPRO_TMP" && "$REPRO_BIN" --quick phy monitor >/dev/null)
REPRO_LEDGER="$REPRO_TMP/results/ledger.jsonl"
ledger_keys() {
    sed -E 's/.*"bench":"([^"]*)","config":"([^"]*)".*/\1 \2/' "$1" | sort -u
}
REPRO_ROWS=$(wc -l <"$REPRO_LEDGER")
UNSTAMPED=$(grep -c '"timestamp_s":0,' "$REPRO_LEDGER" || true)
SHARED=$(comm -12 <(ledger_keys "$REPRO_LEDGER") <(ledger_keys results/ledger.jsonl))
[[ "$REPRO_ROWS" -gt 0 && "$UNSTAMPED" == 0 && -z "$SHARED" ]] || {
    echo "repro ledger: $REPRO_ROWS rows, $UNSTAMPED with timestamp_s 0;" \
        "keys shared with results/ledger.jsonl: ${SHARED:-none}" >&2
    exit 1
}
echo "repro ledger: $REPRO_ROWS rows stamped, none keyed like a committed row"

echo "==> cargo fmt --check (first-party crates)"
for crate in "${CRATES[@]}"; do
    cargo fmt -p "$crate" --check
done

echo "==> cargo clippy -D warnings (first-party crates)"
cargo clippy --workspace --all-targets \
    --exclude rand --exclude proptest --exclude criterion \
    -- -D warnings

# Rustdoc gate: a stale intra-doc link (say, to a deleted type) or public
# docs linking a private item fail here instead of rotting silently.
echo "==> cargo doc -D warnings (first-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace \
    --exclude rand --exclude proptest --exclude criterion

echo "==> ci.sh: all checks passed"
