#!/usr/bin/env bash
# Full CI gate for the workspace. Run from anywhere; exits non-zero on the
# first failing step. Every run also checks that `unsafe` and foreign
# declarations stay where they are allowed — the tokio shim's `sys.rs`
# (three epoll calls) and the two counting allocators in `crates/bench` —
# and that the shim's old readiness-retry constants have not come back.
# Pass --bench-smoke to also run the hot-path bench in
# smoke mode (small workloads, acceptance gates only — no timings recorded):
# it fails if a resolve call allocates, if the upload codec allocates per
# record, if a 10-min/hourly tick copies a record out of the store, or if
# the merged hourly rollup is not bit-equal to the golden rebuild-from-raw.
# The same flag then runs the pipeline benchmark's durable-ingest workload
# for 2 s, for its output checks only (every acknowledged record stored,
# the reopened store bit-equal): a codec bug that loses or corrupts a
# record fails here, and no timing is gated. Pass --chaos-smoke to also run the
# seeded end-to-end chaos drill (replica kill → collector stall → total
# controller outage → restore) under a hard wall-clock cap. Pass
# --fuzz-smoke to also run the deterministic correctness harness
# (crates/check) over a fixed 50-seed scenario corpus: every invariant
# oracle (probe conservation, CRDT laws, quantiles, SLA rows, zero-copy
# scans, data-quality SLOs) must pass and the pipeline must be run-to-run
# deterministic. The full campaign (`pingmesh-fuzz --seeds 500`) is for
# bug hunts, not the gate. Pass --scale-smoke to also run the sharded
# simulation scale bench at a 5k-server point: it writes
# target/BENCH_scale.smoke.json and fails unless the sharded engine
# reproduces the serial engine bit for bit. Pass --obs-smoke to also run the
# self-monitoring drill: a sampled trace rides every pipeline stage,
# /metrics parses with all `_total` counters monotone across scrapes,
# /healthz reports every stage, and /events drop accounting is exact.
# Pass --serve-smoke to also run the query-tier load generator in smoke
# mode: small replica/connection points against a seeded store, gating on
# cached frozen responses being byte-identical to fresh rebuilds, a ≥99%
# frozen-window cache hit rate under a live hot-window appender, zero
# transport errors, and the smoke throughput/latency floor. The full
# 100k+ req/s run (`loadgen --check`) records BENCH_serve.json and is for
# benchmarking boxes, not the gate. Pass --crash-smoke to also run the
# end-to-end crash drill: the durable collector is killed mid-append
# (torn WAL tail) and mid-compaction (orphaned checkpoint generation)
# and must recover with zero acknowledged-record loss, bit-identical
# window aggregates, and byte-identical dashboard responses. Pass
# --mitigation-smoke to also run the closed-loop auto-mitigation drills:
# the simulated drill (injected type-2 black hole → detect → drain →
# verified un-drain, with the tier-budget guard and recurrence
# escalation exercised, transition counts asserted) plus the real-socket
# drill (a Refuse toxic on a live controller replica is detected by
# live probes, drained out of the VIP rotation, and only verified back
# in by a live fetch once the toxic clears).
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_SMOKE=0
CHAOS_SMOKE=0
CRASH_SMOKE=0
FUZZ_SMOKE=0
MITIGATION_SMOKE=0
OBS_SMOKE=0
SCALE_SMOKE=0
SERVE_SMOKE=0
for arg in "$@"; do
  case "$arg" in
    --bench-smoke) BENCH_SMOKE=1 ;;
    --chaos-smoke) CHAOS_SMOKE=1 ;;
    --crash-smoke) CRASH_SMOKE=1 ;;
    --fuzz-smoke) FUZZ_SMOKE=1 ;;
    --mitigation-smoke) MITIGATION_SMOKE=1 ;;
    --obs-smoke) OBS_SMOKE=1 ;;
    --scale-smoke) SCALE_SMOKE=1 ;;
    --serve-smoke) SERVE_SMOKE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

step() { printf '\n==== %s ====\n' "$*"; }

step "cargo build --release (workspace)"
cargo build --release --workspace

step "cargo test -q (workspace)"
cargo test -q --workspace

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy -D warnings (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

step "unsafe / FFI stays in its allowed files, no readiness-retry constants"
if grep -rnE 'unsafe \{|unsafe fn|unsafe impl|extern "C"' --include='*.rs' \
    crates shims src tests \
    | grep -vE '^(shims/tokio/src/sys\.rs|crates/bench/benches/microbench\.rs|crates/bench/src/bin/hotpath\.rs):'; then
  echo "unsafe code or a foreign declaration outside the allowed files" >&2
  exit 1
fi
if grep -rnE 'READ_RETRY|ACCEPT_RETRY' --include='*.rs' crates shims src tests; then
  echo "the shim's sockets are woken by the reactor; no retry period" >&2
  exit 1
fi

if [ "$BENCH_SMOKE" = 1 ]; then
  step "hotpath bench smoke (zero-allocation resolver + codec, zero-copy tick gates)"
  cargo run --release -q -p pingmesh-bench --bin hotpath -- --smoke --check

  step "pipeline benchmark output checks (ingest_durable, 2 s, nothing timed)"
  benchmark/run.sh --workload ingest_durable --seed 1 --seconds 2 --trace 0
fi

if [ "$FUZZ_SMOKE" = 1 ]; then
  step "fuzz smoke (50 seeded scenarios, all oracles, 60 s cap)"
  timeout 60 cargo run --release -q -p pingmesh --bin pingmesh-fuzz -- \
    --seeds 50 --smoke --out target/telemetry/fuzz.json
fi

if [ "$SCALE_SMOKE" = 1 ]; then
  step "scale bench smoke (5k+ servers, sharded == serial bit-for-bit)"
  cargo run --release -q -p pingmesh-bench --bin scale -- --smoke --check
fi

if [ "$SERVE_SMOKE" = 1 ]; then
  step "serve smoke (byte-identical cache, ≥99% frozen hit rate, p99 gate)"
  timeout 180 cargo run --release -q -p pingmesh-bench --bin loadgen -- --smoke --check
fi

if [ "$OBS_SMOKE" = 1 ]; then
  step "obs smoke (trace lifecycle, scrape monotonicity, drop accounting)"
  timeout 120 cargo test --release -q --test obs_smoke
fi

if [ "$CRASH_SMOKE" = 1 ]; then
  step "crash drill smoke (kill mid-append + mid-compaction, zero acked loss)"
  timeout 120 cargo test --release -q --test crash_drill
fi

if [ "$MITIGATION_SMOKE" = 1 ]; then
  step "mitigation drill smoke (detect → drain → verify → un-drain, sim + live)"
  timeout 120 cargo test --release -q -p pingmesh-core --test mitigation_drill
  timeout 120 cargo test --release -q -p pingmesh-realmode --lib mitigate::
fi

if [ "$CHAOS_SMOKE" = 1 ]; then
  step "chaos drill smoke (seeded, 120 s wall-clock cap)"
  # The drill itself asserts a 60 s budget; the outer timeout is the
  # backstop against a hang the in-test deadlines somehow miss.
  timeout 120 cargo test --release -q --test chaos_drill
fi

printf '\nCI gate passed.\n'
