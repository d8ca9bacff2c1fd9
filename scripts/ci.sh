#!/usr/bin/env bash
# CI gate; exits non-zero at the first failing step. `ci.sh` builds,
# runs `cargo test` over the whole workspace (which includes the obs,
# crash, chaos and mitigation drills and the allocation gates), checks fmt,
# clippy and rustdoc, and checks that `unsafe` / FFI stays in its allowed files,
# that every HTTP server loop is `httpx::serve`, that raw records are
# read through `scan_all_window_chunks` only (outages live in the simulator),
# that fsyncs and renames stay in `dsa::durable`, and that the collector
# neither checkpoints nor group-commits: the durability loop is
# `dsa::compactor`'s. No map under crates/ takes an unkeyed
# `BuildHasherDefault`: maps keyed by uploaded ids use the keyed fold hasher.
# The simulator isolates switches only in its one actuator and reloads
# them only through the repair service's budget, under one flag.
# `ci.sh --smoke [gate…]` then runs the gates `cargo test` does not cover —
# all, or those named. Each checks outputs; none is a timing gate.
#   bench  ingest_durable, query_dashboard and query_churn for 2 s each (output checks only: no acknowledged record lost, cached bytes ≡ rebuilt bytes, no stale fresh read), then ingest_durable traced once (its staged replay is the one poster of the collector's JSON compat branch)
#   fuzz   50 seeded scenarios through every crates/check oracle, run-to-run deterministic, 60 s cap
#   scale  5k-server point: the sharded engine reproduces the serial engine bit for bit (bytes/server printed), then sim_mesh for 2 s (output checks only)
set -euo pipefail
cd "$(dirname "$0")/.."

GATES="bench fuzz scale"
selected=""
if [ $# -gt 0 ]; then
  case "$1" in
    --smoke) shift; selected="${*:-$GATES}" ;;
    *) echo "usage: ci.sh [--smoke [gate…]]   gates: $GATES" >&2; exit 2 ;;
  esac
fi
for gate in $selected; do
  case " $GATES " in
    *" $gate "*) ;;
    *) echo "unknown gate: $gate (gates: $GATES)" >&2; exit 2 ;;
  esac
done
want() { case " $selected " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

step() { printf '\n==== %s ====\n' "$*"; }

step "cargo build --release (workspace)"
cargo build --release --workspace

step "cargo test -q (workspace)"
cargo test -q --workspace

step "cargo fmt --check"
cargo fmt --check

step "cargo clippy -D warnings (workspace, all targets)"
cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc -D warnings (workspace libraries: no broken or private links)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib

step "unsafe / FFI stays in its allowed files, no readiness-retry constants"
if grep -rnE 'unsafe \{|unsafe fn|unsafe impl|extern "C"' --include='*.rs' \
    crates shims src tests \
    | grep -vE '^(shims/tokio/src/sys\.rs|crates/httpx/tests/call\.rs|crates/agent/tests/record_path_allocs\.rs|tests/hot_path_allocs\.rs):'; then
  echo "unsafe code or a foreign declaration outside the allowed files" >&2
  exit 1
fi
if grep -rnE 'READ_RETRY|ACCEPT_RETRY' --include='*.rs' crates shims src tests; then
  echo "the shim's sockets are woken by the reactor; no retry period" >&2
  exit 1
fi

if grep -rnE '\.read_request\b|queue_response|fn handle_conn' --include='*.rs' \
    crates src tests examples \
    | grep -vE '^(crates/httpx/|crates/realmode/src/chaos\.rs:)'; then
  echo "servers go through httpx::serve" >&2
  exit 1
fi

if grep -rnE '\.scan_window\(|\.scan_all_window\(|scan_window_chunks|collect_window_records|record_copy_count|extent_scan_stats|add_down_window' \
    --include='*.rs' \
    crates/dsa crates/core crates/check crates/serve crates/realmode crates/bench src tests examples; then
  echo "raw records are read through scan_all_window_chunks; outages belong to the simulator" >&2
  exit 1
fi

if grep -rnE 'sync_data\(|sync_all\(|fs::rename\(' --include='*.rs' \
    crates shims src tests examples \
    | grep -vE '^crates/dsa/src/durable\.rs:'; then
  echo "fsyncs and renames belong to dsa::durable, which runs them in a checkpoint's unlocked phase" >&2
  exit 1
fi
if grep -rnE '\.sync_wal\(|\.checkpoint\(|\.maybe_checkpoint_with\(|\.commit_checkpoint\(' --include='*.rs' crates/realmode/src; then
  echo "the collector never checkpoints or syncs the WAL: dsa::compactor::Compactor does, holding the store lock for no disk IO" >&2
  exit 1
fi
if grep -rnE 'GROUP_COMMIT|COMPACTOR_POLL|BACKLOG_WAIT|park_timeout|Condvar|checkpoint_shared|sync_wal_shared' --include='*.rs' crates/realmode/src; then
  echo "the durability loop is dsa's (dsa::compactor): the collector holds no group-commit, checkpoint or backpressure policy" >&2
  exit 1
fi

if grep -rn 'BuildHasherDefault' --include='*.rs' crates; then
  echo "maps keyed by uploaded ids use the keyed fold hasher" >&2
  exit 1
fi

# The simulator touches the fabric in two places only: the orchestrator's
# `actuate` (drains) and `RepairService::request_reload` (the §5.1 budget).
if awk 'FNR == 1 { f = "" }
        match($0, /fn [a-z_0-9]+/) { f = substr($0, RSTART + 3, RLENGTH - 3) }
        /isolate_switch\(|reload_switch\(/ && f != "actuate" && f != "request_reload" {
          print FILENAME ":" FNR ": " $0; bad = 1 }
        END { exit !bad }' $(find crates/core/src -name '*.rs'); then
  echo "switches are isolated only by the orchestrator's actuator and reloaded only by RepairService::request_reload" >&2
  exit 1
fi
if grep -rnE 'auto_repair|isolate_for_rma|isolation_log' --include='*.rs' crates src tests examples; then
  echo "one switch (auto_mitigate) gates every actuation; the mitigation engine's transitions are the one drain log" >&2
  exit 1
fi

if want bench; then
  for workload in ingest_durable query_dashboard query_churn; do
    step "pipeline benchmark output checks ($workload, 2 s, nothing timed)"
    benchmark/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0
  done
  step "pipeline benchmark traced run (ingest_durable, 2 s: the JSON upload compat branch)"
  benchmark/run.sh --workload ingest_durable --seed 1 --seconds 2 --trace 1
fi

if want fuzz; then
  step "fuzz smoke (50 seeded scenarios, all oracles, 60 s cap)"
  timeout 60 cargo run --release -q -p pingmesh --bin pingmesh-fuzz -- \
    --seeds 50 --smoke --out target/telemetry/fuzz.json
fi

if want scale; then
  step "scale bench smoke (5k+ servers, sharded == serial bit-for-bit)"
  cargo run --release -q -p pingmesh-bench --bin scale -- --smoke --check

  step "pipeline benchmark output checks (sim_mesh, 2 s, nothing timed)"
  benchmark/run.sh --workload sim_mesh --seed 1 --seconds 2 --trace 0
fi

printf '\nCI gate passed.\n'
