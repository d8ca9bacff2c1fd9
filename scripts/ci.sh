#!/usr/bin/env bash
# CI gate; exits non-zero at the first failing step. `ci.sh` builds,
# runs `cargo test` over the whole workspace (which includes the obs,
# crash, chaos and mitigation drills and the allocation gates), checks fmt,
# clippy and rustdoc, and checks that `unsafe` / FFI stays in its allowed files,
# that the tokio shim's reactor and timer modules start no thread of their
# own, that every HTTP server loop is `httpx::serve`, that raw records are
# read through `scan_all_window_chunks` only (outages live in the simulator),
# that fsyncs and renames stay in `dsa::durable`, and that the collector
# neither checkpoints nor group-commits: the durability loop is
# `dsa::compactor`'s. No map under crates/ takes an unkeyed
# `BuildHasherDefault`: maps keyed by uploaded ids use the keyed fold hasher.
# The simulator isolates switches only in its one actuator and reloads
# them only through the repair service's budget, under one flag. Every
# simulated packet draws from a keyed RNG: no struct holds a `SmallRng`
# stream, and the stream probe and hop APIs stay gone. The real agent
# probes on the fleet's due rings: no probe rounds, no round interval.
# Netsim keys no hash map by switch: per-hop counters are a dense
# per-tier array. Every `pub fn` is named outside its own file or is on a
# short allowlist with a reason: no dead, file-local or test-only `pub`.
# `ci.sh --smoke [gate…]` then runs the gates `cargo test` does not cover —
# all, or those named. Each checks outputs; none is a timing gate.
#   bench  ingest_durable, query_dashboard and query_churn for 2 s each (output checks only: no acknowledged record lost, cached bytes ≡ rebuilt bytes, no stale fresh read), then ingest_durable traced once (its staged replay is the one poster of the collector's JSON compat branch)
#   fuzz   50 seeded scenarios through every crates/check oracle, run-to-run deterministic, 60 s cap
#   scale  5k-server point: the sharded engine reproduces the serial engine bit for bit and the serial digest equals BENCH_scale.json's (bytes/server printed), then sim_mesh for 2 s (output checks only)
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
    | grep -vE '^(shims/tokio/src/sys\.rs|crates/httpx/tests/call\.rs|crates/agent/tests/record_path_allocs\.rs|crates/dsa/tests/tick_allocs\.rs|tests/hot_path_allocs\.rs):'; then
  echo "unsafe code or a foreign declaration outside the allowed files" >&2
  exit 1
fi
if grep -rnE 'READ_RETRY|ACCEPT_RETRY' --include='*.rs' crates shims src tests; then
  echo "the shim's sockets are woken by the reactor; no retry period" >&2
  exit 1
fi

if grep -nE 'thread::spawn|thread::Builder' shims/tokio/src/reactor.rs shims/tokio/src/timer.rs; then
  echo "the worker pool drives epoll and timers; a readiness event runs on the thread that harvested it" >&2
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
if grep -rnE 'probe_qos|switch_passes|^[[:space:]]*(pub(\([a-z]+\))? )?[a-z_][a-z_0-9]*: SmallRng\b' \
    --include='*.rs' crates src tests examples; then
  echo "every simulated packet draws from a keyed RNG (NetState::probe_keyed, tcp_traceroute); no sequential stream" >&2
  exit 1
fi

if grep -rnE 'probe_round_once|round_interval|round-secs|round_secs' --include='*.rs' crates src tests examples; then
  echo "the real agent probes on the fleet's due rings" >&2
  exit 1
fi

if grep -rn 'HashMap<SwitchId' --include='*.rs' crates/netsim/src; then
  echo "netsim hashes no switch id: a packet's hop indexes the dense per-tier CounterDelta" >&2
  exit 1
fi

# Every `pub fn` is named by some other file (a caller, a re-export or a
# test in another crate), or it is on this allowlist, one name and reason
# a line. A helper only its own file calls is private; a hook only its own
# tests call is not a production API. Names are matched as words, so a
# method counts as used wherever any type's method of that name is.
PUB_FN_ALLOWLIST='
serve_addrs  LocalCluster: the only way to reach the query-tier replicas ClusterOptions::serve_replicas starts; its test dials them over real sockets
'
pub_fns=$(grep -rnoE '^[[:space:]]*pub fn [a-z_][a-z_0-9]*' --include='*.rs' crates/*/src src \
  | sed -E 's/:[0-9]+:[[:space:]]*pub fn /\t/' | sort -u)
pub_fn_uses=$(cut -f2 <<<"$pub_fns" | sort -u \
  | grep -rowF --include='*.rs' -f - crates src tests examples benchmark/src | sort -u)
if awk -F'\t' -v allow="$PUB_FN_ALLOWLIST" '
     BEGIN { n = split(allow, lines, "\n")
             for (i = 1; i <= n; i++) { split(lines[i], w, " "); if (w[1] != "") ok[w[1]] = 1 } }
     FNR == NR { i = index($0, ":"); files[substr($0, i + 1)] = files[substr($0, i + 1)] " " substr($0, 1, i - 1); next }
     !($2 in ok) { m = split(files[$2], fs, " "); other = 0
                   for (j = 1; j <= m; j++) if (fs[j] != $1) other = 1
                   if (!other) { print $1 ": pub fn " $2; bad = 1 } }
     END { exit !bad }' <(printf '%s\n' "$pub_fn_uses") <(printf '%s\n' "$pub_fns"); then
  echo "no other file names these: delete them or drop the pub (or allowlist one, with a reason, in scripts/ci.sh)" >&2
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
  step "scale bench smoke (5k+ servers, sharded == serial == BENCH_scale.json bit-for-bit)"
  cargo run --release -q -p pingmesh-bench --bin scale -- --smoke --check

  step "pipeline benchmark output checks (sim_mesh, 2 s, nothing timed)"
  benchmark/run.sh --workload sim_mesh --seed 1 --seconds 2 --trace 0
fi

printf '\nCI gate passed.\n'
