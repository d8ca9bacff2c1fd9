#!/usr/bin/env bash
# Builds the benchmark (offline, into its own target directory unless
# CARGO_TARGET_DIR says otherwise) and runs it. See README.md.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
export PMBENCH_HOME="$here"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "${CARGO_TARGET_DIR:-$here/target}/release/pmbench" "$@"
